.PHONY: check check-par bench bench-par bench-io bench-space bench-frontier bench-serve bench-multicore bench-hotpath bench-lsm serve-smoke perfbench-smoke chaos-smoke fault-matrix clean

check:
	dune build @all
	dune runtest

# Re-run the whole test suite with the domain pool actually engaged.
check-par:
	PTI_DOMAINS=4 dune runtest --force

bench:
	dune exec bench/main.exe

bench-par:
	dune exec bench/main.exe -- par

# Persistence: save time, file size and mmap open-to-first-query
# latency of the packed container; writes BENCH_IO.json.
bench-io:
	dune exec bench/main.exe -- io

# Space–latency frontier: packed vs succinct PTI-ENGINE-4 containers
# (words/position, open time, query latency on the same workload,
# every succinct answer verified against the packed twin); writes
# BENCH_SPACE.json. bench-frontier is the same experiment under its
# frontier alias.
bench-space:
	dune exec bench/main.exe -- space

bench-frontier:
	dune exec bench/main.exe -- frontier

# Serving: loadgen against the TCP daemon — heap vs mmap engines at
# concurrency 1/8/64 plus the workers x concurrency multicore sweep;
# writes BENCH_SERVE.json (every reply verified byte-for-byte, with
# affinity_cores/raw_processor_count so single-core numbers are not
# mistaken for scaling).
bench-serve:
	dune exec bench/main.exe -- serve

# Just the multicore scaling sweep (workers 1/2/4/8 x concurrency
# 1/8/64/256, mmap backend, verified replies); rewrites the "multicore"
# rows of BENCH_SERVE.json and keeps the rest of the file.
bench-multicore:
	dune exec bench/main.exe -- multicore

# Just the zero-allocation/result-cache profile: a repetitive
# pattern-pool workload at concurrency 8 against packed and succinct
# mmap containers — one row with the result cache off, a cold + hot
# pair with it on — every reply verified byte-for-byte and each row
# recording the server's minor-heap words per request next to the
# baseline measured before buffer pooling; rewrites the "hotpath" block of
# BENCH_SERVE.json and keeps the rest of the file (bench-serve
# includes them too).
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# Dynamic corpus (DESIGN.md §15): scatter-gather query latency as the
# same document set is cut into 1/2/4/8 sealed segments (every cut
# verified to answer the workload equivalently) plus the throughput of
# force-compacting the 8-segment corpus back to one; each row carries
# peak_rss_bytes so the sweep doubles as the space-amortisation
# profile. Writes BENCH_LSM.json.
bench-lsm:
	dune exec bench/main.exe -- lsm

# End-to-end daemon smoke: gen -> build -> serve -> loadgen --check.
serve-smoke:
	dune build bin/pti.exe
	scripts/serve_smoke.sh

# Benchmark smoke: both workloads BENCHMARK.json lists, on the small
# --smoke input for 2 s each. Every reply is checked against a direct
# query; a mismatch or a failed operation exits non-zero.
perfbench-smoke:
	python3 perfbench/run.py --workload static-fresh --seed 1 --seconds 2 --trace 0 --smoke
	python3 perfbench/run.py --workload static-hot --seed 1 --seconds 2 --trace 0 --smoke

# Fault-injection smoke: abort/ENOSPC mid-save leave the old index
# byte-identical; kill -9 under load + restart is absorbed by
# loadgen --retry with every reply verified; WAL crash/replay/torn-tail
# recovery; scrub quarantine + read-repair; serve flag validation.
chaos-smoke:
	dune build bin/pti.exe
	scripts/chaos_smoke.sh

# Seeded probabilistic fault matrix: @p:P:SEED triggers across every
# storage.* and wal.* failpoint while the corpus CLI churns; the
# corpus must come out undegraded and scrub-clean.
# Override: FAULT_MATRIX_SEED / FAULT_MATRIX_P / FAULT_MATRIX_ROUNDS.
fault-matrix:
	dune build bin/pti.exe
	scripts/fault_matrix.sh

clean:
	dune clean
