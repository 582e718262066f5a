#!/bin/sh
# Chaos smoke test: the fault-injection story end to end.
#   1. Crash (abort) and ENOSPC mid-save via PTI_FAILPOINTS must leave
#      the destination index byte-identical to the previous version.
#   2. kill -9 the serving daemon under load, restart it on the same
#      port: a loadgen run with --retry rides out the outage and
#      finishes with every reply verified.
#   3. Malformed serve flags and retired index formats exit 2.
# Exits non-zero on any violated invariant.
set -eu

PTI=_build/default/bin/pti.exe
[ -x "$PTI" ] || { echo "chaos-smoke: build bin/pti.exe first (dune build bin/pti.exe)" >&2; exit 1; }

DIR=$(mktemp -d "${TMPDIR:-/tmp}/pti-chaos-smoke.XXXXXX")
SERVER_PID=""
LOADGEN_PID=""
cleanup() {
    for pid in "$SERVER_PID" "$LOADGEN_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "chaos-smoke: workdir $DIR"

# ------------------------------------------------------------------
# Crash-safe saves: 6000 positions make a multi-chunk (~1.9 MB)
# container, so the 5th/3rd write really lands mid-stream.

"$PTI" gen --total 6000 --theta 0.3 --seed 7 -o "$DIR/data.txt"
"$PTI" build -i "$DIR/data.txt" -o "$DIR/idx.pti"
cp "$DIR/idx.pti" "$DIR/baseline.pti"

# Process aborts (as by kill -9) in the middle of the container stream.
rc=0
PTI_FAILPOINTS="storage.write:abort@5" \
    "$PTI" build -i "$DIR/data.txt" -o "$DIR/idx.pti" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: abort failpoint: expected exit 70, got $rc" >&2; exit 1; }
cmp -s "$DIR/idx.pti" "$DIR/baseline.pti" || { echo "chaos-smoke: index changed across an aborted save" >&2; exit 1; }
"$PTI" stats "$DIR/idx.pti" >/dev/null || { echo "chaos-smoke: index unreadable after aborted save" >&2; exit 1; }
echo "chaos-smoke: abort mid-save left the old index byte-identical"

# ENOSPC mid-stream: the failed save must clean up its temp file too.
rc=0
PTI_FAILPOINTS="storage.write:enospc@3" \
    "$PTI" build -i "$DIR/data.txt" -o "$DIR/idx.pti" >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || { echo "chaos-smoke: ENOSPC failpoint: build should have failed" >&2; exit 1; }
cmp -s "$DIR/idx.pti" "$DIR/baseline.pti" || { echo "chaos-smoke: index changed across a failed save" >&2; exit 1; }
echo "chaos-smoke: ENOSPC mid-save left the old index byte-identical"

# The succinct backend writes a different section set (FM/wavelet/rank
# directories); its save must follow the same crash-safe rename
# discipline.
"$PTI" build -i "$DIR/data.txt" --backend succinct -o "$DIR/succ.pti"
cp "$DIR/succ.pti" "$DIR/succ-baseline.pti"
rc=0
PTI_FAILPOINTS="storage.write:abort@3" \
    "$PTI" build -i "$DIR/data.txt" --backend succinct -o "$DIR/succ.pti" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: succinct abort failpoint: expected exit 70, got $rc" >&2; exit 1; }
cmp -s "$DIR/succ.pti" "$DIR/succ-baseline.pti" || { echo "chaos-smoke: succinct index changed across an aborted save" >&2; exit 1; }
"$PTI" stats "$DIR/succ.pti" | grep -q "backend:    succinct" \
    || { echo "chaos-smoke: succinct index unreadable after aborted save" >&2; exit 1; }
echo "chaos-smoke: aborted succinct save left the old index byte-identical"

# ------------------------------------------------------------------
# kill -9 the daemon under load; --retry rides out the restart.

start_server() { # $1 = port (0 = ephemeral)
    "$PTI" serve "$DIR/idx.pti" --port "$1" --workers 2 --queue-cap 256 \
        >> "$DIR/serve.log" 2>&1 &
    SERVER_PID=$!
}

wait_port() {
    PORT=""
    i=0
    while [ $i -lt 100 ]; do
        PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$DIR/serve.log" | tail -n 1)
        [ -n "$PORT" ] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "chaos-smoke: server died:" >&2; cat "$DIR/serve.log" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "chaos-smoke: server never reported a port" >&2
    cat "$DIR/serve.log" >&2
    exit 1
}

start_server 0
wait_port
echo "chaos-smoke: server up on port $PORT (pid $SERVER_PID)"

# Enough requests to straddle the kill/restart below (the daemon
# sustains >20k req/s on this dataset, so the run takes O(seconds));
# generous retry budget so every client survives the outage.
"$PTI" loadgen -i "$DIR/data.txt" --port "$PORT" \
    --concurrency 4 --requests 20000 --mix query=8,topk=2 \
    --retry 20 --backoff-ms 50 \
    --verify "$DIR/idx.pti" --check > "$DIR/loadgen.log" 2>&1 &
LOADGEN_PID=$!

sleep 0.2
kill -KILL "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "chaos-smoke: daemon killed -9 under load, restarting on port $PORT"
start_server "$PORT"

rc=0
wait "$LOADGEN_PID" || rc=$?
LOADGEN_PID=""
if [ "$rc" -ne 0 ]; then
    echo "chaos-smoke: loadgen failed across the daemon restart (exit $rc):" >&2
    cat "$DIR/loadgen.log" >&2
    exit 1
fi
grep -q "retries:" "$DIR/loadgen.log" || { echo "chaos-smoke: loadgen never retried — kill/restart not exercised?" >&2; cat "$DIR/loadgen.log" >&2; exit 1; }
echo "chaos-smoke: loadgen rode out the restart with every reply verified"

# Clean SIGTERM drain of the restarted daemon.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# ------------------------------------------------------------------
# Dynamic corpus (DESIGN.md §15): seal and compaction commit through
# the same tmp+fsync+rename discipline, segment files first and the
# manifest last. An abort mid-seal or mid-manifest-rename must leave
# the previous generation fully intact — MANIFEST byte-identical — and
# the directory must keep serving that generation with byte-for-byte
# verified replies.

CORP="$DIR/corpus"
"$PTI" gen --total 2000 --theta 0.3 --seed 11 --docs -o "$DIR/corpus-docs.txt"
"$PTI" gen --total 1000 --theta 0.3 --seed 12 --docs -o "$DIR/corpus-docs2.txt"
"$PTI" corpus init "$CORP" --memtable-max 0
"$PTI" corpus insert "$CORP" -i "$DIR/corpus-docs.txt" > /dev/null
"$PTI" corpus insert "$CORP" -i "$DIR/corpus-docs2.txt" > /dev/null
cp "$CORP/MANIFEST" "$DIR/manifest.baseline"

# Abort mid-seal: the crash lands inside the new segment's container
# stream, before any rename — no segment joins the directory and the
# manifest is untouched.
rc=0
PTI_FAILPOINTS="storage.write:abort@1" \
    "$PTI" corpus insert "$CORP" -i "$DIR/corpus-docs2.txt" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: corpus abort mid-seal: expected exit 70, got $rc" >&2; exit 1; }
cmp -s "$CORP/MANIFEST" "$DIR/manifest.baseline" || { echo "chaos-smoke: MANIFEST changed across an aborted seal" >&2; exit 1; }
echo "chaos-smoke: abort mid-seal left the manifest byte-identical"

# Abort mid-manifest-rename during compaction: the merged segment is
# already renamed into place (rename hit 1 — now an orphan), but the
# generation flip — the manifest rename, hit 2 — aborts. The old
# MANIFEST must survive byte-identical, still referencing the input
# segments (compaction unlinks them only after the commit).
rc=0
PTI_FAILPOINTS="storage.rename:abort@2" \
    "$PTI" corpus compact "$CORP" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: corpus abort mid-manifest-rename: expected exit 70, got $rc" >&2; exit 1; }
cmp -s "$CORP/MANIFEST" "$DIR/manifest.baseline" || { echo "chaos-smoke: MANIFEST changed across an aborted compaction" >&2; exit 1; }
echo "chaos-smoke: abort mid-manifest-rename left the manifest byte-identical"

# The old generation still serves: every reply byte-for-byte verified
# against a direct read-only query of the same directory (background
# compaction off, so the daemon serves exactly the committed layout).
"$PTI" serve --corpus "$CORP" --port 0 --workers 2 --queue-cap 256 \
    --compact-interval-ms 0 > "$DIR/corpus-serve.log" 2>&1 &
SERVER_PID=$!
i=0
PORT=""
while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$DIR/corpus-serve.log")
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "chaos-smoke: corpus server died:" >&2; cat "$DIR/corpus-serve.log" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$PORT" ] || { echo "chaos-smoke: corpus server never reported a port" >&2; cat "$DIR/corpus-serve.log" >&2; exit 1; }
"$PTI" loadgen -i "$DIR/corpus-docs.txt" --port "$PORT" \
    --concurrency 4 --requests 500 --mix query=8,topk=2 \
    --verify "$CORP" --check
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "chaos-smoke: old generation served byte-identical after both aborts"

# A clean compaction must still succeed after the aborted one (the
# orphan .pti segment the abort left behind is swept by the commit;
# a *.tmp.<pid> file from the aborted seal may remain as inert debris
# — it could belong to a live writer, so the sweep never touches it)
# and leave exactly one live segment container.
"$PTI" corpus compact "$CORP" 2>/dev/null
cmp -s "$CORP/MANIFEST" "$DIR/manifest.baseline" && { echo "chaos-smoke: compaction after the aborts committed nothing" >&2; exit 1; }
segs=$(ls "$CORP" | grep -c '^seg-.*\.pti$') || true
[ "$segs" -eq 1 ] || { echo "chaos-smoke: expected 1 segment container after full compaction, found $segs" >&2; exit 1; }
"$PTI" corpus stats "$CORP" --json | grep -q '"segments":1' \
    || { echo "chaos-smoke: corpus stats disagree after compaction" >&2; exit 1; }
echo "chaos-smoke: compaction recovered cleanly after the aborted attempts"

# ------------------------------------------------------------------
# Write-ahead log (DESIGN.md §15): an acknowledged insert survives a
# crash before the seal, a torn tail is truncated (never misparsed),
# and a crash during replay itself loses nothing.

WCORP="$DIR/wal-corpus"
"$PTI" corpus init "$WCORP" --memtable-max 0 --wal-sync always

# Abort on the 3rd WAL append: exactly the first two documents of the
# batch were acknowledged and logged; recovery must surface exactly
# those two, replay-pending in the memtable.
rc=0
PTI_FAILPOINTS="wal.append:abort@3" \
    "$PTI" corpus insert "$WCORP" -i "$DIR/corpus-docs.txt" --wal-sync always \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: abort mid-append: expected exit 70, got $rc" >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"wal_records":2' \
    || { echo "chaos-smoke: expected exactly 2 recovered WAL records" >&2; "$PTI" corpus stats "$WCORP" --json >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"memtable_docs":2' \
    || { echo "chaos-smoke: recovered WAL records did not rebuild the memtable" >&2; exit 1; }
echo "chaos-smoke: abort mid-append recovered exactly the acked inserts"

# A torn tail — half a record, as a crash mid-write(2) would leave —
# must be truncated by the next writable open, keeping every complete
# record before it.
WAL=$(ls "$WCORP" | grep '^wal-.*\.log$' | head -n 1)
printf 'torn-garbage' >> "$WCORP/$WAL"
"$PTI" corpus flush "$WCORP" --wal-sync always 2>/dev/null \
    || { echo "chaos-smoke: writable open failed to truncate a torn tail" >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"wal_records":0' \
    || { echo "chaos-smoke: seal did not retire the WAL" >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"live_docs":2' \
    || { echo "chaos-smoke: torn-tail recovery lost or invented documents" >&2; exit 1; }
echo "chaos-smoke: torn tail truncated, both recovered docs sealed"

# Abort mid-replay: dying while scanning the log is just another
# crash — the next open replays the same records.
rc=0
PTI_FAILPOINTS="wal.append:abort@3" \
    "$PTI" corpus insert "$WCORP" -i "$DIR/corpus-docs2.txt" --wal-sync always \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: second abort mid-append: expected exit 70, got $rc" >&2; exit 1; }
rc=0
PTI_FAILPOINTS="wal.replay:abort@2" \
    "$PTI" corpus stats "$WCORP" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 70 ] || { echo "chaos-smoke: abort mid-replay: expected exit 70, got $rc" >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"wal_records":2' \
    || { echo "chaos-smoke: records lost across an aborted replay" >&2; exit 1; }
echo "chaos-smoke: abort mid-replay lost nothing"

# ------------------------------------------------------------------
# Scrub: an injected bit-flip in a live segment is detected, the
# segment is quarantined through a manifest commit, and a compaction
# rewrite restores a clean corpus.

"$PTI" corpus flush "$WCORP" --wal-sync always 2>/dev/null
SEG=$(ls "$WCORP" | grep '^seg-.*\.pti$' | head -n 1)
SIZE=$(wc -c < "$WCORP/$SEG")
OFF=$((SIZE / 2))
printf 'XXXXXXXXXXXXXXXX' | dd of="$WCORP/$SEG" bs=1 seek="$OFF" conv=notrunc 2>/dev/null
rc=0
"$PTI" corpus scrub "$WCORP" > "$DIR/scrub.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "chaos-smoke: scrub over damage should exit 1, got $rc" >&2; cat "$DIR/scrub.log" >&2; exit 1; }
grep -q "1 quarantined" "$DIR/scrub.log" \
    || { echo "chaos-smoke: scrub did not quarantine the damaged segment" >&2; cat "$DIR/scrub.log" >&2; exit 1; }
[ -f "$WCORP/quarantine/$SEG" ] \
    || { echo "chaos-smoke: damaged segment not moved into quarantine/" >&2; exit 1; }
"$PTI" corpus stats "$WCORP" --json | grep -q '"degraded_segments":1' \
    || { echo "chaos-smoke: degradation not visible in stats" >&2; exit 1; }
"$PTI" corpus compact "$WCORP" 2>/dev/null
"$PTI" corpus stats "$WCORP" --json | grep -q '"degraded_segments":0' \
    || { echo "chaos-smoke: compaction did not clear the degradation" >&2; exit 1; }
"$PTI" corpus scrub "$WCORP" > /dev/null 2>&1 \
    || { echo "chaos-smoke: repaired corpus should scrub clean" >&2; exit 1; }
echo "chaos-smoke: bit-flip quarantined, compaction restored a clean corpus"

# ------------------------------------------------------------------
# Flag validation: malformed serve knobs must exit 2 up front, never
# reach runtime.

for bad in "--compact-interval-ms=-1" "--warmup-ms=-1" "--batch-max=0" \
           "--wal-sync=sometimes" "--scrub-interval-ms=-5" "--scrub-mb-s=-1"; do
    rc=0
    "$PTI" serve "$DIR/idx.pti" --port 0 "$bad" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "chaos-smoke: serve $bad should exit 2, got $rc" >&2; exit 1; }
done
echo "chaos-smoke: malformed serve flags rejected with exit 2"

# A file of a retired format (here a bare ENGINE-3 header) is refused
# with exit 2 and one line that says to rebuild it, by every command
# that opens an index.
printf 'PTI-ENGINE-3\n\000\000\000' > "$DIR/old.pti"
for cmd in "stats $DIR/old.pti" "query --load $DIR/old.pti -p A --tau 0.3"; do
    rc=0
    # shellcheck disable=SC2086
    "$PTI" $cmd > "$DIR/old.log" 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "chaos-smoke: pti $cmd on a retired format should exit 2, got $rc" >&2; cat "$DIR/old.log" >&2; exit 1; }
    [ "$(wc -l < "$DIR/old.log")" -eq 1 ] && grep -q rebuild "$DIR/old.log" \
        || { echo "chaos-smoke: pti $cmd: expected one line saying to rebuild" >&2; cat "$DIR/old.log" >&2; exit 1; }
done
echo "chaos-smoke: retired index formats refused with exit 2"

echo "chaos-smoke: OK"
