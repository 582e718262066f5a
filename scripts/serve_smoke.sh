#!/bin/sh
# End-to-end smoke test of the serving pipeline:
#   pti gen -> pti build (general + listing) -> pti serve (background,
#   ephemeral port) -> pti loadgen --check -> clean shutdown.
# Exits non-zero if any request fails, any response is dropped, or the
# server does not come up / shut down cleanly.
set -eu

PTI=_build/default/bin/pti.exe
[ -x "$PTI" ] || { echo "serve-smoke: build bin/pti.exe first (dune build bin/pti.exe)" >&2; exit 1; }

DIR=$(mktemp -d "${TMPDIR:-/tmp}/pti-serve-smoke.XXXXXX")
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -TERM "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: workdir $DIR"

"$PTI" gen --total 3000 --theta 0.3 --seed 7 -o "$DIR/data.txt"
"$PTI" build -i "$DIR/data.txt" -o "$DIR/general.pti"
"$PTI" build -i "$DIR/data.txt" --docs -o "$DIR/listing.pti"
"$PTI" build -i "$DIR/data.txt" --backend succinct -o "$DIR/succinct.pti"
"$PTI" stats "$DIR/succinct.pti" | grep -q "backend:    succinct" \
    || { echo "serve-smoke: stats does not report the succinct backend" >&2; exit 1; }

# Ephemeral port: the server prints the bound port on its first line.
# Index 2 is the succinct-backend container, served mmap'd.
# start_server LOGFILE [extra serve flags...]
start_server() {
    LOG=$1; shift
    "$PTI" serve "$DIR/general.pti" "$DIR/listing.pti" "$DIR/succinct.pti" \
        --port 0 --workers 2 --queue-cap 256 "$@" > "$LOG" 2>&1 &
    SERVER_PID=$!
    PORT=""
    i=0
    while [ $i -lt 100 ]; do
        PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$LOG")
        [ -n "$PORT" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died:" >&2; cat "$LOG" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$PORT" ] || { echo "serve-smoke: server never reported a port" >&2; cat "$LOG" >&2; exit 1; }
    echo "serve-smoke: server up on port $PORT (pid $SERVER_PID)"
}

# Phase 1: result cache enabled (the default; made explicit here).
start_server "$DIR/serve.log" --result-cache-mb 32

# Mixed binary-protocol load at concurrency 8; --verify loads the same
# index files locally and checks every reply byte-for-byte against a
# direct engine query; --check exits 1 on any error reply, protocol
# failure, or verification failure.
"$PTI" loadgen -i "$DIR/data.txt" --port "$PORT" \
    --concurrency 8 --requests 200 --mix query=8,topk=1,listing=1 \
    --listing-index 1 \
    --verify "$DIR/general.pti" --verify "$DIR/listing.pti" \
    --verify "$DIR/succinct.pti" --check

# Same load against the succinct container: every reply must be
# byte-identical to a direct query of the mapped FM-backed engine.
"$PTI" loadgen -i "$DIR/data.txt" --port "$PORT" \
    --concurrency 8 --requests 200 --mix query=8,topk=1 --index 2 \
    --verify "$DIR/general.pti" --verify "$DIR/listing.pti" \
    --verify "$DIR/succinct.pti" --check

# Replay the first run verbatim, twice. The per-client streams are
# deterministic, and the result cache admits a key on its second
# sighting: the first replay fills the cache, the second is served
# from cached bodies. Every reply of both — the filling ones and the
# cached hits — must still verify byte-for-byte against a direct
# engine query.
for replay in fill hit; do
    echo "serve-smoke: replay ($replay)"
    "$PTI" loadgen -i "$DIR/data.txt" --port "$PORT" \
        --concurrency 8 --requests 200 --mix query=8,topk=1,listing=1 \
        --listing-index 1 \
        --verify "$DIR/general.pti" --verify "$DIR/listing.pti" \
        --verify "$DIR/succinct.pti" --check
done

# The stats dump hook (SIGUSR1) must not kill the server, and must
# report the result cache that just served the replay.
kill -USR1 "$SERVER_PID"
sleep 0.3
kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died on SIGUSR1" >&2; exit 1; }
grep -q '"requests"' "$DIR/serve.log" || { echo "serve-smoke: no stats dump after SIGUSR1" >&2; cat "$DIR/serve.log" >&2; exit 1; }
grep -q '"result_cache"' "$DIR/serve.log" || { echo "serve-smoke: no result_cache stats in dump" >&2; cat "$DIR/serve.log" >&2; exit 1; }
# ... and that the replays hit it: a dump reporting zero hits means
# the cached-body path went unchecked.
grep -q '"result_cache":{"hits":[1-9]' "$DIR/serve.log" \
    || { echo "serve-smoke: the replays never hit the result cache" >&2; cat "$DIR/serve.log" >&2; exit 1; }

# Clean shutdown on SIGTERM.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Phase 2: the same verified load with the result cache disabled —
# cache on and cache off must both pass byte-for-byte verification.
start_server "$DIR/serve_nocache.log" --no-result-cache

"$PTI" loadgen -i "$DIR/data.txt" --port "$PORT" \
    --concurrency 8 --requests 200 --mix query=8,topk=1,listing=1 \
    --listing-index 1 \
    --verify "$DIR/general.pti" --verify "$DIR/listing.pti" \
    --verify "$DIR/succinct.pti" --check

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Phase 3: dynamic corpus (DESIGN.md §15) — init/insert/delete a
# segment directory, serve it live next to the file-backed indexes,
# verify every reply byte-for-byte against a direct read-only query of
# the same directory, compact it from the outside, SIGHUP the daemon
# to pick the new generation up, and verify again.
CORP="$DIR/corpus"
"$PTI" gen --total 2000 --theta 0.3 --seed 8 --docs -o "$DIR/corpus-docs.txt"
"$PTI" corpus init "$CORP" --memtable-max 0
"$PTI" corpus insert "$CORP" -i "$DIR/corpus-docs.txt" > "$DIR/corpus-ids.txt"
"$PTI" corpus insert "$CORP" -i "$DIR/corpus-docs.txt" >> "$DIR/corpus-ids.txt"
# tombstone one sealed document; the commit bumps the generation
FIRST_ID=$(head -n 1 "$DIR/corpus-ids.txt")
"$PTI" corpus delete "$CORP" --id "$FIRST_ID"

# machine-readable stats: pti stats --json on a corpus directory and
# on a plain container must both emit one-line JSON
"$PTI" stats "$CORP" --json | grep -q '"segments":2' \
    || { echo "serve-smoke: corpus stats --json missing segments" >&2; exit 1; }
"$PTI" stats "$CORP" --json | grep -q '"tombstones":1' \
    || { echo "serve-smoke: corpus stats --json missing the tombstone" >&2; exit 1; }
"$PTI" stats "$DIR/general.pti" --json | grep -q '"sections":\[' \
    || { echo "serve-smoke: container stats --json missing sections" >&2; exit 1; }

# the corpus rides behind the file-backed indexes, so it is index 3;
# background compaction off so the served layout stays the committed one
start_server "$DIR/serve_corpus.log" --corpus "$CORP" --compact-interval-ms 0

run_corpus_load() {
    "$PTI" loadgen -i "$DIR/corpus-docs.txt" --port "$PORT" \
        --concurrency 4 --requests 200 --mix query=8,topk=2 --index 3 \
        --verify "$DIR/general.pti" --verify "$DIR/listing.pti" \
        --verify "$DIR/succinct.pti" --verify "$CORP" --check
}
run_corpus_load

# compact from outside the daemon (2 segments -> 1, retiring the
# tombstone), then SIGHUP: the daemon must reload the manifest and
# serve the new generation — verified byte-for-byte again
"$PTI" corpus compact "$CORP"
"$PTI" stats "$CORP" --json | grep -q '"segments":1' \
    || { echo "serve-smoke: external compaction did not commit" >&2; exit 1; }
kill -HUP "$SERVER_PID"
sleep 0.5
kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve-smoke: server died on SIGHUP" >&2; cat "$DIR/serve_corpus.log" >&2; exit 1; }
run_corpus_load

# the SIGUSR1 dump must now include the per-corpus stats block
kill -USR1 "$SERVER_PID"
sleep 0.3
grep -q '"corpora"' "$DIR/serve_corpus.log" \
    || { echo "serve-smoke: no corpora block in the stats dump" >&2; cat "$DIR/serve_corpus.log" >&2; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "serve-smoke: corpus phase OK (insert -> serve -> external compact -> SIGHUP -> verified)"

echo "serve-smoke: OK"
