#!/bin/sh
# Seeded probabilistic fault matrix (DESIGN.md §11 and §15): every
# storage.* and wal.* failpoint armed with a deterministic @p:P:SEED
# trigger while a corpus churns through the CLI. Individual commands
# are EXPECTED to fail under the storm — the invariant is that the
# corpus never corrupts: once the faults are gone, the directory must
# open, scrub clean, seal and compact with zero data errors. The run
# also fails unless the churn really ran under faults (at least one
# insert and one flush succeeded) and every failed command exited
# with a typed error (exit 3 on an injected I/O error), never an
# uncaught exception.
#
#   scripts/fault_matrix.sh [SEED] [P] [ROUNDS]
#
# Env overrides: FAULT_MATRIX_SEED, FAULT_MATRIX_P,
# FAULT_MATRIX_ROUNDS, FAULT_MATRIX_LOG_DIR (kept for artifact upload;
# defaults to a temp dir that is removed on exit).
set -eu

SEED="${FAULT_MATRIX_SEED:-${1:-1}}"
PROB="${FAULT_MATRIX_P:-${2:-0.05}}"
ROUNDS="${FAULT_MATRIX_ROUNDS:-${3:-40}}"
LOG_DIR="${FAULT_MATRIX_LOG_DIR:-}"

PTI=_build/default/bin/pti.exe
[ -x "$PTI" ] || { echo "fault-matrix: build bin/pti.exe first (dune build bin/pti.exe)" >&2; exit 1; }

DIR=$(mktemp -d "${TMPDIR:-/tmp}/pti-fault-matrix.XXXXXX")
[ -n "$LOG_DIR" ] || LOG_DIR="$DIR/logs"
mkdir -p "$LOG_DIR"
LOG="$LOG_DIR/fault-matrix-seed$SEED.log"
: > "$LOG"
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT INT TERM

# One failpoint per fragile syscall family, each on its own seeded
# stream, re-seeded every round (R = SEED * 1000 + round) so that the
# rounds draw different faults while a run stays reproducible from
# (SEED, P) alone. With one seed for every round, each process drew
# the same stream: the first wal.fsync fault left records in the log,
# and from then on the same wal.replay draw failed every open, so no
# later round reached insert, flush or compact. The wal.* failpoints
# are hit once per record (an insert appends and fsyncs one record per
# document, an open replays every logged record), so they fire at
# P / 4 per record: a 20-document insert or a 20-record replay still
# fails with probability about 5 * P.
spec() {
    R=$((SEED * 1000 + $1))
    PW=$(awk "BEGIN { print $PROB / 4 }")
    echo "storage.write:enospc@p:$PROB:$R,storage.fsync:eintr@p:$PROB:$((R + 1)),storage.rename:eio@p:$PROB:$((R + 2)),wal.append:eio@p:$PW:$((R + 3)),wal.fsync:eio@p:$PW:$((R + 4)),wal.replay:eio@p:$PW:$((R + 5))"
}

echo "fault-matrix: seed=$SEED p=$PROB rounds=$ROUNDS" | tee -a "$LOG"
echo "fault-matrix: round 0 spec $(spec 0)" >> "$LOG"

CORP="$DIR/corpus"
"$PTI" gen --total 600 --theta 0.3 --seed "$SEED" --docs -o "$DIR/docs-a.txt" >> "$LOG" 2>&1
"$PTI" gen --total 400 --theta 0.3 --seed "$((SEED + 100))" --docs -o "$DIR/docs-b.txt" >> "$LOG" 2>&1
"$PTI" corpus init "$CORP" --memtable-max 0 --wal-sync always >> "$LOG" 2>&1

fails=0
ok_insert=0
ok_flush=0
untyped=0
i=0
while [ "$i" -lt "$ROUNDS" ]; do
    case $((i % 5)) in
        0) cmd="insert-a"; set -- corpus insert "$CORP" -i "$DIR/docs-a.txt" --wal-sync always ;;
        1) cmd="delete";   set -- corpus delete "$CORP" --id "$i" ;;
        2) cmd="flush";    set -- corpus flush "$CORP" --wal-sync always ;;
        3) cmd="insert-b"; set -- corpus insert "$CORP" -i "$DIR/docs-b.txt" --wal-sync always ;;
        4) cmd="compact";  set -- corpus compact "$CORP" ;;
    esac
    rc=0
    PTI_FAILPOINTS="$(spec "$i")" "$PTI" "$@" >> "$LOG" 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
        fails=$((fails + 1))
        echo "fault-matrix: round $i ($cmd) rc=$rc (expected under faults)" >> "$LOG"
        # 2/3 are pti's typed exits, 1 a refused delete; cmdliner's 125
        # (or anything else) is an exception that escaped
        case $rc in 1|2|3) ;; *) untyped=$((untyped + 1)) ;; esac
    else
        case $cmd in
            insert-*) ok_insert=$((ok_insert + 1)) ;;
            flush) ok_flush=$((ok_flush + 1)) ;;
        esac
    fi
    i=$((i + 1))
done
echo "fault-matrix: $fails/$ROUNDS churn commands failed under injected faults ($ok_insert insert(s) and $ok_flush flush(es) succeeded)" | tee -a "$LOG"
[ "$untyped" -eq 0 ] \
    || { echo "fault-matrix: $untyped churn command(s) died without a typed error exit" | tee -a "$LOG" >&2; exit 1; }
[ "$ok_insert" -ge 1 ] && [ "$ok_flush" -ge 1 ] \
    || { echo "fault-matrix: churn never got an insert and a flush through under faults" | tee -a "$LOG" >&2; exit 1; }

# The invariant, checked with the faults gone: a clean open sees a
# coherent, undegraded corpus that scrubs and compacts cleanly.
"$PTI" corpus stats "$CORP" --json >> "$LOG" 2>&1 \
    || { echo "fault-matrix: corpus unreadable after churn" | tee -a "$LOG" >&2; exit 1; }
"$PTI" corpus stats "$CORP" --json | grep -q '"degraded_segments":0' \
    || { echo "fault-matrix: corpus degraded after churn" | tee -a "$LOG" >&2; exit 1; }
"$PTI" corpus scrub "$CORP" >> "$LOG" 2>&1 \
    || { echo "fault-matrix: scrub found corruption after churn" | tee -a "$LOG" >&2; exit 1; }
"$PTI" corpus flush "$CORP" >> "$LOG" 2>&1 || true
"$PTI" corpus compact "$CORP" >> "$LOG" 2>&1 \
    || { echo "fault-matrix: clean compaction failed after churn" | tee -a "$LOG" >&2; exit 1; }
"$PTI" corpus scrub "$CORP" >> "$LOG" 2>&1 \
    || { echo "fault-matrix: post-compaction scrub found corruption" | tee -a "$LOG" >&2; exit 1; }
"$PTI" corpus stats "$CORP" --json >> "$LOG" 2>&1

echo "fault-matrix: OK (seed=$SEED p=$PROB)" | tee -a "$LOG"
