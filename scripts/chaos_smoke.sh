#!/usr/bin/env bash
# Chaos smoke: exercise the runner's fault-tolerance layer end to end.
#
# Five gates, all deterministic (fault rolls are pure functions of the
# fault seed + cell key + attempt, so a passing combination passes on
# every machine for as long as the cell keys stay the same):
#
#   1. crash chaos   — fig11 under a 30% injected crash rate with a
#                      retry budget must still exit 0 and print the
#                      same table as a clean run.
#   2. serial parity — the same chaos run at --jobs 1 must produce the
#                      identical table (parallel == serial under faults).
#   3. kill + re-run — a run killed with kill -9 after it persisted
#                      two cells, then run again on the same cache, must
#                      serve those cells as hits, execute the rest, and
#                      leave bit-identical cached payloads vs an
#                      uninterrupted run in a fresh cache.
#   4. shm hygiene   — a pooled run whose workers are killed with
#                      os._exit (the harshest worker death: no atexit,
#                      no cleanup) must still reap every shared-memory
#                      trace segment when the parent's scheduler exits.
#   5. figure chaos  — fig09, whose cells run in the calling process,
#                      must survive the same crash chaos on retries:
#                      the clean table, and at least one retried cell;
#                      fig06, whose timing cells pool under --jobs 2,
#                      must retry every cell once under crash@1, render
#                      the clean table and leave no shared-memory trace
#                      segment behind (its cells share their trace).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

RUN="python -m repro.cli run fig11 --quick --n 8000 --workloads oltp"
CHAOS="--inject-faults crash:0.3,seed:1 --retries 3"

# The scheduler owns the shared-memory trace segments of a pooled run
# and must unlink every one of them on its way out.
assert_no_shm_leak () {
  python - "$1" <<'EOF'
import sys

from repro.runner import shm

leaked = shm.active_segments()
if leaked:
    raise SystemExit(f"leaked shm segments after {sys.argv[1]}: {leaked}")
print("no shared-memory segments leaked")
EOF
}

echo "== gate 1: crash chaos survives on retries =="
$RUN --no-cache --jobs 4 $CHAOS | tee "$WORK/chaos-par.txt"

echo "== gate 2: parallel == serial under injected crashes =="
$RUN --no-cache --jobs 1 $CHAOS | tee "$WORK/chaos-ser.txt"
# The runner footer reports wall-clock and jobs, which legitimately
# differ; every table row above it must match exactly.
grep -v '^\[runner\]\|^([0-9]' "$WORK/chaos-par.txt" > "$WORK/par-table.txt"
grep -v '^\[runner\]\|^([0-9]' "$WORK/chaos-ser.txt" > "$WORK/ser-table.txt"
diff -u "$WORK/par-table.txt" "$WORK/ser-table.txt"
echo "tables identical"

echo "== gate 3: kill -9 mid-run, then re-run on the same cache =="
# Uninterrupted reference run in its own cache.
$RUN --cache-dir "$WORK/ref-cache" --jobs 2 > /dev/null

# Serial run whose third cell hangs (the fault roll for this seed is
# deterministic), killed once the two cells before it are persisted:
# the kill always lands mid-run, after some work and before the rest.
# The roll depends on the cell keys, so a change to them (CODE_VERSION,
# the options) can move the hang: re-pick the seed so that the third
# cell hangs again.
cells_persisted () {
  find "$1" -name '*.json' -exec grep -l '"kind":"cell"' {} + 2>/dev/null | wc -l
}
set +e
$RUN --cache-dir "$WORK/cache" --jobs 1 \
  --inject-faults hang:0.3,hang_s:60,seed:6 > /dev/null 2>&1 &
PID=$!
for _ in $(seq 600); do
  [ "$(cells_persisted "$WORK/cache")" -ge 2 ] && break
  sleep 0.1
done
if ! kill -0 "$PID" 2>/dev/null; then
  echo "gate 3: the run ended before the kill; seed:6 no longer hangs a" \
       "later cell, re-pick it" >&2
  exit 1
fi
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
set -e
if [ "$(cells_persisted "$WORK/cache")" -lt 2 ]; then
  echo "gate 3: fewer than two cells persisted before the kill; seed:6" \
       "hangs an earlier cell, re-pick it" >&2
  exit 1
fi

# The same command again, without faults: the store serves the
# finished cells and only the rest execute.
$RUN --cache-dir "$WORK/cache" --jobs 2 | tee "$WORK/rerun.txt"
grep -q '^\[runner\] [0-9]* cells: [1-9][0-9]* cache hits, [1-9][0-9]* executed' \
  "$WORK/rerun.txt"

# Bit-identical payloads: hash every committed artifact (*.json only;
# a kill -9 may leave harmless *.tmp staging files behind).
hash_cache () {
  (cd "$1" && find . -name '*.json' | sort | xargs sha256sum)
}
hash_cache "$WORK/ref-cache" > "$WORK/ref.sha"
hash_cache "$WORK/cache"     > "$WORK/rerun.sha"
diff -u "$WORK/ref.sha" "$WORK/rerun.sha"
echo "re-run reused the killed run's cells; cache bit-identical to uninterrupted run"

echo "== gate 4: worker kill -9 leaks no shared-memory segments =="
# exit:P makes workers die via os._exit mid-cell (skipping all worker
# cleanup); --timeout-s lets the watchdog detect the vanished worker
# and rebuild the pool.  The parent's scheduler owns the shm trace
# segments and must unlink them all on the way out regardless.
$RUN --no-cache --jobs 2 \
  --inject-faults exit:0.4,seed:3 --retries 3 --timeout-s 5 \
  | tee "$WORK/chaos-exit.txt"
assert_no_shm_leak "worker-kill chaos"

echo "== gate 5: in-process and timing figures survive crash chaos on retries =="
SWEEP="python -m repro.cli run fig09 --quick --n 8000 --workloads oltp --no-cache"
$SWEEP > "$WORK/sweep-clean.txt"
$SWEEP $CHAOS | tee "$WORK/sweep-chaos.txt"
grep -q '^\[runner\].* [1-9][0-9]* retried' "$WORK/sweep-chaos.txt"
grep -v '^\[runner\]\|^([0-9]' "$WORK/sweep-clean.txt" > "$WORK/sweep-clean-table.txt"
grep -v '^\[runner\]\|^([0-9]' "$WORK/sweep-chaos.txt" > "$WORK/sweep-chaos-table.txt"
diff -u "$WORK/sweep-clean-table.txt" "$WORK/sweep-chaos-table.txt"
echo "in-process chaos run retried and matches the clean table"

# crash@1 rather than $CHAOS: at this size crash:0.3,seed:1 rolls no
# crash for any of fig06's three cells, so the gate would inject nothing.
TIMING="python -m repro.cli run fig06 --quick --n 8000 --workloads oltp --no-cache"
$TIMING > "$WORK/timing-clean.txt"
$TIMING --jobs 2 --inject-faults crash@1 --retries 3 | tee "$WORK/timing-chaos.txt"
grep -q '^\[runner\].* 3 retried, 0 FAILED | jobs=2 (pool)' "$WORK/timing-chaos.txt"
assert_no_shm_leak "pooled timing chaos"
grep -v '^\[runner\]\|^([0-9]' "$WORK/timing-clean.txt" > "$WORK/timing-clean-table.txt"
grep -v '^\[runner\]\|^([0-9]' "$WORK/timing-chaos.txt" > "$WORK/timing-chaos-table.txt"
diff -u "$WORK/timing-clean-table.txt" "$WORK/timing-chaos-table.txt"
echo "pooled timing figure retried every cell and matches the clean table"

echo "chaos smoke: all gates passed"
