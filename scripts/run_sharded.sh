#!/usr/bin/env bash
#
# Sharded campaign driver for pluto_sim: run one scenario as N
# parallel shard processes sharing a result cache, then execute one
# unsharded merge pass over the warm cache. The merge pass replays
# every run from the cache (it prints the hit rate); its simulated
# results equal a cold unsharded run's bit for bit, and with
# --deterministic (which zeroes the wall-clock columns, the only
# nondeterministic fields) the emitted files are byte-identical.
#
# Example:
#   ./scripts/run_sharded.sh --scenario examples/scenarios/grid_faw_salp.ini --shards 4
#

set -euo pipefail

SCENARIO=""
SHARDS=3
THREADS=""
BIN=""
OUT_DIR=""
DETERMINISTIC=0
MODE="batch"

usage() {
  cat <<'EOF'
Usage:
  run_sharded.sh --scenario PATH [options]

Options:
  --scenario PATH   Scenario file passed to pluto_sim (required)
  --mode MODE       Campaign mode: batch (default), service, or nn
  --shards N        Shard process count (default: 3)
  --threads N       Worker threads per shard (default: pluto_sim's default)
  --pluto-sim PATH  pluto_sim binary (default: auto-detect in build/)
  --out-dir DIR     Output root (default: shard-runs-<timestamp>)
  --deterministic   Zero wall-clock fields (byte-comparable outputs)
  -h, --help        Show this help

Layout under --out-dir:
  cache/<name>.<mode>.cache.jsonl   shared result cache
  shards/                    per-shard outputs (suffixed .shardIofN)
  merged/                    merge-pass outputs (the campaign result)
EOF
}

is_pos_int() { [[ "${1:-}" =~ ^[0-9]+$ ]] && [[ "$1" -ge 1 ]]; }

while [[ $# -gt 0 ]]; do
  case "$1" in
    --scenario) SCENARIO="${2:?--scenario needs a path}"; shift 2 ;;
    --mode) MODE="${2:?--mode needs a value}"; shift 2 ;;
    --shards) SHARDS="${2:?--shards needs a value}"; shift 2 ;;
    --threads) THREADS="${2:?--threads needs a value}"; shift 2 ;;
    --pluto-sim) BIN="${2:?--pluto-sim needs a path}"; shift 2 ;;
    --out-dir) OUT_DIR="${2:?--out-dir needs a path}"; shift 2 ;;
    --deterministic) DETERMINISTIC=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "Error: unknown argument: $1" >&2; usage; exit 2 ;;
  esac
done

[[ -n "$SCENARIO" ]] || { echo "Error: --scenario is required" >&2; usage; exit 2; }
[[ -f "$SCENARIO" ]] || { echo "Error: scenario file not found: $SCENARIO" >&2; exit 2; }
is_pos_int "$SHARDS" || { echo "Error: --shards must be a positive integer" >&2; exit 2; }
if [[ -n "$THREADS" ]]; then
  is_pos_int "$THREADS" || { echo "Error: --threads must be a positive integer" >&2; exit 2; }
fi
case "$MODE" in
  batch|service|nn) ;;
  *) echo "Error: --mode must be batch, service, or nn (got '$MODE')" >&2; exit 2 ;;
esac

if [[ -z "$BIN" ]]; then
  for cand in build/pluto_sim ./pluto_sim; do
    if [[ -x "$cand" ]]; then BIN="$cand"; break; fi
  done
fi
[[ -n "$BIN" && -x "$BIN" ]] || { echo "Error: pluto_sim binary not found (build first or pass --pluto-sim)" >&2; exit 2; }

OUT_DIR="${OUT_DIR:-shard-runs-$(date +%Y%m%d_%H%M%S)}"
mkdir -p "$OUT_DIR/shards" "$OUT_DIR/merged"
echo "Output root: $OUT_DIR"

COMMON=(--cache-dir "$OUT_DIR/cache" --quiet)
[[ "$MODE" == "service" ]] && COMMON+=(--service)
[[ "$MODE" == "nn" ]] && COMMON+=(--nn)
[[ -n "$THREADS" ]] && COMMON+=(--threads "$THREADS")
[[ "$DETERMINISTIC" -eq 1 ]] && COMMON+=(--deterministic)

# Phase 1: shards in parallel, all appending to the shared cache.
pids=()
for ((i = 0; i < SHARDS; i++)); do
  "$BIN" "$SCENARIO" --shard "$i/$SHARDS" --out "$OUT_DIR/shards" "${COMMON[@]}" \
    > "$OUT_DIR/shards/shard_$i.log" 2>&1 &
  pids+=("$!")
done
FAILED=0
for ((i = 0; i < SHARDS; i++)); do
  if ! wait "${pids[$i]}"; then
    echo "Error: shard $i/$SHARDS failed (see $OUT_DIR/shards/shard_$i.log)" >&2
    FAILED=1
  fi
done
[[ "$FAILED" -eq 0 ]] || exit 1

# Phase 2: unsharded merge pass over the warm cache. Everything
# should replay (the hit rate is printed); outputs are the campaign
# result, byte-identical to a cold unsharded run.
if ! "$BIN" "$SCENARIO" --out "$OUT_DIR/merged" "${COMMON[@]}" \
    > "$OUT_DIR/merged/merge.log" 2>&1; then
  echo "Error: merge pass failed (see $OUT_DIR/merged/merge.log)" >&2
  exit 1
fi
grep -E '^cache_hits=' "$OUT_DIR/merged/merge.log" || true
echo "Merged outputs in $OUT_DIR/merged/"
