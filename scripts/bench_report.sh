#!/usr/bin/env bash
#
# Machine-readable perf trajectory for the simulator itself: run the
# scalar-vs-bulk kernel microbenches plus the exit-code-enforced
# bench_batch_fastpath / bench_serve_policies invariants, the cache
# replay bench (JSONL load of a 50k-entry cache), the serving-core
# scaling bench (batch-signature memo vs the execute-everything
# oracle) and the example campaigns (including the 5M-request
# service_fleet scenario), and emit BENCH_report.json mapping
#   kernels:      benchmark name -> ns per element
#   campaigns:    binary/scenario name -> wall-clock seconds, plus
#                 (for the pluto_sim campaigns, via --metrics-out) the
#                 cache hit rate and per-phase wall breakdown
#   cache_replay: JSONL load() wall and file size of a 50k-entry cache
#   serve_memo:   per-pool-size memo on/off loop times and the memo's
#                 sim-throughput speedup over the oracle
#
# Every run from a clean tree is also APPENDED to BENCH_history.jsonl
# as one JSON line keyed by git SHA + UTC date (same-SHA reruns
# replace their line), so the per-PR perf trajectory accumulates
# instead of being overwritten. A run from a dirty tree measures code
# that HEAD's SHA does not name: it still writes the report and gates
# against the history, but leaves the history untouched. The recorded
# series is what the gate learns from:
#
# With --check, enforce per-kernel floors derived from history: each
# bulk kernel must reach at least max(1.0, 0.5 * min recorded
# speedup) over its scalar pair — a kernel that has demonstrably run
# at 8x for several PRs fails the gate long before it decays back to
# 1.0x, while 0.5x headroom plus the min() keeps a noisy runner from
# flaking. The serving memo's per-pool-size speedup gates against the
# same max(1.0, 0.5 * min) floor over its recorded series, and the
# JSONL cache load must stay under a ceiling of 2x the lowest load_ms
# recorded by other SHAs.
#
# Measurements a given build does not support (no bench_cache_replay
# binary, no --simd-tier flag: builds predating them) are skipped
# gracefully, so the script can replay history onto older checkouts.
#
# Examples:
#   ./scripts/bench_report.sh
#   ./scripts/bench_report.sh --build-dir build-rel --check
#   ./scripts/bench_report.sh --no-history   # measurement only
#

set -euo pipefail

BUILD_DIR="build"
OUT="BENCH_report.json"
HISTORY="BENCH_history.jsonl"
CHECK=0
SKIP_CAMPAIGNS=0

usage() {
  cat <<'EOF'
Usage:
  bench_report.sh [options]

Options:
  --build-dir DIR    Build tree holding the bench binaries (default: build)
  --out FILE         Report path (default: BENCH_report.json)
  --history FILE     Trajectory path (default: BENCH_history.jsonl)
  --no-history       Do not append this run to the trajectory
  --check            Enforce the per-kernel floors derived from history
  --skip-campaigns   Skip the pluto_sim example campaigns (quick mode)
  -h, --help         Show this help
EOF
}

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --history) HISTORY="$2"; shift 2 ;;
    --no-history) HISTORY=""; shift ;;
    --check) CHECK=1; shift ;;
    --skip-campaigns) SKIP_CAMPAIGNS=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown option: $1" >&2; usage >&2; exit 2 ;;
  esac
done

MICRO="$BUILD_DIR/bench_micro_ops"
if [ ! -x "$MICRO" ]; then
  echo "error: $MICRO not found (build with Google Benchmark installed)" >&2
  exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# ---- Run identity: git SHA + date key the history line ----

GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY=0
[ -n "$(git status --porcelain 2>/dev/null)" ] && GIT_DIRTY=1
RUN_DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# The SIMD dispatch tier, when this build can report it (--simd-tier
# postdates the first history entries; skip silently on older builds).
SIMD_TIER=""
if [ -x "$BUILD_DIR/pluto_sim" ] &&
   "$BUILD_DIR/pluto_sim" --help 2>/dev/null | grep -q -- --simd-tier; then
  SIMD_TIER=$("$BUILD_DIR/pluto_sim" --simd-tier)
fi

# ---- Kernel pairs: ns/elem from the benchmark CSV output ----

echo "running $MICRO (scalar-vs-bulk kernel pairs)..." >&2
"$MICRO" --benchmark_filter='BM_(Gather|Pack|Unpack)' \
         --benchmark_format=csv >"$workdir/micro.csv" 2>"$workdir/micro.log"

# CSV columns: name,iterations,real_time,cpu_time,time_unit,
# bytes_per_second,items_per_second,...  ns/elem = 1e9 / items/s.
awk -F, 'NR > 1 && $1 != "" && $7 != "" && $7 + 0 > 0 {
  printf "%s %.6f\n", $1, 1e9 / $7
}' "$workdir/micro.csv" | tr -d '"' >"$workdir/kernels.txt"

if [ ! -s "$workdir/kernels.txt" ]; then
  echo "error: no kernel measurements parsed from $MICRO" >&2
  exit 2
fi

# ---- Invariant benches + campaigns: wall-clock seconds ----

wall() { # wall NAME CMD...
  local name="$1"; shift
  echo "running $name..." >&2
  local t0 t1
  t0=$(date +%s.%N)
  "$@" >/dev/null
  t1=$(date +%s.%N)
  printf '%s %s\n' "$name" "$(awk -v a="$t0" -v b="$t1" \
      'BEGIN { printf "%.3f", b - a }')" >>"$workdir/campaigns.txt"
}

: >"$workdir/campaigns.txt"
wall bench_batch_fastpath "$BUILD_DIR/bench_batch_fastpath"
wall bench_serve_policies "$BUILD_DIR/bench_serve_policies"

# ---- Cache replay: JSONL load() (newer builds only) ----

: >"$workdir/replay.txt"
if [ -x "$BUILD_DIR/bench_cache_replay" ]; then
  echo "running bench_cache_replay (JSONL load)..." >&2
  "$BUILD_DIR/bench_cache_replay" >"$workdir/replay_out.txt"
  grep '^cache_replay,' "$workdir/replay_out.txt" >"$workdir/replay.txt" || true
else
  echo "skipping cache replay ($BUILD_DIR/bench_cache_replay not built)" >&2
fi

# ---- Serving-core scaling: memo replay vs the oracle ----

: >"$workdir/serve_scale.txt"
if [ -x "$BUILD_DIR/bench_serve_scale" ]; then
  echo "running bench_serve_scale (batch-signature memo)..." >&2
  "$BUILD_DIR/bench_serve_scale" >"$workdir/serve_scale_out.txt"
  grep -E '^serve_memo(_speedup)?,' "$workdir/serve_scale_out.txt" \
    >"$workdir/serve_scale.txt" || true
else
  echo "skipping serve scaling ($BUILD_DIR/bench_serve_scale not built)" >&2
fi

if [ "$SKIP_CAMPAIGNS" -eq 0 ]; then
  wall sweep_designs "$BUILD_DIR/pluto_sim" \
    examples/scenarios/sweep_designs.ini \
    --out "$workdir/sweep" --deterministic --quiet \
    --metrics-out "$workdir/sweep_designs_metrics.json"
  # --tail-report postdates some checkouts history replays onto;
  # probe the help text before asking for it.
  tail_flags=()
  if "$BUILD_DIR/pluto_sim" --help 2>/dev/null |
     grep -q -- --tail-report; then
    tail_flags=(--tail-report "$workdir/service_saturation_tail.json")
  fi
  wall service_saturation "$BUILD_DIR/pluto_sim" --service \
    examples/scenarios/service_saturation.ini \
    --out "$workdir/serve" --deterministic --quiet \
    --metrics-out "$workdir/service_saturation_metrics.json" \
    "${tail_flags[@]}"
  # The 5M-request fleet scenario postdates older checkouts history
  # replays onto; probe for it before running.
  if [ -f examples/scenarios/service_fleet.ini ]; then
    wall service_fleet "$BUILD_DIR/pluto_sim" --service \
      examples/scenarios/service_fleet.ini \
      --out "$workdir/fleet" --deterministic --quiet \
      --metrics-out "$workdir/service_fleet_metrics.json"
  fi
  # The ~50M-request XL fleet (batch-signature memoization makes it
  # affordable) also postdates older checkouts; probe for it.
  if [ -f examples/scenarios/service_fleet_xl.ini ]; then
    wall service_fleet_xl "$BUILD_DIR/pluto_sim" --service \
      examples/scenarios/service_fleet_xl.ini \
      --out "$workdir/fleet_xl" --deterministic --quiet \
      --metrics-out "$workdir/service_fleet_xl_metrics.json"
  fi
fi

# ---- Emit report + history line, then gate against the series ----

python3 - "$workdir" "$OUT" "$HISTORY" "$GIT_SHA" "$GIT_DIRTY" \
    "$RUN_DATE" "$SIMD_TIER" "$CHECK" <<'EOF'
import json
import os
import sys

(workdir, out, history, sha, dirty, date, tier, check) = sys.argv[1:9]
check = check == "1"

kernels = {}
with open(os.path.join(workdir, "kernels.txt")) as f:
    for line in f:
        name, ns = line.split()
        kernels[name] = {"ns_per_elem": float(ns)}

campaigns = {}
with open(os.path.join(workdir, "campaigns.txt")) as f:
    for line in f:
        name, wall = line.split()
        entry = {"wall_s": float(wall)}
        mpath = os.path.join(workdir, name + "_metrics.json")
        if os.path.exists(mpath):
            with open(mpath) as mf:
                counters = json.load(mf)["counters"]
            tree = counters.get("campaign", {})
            cache = tree.get("cache", {})
            hits = cache.get("hits", 0.0)
            misses = cache.get("misses", 0.0)
            if hits + misses > 0:
                entry["cache_hit_rate"] = hits / (hits + misses)
            phase = tree.get("phase", {})
            if phase:
                entry["phase_ms"] = {
                    k: v for k, v in sorted(phase.items())
                    if isinstance(v, (int, float))
                }
            slo = counters.get("serve", {}).get("slo", {})
            good = slo.get("good", 0.0)
            bad = slo.get("violations", 0.0)
            if good + bad > 0:
                entry["slo_attainment"] = good / (good + bad)
        # Tail-blame rollup (--tail-report builds only): which phase
        # dominates each variant's p99 tail, and the lut_reload share
        # that separates gsa from the residency designs.
        tpath = os.path.join(workdir, name + "_tail.json")
        if os.path.exists(tpath):
            with open(tpath) as tf:
                tail = json.load(tf)
            entry["tail_blame"] = {
                v["variant"]: {
                    "dominant_phase": v["dominant_phase"],
                    "lut_reload_share": v["share"]["lut_reload"],
                    "queue_wait_share": v["share"]["queue_wait"],
                }
                for v in tail.get("variants", [])
            }
        campaigns[name] = entry

# cache_replay,<format>,<entries>,<load_ms>,<bytes>
replay = {}
with open(os.path.join(workdir, "replay.txt")) as f:
    for line in f:
        parts = line.strip().split(",")
        if len(parts) == 5:
            replay[parts[1]] = {
                "entries": int(parts[2]),
                "load_ms": float(parts[3]),
                "file_bytes": int(parts[4]),
            }

# serve_memo,<devices>,<mode>,<requests>,<loop_ms>,<sim_rps>
# serve_memo_speedup,<devices>,<ratio>
serve_memo = {}
with open(os.path.join(workdir, "serve_scale.txt")) as f:
    for line in f:
        parts = line.strip().split(",")
        if parts[0] == "serve_memo_speedup" and len(parts) == 3:
            d = serve_memo.setdefault(parts[1], {})
            d["speedup"] = float(parts[2])
        elif parts[0] == "serve_memo" and len(parts) == 6:
            d = serve_memo.setdefault(parts[1], {})
            d[parts[2]] = {
                "requests": int(parts[3]),
                "loop_ms": float(parts[4]),
                "sim_rps": float(parts[5]),
            }

report = {"kernels": kernels, "campaigns": campaigns}
if replay:
    report["cache_replay"] = replay
if serve_memo:
    report["serve_memo"] = serve_memo
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print("wrote %s" % out, file=sys.stderr)


def speedups(entry_kernels):
    """Scalar/bulk ns ratio per kernel pair of one history entry."""
    ratios = {}
    for name, k in entry_kernels.items():
        if "Scalar/" not in name:
            continue
        bulk = name.replace("Scalar", "Bulk")
        if bulk in entry_kernels:
            num = k["ns_per_elem"]
            den = entry_kernels[bulk]["ns_per_elem"]
            if den > 0:
                ratios[bulk] = num / den
    return ratios


# History: replace any line of the same SHA (CI reruns), else append;
# never from a dirty tree, whose numbers HEAD's SHA would misname.
prior = []
if history:
    if os.path.exists(history):
        with open(history) as f:
            for line in f:
                line = line.strip()
                if line:
                    prior.append(json.loads(line))
if history and dirty == "1":
    print("not appending to %s: the tree has uncommitted changes"
          % history, file=sys.stderr)
elif history:
    entry = {
        "sha": sha,
        "date": date,
        "dirty": False,
        "kernels": {k: v["ns_per_elem"] for k, v in kernels.items()},
        "campaigns": {k: v["wall_s"] for k, v in campaigns.items()},
    }
    if tier:
        entry["simd_tier"] = tier
    if replay:
        entry["cache_replay"] = {
            k: v["load_ms"] for k, v in replay.items()
        }
    if serve_memo:
        entry["serve_memo"] = {
            dev: d["speedup"]
            for dev, d in serve_memo.items() if "speedup" in d
        }
    # Serving-quality trajectory: SLO attainment and the p99 tail's
    # lut_reload blame share per variant (absent on older builds).
    serve = {}
    for name, c in campaigns.items():
        row = {}
        if "slo_attainment" in c:
            row["slo_attainment"] = c["slo_attainment"]
        if "tail_blame" in c:
            row["tail_lut_reload"] = {
                v: b["lut_reload_share"]
                for v, b in c["tail_blame"].items()
            }
        if row:
            serve[name] = row
    if serve:
        entry["serve"] = serve
    kept = [e for e in prior if e.get("sha") != sha]
    with open(history, "w") as f:
        for e in kept + [entry]:
            f.write(json.dumps(e, sort_keys=True) + "\n")
    print("appended %s (%d entries)" % (history, len(kept) + 1),
          file=sys.stderr)

if not check:
    sys.exit(0)

# ---- Perf gate: floors derived from the recorded series ----
#
# Floor per kernel pair = max(1.0, 0.5 * min speedup ever recorded
# for it by OTHER shas) — self-measurements never lower the bar, and
# a pair with no history gates at the old coarse 1.0x.
floors = {}
for e in prior:
    if e.get("sha") == sha:
        continue
    ek = {n: {"ns_per_elem": v} for n, v in e.get("kernels", {}).items()}
    for bulk, ratio in speedups(ek).items():
        floors[bulk] = min(floors.get(bulk, ratio), ratio)

fail = False
now = speedups(kernels)
for bulk in sorted(now):
    floor = max(1.0, 0.5 * floors.get(bulk, 2.0))
    ratio = now[bulk]
    scalar = bulk.replace("Bulk", "Scalar")
    print("%-24s %8.4f ns/elem  %-24s %8.4f ns/elem  %7.2fx"
          " (floor %.2fx)"
          % (scalar, kernels[scalar]["ns_per_elem"], bulk,
             kernels[bulk]["ns_per_elem"], ratio, floor))
    if ratio < floor:
        print("FAIL: %s at %.2fx is below its %.2fx floor"
              % (bulk, ratio, floor))
        fail = True
for scalar in sorted(kernels):
    if "Scalar/" in scalar and \
       scalar.replace("Scalar", "Bulk") not in kernels:
        print("missing bulk pair for %s" % scalar)
        fail = True

# The serving memo speedup gates per pool size, same floor rule.
memo_floors = {}
for e in prior:
    if e.get("sha") == sha:
        continue
    for dev, sp in e.get("serve_memo", {}).items():
        memo_floors[dev] = min(memo_floors.get(dev, sp), sp)
for dev in sorted(serve_memo, key=int):
    sp = serve_memo[dev].get("speedup")
    if sp is None:
        continue
    floor = max(1.0, 0.5 * memo_floors.get(dev, 2.0))
    print("%-24s %37s  %7.2fx (floor %.2fx)"
          % ("serve_memo @%s devices" % dev, "", sp, floor))
    if sp < floor:
        print("FAIL: serve_memo @%s devices at %.2fx is below its "
              "%.2fx floor" % (dev, sp, floor))
        fail = True

# JSONL cache load: ceiling = 2x the lowest load_ms recorded by
# OTHER shas; with no history yet there is nothing to gate against.
best = [e["cache_replay"]["jsonl"] for e in prior
        if e.get("sha") != sha and "jsonl" in e.get("cache_replay", {})]
if "jsonl" in replay and best:
    jms = replay["jsonl"]["load_ms"]
    ceiling = 2.0 * min(best)
    print("%-24s %8.2f ms  (ceiling %.2f ms)"
          % ("cache_replay jsonl", jms, ceiling))
    if jms > ceiling:
        print("FAIL: JSONL cache load at %.2f ms is above its %.2f ms "
              "ceiling" % (jms, ceiling))
        fail = True

if fail:
    sys.exit(1)
print("perf gate passed: every row within its history-derived bound",
      file=sys.stderr)
EOF
