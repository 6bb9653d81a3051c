#!/bin/sh
# Engine-dispatch benchmark: runs the figure-7 corpus under indexed (default)
# and linear (RCC_DISPATCH=linear) rule dispatch and reports the guard-work
# ratio and wall-clock for each mode. The linear scan is the pre-index
# baseline kept for exactly this measurement (DESIGN.md, "Rule dispatch &
# memoized subsumption"); rule_apps must agree between the two runs, since
# indexing may only change how fast the unique rule is found.
#
# Also reports the solver-portfolio on/off comparison (figure7_table runs
# both internally): per-corpus manual side-condition counts (DESIGN.md,
# "Solver portfolio").
#
# Usage: scripts/bench_engine.sh [path-to-figure7_table]
set -e
cd "$(dirname "$0")/.."
bin=${1:-./build/bench/figure7_table}
test -x "$bin" || { echo "bench_engine.sh: $bin not built"; exit 1; }

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

run_mode() { # $1 = label, $2 = RCC_DISPATCH value ('' for default)
  mkdir -p "$workdir/$1"
  start=$(date +%s%N)
  (cd "$workdir/$1" && RCC_DISPATCH=$2 "$OLDPWD/$bin" > run.log 2>&1)
  end=$(date +%s%N)
  echo $(( (end - start) / 1000000 )) > "$workdir/$1/wall_ms"
}

run_mode indexed ""
run_mode linear linear

python3 - "$workdir" <<'EOF'
import json, sys
d = sys.argv[1]
def load(m):
    j = json.load(open(f"{d}/{m}/BENCH_figure7.json"))["metrics"]
    wall = int(open(f"{d}/{m}/wall_ms").read())
    return j, wall
idx, idx_wall = load("indexed")
lin, lin_wall = load("linear")
if idx["engine.rule_apps"] != lin["engine.rule_apps"]:
    sys.exit(f"bench_engine.sh: rule_apps diverged: "
             f"indexed={idx['engine.rule_apps']} linear={lin['engine.rule_apps']}")
im, lm = idx["engine.rule.matches"], lin["engine.rule.matches"]
print(f"rule_apps            {idx['engine.rule_apps']} (identical in both modes)")
print(f"matches (linear)     {lm}")
print(f"matches (indexed)    {im}")
print(f"guard-work ratio     {lm / im:.2f}x")
print(f"index_hits           {idx['engine.rule.index_hits']}")
print(f"scan_fallbacks       {idx['engine.rule.scan_fallbacks']}")
print(f"subsume memo         {idx['engine.subsume.memo_hit']} hit / "
      f"{idx['engine.subsume.memo_miss']} miss")
print(f"wall-clock           indexed {idx_wall} ms, linear {lin_wall} ms")

# Solver-portfolio on/off comparison over the same corpus (figure7_table
# evaluates both and records the off-mode manual counts per row).
rows = json.load(open(f"{d}/indexed/BENCH_figure7.json"))["rows"]
man_on = sum(r["side_cond_manual"] for r in rows)
man_off = sum(r["side_cond_manual_off"] for r in rows)
print()
print(f"portfolio            manual side conds: {man_off} off -> {man_on} on")
for r in rows:
    if r["side_cond_manual_off"] != r["side_cond_manual"]:
        print(f"  {r['name']:<28} {r['side_cond_manual_off']} -> "
              f"{r['side_cond_manual']}")
EOF
