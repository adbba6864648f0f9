#!/usr/bin/env bash
# One-button pre-push check: lint, tier-1 tests, the call pins alone and
# after the service tests, the chaos gates, the repo benchmark's
# correctness checks and CLI round trips.  Run from the
# repo root:
#
#     bash scripts/check.sh          # everything
#     bash scripts/check.sh --fast   # lint + tier-1 + call pins + the service chaos gate
#
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "check.sh: unknown argument $arg (known: --fast)" >&2; exit 2 ;;
    esac
done

echo "== lint (src/ and tests/) =="
python -m repro.tools.lint src tests

echo
echo "== tier-1 test suite =="
python -m pytest tests/ -x -q

echo
echo "== call pins alone and after the service tests (test_golden_programs.py, test_simplex_equivalence.py) =="
# BUILD_CALLS, WARM_CALLS and CALLS count one build's Python-level calls,
# and COMPILES one compile's solver work: they must read the same
# whatever ran before them in the process.
for pins in tests/core/test_golden_programs.py tests/poly/test_simplex_equivalence.py; do
    python -m pytest "$pins" -q
    python -m pytest tests/service "$pins" -q
done

echo
echo "== chaos-serve (service fault tolerance under load) =="
# Runs in --fast too: the service's ok-or-typed contract under faults is
# a correctness gate, not a performance measurement.
python -m pytest tests/service/test_chaos_serve.py -m chaos -q

if [ "$FAST" -eq 1 ]; then
    echo
    echo "all checks passed (--fast: slow steps skipped)"
    exit 0
fi

echo
echo "== chaos sweep (single-fault scenarios, typed-or-identical) =="
python -m pytest tests/tools/test_chaos.py -m chaos -q

echo
echo "== repo benchmark smoke (all five workloads, correctness checks) =="
# Non-zero exit = a failed correctness check (replay != oracle, a
# RuntimeWarning, a warm request that missed the memo, ...); set -e stops
# the script.  Timings are not gated here.  cache_warm is the one whose
# check executes *unpickled* programs and compares cached dumps with the
# cold build's -- what a change to the pickled payload must keep;
# exec_replay the one that compares compiled-program replay with
# kernel-level evaluation bit for bit at the timed shapes.
python3 bench/run.py --quick --workload compile_sched
python3 bench/run.py --quick --workload compile_tile
python3 bench/run.py --quick --workload cache_warm
python3 bench/run.py --quick --workload exec_replay
python3 bench/run.py --quick --workload serve_mix

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo
echo "== static verifier (akgc --verify reports a clean pass) =="
python -m repro.tools.akgc matmul --shape 16,16,16 --no-disk-cache --verify \
    | tee "$TMP/verify.txt"
grep -q "verified      :" "$TMP/verify.txt" \
    || { echo "FAIL: akgc --verify did not report verification"; exit 1; }

echo
echo "== a full-size network plans and verifies (akgc --network bert21128 --verify) =="
REPRO_CACHE_DIR="$TMP/bert-cache" \
    python -m repro.tools.akgc --network bert21128 --verify | tee "$TMP/bert.txt"
grep -q "^verified      : arena + 12 subgraphs" "$TMP/bert.txt" \
    || { echo "FAIL: akgc --network bert21128 --verify did not verify the plan"; exit 1; }
# The BERT (21,128) AKG total of EXPERIMENTS.md's Fig. 13 table.
grep -qE "^network total +304765517$" "$TMP/bert.txt" \
    || { echo "FAIL: the bert21128 network total moved from EXPERIMENTS.md's Fig. 13"; exit 1; }

echo
echo "== the full-size networks whose plans shrink tiles verify and keep their totals =="
# These plans reach the shrink rule (capacity_shrink): a changed answer to
# which tile dims a footprint depends on moves their totals.  Their
# conv+BN+ReLU+pool subgraphs recompute a reduction per tile, whose
# self-dependences the schedule check proves by containment.
for entry in resnet50:29949139 mobilenetv2:4951589 ssd300:138639360 alexnet:6466222; do
    net="${entry%%:*}"
    total="${entry##*:}"
    python -m repro.tools.akgc --network "$net" --verify --no-disk-cache > "$TMP/$net.txt"
    grep -qE "^verified      : arena \+ [0-9]+ subgraphs" "$TMP/$net.txt" \
        || { echo "FAIL: akgc --network $net --verify did not verify the plan"; exit 1; }
    grep -E "^network total +$total$" "$TMP/$net.txt" \
        || { echo "FAIL: the $net network total moved from $total"; exit 1; }
done

echo
echo "== CCE dump of a cube kernel carries the schedule-tree AST =="
python -m repro.tools.akgc matmul --shape 64,64,64 --no-disk-cache --dump-cce \
    > "$TMP/cce.txt"
grep -q "schedule-tree AST" "$TMP/cce.txt" \
    || { echo "FAIL: akgc --dump-cce of a matmul has no schedule-tree AST"; exit 1; }

echo
echo "== the three baselines of a matmul (akgc --compare) =="
python -m repro.tools.akgc matmul --shape 64,64,64 --no-disk-cache --compare \
    | tee "$TMP/compare.txt"
grep -qE "^tvm +: +556  \(" "$TMP/compare.txt" \
    || { echo "FAIL: the TVM-baseline cycles of akgc --compare moved"; exit 1; }
grep -qE "^cce_opt +: +505  \(" "$TMP/compare.txt" \
    || { echo "FAIL: the expert-CCE cycles of akgc --compare moved"; exit 1; }
grep -qE "^cce_naive +: +1243  \(" "$TMP/compare.txt" \
    || { echo "FAIL: the naive-CCE cycles of akgc --compare moved"; exit 1; }

echo
echo "== Fig. 10 lines of code (the whole EXPERIMENTS.md table) =="
python -m pytest benchmarks/test_fig10_loc.py -q --benchmark-disable

echo
echo "== Fig. 4 / Fig. 8 manual specs (examples/manual_specs.py) =="
REPRO_CACHE_DIR="$TMP/manual-cache" python examples/manual_specs.py \
    | tee "$TMP/manual_specs.txt"
grep -qF -- "-> tiles [32, 256], 1583 cycles" "$TMP/manual_specs.txt" \
    || { echo "FAIL: the Fig. 4 tiling-policy build of manual_specs.py moved"; exit 1; }
grep -qF "on the small NPU: tiles [16, 256], 2847 cycles" "$TMP/manual_specs.txt" \
    || { echo "FAIL: the Fig. 8 overlay build of manual_specs.py moved"; exit 1; }

echo
echo "== network degradation roll-up (mid-network subgraph fault) =="
REPRO_FAULT_SPEC="tiling.auto_search:error" REPRO_CACHE_DIR="$TMP/net-cache" \
    python -m repro.tools.akgc --network alexnet_tiny --resilience-stats --perf \
    | tee "$TMP/network_fault.txt"
grep -q "degraded      : yes" "$TMP/network_fault.txt" \
    || { echo "FAIL: mid-network fault did not mark the plan degraded"; exit 1; }
# t_c3 / t_c4 share a fingerprint: one compile-level reuse, counted.
grep -q "^graph.dedup_reuse: 1$" "$TMP/network_fault.txt" \
    || { echo "FAIL: akgc --perf did not report the graph.dedup_reuse counter"; exit 1; }

echo
echo "== solver counters of a cold conv2d (akgc --perf --cache-stats) =="
# Every dependence of a conv2d is separable, answered in closed form: a
# cold build poses no ILP query at all.
python -m repro.tools.akgc conv2d --shape 1,16,32,32 --perf --cache-stats \
    --cache-dir "$TMP/conv-cache" | tee "$TMP/conv_perf.txt"
grep -q "solver cache \[ilp\]: 0 hits / 0 misses (0.0% hit rate, 0 entries), 0 pivots over 0 tableau rows" \
    "$TMP/conv_perf.txt" \
    || { echo "FAIL: the ilp solver-cache line of a cold conv2d moved"; exit 1; }

echo
echo "== typed CLI exit codes under injection =="
# alexnet_tiny has a coupled access pair (a subscript over two dims): its
# dependence analysis poses the ILP, where no fallback rung catches it.
set +e
REPRO_FAULT_SPEC="ilp.solve:error" \
    python -m repro.tools.akgc --network alexnet_tiny --no-disk-cache \
    > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] \
    || { echo "FAIL: expected exit 3 (SolverBudgetError), got $code"; exit 1; }

echo
echo "== ladder rung gets a fresh allotment after a timed-out primary =="
# No akgc kernel's schedule poses the ILP (their dependences are all
# answered in closed form), so the probe builds a relu beside its mirrored
# copy, whose Pluto rows do.
REPRO_FAULT_SPEC="ilp.solve:delay@frontend.schedule#limit=1" python -c '
from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.core.resilience import StageBudget
from repro.service.wire import demo_kernel
from tests.sched.test_scheduler import mirrored
diskcache.set_disk_cache_enabled(False)
options = AkgOptions(budget=StageBudget(stage_seconds=60.0))
result = build(mirrored(demo_kernel("relu", [16, 12])), "rung", options=options)
print("\n".join(result.resilience.summary()))
' | tee "$TMP/rung.txt"
grep -q "fallback -> identity-only" "$TMP/rung.txt" \
    || { echo "FAIL: timed-out primary did not reach the identity-only rung"; exit 1; }

echo
echo "== disk-cache round trip (cold akgc, then warm) =="
python -m repro.tools.akgc relu --shape 64,128 \
    --cache-dir "$TMP/cache" --cache-stats
python -m repro.tools.akgc relu --shape 64,128 \
    --cache-dir "$TMP/cache" --cache-stats \
    | tee "$TMP/warm.txt"
# A warm build is one read: two hits is the double unpickle coming back,
# a miss is a silent recompile.
grep -q "disk cache    : 1 hits, 0 misses, 0 stores" "$TMP/warm.txt" \
    || { echo "FAIL: warm akgc run was not exactly one disk-cache hit"; exit 1; }
python -m repro.tools.akgc relu --shape 8,32 --batch-max 8 \
    --cache-dir "$TMP/cache" --cache-stats
python -m repro.tools.akgc relu --shape 8,32 --batch-max 8 \
    --cache-dir "$TMP/cache" --cache-stats \
    | tee "$TMP/warm_sym.txt"
grep -q "shape class   : 1 hits, 0 misses" "$TMP/warm_sym.txt" \
    || { echo "FAIL: warm symbolic akgc run was not one shape-class hit"; exit 1; }

echo
echo "== a warm cache verifies (akgc --network alexnet_tiny, then --verify on its entries) =="
# Entries keep band rows, access pairs and statement dims, not the
# relations derived from them: the verifier must rebuild and check every
# relation of a restored result, and a hit must not recompile.
python -m repro.tools.akgc --network alexnet_tiny --cache-dir "$TMP/warm" > /dev/null
python -m repro.tools.akgc --network alexnet_tiny --cache-dir "$TMP/warm" \
    --verify --cache-stats | tee "$TMP/warm_verify.txt"
grep -q "5 hits, 0 misses" "$TMP/warm_verify.txt" \
    || { echo "FAIL: the warm alexnet_tiny plan was not five disk-cache hits"; exit 1; }
grep -q "^verified      : arena + 5 subgraphs" "$TMP/warm_verify.txt" \
    || { echo "FAIL: the warm alexnet_tiny plan did not verify"; exit 1; }

echo
echo "all checks passed"
