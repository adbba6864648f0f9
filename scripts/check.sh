#!/usr/bin/env bash
# One-button pre-push check: tier-1 tests, a bench smoke run, and a
# disk-cache round trip through the real CLI.  Run from the repo root:
#
#     bash scripts/check.sh          # everything
#     bash scripts/check.sh --fast   # tier-1 + quick smokes only
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
if command -v ruff > /dev/null 2>&1; then
    ruff check src tests
    # ruff's configured rule set does not carry the service-scoped
    # silent-except ban (E722/S110 under src/repro/service); the
    # fallback linter does, so run it on that subtree regardless.
    python -m repro.tools.lint src/repro/service
else
    python -m repro.tools.lint src tests
fi

echo
echo "== tier-1 test suite =="
python -m pytest tests/ -x -q

echo
echo "== bench smoke (quick pipeline suite) =="
python -m repro.tools.bench --quick --out /tmp/bench_smoke.json
rm -f /tmp/bench_smoke.json

echo
echo "== shape-generic smoke (one compile, two batch sizes) =="
SHAPES_CACHE_DIR="$(mktemp -d)"
REPRO_CACHE_DIR="$SHAPES_CACHE_DIR" python - <<'EOF'
import numpy as np

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.ir.lower import lower
from repro.runtime.reference import evaluate_kernel
from repro.service.wire import demo_kernel

diskcache.reset_shapeclass_stats()
opts = AkgOptions(emit_trace=True)
res = build(demo_kernel("relu", [8, 32], batch_max=8), "shapes_smoke", options=opts)
assert res.kernel.shape_generic, "relu class failed the parametric proof"
# A second batch size of the same class must answer from the cache.
build(demo_kernel("relu", [3, 32], batch_max=8), "shapes_smoke", options=opts)
sc = diskcache.shapeclass_stats()
assert sc["hits"] >= 1, f"second batch size recompiled: {sc}"
rng = np.random.default_rng(0)
for b in (3, 8):
    x = rng.standard_normal((b, 32)).astype(np.float16)
    got = res.execute({"X": x})["out"]
    oracle = lower(demo_kernel("relu", [b, 32]), "oracle")
    want = evaluate_kernel(oracle, {"X": x}, engine="scalar")["out"]
    assert got.shape == (b, 32), got.shape
    assert np.array_equal(got, want), f"replay != oracle at batch {b}"
print("shapes smoke ok: 1 compile, batch 3 and 8 replays bit-identical")
EOF
rm -rf "$SHAPES_CACHE_DIR"

echo
echo "== chaos-serve smoke (service fault tolerance under load) =="
# Runs in --fast too: the service's ok-or-typed contract under faults is
# a correctness gate, not a performance measurement.
python -m repro.tools.bench --chaos-serve --quick \
    --out /tmp/bench_chaosserve_smoke.json
python - <<'EOF'
import json
report = json.load(open("/tmp/bench_chaosserve_smoke.json"))
assert report["all_ok"], "chaos-serve scenarios failed"
for name, row in report["scenarios"].items():
    assert row["untyped"] == 0, f"{name}: untyped failures escaped"
    assert row["hangs"] == 0, f"{name}: a request hung"
assert report["replay"]["bit_identical"], "served replay != scalar oracle"
print("chaos-serve smoke ok:", ", ".join(report["scenarios"]))
EOF
rm -f /tmp/bench_chaosserve_smoke.json

if [ "$FAST" -eq 1 ]; then
    echo
    echo "all checks passed (--fast: slow bench steps skipped)"
    exit 0
fi

echo
echo "== repo benchmark smoke (compile_sched + compile_tile + serve_mix, correctness checks) =="
# Non-zero exit = a failed correctness check (replay != oracle, a
# RuntimeWarning, a warm request that missed the memo, ...); set -e stops
# the script.  Timings are not gated here.
python3 bench/run.py --quick --workload compile_sched
python3 bench/run.py --quick --workload compile_tile
python3 bench/run.py --quick --workload serve_mix

echo
echo "== execution-engine equivalence (scalar vs vectorized) =="
python -m pytest tests/runtime/test_vectorized.py \
    tests/codegen/test_exec_vectorized.py -q

echo
echo "== bench smoke (quick exec suite) =="
python -m repro.tools.bench --exec --quick --out /tmp/bench_exec_smoke.json
rm -f /tmp/bench_exec_smoke.json

echo
echo "== chaos sweep (single-fault scenarios, typed-or-identical) =="
python -m pytest tests/tools/test_chaos.py -m chaos -q
python -m repro.tools.bench --chaos --quick --out /tmp/bench_chaos_smoke.json
rm -f /tmp/bench_chaos_smoke.json

echo
echo "== static verifier smoke (clean pass + seeded mutant) =="
python -m repro.tools.akgc matmul --shape 16,16,16 --no-disk-cache --verify \
    | tee /tmp/akgc_verify.txt
grep -q "verified      :" /tmp/akgc_verify.txt \
    || { echo "FAIL: akgc --verify did not report verification"; exit 1; }
rm -f /tmp/akgc_verify.txt
python - <<'EOF'
from repro.core import diskcache
from repro.core.compiler import build
from repro.core.errors import VerificationError
from repro.service.wire import demo_kernel
from repro.verify import verify_result
from repro.verify.mutate import seeded_mutations

with diskcache.disabled():
    result = build(demo_kernel("matmul", [16, 16, 16]), "verify_smoke")
mutants = seeded_mutations(result)
assert mutants, "no mutations applied to the matmul kernel"
for name, mutant in mutants:
    try:
        verify_result(mutant)
    except VerificationError:
        continue
    raise SystemExit(f"FAIL: mutant {name} survived the verifier")
print(f"verify smoke ok: clean pass + {len(mutants)} mutants rejected")
EOF

echo
echo "== network pipeline smoke (compile + batched replay) =="
python -m repro.tools.bench --network --quick --out /tmp/bench_network_smoke.json
python - <<'EOF'
import json
report = json.load(open("/tmp/bench_network_smoke.json"))
for name, row in report["networks"].items():
    assert row["bit_identical"], f"{name}: replay != scalar oracle"
    assert not row["degraded"], f"{name}: plan degraded"
    assert row["scalar_fallbacks"] == 0, f"{name}: vectorized replay fell back"
    arena = row["arena"]
    assert arena["planned_peak_bytes"] < arena["naive_peak_bytes"], (
        f"{name}: arena planner saved nothing"
    )
print("network smoke ok:", ", ".join(report["networks"]))
EOF
rm -f /tmp/bench_network_smoke.json

echo
echo "== network degradation roll-up (mid-network subgraph fault) =="
NET_CACHE_DIR="$(mktemp -d)"
REPRO_FAULT_SPEC="tiling.auto_search:error" REPRO_CACHE_DIR="$NET_CACHE_DIR" \
    python -m repro.tools.akgc --network alexnet_tiny --resilience-stats \
    | tee /tmp/akgc_network_fault.txt
grep -q "degraded      : yes" /tmp/akgc_network_fault.txt \
    || { echo "FAIL: mid-network fault did not mark the plan degraded"; exit 1; }
rm -rf "$NET_CACHE_DIR" /tmp/akgc_network_fault.txt

echo
echo "== compile-service smoke (akgd daemon, mixed requests) =="
SERVE_CACHE_DIR="$(mktemp -d)"
READY_FILE="$(mktemp)"
: > "$READY_FILE"
REPRO_CACHE_DIR="$SERVE_CACHE_DIR" \
    python -m repro.tools.akgd --port 0 --workers 2 \
    --ready-file "$READY_FILE" > /tmp/akgd_smoke.log 2>&1 &
AKGD_PID=$!
for _ in $(seq 1 100); do
    [ -s "$READY_FILE" ] && break
    sleep 0.1
done
[ -s "$READY_FILE" ] \
    || { echo "FAIL: akgd never became ready"; kill "$AKGD_PID"; exit 1; }
AKGD_PORT="$(awk '{print $2}' "$READY_FILE")"
# 8 mixed requests down one kept-alive connection: 7 healthy (duplicates
# coalesce/memo-hit) + 1 with an injected fault that must come back as a
# typed per-request error while the daemon keeps serving.
python - "$AKGD_PORT" <<'EOF'
import sys

from repro.service.client import ServiceClient

client = ServiceClient(port=int(sys.argv[1]), timeout=300.0)
payloads = [
    {"kind": "compile", "op": "relu", "shape": [32, 48]},
    {"kind": "compile", "op": "relu", "shape": [32, 48]},      # duplicate
    {"kind": "compile", "op": "matmul", "shape": [16, 16, 16]},
    {"kind": "compile", "op": "matmul", "shape": [16, 16, 16]},  # duplicate
    {"kind": "compile", "op": "add", "shape": [24, 24]},
    {"kind": "replay", "op": "relu", "shape": [8, 12], "seed": 3},
    {"kind": "compile", "op": "relu", "shape": [16, 16],
     "fault_spec": "storage.promote:error"},                   # the bad one
    {"kind": "compile", "op": "softmax", "shape": [16, 32]},
]
responses = [client.request(p) for p in payloads]
ok = [r for r in responses if r["ok"]]
bad = [r for r in responses if not r["ok"]]
assert len(ok) == 7, f"expected 7 ok, got {len(ok)}"
assert len(bad) == 1 and bad[0]["error"]["type"] == "CodegenError", bad
assert bad[0]["error"]["exit_code"] == 8, bad
# Duplicates are bit-identical to their originals.
assert responses[1]["program_sha256"] == responses[0]["program_sha256"]
assert responses[3]["program_sha256"] == responses[2]["program_sha256"]
# The daemon survived the faulted request and still answers.
assert client.ping(), "daemon dead after faulted request"
stats = client.stats()
# Duplicates may be served from the memo instead of re-building:
# built + memo-answered must cover all 7 healthy requests.
assert stats["completed"] + stats["memo_hits"] >= 7, stats
assert stats["failed"] == 1, stats
# All of it — 8 requests, the ping, this stats call — shared one connection.
server = stats["server"]
assert server["connections_accepted"] == 1, server
assert server["requests_served"] == 9, server
print(f"serve smoke ok: 7 ok + 1 typed error, "
      f"{stats['coalesced']} coalesced, {stats['memo_hits']} memo hits, "
      f"{server['requests_served']} requests on "
      f"{server['connections_accepted']} connection")
client.shutdown()
client.close()
EOF
wait "$AKGD_PID" || true
rm -rf "$SERVE_CACHE_DIR" "$READY_FILE" /tmp/akgd_smoke.log

echo
echo "== typed CLI exit codes under injection =="
set +e
REPRO_FAULT_SPEC="ilp.solve:error" \
    python -m repro.tools.akgc matmul --shape 12,10,8 --no-disk-cache \
    > /dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] \
    || { echo "FAIL: expected exit 3 (SolverBudgetError), got $code"; exit 1; }

echo
echo "== disk-cache round trip (cold akgc, then warm) =="
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
python -m repro.tools.akgc relu --shape 64,128 \
    --cache-dir "$CACHE_DIR" --cache-stats
python -m repro.tools.akgc relu --shape 64,128 \
    --cache-dir "$CACHE_DIR" --cache-stats \
    | tee /tmp/akgc_warm.txt
grep -q "disk cache    : [1-9]" /tmp/akgc_warm.txt \
    || { echo "FAIL: warm akgc run did not hit the disk cache"; exit 1; }
rm -f /tmp/akgc_warm.txt

echo
echo "all checks passed"
