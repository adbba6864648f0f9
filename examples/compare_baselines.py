"""Compare the four compiler paths on a paper-style fused subgraph.

A long FP16 vector chain (like Table 1's subgraph2) compiled through:

- naive CCE       (per-op, scalar-era discipline: no latency hiding)
- optimized CCE   (per-op expert kernels with prefetching, no fusion)
- the TVM baseline (vendor tile sizes + pointwise fusion + empirical sync)
- AKG             (polyhedral scheduling + post-tiling fusion + DP sync)

Run:  python examples/compare_baselines.py
"""

from repro.cce import cce_expert_build, cce_naive_build
from repro.core.compiler import build
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.tvmbaseline.compiler import tvm_build


def chain():
    x = placeholder((64, 128, 16, 16), dtype="fp16", name="X")
    y = placeholder((64, 128, 16, 16), dtype="fp16", name="Y")
    t = ops.scalar_mul(x, 1.01, name="s0")
    t = ops.relu(t, name="r0")
    t = ops.mul(t, y, name="m0")
    t = ops.sigmoid(t, name="sig")
    t = ops.add(t, x, name="res")
    t = ops.tanh_op(t, name="tanh")
    t = ops.scalar_add(t, 0.5, name="out")
    return t


def main():
    sub = chain()
    results = {
        "naive CCE    ": cce_naive_build(chain(), "naive").cycles(),
        "optimized CCE": cce_expert_build(chain(), "expert").cycles(),
        "TVM baseline ": tvm_build(chain(), "tvm").cycles(),
        "AKG          ": build(chain(), "akg").cycles(),
    }
    akg = results["AKG          "]
    print("7-op FP16 vector subgraph on (64,128,16,16):\n")
    print(f"{'version':<16}{'cycles':>12}{'vs AKG':>10}")
    for name, cycles in results.items():
        print(f"{name:<16}{cycles:>12}{cycles / akg:>9.2f}x")
    print(
        "\nThe expert's per-operator kernels round-trip global memory"
        " between every op; the compilers fuse the chain into one tile"
        " nest (this is Fig. 12's story)."
    )


if __name__ == "__main__":
    main()
