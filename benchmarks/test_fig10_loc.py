"""Fig. 10: lines-of-code comparison for three important operators.

The paper compares the development cost of three operator implementations:
the hand-written optimized CCE kernel, the TVM schedule template, and the
AKG DSL expression.  We measure the equivalent artefacts of this
repository:

- **CCE opt**: the CCE kernel text a vendor engineer must write by hand.
  A library kernel must cover *many shape configurations* (the paper
  stresses manual code "fails to scale with different shape
  configurations"), so we emit the specialised kernel for several
  representative shapes and sum them -- the union of cases a hand-written
  generic kernel embeds as branches.
- **TVM**: what a template author writes: the compute DSL plus the
  schedule template.  The templates are the vendor team's, written
  against TVM's primitive set (split / reorder / vectorize / tensorize /
  double_buffer / compute_at); they are kept here as text, counted and
  never run -- the TVM baseline builds at the vendor tile sizes of
  ``repro.tvmbaseline.compiler.expert_tile_sizes``.
- **AKG**: only the compute DSL (scheduling is fully automatic).

Expected shape: CCE >> TVM > AKG.
"""

from __future__ import annotations

from typing import Dict

from benchmarks.common import run_once
from repro.ir import ops
from repro.ir.tensor import placeholder

# What a user literally writes in the te DSL (cf. Fig. 3a of the paper).
DSL_SNIPPETS = {
    "conv2d": '''
D = placeholder((16, 64, 28, 28), "fp16", "D")
W = placeholder((64, 64, 3, 3), "fp16", "W")
rc = reduce_axis((0, 64), "rc")
rkh = reduce_axis((0, 3), "rkh")
rkw = reduce_axis((0, 3), "rkw")
C = compute((16, 64, 28, 28), lambda n, o, h, w: te_sum(
    D[n, rc, h + rkh - 1, w + rkw - 1] * W[o, rc, rkh, rkw],
    axis=(rc, rkh, rkw)), name="conv")
''',
    "matmul": '''
A = placeholder((512, 512), "fp16", "A")
B = placeholder((512, 512), "fp16", "B")
k = reduce_axis((0, 512), "k")
C = compute((512, 512), lambda i, j: te_sum(A[i, k] * B[k, j], axis=k),
            name="matmul")
''',
    "relu": '''
X = placeholder((16, 64, 28, 28), "fp16", "X")
R = compute(X.shape, lambda *i: relu(X[i]), name="relu")
''',
}

# The schedule template a TVM user writes beside the DSL, per operator.
TVM_TEMPLATES = {
    "conv2d": '''
def conv2d_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Convolution: spatial blocking, full channels, tensorized MMAD."""
    n, co, ho, wo = (a.name for a in out.op.axes)
    rc = out.op.reduce_axes[0].name
    no, ni = s.split(out, n, 1)
    hoo, hoi = s.split(out, ho, 32)
    s.reorder(out, [no, hoo, ni, hoi, wo])
    s.tensorize(out, rc)
    s.double_buffer(out)
''',
    "matmul": '''
def matmul_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """GEMM: classic two-level blocking + tensorize, as vendors write it."""
    i = out.op.axes[0].name
    j = out.op.axes[1].name
    k = out.op.reduce_axes[0].name
    io, ii = s.split(out, i, 64)
    jo, ji = s.split(out, j, 256)
    s.reorder(out, [io, jo, ii, ji])
    s.tensorize(out, k)
    s.double_buffer(out)
''',
    "relu": '''
def elementwise_template(s: Schedule, out: Tensor, hw: HardwareSpec) -> None:
    """Vector ops: block rows to fill half of UB, vectorize the last axis."""
    axes = [a.name for a in out.op.axes]
    elems_budget = hw.usable_capacity("UB") // (4 * hw.dtype_bytes(out.dtype))
    inner_elems = 1
    for extent in reversed(out.shape[1:]):
        inner_elems *= extent
    rows = max(min(out.shape[0], elems_budget // max(inner_elems, 1)), 1)
    ro, ri = s.split(out, axes[0], rows)
    s.vectorize(out, axes[-1] if len(axes) > 1 else ri)
    s.double_buffer(out)
    for producer_name, stage in list(s.stages.items()):
        if stage.tensor is not out and stage.compute_at is None:
            # Attach pointwise producers at the block level (the only
            # fusion compute_at supports on this backend).
            try:
                s.compute_at(stage.tensor, out, ro)
            except Exception:
                pass
''',
}

# Shape configurations a hand-written library kernel must cover.
_CCE_SHAPE_CASES = {
    "conv2d": [(32, 28, 3), (64, 28, 3), (64, 14, 1), (32, 56, 5)],
    "matmul": [(256, 256), (512, 512), (1024, 512), (768, 1024)],
    "relu": [(64, 28), (128, 14), (32, 56), (96, 7)],
}


def _loc(text: str) -> int:
    """Non-blank lines that are not comments or docstring lines."""
    return sum(
        1
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith(("#", '"""', "'''"))
    )


def _emitted_loc(outputs) -> int:
    from repro.core.compiler import build

    code = build(outputs, "loc_probe").cce_code()
    body = code.split("/* schedule-tree AST")[0]
    return sum(1 for ln in body.splitlines() if ln.strip())


def _cce_loc(name: str) -> int:
    total = 0
    for case in _CCE_SHAPE_CASES[name]:
        if name == "conv2d":
            c, s, k = case
            d = placeholder((16, c, s, s), dtype="fp16", name="D")
            w = placeholder((c, c, k, k), dtype="fp16", name="W")
            t = ops.conv2d(d, w, padding=(k // 2, k // 2), name="conv")
        elif name == "matmul":
            m, n = case
            a = placeholder((m, n), dtype="fp16", name="A")
            b = placeholder((n, m), dtype="fp16", name="B")
            t = ops.matmul(a, b, name="mm")
        else:
            c, s = case
            x = placeholder((16, c, s, s), dtype="fp16", name="X")
            t = ops.relu(x, name="relu")
        total += _emitted_loc(t)
    return total


#: EXPERIMENTS.md's Fig. 10 table.
EXPECTED = {
    "conv2d": {"cce_opt": 136, "tvm": 16, "akg": 8},
    "matmul": {"cce_opt": 138, "tvm": 14, "akg": 5},
    "relu": {"cce_opt": 88, "tvm": 18, "akg": 2},
}


def test_fig10_lines_of_code(benchmark):
    """LoC of each development style per operator (lower is better)."""

    def compute() -> Dict[str, Dict[str, int]]:
        table = {}
        for name in ("conv2d", "matmul", "relu"):
            dsl = _loc(DSL_SNIPPETS[name])
            table[name] = {
                "cce_opt": _cce_loc(name),
                "tvm": dsl + _loc(TVM_TEMPLATES[name]),
                "akg": dsl,
            }
        return table

    table = run_once(benchmark, compute)
    print("\n[Fig10] lines of code (lower is better)")
    print(f"  {'operator':<10}{'CCE opt':>10}{'TVM':>10}{'AKG':>10}")
    for name, row in table.items():
        print(f"  {name:<10}{row['cce_opt']:>10}{row['tvm']:>10}{row['akg']:>10}")
    if benchmark is not None:
        for name, row in table.items():
            for k, v in row.items():
                benchmark.extra_info[f"{name}_{k}"] = v

    for name, row in table.items():
        assert row["cce_opt"] > row["tvm"] > row["akg"], name
    assert table == EXPECTED
