"""Operator library: the DL operators used throughout the paper's evaluation.

Every operator is expressed through the public ``te`` DSL, exactly like the
paper's inputs: the graph engine hands AKG a fused subgraph written in this
vocabulary.  The ten single operators of Sec. 6.1 are all here (conv2d,
matmul, relu, batched matmul, cast, transpose, one-hot, add, BatchNorm
training reduction / update), plus the vector operators that appear inside
the five fused subgraphs of Sec. 6.2.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.ir.expr import BinaryOp, Cast, FloatImm, Select, UnaryOp, wrap
from repro.ir.tensor import Tensor, compute, reduce_axis, te_max, te_sum


# -- element-wise helpers --------------------------------------------------------


def elementwise_unary(x: Tensor, op: str, name: Optional[str] = None) -> Tensor:
    """Apply a unary math op to every element."""
    return compute(
        x.sym_shape, lambda *idx: UnaryOp(op, x[tuple(idx)]), name=name or f"{op}_out"
    )


def elementwise_binary(
    a: Tensor, b: Tensor, op: str, name: Optional[str] = None
) -> Tensor:
    """Apply a binary op element-wise (shapes must match, symbolic dims too)."""
    if a.sym_shape != b.sym_shape:
        raise ValueError(f"shape mismatch {a.sym_shape} vs {b.sym_shape}")
    return compute(
        a.sym_shape,
        lambda *idx: BinaryOp(op, a[tuple(idx)], b[tuple(idx)]),
        name=name or f"{op}_out",
    )


def add(a: Tensor, b: Tensor, name: Optional[str] = None) -> Tensor:
    """Tensor addition (op8 of Sec. 6.1)."""
    return elementwise_binary(a, b, "add", name or "add")


def mul(a: Tensor, b: Tensor, name: Optional[str] = None) -> Tensor:
    """Element-wise multiplication."""
    return elementwise_binary(a, b, "mul", name or "mul")


def sub(a: Tensor, b: Tensor, name: Optional[str] = None) -> Tensor:
    """Element-wise subtraction."""
    return elementwise_binary(a, b, "sub", name or "sub")


def relu(x: Tensor, name: Optional[str] = None) -> Tensor:
    """ReLU (op3)."""
    return elementwise_unary(x, "relu", name or "relu")


def sigmoid(x: Tensor, name: Optional[str] = None) -> Tensor:
    """Logistic sigmoid."""
    return elementwise_unary(x, "sigmoid", name or "sigmoid")


def tanh_op(x: Tensor, name: Optional[str] = None) -> Tensor:
    """Hyperbolic tangent."""
    return elementwise_unary(x, "tanh", name or "tanh")


def exp(x: Tensor, name: Optional[str] = None) -> Tensor:
    """Element-wise exponential."""
    return elementwise_unary(x, "exp", name or "exp")


def abs_op(x: Tensor, name: Optional[str] = None) -> Tensor:
    """Element-wise absolute value."""
    return elementwise_unary(x, "abs", name or "abs")


def scalar_add(x: Tensor, value: float, name: Optional[str] = None) -> Tensor:
    """Add a scalar constant to every element (bias in the running example)."""
    return compute(
        x.sym_shape, lambda *idx: x[tuple(idx)] + wrap(value), name=name or "scalar_add"
    )


def scalar_mul(x: Tensor, value: float, name: Optional[str] = None) -> Tensor:
    """Multiply every element by a scalar constant."""
    return compute(
        x.sym_shape, lambda *idx: x[tuple(idx)] * wrap(value), name=name or "scalar_mul"
    )


def cast(x: Tensor, dtype: str, name: Optional[str] = None) -> Tensor:
    """Precision conversion (op5)."""
    return compute(
        x.sym_shape,
        lambda *idx: Cast(dtype, x[tuple(idx)]),
        name=name or "cast",
        dtype=dtype,
    )


def broadcast_add_channel(x: Tensor, bias: Tensor, name: Optional[str] = None) -> Tensor:
    """Add a per-channel vector ``bias[c]`` to an NCHW tensor."""
    if len(x.shape) != 4 or bias.shape != (x.shape[1],):
        raise ValueError("broadcast_add_channel expects NCHW and bias[C]")
    return compute(
        x.sym_shape,
        lambda n, c, h, w: x[n, c, h, w] + bias[c],
        name=name or "bias_add",
    )


# -- data movement operators ------------------------------------------------------


def scale_shift_channel(
    x: Tensor, gamma: Tensor, beta: Tensor, name: Optional[str] = None
) -> Tensor:
    """Per-channel affine ``x * gamma[c] + beta[c]`` on NCHW (folded BN)."""
    if len(x.shape) != 4 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError("scale_shift_channel expects NCHW with [C] params")
    return compute(
        x.sym_shape,
        lambda n, c, h, w: x[n, c, h, w] * gamma[c] + beta[c],
        name=name or "scale_shift",
    )


def transpose(x: Tensor, perm: Sequence[int], name: Optional[str] = None) -> Tensor:
    """Dimension permutation (op6)."""
    if sorted(perm) != list(range(len(x.shape))):
        raise ValueError(f"bad permutation {perm}")
    out_shape = tuple(x.sym_shape[p] for p in perm)

    def body(*idx):
        src = [None] * len(perm)
        for out_pos, in_pos in enumerate(perm):
            src[in_pos] = idx[out_pos]
        return x[tuple(src)]

    return compute(out_shape, body, name=name or "transpose")


def one_hot(
    indices: Tensor,
    depth: int,
    on_value: float = 1.0,
    off_value: float = 0.0,
    name: Optional[str] = None,
) -> Tensor:
    """One-hot encoding (op7): out[i, d] = indices[i] == d ? on : off.

    The comparison against a data value makes the read non-affine; lowering
    marks the access accordingly and the compiler falls back to whole-row
    footprints, as AKG does for gather-like patterns.
    """
    if len(indices.shape) != 1:
        raise ValueError("one_hot expects a 1-D index tensor")
    n = indices.sym_shape[0]
    return compute(
        (n, depth),
        lambda i, d: Select(
            BinaryOp("eq", indices[i], d), FloatImm(on_value), FloatImm(off_value)
        ),
        name=name or "one_hot",
    )


def pad2d(x: Tensor, pad_h: int, pad_w: int, name: Optional[str] = None) -> Tensor:
    """Zero-pad the two trailing spatial dims of an NCHW tensor."""
    if pad_h == 0 and pad_w == 0:
        return x
    n, c, h, w = x.shape
    out_shape = (x.sym_shape[0], c, h + 2 * pad_h, w + 2 * pad_w)

    def body(nn, cc, hh, ww):
        cond = BinaryOp(
            "and",
            BinaryOp(
                "and",
                BinaryOp("ge", hh, wrap(pad_h)),
                BinaryOp("lt", hh, wrap(h + pad_h)),
            ),
            BinaryOp(
                "and",
                BinaryOp("ge", ww, wrap(pad_w)),
                BinaryOp("lt", ww, wrap(w + pad_w)),
            ),
        )
        return Select(cond, x[nn, cc, hh - pad_h, ww - pad_w], FloatImm(0.0))

    return compute(out_shape, body, name=name or "pad")


# -- contraction operators ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor, name: Optional[str] = None) -> Tensor:
    """Matrix product (op2): C[i, j] = sum_k A[i, k] * B[k, j]."""
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    m, k = a.sym_shape[0], a.shape[1]
    _, n = b.shape
    kk = reduce_axis((0, k), "k_red")
    return compute(
        (m, n),
        lambda i, j: te_sum(a[i, kk] * b[kk, j], axis=kk),
        name=name or "matmul",
    )


def batched_matmul(a: Tensor, b: Tensor, name: Optional[str] = None) -> Tensor:
    """Batched matrix product (op4) over a leading batch dim."""
    if len(a.shape) != 3 or len(b.shape) != 3:
        raise ValueError("batched_matmul expects 3-D operands")
    if a.sym_shape[0] != b.sym_shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"batched_matmul shape mismatch: {a.shape} x {b.shape}")
    batch, m, k = a.sym_shape[0], a.shape[1], a.shape[2]
    _, _, n = b.shape
    kk = reduce_axis((0, k), "bk_red")
    return compute(
        (batch, m, n),
        lambda bb, i, j: te_sum(a[bb, i, kk] * b[bb, kk, j], axis=kk),
        name=name or "batched_matmul",
    )


def conv2d(
    data: Tensor,
    weight: Tensor,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    name: Optional[str] = None,
) -> Tensor:
    """2-D convolution in NCHW layout (op1).

    ``data`` is ``[N, C, H, W]``, ``weight`` is ``[CO, C, KH, KW]``.
    Padding is folded into the access itself as a guarded affine read --
    exactly how the img2col transformation of Eq. 1 carries ``pad_h`` /
    ``pad_w`` into the MTE: no separate padded tensor ever materialises,
    and every compile path sees a plain affine stencil on the raw input.
    """
    if len(data.shape) != 4 or len(weight.shape) != 4:
        raise ValueError("conv2d expects NCHW data and OIHW weight")
    n, c, h, w = data.sym_shape[0], data.shape[1], data.shape[2], data.shape[3]
    co, ci, kh, kw = weight.shape
    if ci != c:
        raise ValueError(f"channel mismatch: data C={c}, weight CI={ci}")
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    rc = reduce_axis((0, c), "rc")
    rkh = reduce_axis((0, kh), "rkh")
    rkw = reduce_axis((0, kw), "rkw")

    def body(nn, oo, hh, ww):
        hi = hh * sh + rkh - ph
        wi = ww * sw + rkw - pw
        patch = data[nn, rc, hi, wi]
        if ph or pw:
            in_bounds = BinaryOp(
                "and",
                BinaryOp(
                    "and", BinaryOp("ge", hi, wrap(0)), BinaryOp("lt", hi, wrap(h))
                ),
                BinaryOp(
                    "and", BinaryOp("ge", wi, wrap(0)), BinaryOp("lt", wi, wrap(w))
                ),
            )
            patch = Select(in_bounds, patch, FloatImm(0.0))
        return te_sum(patch * weight[oo, rc, rkh, rkw], axis=(rc, rkh, rkw))

    return compute((n, co, ho, wo), body, name=name or "conv2d")


# -- normalisation operators ----------------------------------------------------------


def batch_norm_reduce(x: Tensor, name: Optional[str] = None) -> Tuple[Tensor, Tensor]:
    """BatchNorm training reduction (op9): per-channel sum and square-sum."""
    if len(x.shape) != 4:
        raise ValueError("batch_norm_reduce expects NCHW")
    n, c, h, w = x.shape
    rn = reduce_axis((0, n), "bn_rn")
    rh = reduce_axis((0, h), "bn_rh")
    rw = reduce_axis((0, w), "bn_rw")
    total = compute(
        (c,),
        lambda cc: te_sum(x[rn, cc, rh, rw], axis=(rn, rh, rw)),
        name=f"{name or 'bn'}_sum",
    )
    rn2 = reduce_axis((0, n), "bn_rn2")
    rh2 = reduce_axis((0, h), "bn_rh2")
    rw2 = reduce_axis((0, w), "bn_rw2")
    sq = compute(
        (c,),
        lambda cc: te_sum(x[rn2, cc, rh2, rw2] * x[rn2, cc, rh2, rw2], axis=(rn2, rh2, rw2)),
        name=f"{name or 'bn'}_sqsum",
    )
    return total, sq


def batch_norm_update(
    x: Tensor,
    mean: Tensor,
    var: Tensor,
    gamma: Tensor,
    beta: Tensor,
    epsilon: float = 1e-5,
    name: Optional[str] = None,
) -> Tensor:
    """BatchNorm training update (op10): normalise + scale + shift."""
    if len(x.shape) != 4:
        raise ValueError("batch_norm_update expects NCHW")
    return compute(
        x.sym_shape,
        lambda n, c, h, w: (
            (x[n, c, h, w] - mean[c])
            * UnaryOp("rsqrt", var[c] + wrap(epsilon))
            * gamma[c]
            + beta[c]
        ),
        name=name or "bn_update",
    )


def depthwise_conv2d(
    data: Tensor,
    weight: Tensor,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    name: Optional[str] = None,
) -> Tensor:
    """Depthwise 2-D convolution (MobileNet): ``weight`` is ``[C, KH, KW]``."""
    if len(data.shape) != 4 or len(weight.shape) != 3:
        raise ValueError("depthwise_conv2d expects NCHW data and [C,KH,KW] weight")
    n, c, h, w = data.sym_shape[0], data.shape[1], data.shape[2], data.shape[3]
    cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"channel mismatch: data C={c}, weight C={cw}")
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    rkh = reduce_axis((0, kh), "dkh")
    rkw = reduce_axis((0, kw), "dkw")

    def body(nn, cc, hh, ww):
        hi = hh * sh + rkh - ph
        wi = ww * sw + rkw - pw
        patch = data[nn, cc, hi, wi]
        if ph or pw:
            in_bounds = BinaryOp(
                "and",
                BinaryOp(
                    "and", BinaryOp("ge", hi, wrap(0)), BinaryOp("lt", hi, wrap(h))
                ),
                BinaryOp(
                    "and", BinaryOp("ge", wi, wrap(0)), BinaryOp("lt", wi, wrap(w))
                ),
            )
            patch = Select(in_bounds, patch, FloatImm(0.0))
        return te_sum(patch * weight[cc, rkh, rkw], axis=(rkh, rkw))

    return compute((n, c, ho, wo), body, name=name or "depthwise")


def _pool2d(data, window, stride, reducer, name):
    n, c, h, w = data.sym_shape[0], data.shape[1], data.shape[2], data.shape[3]
    kh, kw = window
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    rkh = reduce_axis((0, kh), "pkh")
    rkw = reduce_axis((0, kw), "pkw")
    return compute(
        (n, c, ho, wo),
        lambda nn, cc, hh, ww: reducer(
            data[nn, cc, hh * sh + rkh, ww * sw + rkw], (rkh, rkw)
        ),
        name=name,
    )


def max_pool2d(
    data: Tensor,
    window: Tuple[int, int] = (2, 2),
    stride: Optional[Tuple[int, int]] = None,
    name: Optional[str] = None,
) -> Tensor:
    """Max pooling over spatial windows."""
    from repro.ir.tensor import te_max

    stride = stride or window
    return _pool2d(
        data, window, stride, lambda v, ax: te_max(v, axis=ax), name or "maxpool"
    )


def avg_pool2d(
    data: Tensor,
    window: Tuple[int, int] = (2, 2),
    stride: Optional[Tuple[int, int]] = None,
    name: Optional[str] = None,
) -> Tensor:
    """Average pooling over spatial windows."""
    stride = stride or window
    kh, kw = window
    total = _pool2d(
        data, window, stride, lambda v, ax: te_sum(v, axis=ax), f"{name or 'avgpool'}_sum"
    )
    return scalar_mul(total, 1.0 / (kh * kw), name=name or "avgpool")


def gelu(x: Tensor, name: Optional[str] = None) -> Tensor:
    """GELU (tanh approximation), the BERT activation."""
    name = name or "gelu"
    cube_term = compute(
        x.sym_shape,
        lambda *idx: x[tuple(idx)] * x[tuple(idx)] * x[tuple(idx)] * wrap(0.044715)
        + x[tuple(idx)],
        name=f"{name}_inner",
    )
    t = compute(
        x.sym_shape,
        lambda *idx: UnaryOp("tanh", cube_term[tuple(idx)] * wrap(0.7978845608)),
        name=f"{name}_tanh",
    )
    return compute(
        x.sym_shape,
        lambda *idx: x[tuple(idx)] * (t[tuple(idx)] + 1.0) * wrap(0.5),
        name=name,
    )


def layer_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    epsilon: float = 1e-5,
    name: Optional[str] = None,
) -> Tensor:
    """Layer normalisation over the last axis (BERT)."""
    *lead, _ = x.sym_shape
    last = x.shape[-1]
    name = name or "ln"
    r1 = reduce_axis((0, last), "ln_r1")
    mean = compute(
        tuple(lead),
        lambda *idx: te_sum(x[tuple(idx) + (r1,)], axis=r1),
        name=f"{name}_sum",
    )
    r2 = reduce_axis((0, last), "ln_r2")
    sq = compute(
        tuple(lead),
        lambda *idx: te_sum(
            x[tuple(idx) + (r2,)] * x[tuple(idx) + (r2,)], axis=r2
        ),
        name=f"{name}_sqsum",
    )
    inv_n = 1.0 / last
    return compute(
        x.sym_shape,
        lambda *idx: (
            (x[tuple(idx)] - mean[tuple(idx[:-1])] * wrap(inv_n))
            * UnaryOp(
                "rsqrt",
                sq[tuple(idx[:-1])] * wrap(inv_n)
                - mean[tuple(idx[:-1])] * mean[tuple(idx[:-1])] * wrap(inv_n * inv_n)
                + wrap(epsilon),
            )
            * gamma[idx[-1]]
            + beta[idx[-1]]
        ),
        name=name,
    )


def embedding_lookup(
    table: Tensor, indices: Tensor, name: Optional[str] = None
) -> Tensor:
    """Gather rows of ``table`` by ``indices`` (BERT input embedding)."""
    if len(table.shape) != 2 or len(indices.shape) != 1:
        raise ValueError("embedding_lookup expects table[V,H] and indices[N]")
    n = indices.sym_shape[0]
    hidden = table.shape[1]
    return compute(
        (n, hidden),
        lambda i, h: table[indices[i], h],
        name=name or "embedding",
    )


def softmax_last_axis(x: Tensor, name: Optional[str] = None) -> Tensor:
    """Numerically-stable softmax over the last axis (used in BERT subgraphs)."""
    *lead, _ = x.sym_shape
    last = x.shape[-1]
    rmax = reduce_axis((0, last), "sm_rmax")
    mx = compute(
        tuple(lead),
        lambda *idx: te_max(x[tuple(idx) + (rmax,)], axis=rmax),
        name=f"{name or 'softmax'}_max",
    )
    ex = compute(
        x.sym_shape,
        lambda *idx: UnaryOp("exp", x[tuple(idx)] - mx[tuple(idx[:-1])]),
        name=f"{name or 'softmax'}_exp",
    )
    rsum = reduce_axis((0, last), "sm_rsum")
    total = compute(
        tuple(lead),
        lambda *idx: te_sum(ex[tuple(idx) + (rsum,)], axis=rsum),
        name=f"{name or 'softmax'}_sum",
    )
    return compute(
        x.sym_shape,
        lambda *idx: ex[tuple(idx)] / total[tuple(idx[:-1])],
        name=name or "softmax",
    )
