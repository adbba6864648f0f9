"""The img2col transformation (Sec. 4.5, Fig. 6 and Eq. 1).

img2col rewrites a convolution as a GEMM: every local input patch becomes
a row of the matrix ``X``, the kernels become columns of ``Y`` and the
output feature map flattens into ``Z``.  On DaVinci the data expansion is
performed by the memory transfer engine (MTE) while the *iteration-space*
side is handled polyhedrally; this module provides
:func:`img2col_index_map` -- the affine relation of Eq. 1 between the
5-D input feature map ``A[N, C1, Hi, Wi, C0]`` and the fractal matrix
``X[N, Mo, Ko, Mi, Ki]``, exposed as index arithmetic (with the floor/
modulo pairs modelled through auxiliary dimensions) and as a plain
Python function for testing.
"""

from __future__ import annotations

from typing import Sequence, Tuple


class Img2ColParams:
    """Geometry of one convolution as consumed by img2col."""

    def __init__(
        self,
        kh: int,
        kw: int,
        stride: Tuple[int, int] = (1, 1),
        padding: Tuple[int, int] = (0, 0),
        out_width: int = 1,
        fractal: int = 16,
    ):
        self.kh = kh
        self.kw = kw
        self.sh, self.sw = stride
        self.pad_h, self.pad_w = padding
        self.wo = out_width
        self.f = fractal

    def __repr__(self) -> str:
        return (
            f"Img2ColParams(k={self.kh}x{self.kw}, s=({self.sh},{self.sw}), "
            f"pad=({self.pad_h},{self.pad_w}), wo={self.wo}, f={self.f})"
        )


def img2col_index_map(
    params: Img2ColParams, x_index: Sequence[int]
) -> Tuple[int, int, int, int, int]:
    """Eq. 1: map matrix-X indices to input-feature-map indices.

    ``x_index`` is ``(i0', i1', i2', i3', i4')`` = ``(N, Mo, Ko, Mi, Ki)``
    of the fractal matrix X; the result is ``(i0, i1, i2, i3, i4)`` =
    ``(N, C1, Hi, Wi, C0)`` of the 5-D input feature maps, following the
    paper verbatim::

        i0 = i0';  i1 = floor(i2' / (KH*KW));  i4 = i4'
        i2 = floor((i1'*f + i3') / wo) * sh + floor(i2' / KW) % KH - pad_h
        i3 = ((i1'*f + i3') % wo) * sw + i2' % KW - pad_w
    """
    i0p, i1p, i2p, i3p, i4p = x_index
    kh, kw, f, wo = params.kh, params.kw, params.f, params.wo
    m = i1p * f + i3p  # flattened output position index
    i0 = i0p
    i1 = i2p // (kh * kw)
    i2 = (m // wo) * params.sh + (i2p // kw) % kh - params.pad_h
    i3 = (m % wo) * params.sw + (i2p % kw) * 1 - params.pad_w
    i4 = i4p
    return (i0, i1, i2, i3, i4)


def inverse_patch_index(
    params: Img2ColParams, ho: int, wo_idx: int, c1: int, rkh: int, rkw: int, c0: int
) -> Tuple[int, int]:
    """Map a convolution instance to its (row m, col k) in matrix X.

    The forward direction of Fig. 6: output position ``(ho, wo_idx)``
    becomes row ``m``, and channel/kernel offsets become column ``k``.
    """
    m = ho * params.wo + wo_idx
    k = (c1 * params.kh * params.kw + rkh * params.kw + rkw) * params.f + c0
    return m, k


def is_padding_statement(stmt) -> bool:
    """True for zero-padding statements (a guarded shifted-identity copy).

    Pattern: a compute statement whose body is ``Select(cond, X[idx...],
    const)`` where every index is a shifted iteration dim.  Such statements
    are absorbed into the MTE's img2col (Eq. 1 carries ``pad_h``/``pad_w``
    directly), so they cost nothing at code-generation time.
    """
    from repro.ir.expr import FloatImm, IntImm, Select, TensorRef

    if stmt.kind != "compute":
        return False
    expr = stmt.expr
    if not isinstance(expr, Select):
        return False
    if not isinstance(expr.if_false, (FloatImm, IntImm)):
        return False
    if not isinstance(expr.if_true, TensorRef):
        return False
    ref_reads = [r for r in stmt.reads if r.tensor is expr.if_true.tensor]
    if not ref_reads or not ref_reads[0].is_affine:
        return False
    dims = set(stmt.iter_names)
    for idx in ref_reads[0].indices:
        names = idx.variables()
        if len(names) != 1 or names[0] not in dims:
            return False
        if idx.coeff(names[0]) != 1:
            return False
    return True


def is_convolution_statement(stmt) -> bool:
    """Heuristic from the access pattern: a cube statement whose non-weight
    operand is read with (data dim + reduce dim) sliding-window indices."""
    from repro.fusion.intratile import is_cube_statement

    if not is_cube_statement(stmt):
        return False
    reduce_dims = set(stmt.reduce_iters)
    for read in stmt.reads:
        if read.tensor is stmt.tensor or not read.is_affine:
            continue
        for idx in read.indices:
            vars_in = set(idx.variables())
            if vars_in & reduce_dims and vars_in - reduce_dims:
                return True  # index mixes a data dim with a reduce dim
    return False
