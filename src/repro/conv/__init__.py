"""Domain-specific optimisation of convolution (Sec. 4.5).

- :mod:`repro.conv.img2col` -- the img2col transformation: index maps
  between convolution iteration space and GEMM iteration space (Eq. 1),
  plus the data-expansion bookkeeping done by the MTE.
- :mod:`repro.conv.fractal` -- the fractal GEMM decomposition: alignment
  and padding of GEMM operands to the last-level (16x16x16) block of the
  Cambricon-style fractal architecture, and the external schedule-tree
  fragment that gets grafted over the convolution subtree.
"""

from repro.conv.img2col import Img2ColParams, img2col_index_map
from repro.conv.fractal import (
    FractalGemm,
    fractal_gemm_for,
    fractal_subtree,
    gemm_shape_of,
)

__all__ = [
    "Img2ColParams",
    "img2col_index_map",
    "FractalGemm",
    "fractal_gemm_for",
    "fractal_subtree",
    "gemm_shape_of",
]
