"""Bit-parallel coverage/membership kernels.

The minimization inner loops all reduce to one question — *which of
these rows does this candidate cover?* — asked thousands of times per
covering problem.  This package answers it with int bit-masks built in
structure-grouped passes (:mod:`repro.kernels.coverage`) instead of
per-point generator enumeration — or, for the packed generator's EPPP
columns, with a packed matrix built straight from the columns — and
provides the interned-basis table (:mod:`repro.kernels.intern`) the
grouping dictionaries share keys through.

:mod:`repro.kernels.bitmat` packs the resulting column masks word-major
into uint64 matrices, on which the covering greedy proves its light
reduction a no-op, computes each round's gains in a handful of NumPy
ops, and the delta warm path retires rows (``HAVE_NUMPY`` gates the
optional accelerator; solvers fall back to the pure-Python paths
without it).
"""

from repro.kernels.bitmat import HAVE_NUMPY, BitMatrix
from repro.kernels.coverage import (
    build_cube_problem,
    build_problem,
    coverage_masks,
    cube_coverage_masks,
)
from repro.kernels.intern import BasisInterner

__all__ = [
    "HAVE_NUMPY",
    "BasisInterner",
    "BitMatrix",
    "build_cube_problem",
    "build_problem",
    "coverage_masks",
    "cube_coverage_masks",
]
