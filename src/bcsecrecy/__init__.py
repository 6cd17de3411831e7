"""Secrecy rate regions of the two-user Gaussian MIMO broadcast channel.

Corner points under matrix power constraints, linear precoders with certified
loss, the water-filling region under an average power constraint, closed
forms for single-antenna receivers, and a randomized reference search.
"""

import os as _os

# BLAS pools read their limits at first import, so this must run before numpy.
if "SECRECY_NUM_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["SECRECY_NUM_THREADS"])

from .avgpower import (
    allocate,
    corner_rates,
    diagonalize,
    make_matrix_constraint,
    p2p_limit_check,
    region_sweep,
    waterfill,
    waterfill_high_snr,
)
from .baseline import SearchConfig, search_region
from .checks import run_battery
from .linalg import gevd_definite
from .miso import MisoChannel, miso_capacity_point, miso_linear_point, miso_region
from .precoding import (
    LinearPrecoderPair,
    loss_bounded_precoders,
    optimal_precoders,
    rate_evaluate,
)
from .sdpc import Channel, CornerPoint, orthogonality_defect, solve_matrix_constraint

__version__ = "0.1.0"

# What the README, the CLI, the benchmark and the acceptance suite use from
# the package top level, plus the types needed to call those functions.  The
# kernels and result types stay importable from their own modules.
__all__ = [
    "Channel",
    "MisoChannel",
    "SearchConfig",
    "LinearPrecoderPair",
    "CornerPoint",
    "solve_matrix_constraint",
    "orthogonality_defect",
    "optimal_precoders",
    "loss_bounded_precoders",
    "rate_evaluate",
    "gevd_definite",
    "diagonalize",
    "allocate",
    "corner_rates",
    "make_matrix_constraint",
    "waterfill",
    "waterfill_high_snr",
    "p2p_limit_check",
    "region_sweep",
    "search_region",
    "miso_capacity_point",
    "miso_linear_point",
    "miso_region",
    "run_battery",
]
