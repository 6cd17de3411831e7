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
    DiagonalizedChannel,
    PowerAllocation,
    allocate,
    corner_rates,
    diagonalize,
    make_matrix_constraint,
    p2p_limit_check,
    reduce_nullspace,
    region_sweep,
    waterfill,
    waterfill_capacity,
    waterfill_high_snr,
)
from .baseline import SearchConfig, sample_constraint, search_region
from .checks import CheckReport, InvariantResult, run_battery
from .hull import Hull, RegionEstimate, estimate_region, pareto_hull
from .linalg import (
    GevdResult,
    gevd_definite,
    herm,
    herm_eig,
    logdet,
    projector,
    psd_inv_sqrt,
    psd_sqrt,
    rate_logdet,
)
from .miso import (
    MisoChannel,
    MisoRegionPoint,
    miso_capacity_point,
    miso_linear_point,
    miso_region,
)
from .precoding import (
    LinearPrecoderPair,
    LossReport,
    loss_bounded_precoders,
    optimal_precoders,
    rate_evaluate,
)
from .sdpc import (
    Channel,
    CornerPoint,
    RankBoundReport,
    SdpcSolution,
    build_pencil,
    orthogonality_defect,
    rank_bound_check,
    solve_matrix_constraint,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "CheckReport",
    "CornerPoint",
    "DiagonalizedChannel",
    "GevdResult",
    "Hull",
    "InvariantResult",
    "LinearPrecoderPair",
    "LossReport",
    "MisoChannel",
    "MisoRegionPoint",
    "PowerAllocation",
    "RankBoundReport",
    "RegionEstimate",
    "SdpcSolution",
    "SearchConfig",
    "allocate",
    "build_pencil",
    "corner_rates",
    "diagonalize",
    "estimate_region",
    "gevd_definite",
    "herm",
    "herm_eig",
    "logdet",
    "loss_bounded_precoders",
    "make_matrix_constraint",
    "miso_capacity_point",
    "miso_linear_point",
    "miso_region",
    "optimal_precoders",
    "orthogonality_defect",
    "p2p_limit_check",
    "pareto_hull",
    "projector",
    "psd_inv_sqrt",
    "psd_sqrt",
    "rank_bound_check",
    "rate_evaluate",
    "rate_logdet",
    "reduce_nullspace",
    "region_sweep",
    "run_battery",
    "sample_constraint",
    "search_region",
    "solve_matrix_constraint",
    "waterfill",
    "waterfill_capacity",
    "waterfill_high_snr",
]
