"""The package's public surface: adding a name here is a deliberate change."""

import re
from pathlib import Path

import bcsecrecy

PUBLIC = [
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


def test_all_is_the_public_list():
    assert sorted(bcsecrecy.__all__) == sorted(PUBLIC)


def test_all_has_no_duplicates():
    assert len(set(bcsecrecy.__all__)) == len(bcsecrecy.__all__)


def test_every_name_resolves():
    for name in bcsecrecy.__all__:
        assert getattr(bcsecrecy, name) is not None


def test_numpy_floor_runs_the_library():
    # hull.pareto_hull's area is np.trapezoid's formula, and the tests compare
    # it with np.trapezoid, which numpy has from 2.0 on.
    # Read as text: tomllib is missing on Python 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([0-9]+)\.([0-9]+)', pyproject)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
