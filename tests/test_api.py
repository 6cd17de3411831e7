"""The package's public surface: adding a name here is a deliberate change."""

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
