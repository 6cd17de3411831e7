"""Hypothesis properties of the stacked corner solve behind ``search_region``,
and of the batched ``miso_region``.

Channels and constraint factors are drawn entry by entry (complex, magnitude
at most 10, zeros and tiny values included), with n_t from 1 to 6 and
constraints of every rank from 0 to n_t.  The stack is given the factor that
``solve_matrix_constraint`` takes for each constraint, one batch per rank, and
solves it as the single solve does, so the two agree exactly.  Rates checked
against another computation are compared in bits to 1e-12 plus
1e-14 ||A||_2 ||B||_2 for the item's pencil (A, B): the Cholesky-based GEVD
perturbs an eigenvalue by about eps ||A|| ||B^{-1}||, and B >= I gives
lambda >= 1 / ||B||, so ln lambda moves by about eps ||A|| ||B||.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bcsecrecy import Channel, MisoChannel, miso_region, solve_matrix_constraint
from bcsecrecy.avgpower import reduce_nullspace
from bcsecrecy.errors import ZeroChannelError
from bcsecrecy.linalg import LN2, herm, rate_logdet
from conftest import build_pencil, factor_corners

ENTRIES = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def matrices(rows: int, cols: int):
    return hnp.arrays(complex, (rows, cols), elements=ENTRIES)


@st.composite
def instances(draw):
    """(H, G, stack): a channel pair and 0 to 4 constraints of drawn ranks."""
    n = draw(st.integers(1, 6))
    h = draw(matrices(draw(st.integers(1, 6)), n))
    g = draw(matrices(draw(st.integers(1, 6)), n))
    stack = []
    for _ in range(draw(st.integers(0, 4))):
        f = draw(matrices(n, draw(st.integers(0, n))))
        stack.append(herm(f @ f.conj().T))
    return h, g, np.array(stack, dtype=complex).reshape(-1, n, n)


def tolerance(ch: Channel, s: np.ndarray) -> float:
    a, b = build_pencil(ch, s)
    return 1e-12 + 1e-14 * float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))


def assert_close(got: np.ndarray, want: np.ndarray, ch: Channel, stack: np.ndarray):
    assert got.shape == want.shape == (stack.shape[0], 2)
    for s, x, y in zip(stack, got, want):
        assert np.max(np.abs(x - y)) <= tolerance(ch, s), (x, y)


@SETTINGS
@given(instances())
def test_stacked_matches_single_solves(case):
    # Ranks 0 to n_t share one stack; each is solved on its range, as alone.
    h, g, stack = case
    ch = Channel(h, g)
    rates, want = factor_corners(ch, stack)
    assert np.array_equal(rates, want)
    # R1 - R2 = sum of ln lambda = ln det(I + H S H^H) - ln det(I + G S G^H).
    for s, (r1, r2) in zip(stack, rates):
        gap = (rate_logdet(ch.H, s) - rate_logdet(ch.G, s)) / LN2
        assert abs((r1 - r2) - gap) <= tolerance(ch, s)


@SETTINGS
@given(instances(), st.integers(-12, -1))
def test_near_ties(case, exponent):
    # G = H + eps E: the pencil eigenvalues crowd around one.
    h, e, stack = case
    ch = Channel(h, h + 10.0 ** exponent * np.resize(e, h.shape))
    rates, want = factor_corners(ch, stack)
    assert np.all(rates >= 0.0)
    assert np.array_equal(rates, want)


@SETTINGS
@given(instances(), st.integers(-150, 150))
def test_rates_scale_invariant(case, exponent):
    # (H, G, S) -> (cH, cG, S/c^2) leaves every pencil, so every rate, unchanged.
    h, g, stack = case
    c = 10.0 ** exponent
    ch = Channel(h, g)
    scaled = factor_corners(Channel(c * h, c * g), stack / c**2)[0]
    assert_close(scaled, factor_corners(ch, stack)[0], ch, stack)


@st.composite
def miso_instances(draw):
    """(h, g, pt, splits): n_t from 1 to 8, g = c h + eps e near collinear
    (eps from 1e-12 to 1), pt from 1e-2 to 1e2 and a grid of 2 to 12 splits.

    Beyond pt = 1e2 the reference solver's ``gevd_definite`` rejects some of
    these pencils, whose eigenvalue spread then passes 1e10.
    """
    n = draw(st.integers(1, 8))
    h = draw(hnp.arrays(complex, n, elements=ENTRIES))
    e = draw(hnp.arrays(complex, n, elements=ENTRIES))
    g = draw(ENTRIES) * h + 10.0 ** draw(st.integers(-12, 0)) * e
    return h, g, 10.0 ** draw(st.integers(-2, 2)), draw(st.integers(2, 12))


# Fewer examples than the corner properties: drawing the entries is most of
# this file's time.
@settings(SETTINGS, max_examples=60)
@given(miso_instances())
def test_miso_region_matches_matrix_solver(case):
    h, g, pt, splits = case
    mc = MisoChannel(h, g)
    if not np.any(np.outer(h, h.conj()) + np.outer(g, g.conj())):
        with pytest.raises(ZeroChannelError):
            miso_region(mc, pt, splits)
        return
    points = miso_region(mc, pt, splits)
    ch = mc.as_channel()
    two_dim = reduce_nullspace(ch)[2].shape[1] == 2
    for p in points:
        # Each (C1, C2) is the corner of its own covariance S_Q when h and g
        # span two dimensions.  With one, the corner can dominate the pair.
        corner = solve_matrix_constraint(ch, p.s_q).corner
        gaps = np.array([corner.R1 - p.c1, corner.R2 - p.c2])
        tol = tolerance(ch, p.s_q)
        assert np.all(np.abs(gaps) <= tol if two_dim else gaps >= -tol), (p, corner)
        assert p.r1 <= p.c1 and p.r2 <= p.c2
    c1, c2 = (np.array([getattr(p, f) for p in points]) for f in ("c1", "c2"))
    assert np.all(np.diff(c1) >= -1e-12) and np.all(np.diff(c2) <= 1e-12)
