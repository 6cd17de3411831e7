"""Single-antenna receivers: closed-form capacity region and beamforming region."""

import numpy as np
import pytest

from bcsecrecy import (
    MisoChannel,
    loss_bounded_precoders,
    miso_capacity_point,
    miso_linear_point,
    miso_region,
    region_sweep,
    solve_matrix_constraint,
)
from bcsecrecy.errors import ZeroChannelError
from bcsecrecy.linalg import LN2
from conftest import cgauss


def rand_miso(rng, n=2):
    return MisoChannel(cgauss(rng, n), cgauss(rng, n))


def orthogonal_miso(rng, n):
    """h and g with h^H g = 0 (g = 0 when n = 1)."""
    h = cgauss(rng, n)
    g = cgauss(rng, n) if n > 1 else np.zeros(1, dtype=complex)
    return MisoChannel(h, g - h * (np.vdot(h, g) / np.vdot(h, h)))


def count_decompositions(monkeypatch) -> dict[str, list]:
    """Record the argument shape of every np.linalg.eigh and cholesky call."""
    calls = {"eigh": [], "cholesky": []}
    for name, shapes in calls.items():
        def counting(a, *args, _f=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestCapacityPoint:
    def test_no_second_receiver(self):
        rng = np.random.default_rng(0)
        h = cgauss(rng, 3)
        mc = MisoChannel(h, np.zeros(3, dtype=complex))
        point = miso_capacity_point(mc, 10.0, 1.0)
        want = np.log1p(10.0 * np.linalg.norm(h) ** 2) / LN2
        assert point.c2 == 0.0
        assert point.c1 == pytest.approx(want, rel=1e-10)

    def test_orthogonal_channels_beam_at_first(self):
        h = np.array([1.0, 0.0], dtype=complex)
        g = np.array([0.0, 1.0], dtype=complex)
        point = miso_capacity_point(MisoChannel(h, g), 10.0, 0.5)
        assert np.abs(np.vdot(point.e1, h)) == pytest.approx(1.0, abs=1e-10)

    def test_structure_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mc = rand_miso(rng)
            alpha = float(rng.uniform(0.0, 1.0))
            point = miso_capacity_point(mc, 10.0, alpha)
            assert point.c1 >= -1e-10 and point.c2 >= -1e-10
            assert np.linalg.norm(point.e1) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(point.e2) == pytest.approx(1.0, abs=1e-10)
            assert np.trace(point.s_q).real == pytest.approx(10.0, rel=1e-9)
            eig = np.linalg.eigvalsh(point.s_q)
            assert np.sum(eig > 1e-10 * 10.0) <= 2

    def test_matches_matrix_constraint_corner(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mc = rand_miso(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            point = miso_capacity_point(mc, 10.0, alpha)
            sol = solve_matrix_constraint(mc.as_channel(), point.s_q)
            assert point.c1 == pytest.approx(sol.corner.R1, abs=1e-6)
            assert point.c2 == pytest.approx(sol.corner.R2, abs=1e-6)

    def test_parallel_equal_channels_zero(self):
        h = np.array([1.0, 1.0], dtype=complex)
        point = miso_capacity_point(MisoChannel(h, h.copy()), 10.0, 0.5)
        assert point.c1 == pytest.approx(0.0, abs=1e-9)
        assert point.c2 == pytest.approx(0.0, abs=1e-9)

    def test_split_domain_rejected(self):
        rng = np.random.default_rng(9)
        mc = rand_miso(rng)
        for alpha, pt in ((1.5, 10.0), (np.nan, 10.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                miso_capacity_point(mc, pt, alpha)
        point = miso_capacity_point(mc, 0.0, 0.5)
        assert (point.c1, point.c2) == (0.0, 0.0)

    def test_zero_channels_rejected(self):
        zero = np.zeros(2, dtype=complex)
        with pytest.raises(ZeroChannelError):
            miso_capacity_point(MisoChannel(zero, zero.copy()), 10.0, 0.5)

    def test_nonfinite_vectors_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            MisoChannel(np.array([1.0, np.nan]), np.array([0.0, 1.0]))

    def test_wide_arrays_reduce(self):
        rng = np.random.default_rng(3)
        mc = rand_miso(rng, n=5)
        point = miso_capacity_point(mc, 10.0, 0.4)
        assert point.s_q.shape == (5, 5)
        assert np.trace(point.s_q).real == pytest.approx(10.0, rel=1e-9)


class TestLinearPoint:
    def test_covariance_decomposed_once(self, monkeypatch):
        # One eigh of S_Q, one Cholesky and one eigh for the swapped-role 2x2
        # pencil; the channel is not reduced again.
        rng = np.random.default_rng(5)
        mc = rand_miso(rng, n=4)
        point = miso_capacity_point(mc, 10.0, 0.5)
        calls = count_decompositions(monkeypatch)
        miso_linear_point(mc, point)
        assert calls == {"eigh": [(4, 4), (2, 2)], "cholesky": [(2, 2)]}

    def test_endpoints_equal_capacity(self):
        rng = np.random.default_rng(4)
        mc = rand_miso(rng)
        for alpha in (0.0, 1.0):
            point = miso_linear_point(mc, miso_capacity_point(mc, 10.0, alpha))
            assert point.r1 == pytest.approx(point.c1, abs=1e-9)
            assert point.r2 == pytest.approx(point.c2, abs=1e-9)
            assert point.loss_bits == 0.0

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(5)
        for point in miso_region(rand_miso(rng), 10.0, 21):
            assert point.r1 <= point.c1 + 1e-8
            assert point.r2 <= point.c2 + 1e-8

    def test_matches_loss_bounded_construction(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mc = rand_miso(rng)
            point = miso_linear_point(mc, miso_capacity_point(mc, 10.0, 0.5))
            sol = solve_matrix_constraint(mc.as_channel(), point.s_q)
            report = loss_bounded_precoders(sol)
            assert point.r1 == pytest.approx(report.exact.R1, abs=1e-7)
            assert point.r2 == pytest.approx(report.exact.R2, abs=1e-7)


class TestRegion:
    def test_capacity_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        points = miso_region(rand_miso(rng), 10.0, 21)
        c1 = [p.c1 for p in points]
        c2 = [p.c2 for p in points]
        assert np.all(np.diff(c1) >= -1e-9)
        assert np.all(np.diff(c2) <= 1e-9)

    def test_explicit_grid_accepted(self):
        rng = np.random.default_rng(8)
        points = miso_region(rand_miso(rng), 10.0, np.array([0.0, 0.25, 1.0]))
        assert [p.alpha for p in points] == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["random", "collinear", "orthogonal"])
    def test_matches_per_split_loop(self, n, kind):
        rng = np.random.default_rng(10 + n)
        if kind == "random":
            mc = rand_miso(rng, n)
        elif kind == "collinear":
            h = cgauss(rng, n)
            mc = MisoChannel(h, (0.5 - 2j) * h)
        else:
            mc = orthogonal_miso(rng, n)
        for grid in (21, np.array([1.0, 0.0, 0.37, 0.999])):
            points = miso_region(mc, 10.0, grid)
            assert {0.0, 1.0} <= {p.alpha for p in points}
            for p in points:
                q = miso_linear_point(mc, miso_capacity_point(mc, 10.0, p.alpha))
                for field in ("c1", "c2", "r1", "r2", "loss_bits"):
                    assert abs(getattr(p, field) - getattr(q, field)) <= 1e-12, field
                for field in ("e1", "e2", "s_q"):
                    got, want = getattr(p, field), getattr(q, field)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-12, field

    def test_decompositions_do_not_grow_with_splits(self, monkeypatch):
        mc = rand_miso(np.random.default_rng(11), n=4)
        counts = []
        for grid in (21, 101):
            calls = count_decompositions(monkeypatch)
            miso_region(mc, 10.0, grid)
            counts.append({name: len(shapes) for name, shapes in calls.items()})
            monkeypatch.undo()
        assert counts[0] == counts[1]


class TestSplitGrid:
    def sweeps(self):
        mc = rand_miso(np.random.default_rng(12))
        return (lambda pt, grid: miso_region(mc, pt, grid),
                lambda pt, grid: region_sweep(mc.as_channel(), pt, grid).points)

    @pytest.mark.parametrize("grid", [2.5, True, -1, "3", np.array([[0.0, 1.0]]), np.array(0.5)])
    def test_bad_grid_rejected(self, grid):
        # 2.5 used to give 2 splits, True 1, and a 2-D array a TypeError.
        for sweep in self.sweeps():
            with pytest.raises(ValueError, match="alpha_grid"):
                sweep(10.0, grid)

    def test_split_domain_checked_over_grid(self):
        for sweep in self.sweeps():
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got 1.5"):
                sweep(10.0, np.array([0.0, 1.5, np.nan]))
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got nan"):
                sweep(10.0, np.array([0.5, np.nan]))
            with pytest.raises(ValueError, match="total power"):
                sweep(np.inf, 5)

    def test_counts_accepted(self):
        for sweep in self.sweeps():
            for grid in (np.int64(3), 3):
                assert [p.alpha for p in sweep(10.0, grid)] == [0.0, 0.5, 1.0]
        assert miso_region(rand_miso(np.random.default_rng(14)), 10.0, 0) == []


# C1 and C2 in bits of MisoChannel(MPMATH_H, MPMATH_G) at the splits 0, 0.3,
# 0.7 and 1 (the float64 values), from the same formulas evaluated once with
# 60-digit mpmath: each principal pair as the larger root of the 2x2
# quadratic det(A - lambda B) = 0 and its null vector.
MPMATH_H = np.array([0.8 + 0.3j, -0.5 + 1.1j])
MPMATH_G = np.array([0.4 - 0.9j, 1.2 + 0.2j])
MPMATH_SPLITS = np.array([0.0, 0.3, 0.7, 1.0])
MPMATH_RATES = {
    1e5: ([0.0, 10.834418055320259266, 12.056276501913532339, 12.570686238412880257],
          [12.732536418719898808, 12.715462612879787114, 12.641933039497512251, 0.0]),
    1e8: ([0.0, 20.799062792712866877, 22.021454679735429772, 22.536027689051265078],
          [22.697878567753564633, 22.680809794369036175, 22.607300544038807589, 0.0]),
    1e12: ([0.0, 34.086774031168491898, 35.309166452451508363, 35.823739625264915295],
           [35.98559050466624234, 35.968521736319585918, 35.895012506334871434, 0.0]),
}


class TestHighPower:
    # From about pt = 1e5 on, I + pt h h^H against I + pt g g^H has an
    # eigenvalue spread above 1/RANK_TOL, which gevd_definite rejects; the
    # MISO principal pairs need no such check.

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_orthogonal_channels_closed_form(self, n):
        mc = orthogonal_miso(np.random.default_rng(20 + n), n)
        for pt in (1.0, 1e5, 1e8, 1e12):
            first, *_, last = miso_region(mc, pt, 5)
            h2, g2 = np.linalg.norm(mc.h) ** 2, np.linalg.norm(mc.g) ** 2
            assert last.c1 == pytest.approx(np.log2(1.0 + pt * h2), abs=1e-12)
            assert first.c2 == pytest.approx(np.log2(1.0 + pt * g2), abs=1e-12)

    @pytest.mark.parametrize("pt", [1e5, 1e8, 1e12])
    def test_generic_channels_finite_and_monotone(self, pt):
        rng = np.random.default_rng(3)
        for _ in range(10):
            points = miso_region(rand_miso(rng), pt, 21)
            rates = np.array([[p.c1, p.c2, p.r1, p.r2] for p in points])
            assert np.isfinite(rates).all()
            assert np.all(np.diff(rates[:, 0]) >= -1e-9)
            assert np.all(np.diff(rates[:, 1]) <= 1e-9)
            assert np.all(rates[:, 2:] <= rates[:, :2])

    @pytest.mark.parametrize("pt", sorted(MPMATH_RATES))
    def test_matches_mpmath(self, pt):
        points = miso_region(MisoChannel(MPMATH_H, MPMATH_G), pt, MPMATH_SPLITS)
        c1, c2 = MPMATH_RATES[pt]
        assert [p.c1 for p in points] == pytest.approx(c1, abs=1e-12)
        assert [p.c2 for p in points[1:]] == pytest.approx(c2[1:], abs=1e-12)
        # At alpha = 0 both pencil components are I + pt v v^H.  Forming them
        # rounds entries of size pt |v|^2 by eps times that, which moves the
        # principal eigenvalue by up to about eps pt (|h|^2 + |g|^2) relative.
        bound = np.finfo(float).eps * pt * (np.linalg.norm(MPMATH_H) ** 2
                                            + np.linalg.norm(MPMATH_G) ** 2)
        assert points[0].c2 == pytest.approx(c2[0], abs=bound)
