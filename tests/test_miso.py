"""Single-antenna receivers: closed-form capacity region and beamforming region."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from bcsecrecy import (
    MisoChannel,
    loss_bounded_precoders,
    miso_capacity_point,
    miso_linear_point,
    miso_region,
    region_sweep,
    solve_matrix_constraint,
)
from bcsecrecy.avgpower import reduce_nullspace
from bcsecrecy.errors import ZeroChannelError
from bcsecrecy.linalg import LN2, _fix_phase
from bcsecrecy.miso import _det, _principal
from conftest import cgauss, count_decompositions


def rand_miso(rng, n=2):
    return MisoChannel(cgauss(rng, n), cgauss(rng, n))


def orthogonal_miso(rng, n):
    """h and g with h^H g = 0 (g = 0 when n = 1)."""
    h = cgauss(rng, n)
    g = cgauss(rng, n) if n > 1 else np.zeros(1, dtype=complex)
    return MisoChannel(h, g - h * (np.vdot(h, g) / np.vdot(h, h)))


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
    def test_one_decomposition(self, monkeypatch):
        # One SVD of the stacked 2 x 4 channel [h^H; g^H] to reduce it; the
        # split's pencils, the swapped-role pencil and the coupling are closed
        # form after it.
        rng = np.random.default_rng(5)
        mc = rand_miso(rng, n=4)
        point = miso_capacity_point(mc, 10.0, 0.5)
        calls = count_decompositions(monkeypatch)
        miso_linear_point(mc, point)
        assert calls == {"eigh": [], "cholesky": [], "svd": [(2, 4)]}

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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_arrays_are_the_points(self, n):
        reg = miso_region(rand_miso(np.random.default_rng(30 + n), n), 10.0, 21)
        # S_Q and the points are formed on first read only.
        assert "s_q" not in vars(reg) and "points" not in vars(reg)
        assert len(reg) == 21 and reg.s_q.shape == (21, n, n) and reg.e2.shape == (21, n)
        points = reg.points
        assert reg.points is points
        assert list(reg) == points and reg[0] is points[0] and reg[-1] is points[-1]
        assert type(reg[1:3]) is list and reg[1:3] == points[1:3]
        for i, p in enumerate(points):
            assert p.pt == reg.pt
            for field, column in (("alpha", "alphas"), ("c1", "c1"), ("c2", "c2"), ("r1", "r1"),
                                  ("r2", "r2"), ("loss_bits", "loss_bits")):
                value = getattr(p, field)
                assert type(value) is float and value == getattr(reg, column)[i], field
            assert np.array_equal(p.e1, reg.e1) and p.e1 is not reg.e1
            assert np.array_equal(p.e2, reg.e2[i])
            assert np.array_equal(p.s_q, reg.s_q[i])
        assert len({id(p.e1) for p in points}) == len(points)

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
        assert len(miso_region(rand_miso(np.random.default_rng(14)), 10.0, 0)) == 0


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
    # closed-form MISO pairs never form the pencil.

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
        assert [p.c2 for p in points] == pytest.approx(c2, abs=1e-12)


# The kernel's inputs as miso._capacity supplies them: reduced channel vectors of
# length r <= 2.  PENCIL_Y[k] = c x + delta x_perp (c = 0.7 - 0.4j, x_perp =
# (-conj x1, conj x0)) for the near-collinear cases, rounded once to float64.
PENCIL_X = MPMATH_H
PENCIL_Y = {
    "generic": MPMATH_G,
    "collinear-1e-4": np.array([0.6800499999999999 - 0.10989000000000008j,
                                0.09008000000000008 + 0.96997j]),
    "collinear-1e-8": np.array([0.6800000049999999 - 0.10999998900000009j,
                                0.09000000800000008 + 0.969999997j]),
}
# Principal pair of (I + pt x x^H, I + pt y y^H), and with x and y swapped:
# log2 of the eigenvalue, and |x^H v|^2, |y^H v|^2 of its eigenvector, from the
# larger root of det(A - lambda B) = 0 and its null vector in 60-digit mpmath.
PENCIL_MPMATH = {
    ("generic", False): {
        1e4: (9.2527384165585734984, 0.060989965674542667, 1.4241850655732498e-7),
        1e8: (22.536027689051265078, 0.060816343911701753, 1.4289818495887477e-15),
        1e12: (35.823739625264915295, 0.060816326532350372, 1.4289823311393484e-23)},
    ("generic", True): {
        1e4: (9.4145823052882292648, 0.068253900321955433, 1.5938062012425137e-7),
        1e8: (22.697878567753564633, 0.068036551433454754, 1.5986327170238087e-15),
        1e12: (35.98559050466624234, 0.068036529682540617, 1.598633201508348e-23)},
    ("collinear-1e-4", False): {
        1e4: (0.62235427194578759064, 0.083079284482743769, 0.053934094304215305),
        1e8: (2.4943277063402708373, 6.3753551417397117e-8, 3.0892715867507106e-9),
        1e12: (15.040240294077961834, 3.369538407585604e-8, 4.565938946286285e-17)},
    ("collinear-1e-4", True): {
        1e4: (0.00090138729152196650121, 1.7836145419282001e-7, 1.1579015816717384e-7),
        1e8: (1.872839355336503784, 3.2370088966245248e-8, 1.5685400088429592e-9),
        1e12: (14.418751939527354283, 2.190129995992212e-8, 2.9677655027223825e-17)},
    ("collinear-1e-8", False): {
        1e4: (0.62145290685704173954, 2.1899994426228509, 1.4234996376870378),
        1e8: (0.62148846347055082534, 0.082801848610460258, 0.053821194861461634),
        1e12: (0.62238976407981263895, 8.636310768857649e-10, 5.6065916899739541e-10)},
    ("collinear-1e-8", True): {
        1e4: (9.0271489177090386364e-12, 1.787755091643325e-15, 1.1620408095536182e-15),
        1e8: (9.0271475864302228149e-8, 1.7877546761961458e-15, 1.162040394106452e-15),
        1e12: (0.00090138733389702418703, 1.7836148143140057e-15, 1.1579018244812503e-15)},
}


def exact_det(x: np.ndarray, y: np.ndarray) -> complex:
    """det[x, y] of two 2-vectors, each part rounded once from exact rational
    arithmetic, so near-collinear x and y lose nothing to cancellation."""
    (x0, x1), (y0, y1) = ([(Fraction(z.real), Fraction(z.imag)) for z in map(complex, v)]
                          for v in (x, y))
    re = x0[0] * y1[0] - x0[1] * y1[1] - x1[0] * y0[0] + x1[1] * y0[1]
    im = x0[0] * y1[1] + x0[1] * y1[0] - x1[0] * y0[1] - x1[1] * y0[0]
    return complex(float(re), float(im))


def principal(pt, x, y):
    """The kernel on the pencil (I + pt x x^H, I + pt y y^H), fed the raw
    vectors x and y with an exact cross term."""
    cross = exact_det(y, x) if x.size == 2 else 0j
    return _principal(pt, x, pt, y, cross)


class TestPrincipal:
    """The closed-form principal pair against a generalized eigensolver."""

    @pytest.mark.parametrize("pt", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("kind", sorted(PENCIL_Y))
    def test_matches_scipy(self, kind, swap, pt):
        # cond(B) <= 1 + pt |y|^2 stays small, so eigh's pair is accurate.
        x, y = (PENCIL_Y[kind], PENCIL_X) if swap else (PENCIL_X, PENCIL_Y[kind])
        vec, mu, gains = principal(pt, x, y)
        lam, vecs = scipy.linalg.eigh(np.eye(2) + pt * np.outer(x, x.conj()),
                                      np.eye(2) + pt * np.outer(y, y.conj()))
        want = _fix_phase(vecs[:, -1] / np.linalg.norm(vecs[:, -1]))
        assert abs(np.log1p(mu) / LN2 - np.log2(lam[-1])) <= 1e-12
        assert np.max(np.abs(vec - want)) <= 1e-12
        # | |v^H vec| - |v^H want| | <= |v| |vec - want|, plus rounding.
        slack = np.linalg.norm(vec - want) + 1e-15
        for gain, v in zip(gains, (x, y)):
            assert abs(np.sqrt(gain) - abs(np.vdot(v, want))) <= np.linalg.norm(v) * slack

    @pytest.mark.parametrize("pt", [1e4, 1e8, 1e12])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("kind", sorted(PENCIL_Y))
    def test_matches_mpmath(self, kind, swap, pt):
        x, y = (PENCIL_Y[kind], PENCIL_X) if swap else (PENCIL_X, PENCIL_Y[kind])
        bits, gain_x, gain_y = PENCIL_MPMATH[kind, swap][pt]
        vec, mu, gains = principal(pt, x, y)
        assert abs(np.log1p(mu) / LN2 - bits) <= 1e-12
        assert gains == pytest.approx([gain_x, gain_y], rel=1e-12, abs=0.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pt", [1e-2, 1.0, 1e4, 1e8, 1e12])
    def test_orthogonal_closed_form(self, pt):
        # x orthogonal to y: v = x / |x| and 1 + mu = 1 + pt |x|^2, at any power.
        x = PENCIL_X
        y = 1.3 * np.array([-x[1].conj(), x[0].conj()])
        vec, mu, gains = principal(pt, x, y)
        assert abs(np.log1p(mu) - np.log1p(pt * np.vdot(x, x).real)) / LN2 <= 1e-12
        assert np.max(np.abs(vec - _fix_phase(x / np.linalg.norm(x)))) <= 1e-15
        assert gains[1] <= 1e-30

    @pytest.mark.parametrize("pt", [1e-2, 1.0, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("x, y", [(0.3 - 0.4j, 1.1j), (0.0, 1.1j), (0.3 - 0.4j, 0.0)])
    def test_one_dimension(self, pt, x, y):
        # n_t = 1, h = 0 or g = 0: the pencil is the ratio (1 + pt|x|^2) / (1 + pt|y|^2),
        # whose log the rates floor at zero.
        vec, mu, _ = principal(pt, np.array([x]), np.array([y]))
        want = np.log1p(pt * abs(x) ** 2) - np.log1p(pt * abs(y) ** 2)
        assert abs(np.log1p(max(mu, 0.0)) - max(want, 0.0)) / LN2 <= 1e-12
        assert vec.tolist() == [1.0]

    def test_identity_pencil_and_missing_x(self):
        # (I, I): the first axis, as eigh gives.  a = 0: the axis orthogonal to y.
        rest = np.array([0.0, 10.0])
        vec, mu, _ = _principal(0.0 * rest, PENCIL_X, rest, PENCIL_Y["generic"],
                                exact_det(PENCIL_Y["generic"], PENCIL_X))
        assert np.max(np.abs(vec[0] - [1.0, 0.0])) <= 1e-15 and mu.tolist() == [0.0, 0.0]
        assert abs(np.vdot(PENCIL_Y["generic"], vec[1])) <= 1e-15

    def test_exact_det(self):
        # det[x, y] = delta |x|^2 plus the rounding of y, from 60-digit mpmath and
        # rounded once.  The float products cancel to 1e-8 of their size, and
        # the naive difference is off by 7e-10 relative and drops the imaginary part.
        got = exact_det(PENCIL_X, PENCIL_Y["collinear-1e-8"])
        assert got == complex(2.1899999936569882e-08, 1.915134650865014e-17)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("delta", [2e-5, 1e-4, 1e-3])
    def test_plain_det_on_reduced_spans(self, n, delta):
        # g = c h + delta |h| u_perp, just above the cut where the span falls to
        # rank one.  On reduce_nullspace's coordinates the two products of the
        # determinant do not cancel, so the plain one is within 2 eps relative
        # of the correctly rounded one (1.1 eps at most over 18000 draws).
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            h, u = cgauss(rng, n), cgauss(rng, n)
            u -= h * (np.vdot(h, u) / np.vdot(h, h))
            g = (0.7 - 0.4j) * h + delta * np.linalg.norm(h) / np.linalg.norm(u) * u
            ch_r, _, _ = reduce_nullspace(MisoChannel(h, g).as_channel())
            x, y = ch_r.G[0].conj(), ch_r.H[0].conj()
            assert x.size == 2
            want = exact_det(x, y)
            assert abs(_det(x, y) - want) <= 2.0 * np.finfo(float).eps * abs(want)
