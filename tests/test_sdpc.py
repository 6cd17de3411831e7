"""Corner points under matrix power constraints, and the structural tests."""

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    diagonalize,
    loss_bounded_precoders,
    make_matrix_constraint,
    orthogonality_defect,
    solve_matrix_constraint,
)
from bcsecrecy.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotPositiveSemidefiniteError,
)
from bcsecrecy.checks import TOLERANCES
from bcsecrecy.linalg import (
    LN2,
    RANK_TOL,
    _fix_phase,
    gevd_definite,
    herm,
    psd_range,
    rate_logdet,
)
from bcsecrecy.precoding import _coupling
from bcsecrecy.sdpc import _certified, _pencil, _stacked_corners
from conftest import (
    FIG_G,
    FIG_H,
    FIG_PT,
    LAZY_GRID,
    SCALED_G,
    SCALED_H,
    build_pencil,
    cgauss,
    constraint_of_rank,
    factor_corners,
    rand_channel,
    rand_psd,
)


def calls_on(monkeypatch, name: str, s: np.ndarray) -> list[bool]:
    """Record, for each later call of ``np.linalg.<name>``, whether its input is S."""
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a) == s.shape and np.allclose(a, s, rtol=0.0, atol=1e-12))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestBuildPencil:
    def test_zero_constraint(self, fig_channel):
        a, b = build_pencil(fig_channel, np.zeros((2, 2), dtype=complex))
        assert np.allclose(a, np.eye(2))
        assert np.allclose(b, np.eye(2))

    def test_identical_channels(self):
        rng = np.random.default_rng(0)
        h = cgauss(rng, (2, 3))
        a, b = build_pencil(Channel(h, h.copy()), rand_psd(rng, 3))
        assert np.allclose(a, b)

    def test_worked_channels_positive_definite(self, fig_channel):
        a, b = build_pencil(fig_channel, 6.0 * np.eye(2, dtype=complex))
        for m in (a, b):
            assert np.linalg.norm(m - m.conj().T) <= 1e-12 * np.linalg.norm(m)
            assert np.linalg.eigvalsh(m).min() > 0


class TestSolveMatrixConstraint:
    def test_identical_channels_zero_corner(self):
        rng = np.random.default_rng(1)
        h = cgauss(rng, (3, 3))
        sol = solve_matrix_constraint(Channel(h, h.copy()), rand_psd(rng, 3))
        assert sol.gevd.b == 0
        assert sol.corner.R1 == 0.0
        assert sol.corner.R2 == 0.0

    def test_no_second_receiver(self):
        rng = np.random.default_rng(2)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, np.zeros((1, 3), dtype=complex))
        p = 4.0
        sol = solve_matrix_constraint(ch, p * np.eye(3, dtype=complex))
        want = rate_logdet(h, p * np.eye(3, dtype=complex)) / LN2
        assert sol.corner.R2 == 0.0
        assert sol.corner.R1 == pytest.approx(want, abs=1e-9)
        assert np.allclose(sol.kt_star, p * np.eye(3), atol=1e-9)

    def test_corner_matches_direct_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ch = rand_channel(rng, n)
            s = rand_psd(rng, n, trace=float(n))
            sol = solve_matrix_constraint(ch, s)
            r1, r2 = sol.corner.nats()
            direct1 = rate_logdet(ch.H, sol.kt_star) - rate_logdet(ch.G, sol.kt_star)
            direct2 = (
                rate_logdet(ch.G, s) - rate_logdet(ch.H, s)
            ) + direct1
            assert abs(r1 - direct1) <= 1e-8
            assert abs(r2 - direct2) <= 1e-8

    def test_kt_between_zero_and_s(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ch = rand_channel(rng, n)
            s = rand_psd(rng, n, trace=float(n))
            sol = solve_matrix_constraint(ch, s)
            assert np.linalg.eigvalsh(herm(sol.kt_star)).min() >= -1e-8
            assert np.linalg.eigvalsh(herm(s - sol.kt_star)).min() >= -1e-8

    def test_swapped_channel_swaps_rates(self):
        rng = np.random.default_rng(5)
        ch = rand_channel(rng, 4)
        s = rand_psd(rng, 4)
        sol = solve_matrix_constraint(ch, s)
        rev = solve_matrix_constraint(ch.swapped(), s)
        assert sol.corner.R1 == pytest.approx(rev.corner.R2, abs=1e-8)
        assert sol.corner.R2 == pytest.approx(rev.corner.R1, abs=1e-8)

    def test_rank_deficient_constraint_reduces(self):
        rng = np.random.default_rng(6)
        ch = rand_channel(rng, 4, m1=3, m2=3)
        u = np.linalg.qr(cgauss(rng, (4, 2)))[0]
        d = np.diag([3.0, 1.0]).astype(complex)
        s = herm(u @ d @ u.conj().T)
        sol = solve_matrix_constraint(ch, s)
        assert sol.s_reduced
        # Lifted covariance stays inside the constraint's range and order cone.
        assert np.linalg.eigvalsh(herm(s - sol.kt_star)).min() >= -1e-8
        reduced = solve_matrix_constraint(Channel(ch.H @ u, ch.G @ u), d)
        assert sol.corner.R1 == pytest.approx(reduced.corner.R1, abs=1e-8)
        assert sol.corner.R2 == pytest.approx(reduced.corner.R2, abs=1e-8)

    def test_badly_scaled_eigvec_block(self):
        # The leading block is orthogonal but far from orthonormal; its QR
        # basis is still exact.
        sol = solve_matrix_constraint(Channel(SCALED_H, SCALED_G), np.eye(3))
        assert sol.gevd.b == 2
        assert np.max(np.abs(sol.kt_star - np.diag([1.0, 1.0, 0.0]))) <= 1e-12

    def test_eigvec_phases_pinned(self):
        rng = np.random.default_rng(13)
        for n, rank in ((2, 2), (3, 1), (5, 5), (6, 3), (9, 7)):
            ch = rand_channel(rng, n)
            u = np.linalg.qr(cgauss(rng, (n, rank)))[0]
            sol = solve_matrix_constraint(ch, herm((u * rng.uniform(0.5, 2.0, rank)) @ u.conj().T))
            c = sol.gevd.eigvecs
            piv = c[np.argmax(np.abs(c), axis=0), np.arange(rank)]
            assert np.all(piv.real > 0.0)
            assert np.all(np.abs(piv.imag) <= 1e-15 * piv.real)

            want = _coupling(sol.gevd.eigvecs, sol.gevd.b)[1]
            sol.gevd.eigvecs = _fix_phase(c * np.exp(2j * np.pi * rng.uniform(size=rank)), axis=-2)
            assert np.max(np.abs(sol.gevd.eigvecs - c)) <= 1e-14
            got = _coupling(sol.gevd.eigvecs, sol.gevd.b)[1]
            scale = 1.0 + np.abs(want).max(initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    def test_zero_constraint_trivial(self, fig_channel):
        sol = solve_matrix_constraint(fig_channel, np.zeros((2, 2), dtype=complex))
        assert (sol.corner.R1, sol.corner.R2) == (0.0, 0.0)
        assert np.allclose(sol.kt_star, 0.0)

    def test_solution_keeps_its_own_constraint(self, fig_channel):
        # An exactly Hermitian complex S is stored unchanged, but not shared.
        s = 6.0 * np.eye(2, dtype=complex)
        sol = solve_matrix_constraint(fig_channel, s)
        s[:] = 0.0
        assert np.array_equal(sol.s, 6.0 * np.eye(2))

    def test_rejects_indefinite_constraint(self, fig_channel):
        with pytest.raises(NotPositiveSemidefiniteError):
            solve_matrix_constraint(fig_channel, np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_wrong_size_constraint(self, fig_channel):
        with pytest.raises(DimensionMismatchError):
            solve_matrix_constraint(fig_channel, np.eye(3, dtype=complex))

    def test_full_rank_constraint_not_decomposed(self, monkeypatch):
        # Rates, b and the loss bound read only the factor's pencil, so the
        # reduced pencil's eigh is the only one.
        rng = np.random.default_rng(14)
        ch = rand_channel(rng, 3)
        s = rand_psd(rng, 3)
        eigh = calls_on(monkeypatch, "eigh", s)
        svd = calls_on(monkeypatch, "svd", s)
        sol = solve_matrix_constraint(ch, s)
        report = loss_bounded_precoders(sol)
        read = [sol.corner.R1, sol.corner.R2, sol.gevd.b, report.loss_bits,
                report.exact.R1, report.exact.R2, report.guaranteed.R1, report.guaranteed.R2]
        assert np.all(np.isfinite(read)) and sol.rank == 3
        assert eigh == [False] and svd == []

    def test_rank_deficient_constraint_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(15)
        ch = rand_channel(rng, 4)
        f = cgauss(rng, (4, 2))
        s = herm(f @ f.conj().T)
        eigh = calls_on(monkeypatch, "eigh", s)
        svd = calls_on(monkeypatch, "svd", s)
        sol = solve_matrix_constraint(ch, s)
        report = loss_bounded_precoders(sol)
        assert sol.rank == 2 and np.isfinite(report.loss_bits)
        # Its range basis is the isometry the transmit-space fields need.
        n_mat = _coupling(sol.gevd.eigvecs, sol.gevd.b)[1]
        for lazy in (sol.s_sqrt, sol.gevd.eigvecs, sol.kt_star, n_mat):
            assert np.all(np.isfinite(lazy))
        assert eigh.count(True) == 1 and svd == []

    def test_nan_constraint_rejected(self, fig_channel):
        with pytest.raises(ValueError, match="constraint"):
            solve_matrix_constraint(fig_channel, np.full((2, 2), np.nan, dtype=complex))

    def test_three_dimensional_channel_rejected(self):
        with pytest.raises(DimensionMismatchError, match="2-D"):
            Channel(np.ones((2, 2, 2)), FIG_G.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        h = FIG_H.copy()
        h[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Channel(h, FIG_G.copy())


class TestLazyFields:
    @pytest.mark.parametrize("n, rank", LAZY_GRID)
    def test_repr_forms_nothing(self, n, rank):
        rng = np.random.default_rng(100 * n + rank)
        sol = solve_matrix_constraint(rand_channel(rng, n), constraint_of_rank(rng, n, rank))
        assert "factor_vecs=" in repr(sol)
        assert not {"isometry", "eigvecs"} & set(vars(sol.gevd))

    @pytest.mark.parametrize("n, rank", LAZY_GRID)
    def test_transmit_fields_formed_once(self, n, rank, monkeypatch):
        rng = np.random.default_rng(100 * n + rank)
        ch = rand_channel(rng, n)
        s = constraint_of_rank(rng, n, rank)
        sol = solve_matrix_constraint(ch, s)
        svd = calls_on(monkeypatch, "svd", sol.gevd.factor)
        for name in ("s_sqrt", "kt_star"):
            assert getattr(sol, name) is getattr(sol, name)
        assert sol.gevd.eigvecs is sol.gevd.eigvecs
        # A Cholesky factor needs one SVD for its polar factor, a range factor none.
        assert svd == [True] * (rank == n)

        scale = np.linalg.norm(s, 2)
        assert np.max(np.abs(sol.s_sqrt @ sol.s_sqrt - s)) <= 1e-12 * scale

        a, b = build_pencil(ch, s)
        c, lam = sol.gevd.eigvecs, sol.gevd.eigvals
        assert c.shape == (n, rank)
        diag = np.linalg.norm(c.conj().T @ a @ c - np.diag(lam)) / (1.0 + np.linalg.norm(a))
        unit = np.linalg.norm(c.conj().T @ b @ c - np.eye(rank)) / (1.0 + np.linalg.norm(b))
        assert max(diag, unit) <= TOLERANCES["gevd_diagonalizes"]
        piv = c[np.argmax(np.abs(c), axis=0), np.arange(rank)]
        assert np.all(piv.real > 0.0)
        assert np.all(np.abs(piv.imag) <= 1e-15 * piv.real)

        # K* from the range factor of psd_range, whatever factor the solve took.
        w, v, r = psd_range(s)
        f = v[:, :r] * np.sqrt(w[:r])
        ref = gevd_definite(*_pencil(f, ch.H, ch.G))
        assert (r, ref.b) == (sol.rank, sol.gevd.b)
        y = f @ np.linalg.qr(ref.upper_vecs)[0]
        assert np.max(np.abs(sol.kt_star - y @ y.conj().T)) <= 1e-12 * scale


# lambda_min / (RANK_TOL tr S) of the constraints around the rank certificate,
# which passes above 2.
BOUNDARY_C = (0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 100.0)


def boundary_constraint(rng: np.random.Generator, n: int, c: float) -> np.ndarray:
    """S = U diag(lam) U^H with lam_min = c RANK_TOL tr(S) and the other
    eigenvalues uniform in [0.5, 2].  With one antenna the eigenvalue is the
    trace, so only its scale, c RANK_TOL, is set."""
    if n == 1:
        return np.array([[c * RANK_TOL]], dtype=complex)
    lam = rng.uniform(0.5, 2.0, n)
    lam[0] = c * RANK_TOL * lam[1:].sum() / (1.0 - c * RANK_TOL)
    u = np.linalg.qr(cgauss(rng, (n, n)))[0]
    return herm((u * lam) @ u.conj().T)


class TestRankCertificate:
    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    @pytest.mark.parametrize("c", BOUNDARY_C)
    def test_rank_matches_psd_range(self, n, c):
        rng = np.random.default_rng(n)
        ch = rand_channel(rng, n)
        s = boundary_constraint(rng, n, c)
        if c != 2.0:
            assert _certified(s) == (n == 1 or c > 2.0)
        assert solve_matrix_constraint(ch, s).rank == psd_range(s)[2]

    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_mixed_stack_matches_single_solves(self, n):
        rng = np.random.default_rng(40 + n)
        ch = rand_channel(rng, n)
        f = cgauss(rng, (n, n - 1))
        stack = np.stack(
            [boundary_constraint(rng, n, c) for c in BOUNDARY_C]
            + [herm(f @ f.conj().T), np.zeros((n, n))]
        )
        rank = np.array([psd_range(s)[2] for s in stack])
        certified = np.array([_certified(s) for s in stack])
        assert certified.any() and np.any(~certified & (rank == n)) and np.any(rank < n)
        got, want = factor_corners(ch, stack)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_negative_eigenvalues(self, n):
        # Rounding noise of -1e-12 ||S|| is accepted as a zero eigenvalue; a
        # real negative eigenvalue of -1e-9 ||S|| is not.
        rng = np.random.default_rng(50 + n)
        ch = rand_channel(rng, n)
        u = np.linalg.qr(cgauss(rng, (n, n)))[0]
        lam = rng.uniform(0.5, 2.0, n)
        for low, ok in ((-1e-12, True), (-1e-9, False)):
            lam[0] = low * lam[1:].max()
            s = herm((u * lam) @ u.conj().T)
            if ok:
                sol = solve_matrix_constraint(ch, s)
                assert sol.rank == n - 1
                got, want = factor_corners(ch, s[None])
                assert np.array_equal(got, want)
                continue
            with pytest.raises(NotPositiveSemidefiniteError):
                solve_matrix_constraint(ch, s)


def constraints_of_every_rank(rng: np.random.Generator, n: int, per_rank: int = 3) -> np.ndarray:
    """Random PSD constraints of rank 0 to n, ``per_rank`` of each."""
    out = []
    for r in range(n + 1):
        for _ in range(per_rank):
            f = cgauss(rng, (n, r))
            out.append(herm(f @ f.conj().T) * float(rng.uniform(0.5, 12.0)))
    return np.stack(out)


# Corner of ``test_wide_spread_corner`` in bits, from 60-digit mpmath.
SPREAD_R1 = 20.432814122395955
SPREAD_R2 = 23.076052554923923
# Corner of ``test_wide_spread_rank_two_corner`` in bits, from 60-digit mpmath.
SPREAD2_R1 = 18.830092024552402
SPREAD2_R2 = 14.391479859316085


def error_type(call) -> type | None:
    """The type of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestStackedCorners:
    @pytest.mark.parametrize("name", ["worked", "random4x4", "one_antenna"])
    def test_matches_single_solves(self, name):
        rng = np.random.default_rng(30)
        ch = {
            "worked": Channel(FIG_H.copy(), FIG_G.copy()),
            "random4x4": rand_channel(rng, 4, m1=4, m2=4),
            "one_antenna": rand_channel(rng, 1),
        }[name]
        stack = constraints_of_every_rank(rng, ch.n_t)
        got, want = factor_corners(ch, stack)
        assert got.shape == (stack.shape[0], 2)
        assert np.array_equal(got, want)

    def test_matches_single_solves_past_split(self):
        # From rank 17 on, the Cholesky factor of B is inverted by halves.
        rng = np.random.default_rng(33)
        ch = rand_channel(rng, 20)
        stack = constraints_of_every_rank(rng, ch.n_t, per_rank=1)
        got, want = factor_corners(ch, stack)
        assert np.array_equal(got, want)

    def test_zero_constraint_is_origin(self, fig_channel):
        # Zero-column factors, as solve_matrix_constraint takes for S = 0.
        rates = _stacked_corners(fig_channel, np.zeros((3, 2, 0), dtype=complex))
        assert np.array_equal(rates, np.zeros((3, 2)))

    def test_empty_stack(self, fig_channel):
        rates = _stacked_corners(fig_channel, np.zeros((0, 2, 2), dtype=complex))
        assert rates.shape == (0, 2)

    @pytest.mark.parametrize("m, weak", [(2, 0.0), (1, 0.0), (1, 100.0)])
    def test_raises_like_single_solves(self, m, weak):
        # A silent second user and S = diag(1e11, weak) give the pencil an
        # eigenvalue of about 1e11 |h|^2.  With one receive antenna the other
        # is one, a spread past 1 / RANK_TOL, but it lies on range(S) only
        # when S has full rank: a rank-one S is solved on its range, alone
        # as on its factor in the stack, and has a 1 x 1 pencil.  Neither
        # raises.  With G = 0 the corner is (log2 det(I + H S H^H), 0), and
        # for these H and S the determinant is 1 + sum_j s_jj ||H e_j||^2.
        # R2 reads the rounding of the eigenvalue one, about eps sigma_max /
        # sigma_min = 7e-11 on the SVD of the spread pencil; its eigh would
        # round it by eps lambda_max = 2e-5.
        ch = Channel(cgauss(np.random.default_rng(31), (m, 2)), np.zeros((2, 2), dtype=complex))
        s = np.diag([1e11, weak]).astype(complex)
        got, want = factor_corners(ch, s[None])
        assert np.array_equal(got, want)
        gain = np.sum(np.abs(ch.H) ** 2, axis=0) @ np.diag(s).real
        assert want[0, 0] == pytest.approx(np.log1p(gain) / LN2, rel=1e-12)
        assert 0.0 <= want[0, 1] <= 1e-10

    def test_errors_keep_type_and_name(self, fig_channel, monkeypatch):
        # An eigh failure of the shared core is typed, single or stacked, and
        # so is an SVD failure on the spread pencil of
        # test_raises_like_single_solves, which alone takes the SVD.
        ch = Channel(cgauss(np.random.default_rng(31), (1, 2)), np.zeros((2, 2), dtype=complex))
        s = np.diag([1e11, 100.0]).astype(complex)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "svd", failing)
        assert np.array_equal(*factor_corners(fig_channel, np.eye(2, dtype=complex)[None]))
        with pytest.raises(NoConvergenceError, match="svd failed on reduced pencil"):
            _stacked_corners(ch, np.stack([np.eye(2), np.linalg.cholesky(s)]))
        with pytest.raises(NoConvergenceError, match="svd failed on reduced pencil"):
            solve_matrix_constraint(ch, s)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergenceError, match="reduced pencil"):
            _stacked_corners(fig_channel, np.eye(2, dtype=complex)[None])
        with pytest.raises(NoConvergenceError, match="reduced pencil"):
            solve_matrix_constraint(fig_channel, np.eye(2))

    def test_wide_spread_corner(self):
        # A rank-3 S of trace 1240 with channel entries of at most 9 spreads
        # the pencil's eigenvalues over 1e10 (1.4e6 to 1.4e-4).  The corner is
        # from 60-digit mpmath on the range of S.
        h = np.full((3, 6), 9.0)
        g = -np.ones((3, 6))
        g[0, 0] = g[1, 0] = 5.0
        g[2, 4] = 9.0
        s = np.full((6, 6), 216.0)
        s[0, :] = s[:, 0] = 180.0
        s[4, :] = s[:, 4] = 156.0
        s[0, 4] = s[4, 0] = 120.0
        s[4, 4] = 196.0
        ch = Channel(h, g)
        w, v, rank = psd_range(s)
        f = v[:, :rank] * np.sqrt(w[:rank])
        corner = solve_matrix_constraint(ch, s).corner
        for got in ([corner.R1, corner.R2], _stacked_corners(ch, f[None])[0]):
            assert np.allclose(got, [SPREAD_R1, SPREAD_R2], rtol=0.0, atol=1e-9)

    def test_wide_spread_rank_two_corner(self):
        # A rank-2 S of trace 884 spreads the pencil's eigenvalues over 1e10
        # (4.7e5 to 4.7e-5).  Found by test_stacked_matches_single_solves,
        # which both paths failed with NotPositiveDefiniteError.  The corner
        # is from 60-digit mpmath on S^{1/2}.
        h = np.full((4, 4), 7.0)
        g = np.array([[9.0 + 1.0j, -3.0, -3.0, -3.0]])
        s = np.full((4, 4), 219.0 + 0.0j)
        s[0, 0] = 227.0
        s[0, 1:], s[1:, 0] = 74.0 - 27.0j, 74.0 + 27.0j
        ch = Channel(h, g)
        got, want = factor_corners(ch, s[None])
        assert np.array_equal(got, want)
        assert np.allclose(want[0], [SPREAD2_R1, SPREAD2_R2], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("gain, power", [(1.0, 1e307), (1.0, 1.5e308), (1e200, 1e10)])
    def test_overflowing_pencil_raises_like_single_solve(self, gain, power):
        # The pencil overflows (at 1.5e308 tr(S) does too).  The stacked
        # solve skips the pencil's Hermitian checks, so its finiteness guard
        # must still raise, not return NaN rates.
        ch = Channel(gain * FIG_H, FIG_G.copy())
        s = power * np.eye(2, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            want = error_type(lambda: solve_matrix_constraint(ch, s))
            assert want is ValueError
            f = np.sqrt(power) * np.eye(2, dtype=complex)
            assert error_type(lambda: _stacked_corners(ch, np.stack([np.eye(2), f]))) is want

    def test_rejects_bad_items(self, fig_channel):
        # An indefinite or NaN constraint is refused by the single solve; the
        # stack takes factors, so only their shape is its to check.
        good = np.eye(2, dtype=complex)
        with pytest.raises(NotPositiveSemidefiniteError, match="constraint"):
            solve_matrix_constraint(fig_channel, np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="constraint"):
            solve_matrix_constraint(fig_channel, np.full((2, 2), np.nan))
        for bad in (good, np.ones((3, 3, 3))):
            with pytest.raises(DimensionMismatchError):
                _stacked_corners(fig_channel, bad)


class TestCandidateMask:
    @pytest.mark.parametrize("n, m1", [(2, None), (4, 1), (7, None), (7, 1)])
    def test_mixed_chunk_matches_single_solves(self, n, m1):
        # Certifiable full-column constraints, one full-column constraint
        # with lambda_min = 1.5 RANK_TOL tr(S), which fails the certificate but
        # has full rank, and constraints of every lower rank, shuffled.
        rng = np.random.default_rng(60 + n)
        ch = rand_channel(rng, n, m1=m1)
        edge = boundary_constraint(rng, n, 1.5)
        assert not _certified(edge) and psd_range(edge)[2] == n
        short = [herm(f @ f.conj().T) for f in (cgauss(rng, (n, k)) for k in range(1, n))]
        stack = np.stack([rand_psd(rng, n, 12.0) for _ in range(5)] + [edge] + short)
        stack = stack[rng.permutation(len(stack))]
        got, want = factor_corners(ch, stack)
        assert np.array_equal(got, want)
        # The same factors stored column-major, as numpy lays out some
        # products of large stacks: with one receive antenna, H F rounds
        # differently on such a layout unless the stack makes it row-major.
        sols = [solve_matrix_constraint(ch, s) for s in stack]
        full = np.flatnonzero([sol.rank == n for sol in sols])
        f = np.stack([sols[i].gevd.factor for i in full])
        transposed = np.ascontiguousarray(f.swapaxes(1, 2)).swapaxes(1, 2)
        assert np.array_equal(_stacked_corners(ch, transposed), want[full])

    @pytest.mark.parametrize("bad", ["indefinite", "pencil"])
    def test_masked_stack_raises_like_single_solves(self, bad):
        # A full-column constraint with eigenvalue -1e-9 ||S|| is refused by
        # the single solve; a pencil whose spread passes 1 / RANK_TOL (see
        # test_raises_like_single_solves) is solved by both, the stack given
        # the Cholesky factors of it and of a certifiable constraint.
        rng = np.random.default_rng(70)
        if bad == "indefinite":
            ch = rand_channel(rng, 2)
            s = np.diag([2.0, -2e-9]).astype(complex)
        else:
            ch = Channel(cgauss(rng, (1, 2)), np.zeros((2, 2), dtype=complex))
            s = np.diag([1e11, 100.0]).astype(complex)
        want = error_type(lambda: solve_matrix_constraint(ch, s))
        assert want is {"indefinite": NotPositiveSemidefiniteError, "pencil": None}[bad]
        if bad == "pencil":
            stack = np.stack([rand_psd(rng, 2, 12.0), s])
            got, want = factor_corners(ch, stack)
            assert np.array_equal(got, want)
            assert np.array_equal(_stacked_corners(ch, np.linalg.cholesky(s)[None]), want[1:])


class TestOrthogonalityDefect:
    def test_waterfilling_family_is_orthogonal(self, fig_channel):
        rng = np.random.default_rng(7)
        dc = diagonalize(fig_channel)
        s_w = make_matrix_constraint(dc, rng.uniform(0.1, 3.0, dc.n))
        sol = solve_matrix_constraint(fig_channel, s_w)
        assert orthogonality_defect(sol) <= 1e-8

    def test_degenerate_partition_is_zero(self):
        rng = np.random.default_rng(8)
        h = cgauss(rng, (3, 3))
        sol = solve_matrix_constraint(Channel(h, h.copy()), rand_psd(rng, 3))
        assert orthogonality_defect(sol) == 0.0

    def test_generic_constraint_is_not_orthogonal(self, fig_channel):
        rng = np.random.default_rng(9)
        sol = solve_matrix_constraint(fig_channel, rand_psd(rng, 2, trace=FIG_PT))
        defect = orthogonality_defect(sol)
        assert np.isfinite(defect)
        assert defect > 1e-6

