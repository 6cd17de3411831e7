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
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
)
from bcsecrecy.linalg import LN2, _fix_phase, herm, rate_logdet
from bcsecrecy.sdpc import _stacked_corners, build_pencil, rank_bound_check
from conftest import FIG_G, FIG_H, FIG_PT, SCALED_G, SCALED_H, cgauss, rand_channel, rand_psd


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

            want = loss_bounded_precoders(sol).n_mat
            sol.gevd.eigvecs = _fix_phase(c * np.exp(2j * np.pi * rng.uniform(size=rank)), axis=-2)
            assert np.max(np.abs(sol.gevd.eigvecs - c)) <= 1e-14
            got = loss_bounded_precoders(sol).n_mat
            scale = 1.0 + np.abs(want).max(initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    def test_zero_constraint_trivial(self, fig_channel):
        sol = solve_matrix_constraint(fig_channel, np.zeros((2, 2), dtype=complex))
        assert (sol.corner.R1, sol.corner.R2) == (0.0, 0.0)
        assert np.allclose(sol.kt_star, 0.0)

    def test_rejects_indefinite_constraint(self, fig_channel):
        with pytest.raises(NotPositiveSemidefiniteError):
            solve_matrix_constraint(fig_channel, np.diag([1.0, -1.0]).astype(complex))

    def test_rejects_wrong_size_constraint(self, fig_channel):
        with pytest.raises(DimensionMismatchError):
            solve_matrix_constraint(fig_channel, np.eye(3, dtype=complex))

    def test_constraint_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(14)
        ch = rand_channel(rng, 3)
        s = rand_psd(rng, 3)
        eigh = np.linalg.eigh
        on_s = []

        def counting_eigh(a, *args, **kwargs):
            if np.shape(a) == s.shape and np.allclose(a, s, rtol=0.0, atol=1e-12):
                on_s.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        solve_matrix_constraint(ch, s)
        assert len(on_s) == 1

    def test_nan_constraint_rejected(self, fig_channel):
        with pytest.raises(ValueError, match="constraint"):
            solve_matrix_constraint(fig_channel, np.full((2, 2), np.nan, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        h = FIG_H.copy()
        h[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Channel(h, FIG_G.copy())


def constraints_of_every_rank(rng: np.random.Generator, n: int, per_rank: int = 3) -> np.ndarray:
    """Random PSD constraints of rank 0 to n, ``per_rank`` of each."""
    out = []
    for r in range(n + 1):
        for _ in range(per_rank):
            f = cgauss(rng, (n, r))
            out.append(herm(f @ f.conj().T) * float(rng.uniform(0.5, 12.0)))
    return np.stack(out)


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
        rates = _stacked_corners(ch, stack)
        assert rates.shape == (stack.shape[0], 2)
        for s, got in zip(stack, rates):
            sol = solve_matrix_constraint(ch, s)
            assert np.array_equal(got, [sol.corner.R1, sol.corner.R2])

    def test_zero_constraint_is_origin(self, fig_channel):
        rates = _stacked_corners(fig_channel, np.zeros((3, 2, 2), dtype=complex))
        assert np.array_equal(rates, np.zeros((3, 2)))

    def test_empty_stack(self, fig_channel):
        rates = _stacked_corners(fig_channel, np.zeros((0, 2, 2), dtype=complex))
        assert rates.shape == (0, 2)

    @pytest.mark.parametrize("m, weak", [(2, 0.0), (1, 0.0), (1, 100.0)])
    def test_raises_like_single_solves(self, m, weak):
        # A silent second user and S = diag(1e11, weak) give the pencil an
        # eigenvalue of about 1e11 |h|^2.  With one receive antenna the other
        # is one, a spread past 1 / RANK_TOL, but it lies on range(S) only
        # when S has full rank: a rank-one S is solved on its range, in the
        # stack as alone, and has a 1 x 1 pencil.
        ch = Channel(cgauss(np.random.default_rng(31), (m, 2)), np.zeros((2, 2), dtype=complex))
        s = np.diag([1e11, weak]).astype(complex)
        if weak > 0.0:
            with pytest.raises(NotPositiveDefiniteError):
                solve_matrix_constraint(ch, s)
            with pytest.raises(NotPositiveDefiniteError):
                _stacked_corners(ch, s[None])
        else:
            sol = solve_matrix_constraint(ch, s)
            rates = _stacked_corners(ch, s[None])
            assert np.array_equal(rates[0], [sol.corner.R1, sol.corner.R2])

    def test_rejects_bad_items(self, fig_channel):
        good = np.eye(2, dtype=complex)
        with pytest.raises(NotPositiveSemidefiniteError, match="constraint"):
            _stacked_corners(fig_channel, np.stack([good, np.diag([1.0, -1.0])]))
        with pytest.raises(ValueError, match="constraint"):
            _stacked_corners(fig_channel, np.stack([good, np.full((2, 2), np.nan)]))
        with pytest.raises(DimensionMismatchError):
            _stacked_corners(fig_channel, good)


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


class TestRankBound:
    def test_no_second_receiver_full_bound(self):
        rng = np.random.default_rng(10)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, np.zeros((1, 3), dtype=complex))
        sol = solve_matrix_constraint(ch, rand_psd(rng, 3))
        report = rank_bound_check(ch, sol)
        assert report.m == 3
        assert report.holds and report.lower_holds

    def test_identical_channels(self):
        rng = np.random.default_rng(11)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, h.copy())
        sol = solve_matrix_constraint(ch, rand_psd(rng, 3))
        report = rank_bound_check(ch, sol)
        assert report.m == 0
        assert sol.gevd.b == 0
        assert report.holds

    def test_random_sweep_holds(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ch = rand_channel(rng, 4)
            sol = solve_matrix_constraint(ch, rand_psd(rng, 4, trace=4.0))
            report = rank_bound_check(ch, sol)
            assert report.holds and report.lower_holds
