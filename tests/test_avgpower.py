"""Average-power region: diagonalization, water-filling, sweep, and limits."""

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    allocate,
    corner_rates,
    diagonalize,
    make_matrix_constraint,
    p2p_limit_check,
    region_sweep,
    solve_matrix_constraint,
    waterfill,
    waterfill_high_snr,
)
from bcsecrecy.avgpower import PowerAllocation, reduce_nullspace, waterfill_capacity
from bcsecrecy.errors import (
    DimensionMismatchError,
    NoStrongChannelsError,
    ZeroChannelError,
)
from bcsecrecy.linalg import LN2, herm
from conftest import FIG_PT, cgauss, rand_channel


class TestReduceNullspace:
    def test_full_rank_keeps_dimension(self):
        rng = np.random.default_rng(0)
        ch = rand_channel(rng, 3, m1=3, m2=3)
        ch_r, u_p, lam = reduce_nullspace(ch)
        assert u_p.shape == (3, 3)
        assert ch_r.H.shape == (3, 3)
        # The reduced Gram sum is diagonal, with the returned eigenvalues.
        m_r = ch_r.gram_h() + ch_r.gram_g()
        assert np.linalg.norm(m_r - np.diag(lam)) <= 1e-12 * lam[0]

    def test_common_subspace_detected(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(cgauss(rng, (3, 2)))[0]
        ch = Channel(cgauss(rng, (2, 2)) @ basis.conj().T, cgauss(rng, (2, 2)) @ basis.conj().T)
        ch_r, u_p, lam = reduce_nullspace(ch)
        assert u_p.shape == (3, 2)
        assert ch_r.H.shape == (2, 2)
        assert lam.shape == (2,)

    def test_zero_channels_rejected(self):
        ch = Channel(np.zeros((2, 3), dtype=complex), np.zeros((2, 3), dtype=complex))
        with pytest.raises(ZeroChannelError):
            reduce_nullspace(ch)


class TestDiagonalize:
    def test_no_second_receiver(self):
        ch = Channel(np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))
        dc = diagonalize(ch)
        assert np.allclose(dc.sigma1, 1.0)
        assert np.allclose(dc.sigma2, 0.0)
        assert dc.rho == 3

    def test_identical_channels(self):
        rng = np.random.default_rng(2)
        h = cgauss(rng, (2, 3))
        dc = diagonalize(Channel(h, h.copy()))
        assert dc.rho == 0

    def test_worked_channels_partition(self, fig_channel):
        dc = diagonalize(fig_channel)
        gap = np.linalg.eigvalsh(herm(fig_channel.gram_h() - fig_channel.gram_g()))
        assert dc.rho == int(np.sum(gap > 1e-10 * np.abs(gap).max()))

    def test_sigma_profiles_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dc = diagonalize(rand_channel(rng, int(rng.integers(2, 6))))
            assert np.max(np.abs(dc.sigma1 + dc.sigma2 - 1.0)) <= 1e-9
            assert np.all(dc.a > 0)

    def test_whitened_grams_commute(self):
        rng = np.random.default_rng(4)
        ch = rand_channel(rng, 4)
        ch_r, _, _ = reduce_nullspace(ch)
        dc = diagonalize(ch)
        a1 = herm(dc.w @ ch_r.gram_h() @ dc.w)
        a2 = herm(dc.w @ ch_r.gram_g() @ dc.w)
        assert np.linalg.norm(a1 @ a2 - a2 @ a1) <= 1e-8

    def test_gram_sum_decomposed_once(self, monkeypatch):
        # One eigh for the Gram sum, one for the whitened Gram of H, and one
        # for the sigma1 = 0 cluster that the null space of the 2-row H leaves.
        rng = np.random.default_rng(4)
        ch = rand_channel(rng, 4, m1=2, m2=4)
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        diagonalize(ch)
        assert calls == [(4, 4), (4, 4), (2, 2)]

    def test_partition_blocks_ordered(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dc = diagonalize(rand_channel(rng, 4))
            assert np.all(dc.sigma1[: dc.rho] - dc.sigma2[: dc.rho] > 1e-9)
            assert np.all(dc.sigma1[dc.rho:] - dc.sigma2[dc.rho:] <= 1e-9)


class TestMakeMatrixConstraint:
    def test_zero_powers(self, fig_channel):
        dc = diagonalize(fig_channel)
        assert np.allclose(make_matrix_constraint(dc, np.zeros(dc.n)), 0.0)

    def test_unit_powers_invert_the_gram_sum(self, fig_channel):
        dc = diagonalize(fig_channel)
        s_w = make_matrix_constraint(dc, np.ones(dc.n))
        want = np.linalg.inv(fig_channel.gram_h() + fig_channel.gram_g())
        assert np.linalg.norm(s_w - want) <= 1e-10 * np.linalg.norm(want)

    def test_random_powers_are_orthogonal_constraints(self, fig_channel):
        rng = np.random.default_rng(6)
        dc = diagonalize(fig_channel)
        from bcsecrecy import orthogonality_defect

        for _ in range(5):
            s_w = make_matrix_constraint(dc, rng.uniform(0.0, 3.0, dc.n))
            sol = solve_matrix_constraint(fig_channel, s_w)
            assert orthogonality_defect(sol) <= 1e-8
            assert sol.gevd.b == dc.rho

    def test_rejects_bad_shapes(self, fig_channel):
        dc = diagonalize(fig_channel)
        with pytest.raises(DimensionMismatchError):
            make_matrix_constraint(dc, np.zeros(dc.n + 1))
        with pytest.raises(ValueError):
            make_matrix_constraint(dc, -np.ones(dc.n))


class TestWaterfill:
    def test_single_subchannel_budget_pins_power(self):
        p, mu = waterfill(np.array([3.0]), np.array([1.0]), np.array([1.0]), 5.0)
        assert p[0] == pytest.approx(5.0, rel=1e-9)
        slope = 3.0 / (1.0 + 3.0 * p[0]) - 1.0 / (1.0 + p[0])
        assert mu == pytest.approx(slope, rel=1e-8)

    def test_zero_budget(self):
        p, _ = waterfill(np.array([3.0, 2.0]), np.array([1.0, 0.5]), np.ones(2), 0.0)
        assert np.all(p == 0.0)

    def test_budget_met_and_kkt(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            weak = rng.uniform(0.0, 0.5, n)
            strong = weak + rng.uniform(0.01, 1.0, n)
            a = rng.uniform(0.2, 2.0, n)
            budget = float(rng.uniform(0.5, 20.0))
            p, mu = waterfill(strong, weak, a, budget)
            assert abs(p @ a - budget) <= 1e-10 * budget
            on = p > 0
            if np.any(on):
                slope = strong[on] / (1 + strong[on] * p[on]) - weak[on] / (1 + weak[on] * p[on])
                assert np.max(np.abs(slope - mu * a[on]) / (mu * a[on])) <= 1e-8
            off = ~on
            if np.any(off):
                assert np.max((strong - weak)[off] - mu * a[off]) <= 1e-8

    def test_beats_random_feasible_allocations(self):
        rng = np.random.default_rng(9)
        weak = np.array([0.1, 0.4, 0.0])
        strong = np.array([0.9, 0.6, 0.5])
        a = np.array([1.0, 0.7, 1.3])
        budget = 6.0
        p, _ = waterfill(strong, weak, a, budget)

        def value(q):
            return float(np.sum(np.log1p(strong * q) - np.log1p(weak * q)))

        best = value(p)
        for _ in range(1000):
            q = rng.uniform(0.0, 1.0, 3)
            q *= budget / float(q @ a)
            assert value(q) <= best + 1e-8

    def test_valueless_channels_rejected(self):
        with pytest.raises(NoStrongChannelsError):
            waterfill(np.array([1.0]), np.array([1.0]), np.array([1.0]), 2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            waterfill(np.ones(2), np.ones(3), np.ones(2), 1.0)

    def test_zero_weak_limit_is_continuous(self):
        strong = np.array([2.0, 1.0])
        a = np.array([1.0, 1.0])
        p0, _ = waterfill(strong, np.array([0.0, 0.0]), a, 4.0)
        p1, _ = waterfill(strong, np.array([1e-14, 1e-14]), a, 4.0)
        assert np.max(np.abs(p0 - p1)) <= 1e-6


class TestWaterfillHighSnr:
    def test_matches_exact_at_large_budget(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            weak = rng.uniform(0.05, 0.4, n)
            strong = weak + rng.uniform(0.1, 0.6, n)
            a = rng.uniform(0.5, 2.0, n)
            p_exact, _ = waterfill(strong, weak, a, 1e6)
            p_asym, _ = waterfill_high_snr(strong, weak, a, 1e6)
            assert np.max(np.abs(p_asym - p_exact) / p_exact) <= 0.01

    def test_symmetric_subchannels_split_evenly(self):
        p, _ = waterfill_high_snr(
            np.array([0.8, 0.8]), np.array([0.2, 0.2]), np.array([1.0, 1.0]), 100.0
        )
        assert p[0] == pytest.approx(p[1], rel=1e-9)
        assert p.sum() == pytest.approx(100.0, rel=1e-9)

    def test_single_subchannel_budget_determined(self):
        p, _ = waterfill_high_snr(np.array([0.9]), np.array([0.3]), np.array([2.0]), 50.0)
        assert p[0] == pytest.approx(25.0, rel=1e-9)

    def test_zero_weak_entries_use_exact_branch(self):
        strong = np.array([0.9, 0.7])
        weak = np.array([0.0, 0.2])
        a = np.array([1.0, 1.0])
        p_exact, _ = waterfill(strong, weak, a, 1e7)
        p_asym, _ = waterfill_high_snr(strong, weak, a, 1e7)
        assert np.max(np.abs(p_asym - p_exact) / p_exact) <= 0.01


class TestAllocateAndRates:
    def test_zero_power_zero_rates(self, fig_channel):
        dc = diagonalize(fig_channel)
        alloc = allocate(dc, 0.5, 0.0)
        got = corner_rates(dc, alloc)
        assert (got.R1, got.R2) == (0.0, 0.0)

    def test_matches_matrix_constraint_corner(self, fig_channel):
        dc = diagonalize(fig_channel)
        alloc = allocate(dc, 0.5, FIG_PT)
        got = corner_rates(dc, alloc)
        s_w = make_matrix_constraint(dc, alloc.full_vector())
        sol = solve_matrix_constraint(fig_channel, s_w)
        assert got.R1 == pytest.approx(sol.corner.R1, abs=1e-8)
        assert got.R2 == pytest.approx(sol.corner.R2, abs=1e-8)

    def test_no_second_receiver_r2_zero(self):
        rng = np.random.default_rng(11)
        ch = Channel(cgauss(rng, (2, 2)), np.zeros((1, 2), dtype=complex))
        dc = diagonalize(ch)
        got = corner_rates(dc, allocate(dc, 0.7, 10.0))
        assert got.R2 == 0.0
        assert got.R1 > 0.0

    def test_budget_split(self, fig_channel):
        dc = diagonalize(fig_channel)
        alloc = allocate(dc, 0.3, FIG_PT)
        spent1 = float(alloc.p1 @ dc.a[: dc.rho])
        spent2 = float(alloc.p2 @ dc.a[dc.rho:])
        assert spent1 == pytest.approx(0.3 * FIG_PT, rel=1e-9)
        assert spent2 == pytest.approx(0.7 * FIG_PT, rel=1e-9)

    def test_nan_powers_give_nan_rates(self, fig_channel):
        dc = diagonalize(fig_channel)
        assert 0 < dc.rho < dc.n
        nan = np.full(dc.n, np.nan)
        point = corner_rates(dc, PowerAllocation(0.5, nan[: dc.rho], nan[dc.rho:], 1.0, 1.0))
        assert np.isnan(point.R1) and np.isnan(point.R2)

    def test_alpha_validated(self, fig_channel):
        dc = diagonalize(fig_channel)
        for alpha, pt in ((1.5, 1.0), (np.nan, 1.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                allocate(dc, alpha, pt)
        with pytest.raises(ValueError):
            region_sweep(fig_channel, np.nan, 11)
        with pytest.raises(ValueError):
            region_sweep(fig_channel, np.inf, 11)


class TestRegionSweep:
    def test_endpoint_alpha_one(self, fig_channel):
        est = region_sweep(fig_channel, FIG_PT, alpha_grid=5)
        by_alpha = {p.alpha: p for p in est.points}
        assert by_alpha[1.0].R2 == 0.0
        assert by_alpha[0.0].R1 == 0.0

    def test_monotone_in_alpha(self, fig_channel):
        est = region_sweep(fig_channel, FIG_PT, alpha_grid=21)
        pts = sorted(est.points, key=lambda p: p.alpha)
        r1 = [p.R1 for p in pts]
        r2 = [p.R2 for p in pts]
        assert np.all(np.diff(r1) >= -1e-9)
        assert np.all(np.diff(r2) <= 1e-9)

    def test_vanishing_power_collapses(self, fig_channel):
        est = region_sweep(fig_channel, 1e-12, alpha_grid=5)
        for p in est.points:
            assert p.R1 <= 1e-9 and p.R2 <= 1e-9

    def test_nan_channel_rejected(self, fig_channel):
        h = fig_channel.H.copy()
        h[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            region_sweep(Channel(h, fig_channel.G), FIG_PT)

    def test_area_positive(self, fig_channel):
        est = region_sweep(fig_channel, FIG_PT, alpha_grid=21)
        assert est.area > 0.0


class TestPointToPointLimit:
    def test_vanishing_cross_channel_reaches_capacity(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            ch = rand_channel(rng, 2, m1=2, m2=2)
            r1, cap = p2p_limit_check(ch, 10.0)
            assert abs(r1 - cap) <= 1e-3

    def test_zero_main_channel(self):
        rng = np.random.default_rng(13)
        ch = Channel(np.zeros((2, 2), dtype=complex), cgauss(rng, (2, 2)))
        r1, cap = p2p_limit_check(ch, 10.0)
        assert r1 == 0.0
        assert cap == 0.0

    def test_comparable_channels_pay_secrecy_penalty(self):
        rng = np.random.default_rng(14)
        ch = rand_channel(rng, 2, m1=2, m2=2)
        r1, cap = p2p_limit_check(ch, 10.0, eps=1.0)
        assert r1 < cap - 1e-6

    def test_capacity_oracle_closed_form(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        # Water level over gains (1, 4) with budget 3: 1/mu = 2.125.
        want = (np.log(2.125) + np.log(8.5)) / LN2
        assert waterfill_capacity(h, 3.0) == pytest.approx(want, rel=1e-10)

    def test_capacity_zero_channel(self):
        assert waterfill_capacity(np.zeros((2, 2), dtype=complex), 5.0) == 0.0
