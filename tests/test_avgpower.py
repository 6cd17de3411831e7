"""Average-power region: diagonalization, water-filling, sweep, and limits."""

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    MisoChannel,
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
from bcsecrecy import avgpower
from bcsecrecy.avgpower import (
    LEVEL_REL_TOL,
    PowerAllocation,
    reduce_nullspace,
    sweep_rates,
    waterfill_capacity,
)
from bcsecrecy.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NoStrongChannelsError,
    ZeroChannelError,
)
from bcsecrecy.linalg import LN2, herm
from conftest import FIG_G, FIG_H, FIG_PT, cgauss, count_decompositions, gram, rand_channel

# An underflow or NaN in the water-level search shows up as a RuntimeWarning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestReduceNullspace:
    def test_full_rank_keeps_dimension(self):
        rng = np.random.default_rng(0)
        ch = rand_channel(rng, 3, m1=3, m2=3)
        u_r, sv, v_r = reduce_nullspace(ch)
        assert v_r.shape == (3, 3)
        assert u_r.shape == (6, 3)
        # The reduced Gram sum is diagonal, with the returned sigma^2.
        m_r = gram(ch.H @ v_r) + gram(ch.G @ v_r)
        assert np.linalg.norm(m_r - np.diag(sv ** 2)) <= 1e-12 * sv[0] ** 2

    def test_common_subspace_detected(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(cgauss(rng, (3, 2)))[0]
        ch = Channel(cgauss(rng, (2, 2)) @ basis.conj().T, cgauss(rng, (2, 2)) @ basis.conj().T)
        u_r, sv, v_r = reduce_nullspace(ch)
        assert v_r.shape == (3, 2)
        assert u_r.shape == (4, 2)
        assert sv.shape == (2,)

    def test_zero_channels_rejected(self):
        ch = Channel(np.zeros((2, 3), dtype=complex), np.zeros((2, 3), dtype=complex))
        with pytest.raises(ZeroChannelError):
            reduce_nullspace(ch)

    def test_squared_singular_value_overflow_rejected(self):
        # sigma_1^2 = 4e308 is past float64: an input error, not a zero channel.
        ch = Channel(np.diag([2e154, 1.0]), np.zeros((1, 2)))
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            reduce_nullspace(ch)

    def test_rank_rule_at_its_cut(self):
        # sigma_i^2 > RANK_TOL sigma_1^2 of the stacked channel: sigma_2^2 / sigma_1^2
        # is 0.99992e-10 for g = [2, 2.0001], under the cut, and 1.21e-10 for
        # g = [2, 2.00011].  A change of the rank rule has to restate this test.
        h = np.array([1.0, 1.0])
        for g, rank in (([2.0, 2.0001], 1), ([2.0, 2.00011], 2)):
            _, sv, v_r = reduce_nullspace(MisoChannel(h, np.array(g)).as_channel())
            assert v_r.shape == (2, rank) and sv.shape == (rank,)


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
        gap = np.linalg.eigvalsh(herm(gram(fig_channel.H) - gram(fig_channel.G)))
        assert dc.rho == int(np.sum(gap > 1e-10 * np.abs(gap).max()))

    def test_sigma_profiles_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dc = diagonalize(rand_channel(rng, int(rng.integers(2, 6))))
            assert np.max(np.abs(dc.sigma1 + dc.sigma2 - 1.0)) <= 1e-9
            assert np.all(dc.a > 0)

    @pytest.mark.parametrize("scale", [1e1, 1e2, 1e3, 1e4, 3e4])
    def test_sigma_sum_with_one_weak_direction(self, scale):
        # [H; G] shrunk by 1/scale along one random transmit direction u.
        # sigma1 + sigma2 are the squared column norms of U_r Phi, which has
        # orthonormal columns, so they sum to one within a few eps at any
        # scale.  Whitening H V_r by 1/sigma_r instead amplifies its rounding
        # by the conditioning of [H; G]: 1.7e2 to 2.0e5 eps worst per scale.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        for _ in range(200):
            h, g, u = cgauss(rng, (3, 4)), cgauss(rng, (3, 4)), cgauss(rng, 4)
            shrink = np.eye(4) - (1.0 - 1.0 / scale) * np.outer(u, u.conj()) / np.vdot(u, u).real
            dc = diagonalize(Channel(h @ shrink, g @ shrink))
            assert np.max(np.abs(dc.sigma1 + dc.sigma2 - 1.0)) <= 16 * eps

    def test_whitened_grams_commute(self):
        rng = np.random.default_rng(4)
        ch = rand_channel(rng, 4)
        dc = diagonalize(ch)
        a1, a2 = (herm(x.conj().T @ x) for x in (ch.H @ dc.basis, ch.G @ dc.basis))
        assert np.linalg.norm(a1 @ a2 - a2 @ a1) <= 1e-8

    def test_gram_sum_decomposed_once(self, monkeypatch):
        # No Gram matrix and no eigh: one SVD of the stacked 6 x 4 channel for
        # the range and the whitening, one of the whitened 2 x 4 H for Phi, and
        # one of the 4 x 2 whitened cluster basis for the sigma1 = 0 cluster
        # that the null space of the 2-row H leaves.
        rng = np.random.default_rng(4)
        ch = rand_channel(rng, 4, m1=2, m2=4)
        calls = count_decompositions(monkeypatch)
        diagonalize(ch)
        assert calls == {"eigh": [], "cholesky": [], "svd": [(6, 4), (2, 4), (4, 2)]}

    def test_failed_svd_is_typed(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NoConvergenceError, match="svd failed on stacked channel"):
            diagonalize(rand_channel(np.random.default_rng(4), 4))

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
        want = np.linalg.inv(gram(fig_channel.H) + gram(fig_channel.G))
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
        for bad in (-1.0, np.nan, np.inf):
            p = np.ones(dc.n)
            p[0] = bad
            with pytest.raises(ValueError, match="finite and non-negative"):
                make_matrix_constraint(dc, p)


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

    def test_budget_residual_below_1e12(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            weak = rng.uniform(0.0, 0.5, n)
            weak[rng.random(n) < 0.2] = 0.0
            strong = weak + rng.uniform(1e-3, 1.0, n)
            a = rng.uniform(0.1, 10.0, n)
            budget = float(10.0 ** rng.uniform(-2.0, 15.0))
            p, _ = waterfill(strong, weak, a, budget)
            assert abs(p @ a - budget) <= 1e-12 * budget

    def test_tiny_budget_stays_proportional(self):
        # Just above the opening level the power is linear in the budget.
        for budget in (1e-12, 1e-100, 1e-300):
            p, _ = waterfill(np.array([1.0]), np.array([0.5]), np.array([2.0]), budget)
            assert p[0] == pytest.approx(budget / 2.0, rel=1e-12)

    def test_subnormal_level_offset_rejected(self):
        # The lower end of the supported range, b = 2.2e-308 a / (s + w) =
        # 5.76e-293 here.  At b = 1e-300 the level is within a subnormal
        # factor of mu_max, where the spent power keeps about 25 bits, and
        # the search used to run out of steps.
        s, w, a = [2.0404445219642553e-08], [1.067121645197132e-14], [52820940.79272381]
        with pytest.raises(ValueError, match="outside the supported range"):
            waterfill(s, w, a, 1e-300)
        p, _ = waterfill(s, w, a, 6e-293)
        assert p[0] * a[0] == pytest.approx(6e-293, rel=LEVEL_REL_TOL)

    def test_zero_weak_limit_is_continuous(self):
        strong = np.array([2.0, 1.0])
        a = np.array([1.0, 1.0])
        p0, _ = waterfill(strong, np.array([0.0, 0.0]), a, 4.0)
        p1, _ = waterfill(strong, np.array([1e-14, 1e-14]), a, 4.0)
        assert np.max(np.abs(p0 - p1)) <= 1e-6

    def test_matches_bisection_oracle(self):
        # An independent level search: plain bisection on ln mu over padded
        # blocks (padding has s = w, so it never opens) and every budget at once.
        rng = np.random.default_rng(20)
        blocks, width, budgets = 100, 8, np.logspace(-6.0, 9.0, 11)
        n = rng.integers(1, width + 1, blocks)
        weak = rng.uniform(0.0, 1.0, (blocks, width))
        weak[rng.random((blocks, width)) < 0.25] = 0.0
        tie = 10.0 ** rng.uniform(-9.0, np.log10(0.5), (blocks, width))  # (s - w) / s
        strong = np.where(weak > 0, weak / (1.0 - tie), rng.uniform(0.05, 1.0, (blocks, width)))
        pad = np.arange(width) >= n[:, None]
        strong[pad] = weak[pad] = 1.0
        cost = np.where(pad, 1.0, 10.0 ** rng.uniform(-3.0, 3.0, (blocks, width)))
        d, ssum, sprod = (v[:, None, :] for v in (strong - weak, strong + weak, strong * weak))

        def powers(log_mu):
            # Positive root of mu a s w p^2 + mu a (s + w) p + (mu a - d) = 0,
            # as 2 (d - mu a) / (mu a (s + w) + sqrt(discriminant)).
            mu_a = np.exp(log_mu)[..., None] * cost[:, None, :]
            c = np.maximum(d - mu_a, 0.0)
            lin = mu_a * ssum
            root = 2.0 * c / (lin + np.sqrt(lin * lin + 4.0 * mu_a * sprod * c))
            return root, np.sum(root * cost[:, None, :], axis=-1)

        hi = np.log(np.max((strong - weak) / cost, axis=1))[:, None] + np.zeros(budgets.size)
        lo = hi - 120.0
        assert np.all(powers(lo)[1] >= budgets)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            over = powers(mid)[1] >= budgets
            lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
        p_ref = powers(lo)[0]
        rate_ref = np.sum(np.log1p(strong[:, None] * p_ref) - np.log1p(weak[:, None] * p_ref), axis=-1)

        rate, spend = np.empty_like(rate_ref), np.empty_like(rate_ref)
        for k, m in enumerate(n):
            s, w, a = strong[k, :m], weak[k, :m], cost[k, :m]
            for j, budget in enumerate(budgets):
                p, _ = waterfill(s, w, a, budget)
                rate[k, j] = np.sum(np.log1p(s * p) - np.log1p(w * p))
                spend[k, j] = p @ a
        assert np.max(np.abs(rate - rate_ref) / (1.0 + rate_ref)) <= 1e-12
        assert np.max(np.abs(spend - budgets) / budgets) <= 1e-10

    def test_budget_met_across_a_jump_in_spent_power(self):
        # The first subchannel opens so steeply that the spent power jumps
        # across one float step of the level: no level spends the budget, and
        # the powers at the two ends of the final bracket are mixed.  The
        # search used to stop there and spend 0.77 of the budget.
        strong = np.array([1.5262087415006265e-10, 0.73647315407714486])
        weak = np.array([1.525190814329909e-10, 0.7362589642472426])
        a = np.array([4.30014629953123e9, 1.0088168451395275e-9])
        budget = 221074.0742743119
        p, mu = waterfill(strong, weak, a, budget)
        assert abs(p @ a - budget) <= LEVEL_REL_TOL * budget
        # Both subchannels are open, each at its KKT slope (in a form that
        # does not cancel at p = 1.3e14).
        slope = (strong - weak) / ((1.0 + strong * p) * (1.0 + weak * p))
        assert np.all(p > 0) and np.max(np.abs(slope - mu * a) / (mu * a)) <= 1e-8

    def test_budget_met_on_wide_stress(self):
        # Strong gains log-uniform over 12 decades, weak gains a uniform
        # fraction of them (20% zero), costs over 18 decades and budgets over
        # 15: every row spends its budget.
        rng = np.random.default_rng(22)
        for _ in range(600):
            k = int(rng.integers(1, 6))
            strong = 10.0 ** rng.uniform(-10.0, 2.0, k)
            weak = strong * rng.uniform(0.0, 1.0, k) * (rng.random(k) >= 0.2)
            a = 10.0 ** rng.uniform(-9.0, 9.0, k)
            budgets = 10.0 ** rng.uniform(-6.0, 9.0, 8)
            p, _ = avgpower._fill(strong, weak, a, budgets, strong > weak)
            assert np.all(np.abs(p @ a - budgets) <= LEVEL_REL_TOL * budgets)

    def test_one_live_start_is_the_level(self, monkeypatch):
        # With one live subchannel the start is the level, so no step may be
        # needed: every row meets its budget with no step allowed.  Dead
        # subchannels (strong <= weak, some with weak = 0) ride along.
        monkeypatch.setattr(avgpower, "LEVEL_MAX_ITER", 0)
        budgets = np.logspace(-12.0, 12.0, 97)
        rng = np.random.default_rng(33)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            weak = rng.uniform(0.0, 1.0, k) * (rng.random(k) >= 0.2)
            strong = weak * rng.uniform(0.2, 1.0, k)
            j = int(rng.integers(k))
            strong[j] = weak[j] + 10.0 ** rng.uniform(-3.0, 0.0)
            a = 10.0 ** rng.uniform(-3.0, 3.0, k)
            p, _ = avgpower._fill(strong, weak, a, budgets, strong > weak)
            assert np.all(np.abs(p @ a - budgets) <= LEVEL_REL_TOL * budgets)

    @pytest.mark.parametrize("args, top", [
        (([0.9], [0.2], [1e-10]), "1.58013e+144"),
        (([0.9], [0.0], [1e-10]), "4.99359e+297"),
        (([0.9, 0.5], [0.2, 0.1], [1e-10, 1.0]), "2.26635e+149"),
    ])
    def test_start_overflow_lands_on_the_floor(self, args, top):
        # s b/a overflows float64, so log1p gives an infinite start; the true
        # start lies below the floor anyway, so the search starts at the
        # floor and reports what the floor spends, the same text as when the
        # start was taken from logs.
        with pytest.raises(ValueError) as err:
            waterfill(*(np.array(v) for v in args), 1e300)
        assert str(err.value) == (f"budget 1e+300 is outside the supported range [0, {top}]: "
                                  "its water level is below the float64 range")

    def test_level_search_out_of_steps_raises(self, monkeypatch):
        # Two live subchannels: the start is not the level, and one step does
        # not reach it.
        monkeypatch.setattr(avgpower, "LEVEL_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError, match="water level"):
            waterfill(np.array([3.0, 2.0]), np.array([1.0, 0.5]), np.ones(2), 5.0)


@pytest.mark.parametrize("fill", [waterfill, waterfill_high_snr])
def test_fill_inputs_checked(fill):
    good = (np.array([0.9, 0.6]), np.array([0.2, 0.3]), np.ones(2), 10.0)
    bad_values = [
        (3, np.nan), (3, np.inf), (3, -1.0),
        (0, np.array([np.nan, 0.6])), (0, np.array([np.inf, 0.6])),
        (1, np.array([-0.1, 0.3])), (1, np.array([0.2, np.nan])),
        (2, np.array([-1.0, 1.0])), (2, np.array([0.0, 1.0])), (2, np.array([np.inf, 1.0])),
    ]
    for index, value in bad_values:
        args = list(good)
        args[index] = value
        with pytest.raises(ValueError):
            fill(*args)
    with pytest.raises(DimensionMismatchError):
        fill(np.ones(2), np.ones(3) * 0.1, np.ones(2), 1.0)
    with pytest.raises(DimensionMismatchError):
        fill(np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), 1.0)
    assert np.all(np.isfinite(fill(*good)[0]))


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

    def test_zero_budget(self):
        p, mu = waterfill_high_snr(np.array([0.9, 0.6]), np.array([0.2, 0.0]), np.ones(2), 0.0)
        assert np.all(p == 0.0) and mu == np.inf

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

    def test_one_live_subchannel_exact_level(self, monkeypatch):
        # Each block of this channel has one live subchannel, so its level is
        # known in closed form and the search must end at its first tolerance
        # check: one allowed iteration is then enough.  Each block's one
        # subchannel has sigma = 1 against 0 (user 1 beams off g, user 2 off h),
        # so R1 = log2(1 + alpha pt (|h|^2 - |g^H h|^2 / |g|^2)) and R2 alike.
        # R1 at (0.5, 1e8) is that formula in mpmath at 60 digits,
        # 21.536027720114385462; the other rates match it to 7e-15.
        monkeypatch.setattr(avgpower, "LEVEL_MAX_ITER", 1)
        h = np.array([0.8 + 0.3j, -0.5 + 1.1j])
        g = np.array([0.4 - 0.9j, 1.2 + 0.2j])
        dc = diagonalize(MisoChannel(h, g).as_channel())
        assert (dc.rho, dc.n) == (1, 2)
        searched = {
            (0.3, 10.0): (0.2417779353804732, 0.5619426376375498),
            (1.0, 10.0): (0.6854138804538125, 0.0),
            (0.5, 1e8): (21.536027720114385, 21.69787854916671),
            (0.7, 1e-6): (6.141758757624224e-08, 2.944678889022875e-08),
        }
        for (alpha, pt), (r1, r2) in searched.items():
            alloc = allocate(dc, alpha, pt)
            for p, a, budget in ((alloc.p1, dc.a[:1], alpha * pt),
                                 (alloc.p2, dc.a[1:], (1 - alpha) * pt)):
                assert abs(float(p @ a) - budget) <= LEVEL_REL_TOL * budget
            got = corner_rates(dc, alloc)
            assert abs(got.R1 - r1) <= 1e-12 and abs(got.R2 - r2) <= 1e-12
        with pytest.raises(ValueError, match="supported range"):
            allocate(dc, 0.5, 1e300)

    def test_alpha_validated(self, fig_channel):
        dc = diagonalize(fig_channel)
        for alpha, pt in ((1.5, 1.0), (np.nan, 1.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                allocate(dc, alpha, pt)
        with pytest.raises(ValueError):
            region_sweep(fig_channel, np.nan, 11)
        with pytest.raises(ValueError):
            region_sweep(fig_channel, np.inf, 11)


class TestLargeBudgets:
    def test_rates_scale_invariant(self, fig_channel):
        # (H, G, Pt) -> (cH, cG, Pt/c^2) leaves every rate unchanged.
        big = region_sweep(fig_channel, 1e100)
        scaled = region_sweep(Channel(1e45 * FIG_H, 1e45 * FIG_G), 1e10)
        for p, q in zip(big.points, scaled.points):
            assert p.R1 == pytest.approx(q.R1, abs=1e-9)
            assert p.R2 == pytest.approx(q.R2, abs=1e-9)
        assert big.area == pytest.approx(scaled.area, rel=1e-9)
        assert np.isfinite(big.area) and big.area > 0.0

    def test_allocation_finite_and_on_budget(self, fig_channel):
        dc = diagonalize(fig_channel)
        alloc = allocate(dc, 0.5, 1e100)
        assert np.all(np.isfinite(alloc.full_vector()))
        assert float(alloc.p1 @ dc.a[: dc.rho]) == pytest.approx(0.5e100, rel=1e-12)
        assert float(alloc.p2 @ dc.a[dc.rho:]) == pytest.approx(0.5e100, rel=1e-12)

    def test_unrepresentable_level_rejected(self, fig_channel):
        dc = diagonalize(fig_channel)
        with pytest.raises(ValueError, match="supported range"):
            allocate(dc, 0.5, 1e300)
        with pytest.raises(ValueError, match="supported range"):
            region_sweep(fig_channel, 1e300, 11)
        with pytest.raises(ValueError, match="supported range"):
            waterfill(np.array([0.9]), np.array([0.2]), np.array([1.0]), 1e300)

    def test_high_snr_level_range_matches_waterfill(self):
        # Its level 1/y^2 underflowed to 0.0 instead of raising.
        args = (np.array([0.9]), np.array([0.2]), np.array([1.0]), 1e300)
        messages = []
        for fill in (waterfill, waterfill_high_snr):
            with pytest.raises(ValueError, match=r"supported range \[0, ") as err:
                fill(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # Zero-weak entries spend like 1/mu, so the same budget stays in range.
        p, mu = waterfill_high_snr(np.array([0.9]), np.array([0.0]), np.array([1.0]), 1e300)
        assert np.isfinite(p).all() and mu > 0.0


SWEEP_CHANNELS = {
    "worked": lambda rng: Channel(FIG_H.copy(), FIG_G.copy()),
    "random4x4": lambda rng: rand_channel(rng, 4, m1=4, m2=4),
    # One user's block is empty: no second receiver (rho = n), no first (rho = 0).
    "rho_n": lambda rng: Channel(cgauss(rng, (2, 2)), np.zeros((2, 2), dtype=complex)),
    "rho_0": lambda rng: Channel(np.zeros((2, 2), dtype=complex), cgauss(rng, (2, 2))),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CHANNELS))
def test_sweep_matches_single_splits(name):
    dc = diagonalize(SWEEP_CHANNELS[name](np.random.default_rng(16)))
    if name.startswith("rho"):
        assert dc.rho == (dc.n if name == "rho_n" else 0)
    for grid in (21, np.array([1.0, 0.0, 0.37])):
        alphas, rates = sweep_rates(dc, FIG_PT, grid)
        assert {0.0, 1.0} <= set(alphas.tolist())
        assert rates.shape == (alphas.size, 2)
        for alpha, (r1, r2) in zip(alphas, rates):
            single = corner_rates(dc, allocate(dc, alpha, FIG_PT))
            assert abs(r1 - single.R1) <= 1e-12
            assert abs(r2 - single.R2) <= 1e-12


def test_sweep_fills_take_few_steps(monkeypatch):
    # On these fills the search took at most 5 Newton steps when its slope was
    # still formed from the powers; it may take one more, so a slope form that
    # slows Newton down fails here with NoConvergenceError.
    monkeypatch.setattr(avgpower, "LEVEL_MAX_ITER", 6)
    for n in (2, 4, 8):
        for seed in range(4):
            dc = diagonalize(rand_channel(np.random.default_rng(1000 * n + seed), n))
            for pt in (1.0, 12.0, 100.0):
                alphas, rates = sweep_rates(dc, pt, 101)
                assert np.isfinite(rates).all()


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
        dc = diagonalize(ch)
        r1 = corner_rates(dc, allocate(dc, 1.0, 10.0)).R1
        assert r1 < waterfill_capacity(ch.H, 10.0) - 1e-6

    def test_capacity_oracle_closed_form(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        # Water level over gains (1, 4) with budget 3: 1/mu = 2.125.
        want = (np.log(2.125) + np.log(8.5)) / LN2
        assert waterfill_capacity(h, 3.0) == pytest.approx(want, rel=1e-10)

    def test_capacity_exact_at_low_snr(self):
        # One live subchannel gets the whole budget, so the capacity is
        # log1p(lambda pt) to rounding.  Forming each power as y^2 - 1/lambda,
        # a difference of two numbers near 1/lambda, was off by 5.3e-10 here.
        h = np.array([[np.sqrt(3.3e-5)]], dtype=complex)
        want = np.log1p(abs(h[0, 0]) ** 2 * 0.011) / LN2
        assert abs(waterfill_capacity(h, 0.011) - want) <= 1e-15 * want

    def test_capacity_zero_channel(self):
        assert waterfill_capacity(np.zeros((2, 2), dtype=complex), 5.0) == 0.0

    @pytest.mark.parametrize("pt", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_capacity_rejects_bad_budget(self, pt, gain):
        with pytest.raises(ValueError, match="total power"):
            waterfill_capacity(gain * np.eye(2, dtype=complex), pt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_capacity_rejects_nonfinite_channel(self, bad):
        # Checked through Channel, not left to the SVD's LinAlgError.
        with pytest.raises(ValueError, match="channel matrices have non-finite entries"):
            waterfill_capacity(np.array([[bad, 1.0]]), 1.0)


class TestPowerRangeEnds:
    """Water filling at the ends of the float64 power range: a value or the
    range error, never a division by zero."""

    def test_scalar_capacity_at_tiny_budgets(self):
        # The one zero-weak entry is always open; y^2 rounds an ulp below its tau here.
        for pt in (1e-300, 1e-30, 1e-17):
            want = np.log1p(0.49 * pt) / LN2
            assert waterfill_capacity(np.array([[0.7]]), pt) == pytest.approx(want, rel=1e-12)

    def test_worked_capacity_at_tiny_budgets(self):
        lam = reduce_nullspace(Channel(FIG_H, np.zeros((1, 2))))[1] ** 2
        for pt in (1e-18, 1e-30):
            p, _ = waterfill(lam, np.zeros(2), np.ones(2), pt)
            want = float(np.sum(np.log1p(lam * p))) / LN2
            assert waterfill_capacity(FIG_H, pt) == pytest.approx(want, rel=1e-12)

    def test_random_capacity_at_tiny_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            assert waterfill_capacity(cgauss(rng, (2, 2)), 1e-17) > 0.0

    def test_level_inf_where_its_reciprocal_underflows(self):
        p, mu = waterfill_high_snr([1.0], [0.5], [1.0], 1e-300)
        assert p.tolist() == [1e-300] and mu == np.inf

    def test_top_of_range_rejected(self):
        for h in (np.array([[0.7]]), FIG_H):
            with pytest.raises(ValueError, match="outside the supported range"):
                waterfill_capacity(h, 1e308)

    def test_every_decade(self):
        calls = (lambda pt: waterfill_capacity(np.array([[0.7]]), pt),
                 lambda pt: waterfill_capacity(FIG_H, pt),
                 lambda pt: waterfill_high_snr([1.0], [0.5], [1.0], pt),
                 lambda pt: p2p_limit_check(Channel(FIG_H, FIG_G), pt))
        for pt in 10.0 ** np.arange(-320, 309):
            for call in calls:
                try:
                    call(pt)
                except ValueError as exc:
                    assert "supported range" in str(exc)
