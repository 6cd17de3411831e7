"""Randomized reference search: sampling, determinism, hull consistency."""

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    MisoChannel,
    SearchConfig,
    miso_region,
    region_sweep,
    search_region,
)
from bcsecrecy.baseline import sample_constraint
from bcsecrecy.hull import pareto_hull
from conftest import rand_channel


class TestSampleConstraint:
    def test_scalar_case_is_full_power(self):
        rng = np.random.default_rng(0)
        s = sample_constraint(1, 7.5, rng)
        assert s.shape == (1, 1)
        assert s[0, 0].real == pytest.approx(7.5, abs=1e-12)

    def test_trace_and_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = sample_constraint(4, 3.0, rng)
            assert abs(np.trace(s).real - 3.0) <= 1e-12 * 3.0
            assert np.linalg.eigvalsh(s).min() >= -1e-10 * 3.0
            assert np.allclose(s, s.conj().T)

    def test_rank_deficient_draws_occur(self):
        rng = np.random.default_rng(2)
        ranks = set()
        for _ in range(60):
            s = sample_constraint(3, 3.0, rng)
            eig = np.linalg.eigvalsh(s)
            ranks.add(int(np.sum(eig > 1e-9 * eig.max())))
        assert min(ranks) < 3 and max(ranks) == 3

    def test_same_stream_same_matrix(self):
        s1 = sample_constraint(3, 2.0, np.random.default_rng(42))
        s2 = sample_constraint(3, 2.0, np.random.default_rng(42))
        np.testing.assert_array_equal(s1, s2)


class TestSearchRegion:
    def test_reproducible(self, fig_channel):
        cfg = SearchConfig(samples=40, seed=11, pt=12.0)
        est1 = search_region(fig_channel, cfg)
        est2 = search_region(fig_channel, cfg)
        np.testing.assert_array_equal(est1.hull.vertices, est2.hull.vertices)
        assert est1.area == est2.area

    def test_longer_run_extends_shorter(self, fig_channel):
        est_s = search_region(fig_channel, SearchConfig(samples=10, seed=5, pt=12.0))
        est_l = search_region(fig_channel, SearchConfig(samples=30, seed=5, pt=12.0))

        def sampled(est):
            return np.array(
                [(p.R1, p.R2) for p in est.points if p.provenance == "baseline-sample"]
            )

        t, u = sampled(est_s), sampled(est_l)
        assert len(t) == 10 and len(u) == 30
        np.testing.assert_array_equal(t, u[: len(t)])
        assert est_l.area >= est_s.area - 1e-12

    def test_structured_family_inside_own_hull(self, fig_channel):
        cfg = SearchConfig(samples=20, seed=3, pt=12.0)
        est = search_region(fig_channel, cfg)
        sweep = region_sweep(fig_channel, 12.0, 21)
        for p in sweep.points:
            assert est.hull.contains(p.R1, p.R2, slack=1e-8)

    def test_single_sample(self):
        rng = np.random.default_rng(9)
        ch = rand_channel(rng, 2)
        est = search_region(ch, SearchConfig(samples=1, seed=0, pt=4.0))
        assert est.area >= 0.0
        assert est.hull.vertices[0, 0] == 0.0

    def test_never_beats_miso_capacity(self):
        rng = np.random.default_rng(10)
        mc = MisoChannel(
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
            rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        ch = mc.as_channel()
        est = search_region(ch, SearchConfig(samples=1500, seed=77, pt=10.0))
        # Dense grid keeps the chord-vs-curve gap of the capacity boundary
        # below the tolerance.
        cap = pareto_hull([(p.c1, p.c2) for p in miso_region(mc, 10.0, 2001)])
        for x, y in est.hull.vertices:
            assert y <= cap.envelope(x) + 1e-5
