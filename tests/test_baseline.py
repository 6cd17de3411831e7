"""Randomized reference search: sampling, determinism, hull consistency."""

import itertools
import tracemalloc

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    MisoChannel,
    SearchConfig,
    baseline,
    miso_region,
    region_sweep,
    search_region,
    solve_matrix_constraint,
)
from bcsecrecy.baseline import sample_constraint
from bcsecrecy.hull import pareto_hull
from bcsecrecy.linalg import ctrans, herm
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, pt, what", [
        (2, -1.0, "power"),
        (2, float("nan"), "power"),
        (2, float("inf"), "power"),
        (2.5, 1.0, "n"),
    ])
    def test_inputs_checked(self, n, pt, what):
        # Each gave a negative-definite or NaN matrix, or numpy's TypeError.
        class Unread:
            def __getattr__(self, name):
                raise AssertionError("drew before checking the inputs")

        with pytest.raises(ValueError, match=what):
            sample_constraint(n, pt, Unread())


def draw_before(rng: np.random.Generator, n: int) -> np.ndarray:
    """The draw of a factor as it was written before ``_draw`` filled a buffer
    in place: the column count, then one (2, n, k) array."""
    k = n
    if n > 1 and rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, n))
    return rng.standard_normal((2, n, k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_draw_keeps_stream(n):
    # The same normals, and the generator left where the (2, n, k) draw left
    # it, so a longer search still extends a shorter one with the same seed.
    ks = set()
    for seed in range(60):
        rng, ref = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
        out = np.full(2 * n * n, np.nan)
        k = baseline._draw(rng, n, out)
        want = draw_before(ref, n)
        assert want.shape == (2, n, k)
        assert np.array_equal(out[: 2 * n * k], want.ravel())
        assert np.isnan(out[2 * n * k:]).all()
        assert rng.random() == ref.random()
        ks.add(k)
    assert n in ks and (n == 1 or min(ks) < n)


class TestChildStates:
    # Seeds of one to five uint32 words.  2**96 + 1 and 2**128 - 1 have four,
    # the most the hash's 16 fixed steps take before 4 steps per extra word.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 7, 2**64 + 3, 2**130 + 99,
                                      np.uint64(2**63 + 5), 2**96 + 1, 2**128 - 1])
    @pytest.mark.parametrize("start", [0, 255, 256, 2**32 - 3])
    def test_equal_numpy_spawn(self, seed, start):
        # Child i of SeedSequence(seed).spawn is SeedSequence(seed, spawn_key=(i,)),
        # built directly here: from 2**32 - 3 the eight children cross into
        # two-word spawn keys, beyond what spawn can reach.
        children = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(start, start + 8)]
        want = [child.generate_state(4, np.uint64) for child in children]
        got = baseline._child_states(np.random.SeedSequence(seed).entropy, start, 8)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)


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

    def test_samples_match_single_solves(self):
        # The stacked solve on each sample's drawn factor gives the corner of
        # the single solve of its constraint, for one-row and square channels.
        for n, rows, pt in itertools.product([1, 2, 3, 4, 8], ["one", "square"], [1e-6, 1.0, 12.0]):
            m = 1 if rows == "one" else n
            ch = rand_channel(np.random.default_rng(12 + n), n, m1=m, m2=m)
            cfg = SearchConfig(samples=60, seed=4, pt=pt)
            got = [(p.R1, p.R2) for p in search_region(ch, cfg).points
                   if p.provenance == "baseline-sample"]
            children = np.random.SeedSequence(cfg.seed).spawn(cfg.samples)
            for child, rates in zip(children, got, strict=True):
                s = sample_constraint(ch.n_t, cfg.pt, np.random.default_rng(child))
                sol = solve_matrix_constraint(ch, s)
                assert np.max(np.abs(np.subtract(rates, (sol.corner.R1, sol.corner.R2)))) <= 1e-12

    @pytest.mark.parametrize("chunk", [baseline.CHUNK, 16])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_constraints_equal_single_draws(self, monkeypatch, n, chunk):
        # Sample i's factor F gives, bit for bit, the S = F F^H that
        # sample_constraint forms on the stream of child i.
        factors = []

        def recording(ch, f, _solve=baseline._stacked_corners):
            factors.extend(f.copy())
            return _solve(ch, f)

        monkeypatch.setattr(baseline, "_stacked_corners", recording)
        monkeypatch.setattr(baseline, "CHUNK", chunk)
        ch = rand_channel(np.random.default_rng(20 + n), n)
        cfg = SearchConfig(samples=300, seed=2**32 + n, pt=12.0)
        search_region(ch, cfg)
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.samples)
        want = [sample_constraint(n, cfg.pt, np.random.default_rng(c)) for c in children]
        # The chunks are solved in order, and each chunk's draws of k
        # columns in order, so the factors of k columns come in sample order.
        ks = [baseline._draw(np.random.default_rng(c), n, np.empty(2 * n * n)) for c in children]
        of_k = {k: iter([f for f in factors if f.shape[1] == k]) for k in set(ks)}
        got = [herm(f @ ctrans(f)) for f in (next(of_k[k]) for k in ks)]
        assert len(factors) == cfg.samples
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_swapped_channel_mirrors_region(self, n):
        # Exchanging the users mirrors every sampled corner and keeps the area.
        ch = rand_channel(np.random.default_rng(30 + n), n)
        cfg = SearchConfig(samples=300, seed=n, pt=12.0)
        est, swapped = search_region(ch, cfg), search_region(ch.swapped(), cfg)

        def sampled(e):
            return np.array([(p.R1, p.R2) for p in e.points if p.provenance == "baseline-sample"])

        assert np.max(np.abs(sampled(swapped) - sampled(est)[:, ::-1])) <= 1e-10
        assert abs(swapped.area - est.area) <= 1e-9 * est.area

    def test_chunks_keep_every_draw(self, fig_channel, monkeypatch):
        # Chunks of 16 spawn the children in pieces; sample i still draws from child i.
        cfg = SearchConfig(samples=40, seed=7, pt=12.0)
        whole = search_region(fig_channel, cfg)
        monkeypatch.setattr(baseline, "CHUNK", 16)
        chunked = search_region(fig_channel, cfg)
        assert len(chunked.points) == len(whole.points)
        for p, q in zip(chunked.points, whole.points):
            assert p.provenance == q.provenance
            assert abs(p.R1 - q.R1) <= 1e-12 and abs(p.R2 - q.R2) <= 1e-12
        assert chunked.area == whole.area

    def test_working_memory_does_not_grow_with_samples(self):
        # The returned estimate holds one CornerPoint per sample (about 160
        # bytes each), so the peak is compared beyond what it still holds.
        ch = rand_channel(np.random.default_rng(13), 4, m1=4, m2=4)
        extra = []
        for samples in (2000, 20000):
            tracemalloc.start()
            est = search_region(ch, SearchConfig(samples=samples, seed=0, pt=12.0))
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(est.points) == samples + baseline.SW_SPLITS
            extra.append(peak - held)
        assert extra[1] - extra[0] <= 1_000_000

    def test_zero_samples(self, fig_channel):
        est = search_region(fig_channel, SearchConfig(samples=0, seed=0, pt=12.0))
        assert {p.provenance for p in est.points} == {"sw-family"}
        assert est.area > 0.0

    def test_decompositions_do_not_grow_with_samples(self, fig_channel, monkeypatch):
        counts = {"eigh": 0, "cholesky": 0}
        for name in counts:
            def counting(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        seen = []
        for samples in (50, 200):
            counts.update(eigh=0, cholesky=0)
            search_region(fig_channel, SearchConfig(samples=samples, seed=1, pt=12.0))
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        # One pencil batch, with one Cholesky factorization of B and one
        # eigh, per column count drawn: one and two on the 2x2 channel.  No
        # constraint is formed, so none is factored or decomposed.
        assert seen[0] == {"eigh": 2, "cholesky": 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples, pt, what", [
    (-1, 12.0, "samples"),
    (2.5, 12.0, "samples"),
    (10, -1.0, "power"),
    (10, float("nan"), "power"),
    (10, float("inf"), "power"),
    (10, 12.0, "seed"),
])
def test_search_inputs_checked(fig_channel, monkeypatch, samples, pt, what):
    # Each raised something else, or only after sampling, before the check.
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking the inputs")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    # The "seed" row runs each bad seed; every other row a good one.
    for seed in (-1, 2.5, True) if what == "seed" else (0,):
        with pytest.raises(ValueError, match=what):
            search_region(fig_channel, SearchConfig(samples=samples, seed=seed, pt=pt))
