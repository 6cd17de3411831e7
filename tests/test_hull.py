"""Pareto hull construction, containment, and area bookkeeping."""

import numpy as np
import pytest

from bcsecrecy import CornerPoint, SearchConfig, region_sweep, search_region
from bcsecrecy.errors import DimensionMismatchError
from bcsecrecy.hull import pareto_hull
from conftest import rand_channel


class TestParetoHull:
    def test_single_point_rectangle(self):
        hull = pareto_hull(np.array([[1.0, 1.0]]))
        assert np.allclose(hull.vertices, [[0.0, 1.0], [1.0, 1.0]])
        assert hull.area == pytest.approx(1.0)

    def test_dominated_point_dropped(self):
        hull = pareto_hull(np.array([[1.0, 1.0], [0.5, 0.5]]))
        assert np.allclose(hull.vertices, [[0.0, 1.0], [1.0, 1.0]])

    def test_staircase_with_concave_corner(self):
        hull = pareto_hull(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(hull.vertices, [[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        assert hull.area == pytest.approx(1.5)

    def test_interior_point_convexified_away(self):
        hull = pareto_hull(np.array([[0.0, 1.0], [1.0, 0.2], [2.0, 0.0]]))
        assert np.allclose(hull.vertices, [[0.0, 1.0], [2.0, 0.0]])
        assert hull.area == pytest.approx(1.0)

    def test_corner_points_rejected(self):
        # The hull takes rate arrays only; producers pass the one they hold.
        pts = [CornerPoint(1.0, 2.0, provenance="x"), CornerPoint(3.0, 0.5, provenance="x")]
        with pytest.raises(TypeError):
            pareto_hull(pts)

    def test_negative_rates_clipped(self):
        hull = pareto_hull(np.array([[-1.0, 2.0], [1.0, -3.0]]))
        assert hull.vertices[:, 0].min() >= 0.0
        assert hull.vertices[:, 1].min() >= 0.0

    def test_area_monotone_in_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 3.0, (40, 2))
        areas = [pareto_hull(pts[:k]).area for k in (10, 20, 40)]
        assert areas[0] <= areas[1] + 1e-12
        assert areas[1] <= areas[2] + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pareto_hull([[bad, 1.0], [1.0, 1.0]])

    def test_empty_input(self):
        for empty in (np.zeros((0, 2)), []):
            assert pareto_hull(empty).area == 0.0

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.arange(4.0)])
    def test_malformed_points_rejected(self, bad):
        # Read as pairs, these would give a plausible area (1.0 for the first).
        with pytest.raises(DimensionMismatchError):
            pareto_hull(bad)


def unfiltered_hull(xy: np.ndarray) -> tuple[np.ndarray, float]:
    """Vertices and area from the monotone chain over every deduplicated
    point, with no staircase cut."""
    xy = np.clip(np.asarray(xy, dtype=float).reshape(-1, 2), 0.0, None)
    if xy.size == 0:
        return np.zeros((1, 2)), 0.0
    pts = np.vstack([xy, [0.0, xy[:, 1].max()], [xy[:, 0].max(), 0.0]])
    pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
    pts = pts[np.r_[True, np.diff(pts[:, 0]) > 0]]
    chain = []
    for p in pts:
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) >= 0.0:
                chain.pop()
            else:
                break
        chain.append(p)
    verts = np.array(chain)
    area = float(np.trapezoid(verts[:, 1], verts[:, 0])) if len(verts) > 1 else 0.0
    return verts, area


def staircase_clouds():
    rng = np.random.default_rng(5)
    for _ in range(40):
        pts = rng.uniform(0.0, 3.0, (int(rng.integers(1, 300)), 2))
        # Duplicates, and points sharing an R1 with another.
        pts = np.vstack([pts, pts[: len(pts) // 3]])
        pts[rng.integers(0, len(pts), 5), 0] = pts[0, 0]
        yield pts
    # Concave, convex and mixed clouds: most points on the envelope.
    x = np.sort(rng.uniform(0.0, 4.0, 200))
    yield np.c_[x, np.sqrt(16.0 - x**2)]
    yield np.c_[x, (4.0 - x) ** 2]
    yield np.c_[x, np.where(x < 2.0, 3.0 - x**2 / 4.0, (4.0 - x) ** 2 / 2.0)]
    # Collinear runs, on and under the envelope, and flat steps.
    k = np.arange(9.0)
    yield np.c_[k, 8.0 - k]
    yield np.c_[k / 4.0, 2.0 - k / 4.0]
    yield np.vstack([np.c_[k, 8.0 - k], np.c_[k, 4.0 - k / 2.0]])
    yield np.c_[k, np.repeat([3.0, 2.0, 1.0], 3)]
    yield np.c_[k, np.full(9, 5.0)]
    # All-zero R2, all-zero R1, the origin only, one point, the empty set.
    yield np.c_[k, np.zeros(9)]
    yield np.c_[np.zeros(9), k]
    yield np.zeros((4, 2))
    yield np.array([[1.5, 0.25]])
    yield np.array([[0.0, 2.0]])
    yield np.zeros((0, 2))


class TestStaircase:
    @pytest.mark.parametrize("case", range(len(list(staircase_clouds()))))
    def test_matches_unfiltered_chain(self, case):
        pts = list(staircase_clouds())[case]
        want, area = unfiltered_hull(pts)
        hull = pareto_hull(pts)
        assert np.array_equal(hull.vertices, want)
        assert hull.area == area

    @pytest.mark.parametrize("pt", [1.0, 12.0, 100.0])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_sweep_staircase_matches_chain(self, n, pt):
        # A sweep's corners are a strictly concave staircase, kept whole
        # without the chain; vertices and area must be the chain's to the bit.
        rates = region_sweep(rand_channel(np.random.default_rng(60 + n), n), pt, 101).rates
        want, area = unfiltered_hull(rates)
        hull = pareto_hull(rates)
        assert len(want) > 50
        assert np.array_equal(hull.vertices, want)
        assert hull.area == area

    @pytest.mark.parametrize("kind", ["reflex", "collinear"])
    def test_one_bad_turn_in_concave_staircase_dropped(self, kind):
        # Dyadic values, so that the collinear turn is exactly zero.
        x = np.arange(41.0) / 8.0
        pts = np.c_[x, 32.0 - x**2]
        pts[20] = 0.5 * (pts[19] + pts[21]) - (1.0 / 64.0 if kind == "reflex" else 0.0)
        want, area = unfiltered_hull(pts)
        hull = pareto_hull(pts)
        assert not (hull.vertices == pts[20]).all(axis=1).any()
        assert np.array_equal(hull.vertices, want)
        assert hull.area == area

    def test_keeps_leftmost_point_of_flat_cloud(self):
        # Every point has R2 = y_max, so none is strictly above those to its
        # right; the leftmost must stay.
        hull = pareto_hull(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
        assert np.array_equal(hull.vertices, [[0.0, 1.0], [2.0, 1.0]])
        hull = pareto_hull(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert np.array_equal(hull.vertices, [[0.0, 0.0], [2.0, 0.0]])


class TestContainment:
    def test_inside_outside(self):
        hull = pareto_hull(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert hull.contains(0.5, 0.5)
        assert hull.contains(1.0, 1.0)
        assert not hull.contains(1.5, 0.9)
        assert not hull.contains(2.5, 0.0)
        assert not hull.contains(-0.1, 0.5)
        assert hull.contains(2.0 + 1e-9, 0.0, slack=1e-8)

    def test_envelope_values(self):
        hull = pareto_hull(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert hull.envelope(0.5) == pytest.approx(1.0)
        assert hull.envelope(1.5) == pytest.approx(0.5)
        assert hull.envelope(5.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("query", [
        (np.nan, 0.5, 0.0), (0.5, np.nan, 0.0), (0.5, 0.5, np.nan),
        (np.inf, 0.5, 0.0), (0.5, -np.inf, 0.0), (0.5, 0.5, np.inf),
    ])
    def test_nonfinite_query_rejected(self, query):
        # (0.5, 0.5) lies inside; a NaN in any slot used to answer False.
        hull = pareto_hull(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            hull.contains(*query)


@pytest.mark.parametrize("produce", [
    lambda ch: region_sweep(ch, 12.0, 41),
    lambda ch: search_region(ch, SearchConfig(samples=300, seed=6, pt=12.0)),
], ids=["region_sweep", "search_region"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_producers_hull_their_points(produce, n):
    # The hull is built from the rate array; the points are its rows, formed
    # only when first read.
    est = produce(rand_channel(np.random.default_rng(40 + n), n))
    hull = pareto_hull(est.rates)
    assert np.array_equal(est.hull.vertices, hull.vertices)
    assert est.area == est.hull.area == hull.area
    assert "points" not in vars(est)
    assert len(est.points) == len(est.rates) == len(est.alphas) == len(est.provenance)
    assert est.points is vars(est)["points"]
    for p, (r1, r2), alpha, label in zip(est.points, est.rates, est.alphas, est.provenance):
        assert (p.R1, p.R2, p.provenance) == (r1, r2, label)
        assert type(p.R1) is type(p.R2) is float
        assert p.alpha is None if np.isnan(alpha) else type(p.alpha) is float and p.alpha == alpha
