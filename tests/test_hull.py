"""Pareto hull construction, containment, and area bookkeeping."""

import numpy as np
import pytest

from bcsecrecy import CornerPoint
from bcsecrecy.hull import estimate_region, pareto_hull


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

    def test_accepts_corner_points(self):
        pts = [CornerPoint(1.0, 2.0, provenance="x"), CornerPoint(3.0, 0.5, provenance="x")]
        hull = pareto_hull(pts)
        assert hull.vertices[0, 1] == pytest.approx(2.0)
        assert hull.vertices[-1, 0] == pytest.approx(3.0)

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
        hull = pareto_hull(np.zeros((0, 2)))
        assert hull.area == 0.0


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

    def test_estimate_region_bundles(self):
        pts = [CornerPoint(1.0, 1.0, provenance="x")]
        est = estimate_region(pts)
        assert est.points is pts
        assert est.area == pytest.approx(est.hull.area)
