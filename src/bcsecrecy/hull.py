"""Upper-right Pareto hulls of (n, 2) arrays of rate pairs.

Every corner point (R1, R2) makes its whole rectangle [0, R1] x [0, R2]
achievable, and time sharing convexifies the union, so a point set describes
the region bounded by the concave upper envelope of the points and their axis
projections.  The envelope is built with a monotone chain, skipped for a
staircase that is already strictly concave, and the region area is its
integral, used only for relative comparisons.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError
from .sdpc import CornerPoint


@dataclass
class Hull:
    """Concave upper envelope, as vertices with strictly increasing R1.

    The enclosed region is {(x, y): 0 <= x <= x_max, 0 <= y <= f(x)} with f
    the piecewise-linear interpolant of the vertices.
    """

    vertices: np.ndarray
    area: float

    def envelope(self, x: np.ndarray | float) -> np.ndarray | float:
        """Envelope height at ``x`` (clipped into the hull's R1 span)."""
        xs = self.vertices[:, 0]
        ys = self.vertices[:, 1]
        return np.interp(np.clip(x, xs[0], xs[-1]), xs, ys)

    def contains(self, x: float, y: float, slack: float = 0.0) -> bool:
        """Whether finite (x, y) lies in the region, within finite ``slack`` per coordinate."""
        if not np.isfinite((x, y, slack)).all():
            raise ValueError(f"query must be finite, got ({x}, {y}) with slack {slack}")
        if x < -slack or y < -slack:
            return False
        if x > self.vertices[-1, 0] + slack:
            return False
        return y <= float(self.envelope(x)) + slack


@dataclass
class RegionEstimate:
    """(n, 2) rates in bits with each row's split (NaN if none) and label, and their hull."""

    rates: np.ndarray
    alphas: np.ndarray
    provenance: list[str]

    def __post_init__(self):
        self.hull = pareto_hull(self.rates)
        self.area = self.hull.area

    @cached_property
    def points(self) -> list[CornerPoint]:
        return [CornerPoint(r1, r2, None if np.isnan(a) else a, label) for a, (r1, r2), label
                in zip(self.alphas.tolist(), self.rates.tolist(), self.provenance)]


def pareto_hull(rates: np.ndarray) -> Hull:
    """Upper-right hull of an (n, 2) array of finite rate pairs, from a
    monotone chain over the cloud's Pareto staircase."""
    xy = np.asarray(rates, dtype=float)
    if xy.shape[1:] != (2,) and xy.shape != (0,):
        raise DimensionMismatchError(f"rate points must form an (n, 2) array, got {xy.shape}")
    if not np.isfinite(xy).all():
        raise ValueError("rate points must be finite")
    xy = np.clip(xy, 0.0, None)
    if xy.size == 0:
        return Hull(np.zeros((1, 2)), 0.0)

    x_max = xy[:, 0].max()
    y_max = xy[:, 1].max()
    pts = np.vstack([xy, [0.0, y_max], [x_max, 0.0]])
    del xy  # a large cloud is held once, not twice, through the sort below

    # Keep only the highest point at each abscissa, sorted left to right.
    pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
    pts = pts[np.r_[True, np.diff(pts[:, 0]) > 0]]
    # Pareto staircase: any other point no higher than one to its right is
    # under the chord from (0, y_max) to that one, so never a strict vertex.
    right = np.maximum.accumulate(pts[::-1, 1])[::-1]
    pts = pts[np.r_[True, pts[1:, 1] > np.r_[right[2:], -np.inf]]]

    # Monotone chain: pop while the turn is not strictly clockwise.  A
    # staircase whose turns all are, as a sweep's are (R2 is concave in R1),
    # pops nothing: one vectorized pass with the chain's own arithmetic finds
    # that, and the staircase is the hull.
    o, a, p = pts[:-2], pts[1:-1], pts[2:]
    turns = (a[:, 0] - o[:, 0]) * (p[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (p[:, 0] - o[:, 0])
    if (turns < 0.0).all():
        verts = pts
    else:
        chain: list[list[float]] = []
        for p in pts.tolist():
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross >= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        verts = np.array(chain)

    area = float(np.trapezoid(verts[:, 1], verts[:, 0])) if len(verts) > 1 else 0.0
    return Hull(verts, area)

