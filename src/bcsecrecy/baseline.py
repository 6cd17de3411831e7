"""Randomized reference search over matrix power constraints.

Independent of the structured algorithms, corners are collected for many
random trace-Pt covariance caps (Wishart directions, occasionally rank
deficient to probe the boundary) and for the structured water-filling family
itself.  The Pareto hull of everything found is a lower estimate of the true
region that the fast algorithms must essentially match.

Sampling is deterministic per seed and per sample index: sample i draws from
its own spawned substream, so results do not depend on evaluation order and a
longer run strictly extends a shorter one with the same seed.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .avgpower import diagonalize, sweep_corners
from .hull import RegionEstimate, estimate_region
from .linalg import ctrans, herm
from .sdpc import Channel, CornerPoint, _stacked_corners

# Power splits of the structured water-filling family added to every search.
SW_SPLITS = 101


@dataclass
class SearchConfig:
    """Knobs of the randomized search."""

    samples: int
    seed: int
    pt: float


def _factor(n: int, rng: np.random.Generator) -> np.ndarray:
    """The complex Gaussian factor A of ``sample_constraint``, n x k."""
    k = n
    if n > 1 and rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, n))
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)


def _normalized(a: np.ndarray, pt: float) -> np.ndarray:
    """pt * A A^H / tr(A A^H), for one factor or a stack of them."""
    b = herm(a @ ctrans(a))
    return pt * b / np.real(np.trace(b, axis1=-2, axis2=-1))[..., None, None]


def sample_constraint(n: int, pt: float, rng: np.random.Generator) -> np.ndarray:
    """One random PSD matrix with trace exactly ``pt``.

    S = pt * A A^H / tr(A A^H) for a complex Gaussian A; with probability 1/3
    A gets fewer than n columns (rank chosen uniformly) so singular
    constraints are exercised too.
    """
    return _normalized(_factor(n, rng), pt)


def search_region(ch: Channel, cfg: SearchConfig) -> RegionEstimate:
    """Collect corners for sampled constraints and for the structured family.

    Sample i is drawn from the i-th spawned child of ``cfg.seed``; the
    factors are padded with zero columns to n_t x n_t, which leaves A A^H
    unchanged, and all constraints are solved as one stack.

    Raises ValueError, before drawing anything, unless ``cfg.samples`` is an
    integer >= 0 and ``cfg.pt`` is finite and >= 0.
    """
    samples, pt = cfg.samples, cfg.pt
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 0:
        raise ValueError(f"samples must be an integer >= 0, got {samples!r}")
    if not 0.0 <= pt < np.inf:
        raise ValueError(f"total power must be finite and non-negative, got {pt}")
    n = ch.n_t
    stack = np.zeros((samples, n, n), dtype=complex)
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(samples)):
        a = _factor(n, np.random.default_rng(child))
        stack[i, :, : a.shape[1]] = a
    stack = _normalized(stack, pt)
    rates = _stacked_corners(ch, stack)
    points = [CornerPoint(r1, r2, provenance="baseline-sample") for r1, r2 in rates.tolist()]
    corners = sweep_corners(diagonalize(ch), pt, SW_SPLITS)
    points.extend(replace(c, provenance="sw-family") for c in corners)
    return estimate_region(points)
