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

from dataclasses import dataclass, replace

import numpy as np

from .avgpower import diagonalize, sweep_corners
from .hull import RegionEstimate, estimate_region
from .linalg import herm
from .sdpc import Channel, CornerPoint, solve_matrix_constraint

# Power splits of the structured water-filling family added to every search.
SW_SPLITS = 101


@dataclass
class SearchConfig:
    """Knobs of the randomized search."""

    samples: int
    seed: int
    pt: float


def sample_constraint(n: int, pt: float, rng: np.random.Generator) -> np.ndarray:
    """One random PSD matrix with trace exactly ``pt``.

    S = pt * A A^H / tr(A A^H) for a complex Gaussian A; with probability 1/3
    A gets fewer than n columns (rank chosen uniformly) so singular
    constraints are exercised too.
    """
    k = n
    if n > 1 and rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, n))
    a = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    b = herm(a @ a.conj().T)
    return pt * b / float(np.real(np.trace(b)))


def search_region(ch: Channel, cfg: SearchConfig) -> RegionEstimate:
    """Collect corners for sampled constraints and for the structured family."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.samples)
    points: list[CornerPoint] = []
    for child in children:
        rng = np.random.default_rng(child)
        s = sample_constraint(ch.n_t, cfg.pt, rng)
        sol = solve_matrix_constraint(ch, s)
        points.append(replace(sol.corner, provenance="baseline-sample"))
    corners = sweep_corners(diagonalize(ch), cfg.pt, SW_SPLITS)
    points.extend(replace(c, provenance="sw-family") for c in corners)
    return estimate_region(points)
