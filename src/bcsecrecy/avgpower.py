"""Secrecy rate region under an average (trace) power constraint.

The channel pair is rotated into a basis where both Gram matrices are
diagonal: with W = (H^H H + G^H G)^{-1/2}, the whitened Grams W H^H H W and
W G^H G W commute, share eigenvectors Phi, and have eigenvalue profiles
sigma1, sigma2 with sigma1 + sigma2 = 1.  Subchannels with sigma1 > sigma2
serve user 1, the rest serve user 2, and the transmit covariance
S = W Phi diag(p) Phi^H W decouples the problem into two independent scalar
water-filling allocations, one per user, tied by a power split alpha.

Each split yields one rectangle corner; sweeping alpha and convexifying
traces out the full region.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NoStrongChannelsError,
    ZeroChannelError,
)
from .hull import RegionEstimate, estimate_region
from .linalg import LN2, clamp_rate, herm, herm_eig, psd_range
from .sdpc import Channel, CornerPoint

# Subchannels whose eigenvalue gap is below this carry no secrecy value.
SIGMA_TIE_TOL = 1e-9
# Consecutive sigma1 values closer than this form a degenerate cluster.  The
# value sits between the spacing a vanishing channel induces (its squared size
# amplified by the conditioning of the surviving Gram) and the O(1) spacing of
# generic spectra, so degenerate limits are resolved without ever disturbing
# well-separated subchannels.
CLUSTER_TOL = 1e-6
# Water-level search: stop when the spent power is within LEVEL_REL_TOL of the
# budget, or after LEVEL_MAX_ITER bisection steps.
LEVEL_REL_TOL = 1e-10
LEVEL_MAX_ITER = 200


def reduce_nullspace(ch: Channel) -> tuple[Channel, np.ndarray, np.ndarray]:
    """Restrict the channel to the range of H^H H + G^H G.

    Directions in the common null space can never carry rate, so dropping
    them loses nothing and makes the whitening matrix well defined.  Returns
    the reduced channel, the orthonormal eigenbasis used, and the matching
    eigenvalues of the Gram sum (descending, all above the rank tolerance),
    so the reduced Gram sum is diag of those eigenvalues.
    """
    lam, v, rank = psd_range(herm(ch.gram_h() + ch.gram_g()), "channel Gram sum")
    if rank == 0:
        raise ZeroChannelError("both channel matrices are numerically zero")
    u_p = v[:, :rank]
    return Channel(ch.H @ u_p, ch.G @ u_p), u_p, lam[:rank]


@dataclass
class DiagonalizedChannel:
    """Common eigenbasis of the whitened channel Grams.

    Entries are ordered so the first ``rho`` subchannels have sigma1 > sigma2
    (by more than the tie tolerance), descending sigma1 within each block.
    ``a`` holds the per-subchannel power cost: spending p_i on subchannel i
    consumes a_i of the trace budget.
    """

    u_p: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    a: np.ndarray
    rho: int

    @property
    def n(self) -> int:
        return self.sigma1.size


def _refine_ties(sigma1: np.ndarray, phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Resolve the basis freedom inside near-degenerate sigma1 clusters.

    Within a cluster both whitened Grams are scaled identities (sigma2 is
    pinned to 1 - sigma1), so any rotation of its columns preserves the
    joint diagonalization.  Rotating to the eigenbasis of the restricted
    power-cost matrix (W Phi_c)^H (W Phi_c) makes the costs extremal, which
    is what lets the allocation collapse to plain water-filling capacity
    when one channel vanishes.
    """
    gaps = -np.diff(sigma1)
    cuts = np.r_[0, np.flatnonzero(gaps > CLUSTER_TOL) + 1, sigma1.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 2:
            continue
        t = w @ phi[:, lo:hi]
        _, u = herm_eig(herm(t.conj().T @ t))
        phi[:, lo:hi] = phi[:, lo:hi] @ u
    return phi


def diagonalize(ch: Channel) -> DiagonalizedChannel:
    """Whiten and jointly diagonalize a channel pair.

    The reduced Gram sum is diagonal in the basis ``reduce_nullspace``
    returns, so its inverse square root is diag(lambda^{-1/2}) there.
    """
    ch_r, u_p, lam = reduce_nullspace(ch)
    w = np.diag(1.0 / np.sqrt(lam))
    a1 = herm(w @ ch_r.gram_h() @ w)
    sigma1, phi = herm_eig(a1)
    phi = _refine_ties(sigma1, phi, w)
    sigma1 = np.real(np.diag(phi.conj().T @ a1 @ phi))
    sigma2 = np.real(np.diag(phi.conj().T @ herm(w @ ch_r.gram_g() @ w) @ phi))
    sigma1 = np.clip(sigma1, 0.0, None)
    sigma2 = np.clip(sigma2, 0.0, None)

    # Stable partition: user-1 subchannels first, original order inside blocks.
    strong1 = (sigma1 - sigma2) > SIGMA_TIE_TOL
    order = np.r_[np.flatnonzero(strong1), np.flatnonzero(~strong1)]
    sigma1, sigma2, phi = sigma1[order], sigma2[order], phi[:, order]
    a = np.sum(np.abs(w @ phi) ** 2, axis=0)
    return DiagonalizedChannel(u_p, w, phi, sigma1, sigma2, a, int(strong1.sum()))


def make_matrix_constraint(dc: DiagonalizedChannel, p: np.ndarray) -> np.ndarray:
    """Transmit covariance W Phi diag(p) Phi^H W in the original antenna space."""
    p = np.asarray(p, dtype=float)
    if p.shape != (dc.n,):
        raise DimensionMismatchError(f"expected {dc.n} powers, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("subchannel powers must be non-negative")
    t = dc.w @ dc.phi
    s = herm((t * p) @ t.conj().T)
    return herm(dc.u_p @ s @ dc.u_p.conj().T)


def _powers(mu: float, d: np.ndarray, ssum: np.ndarray, sprod: np.ndarray,
            a: np.ndarray) -> np.ndarray:
    """Per-subchannel optimum at water level ``mu``.

    Positive root of sprod p^2 + ssum p + (1 - d/(mu a)) = 0, evaluated as
    p = 2 x / (ssum + sqrt(d^2 + 4 sprod d/(mu a))) with x = d/(mu a) - 1.
    This form is subtraction-free, so it stays accurate for tiny sigma_weak
    and reduces exactly to the linear-equation limit
    p = 1/(mu a) - 1/sigma_strong at sigma_weak = 0.
    """
    x = d / (mu * a) - 1.0
    active = (d > 0) & (x > 0)
    p = np.zeros_like(a)
    if np.any(active):
        disc = d[active] ** 2 + 4.0 * d[active] * sprod[active] / (mu * a[active])
        p[active] = 2.0 * x[active] / (ssum[active] + np.sqrt(disc))
    return p


def _level(total, budget: float, lo: float, hi: float) -> float:
    """Water level ``mu`` at which the decreasing ``total(mu)`` meets ``budget``.

    ``total(hi) <= budget`` must hold.  ``lo`` steps down by factors of 100
    until ``total(lo) >= budget``, then the bracket is bisected at its
    geometric midpoint until the total is within ``LEVEL_REL_TOL`` of the
    budget or the bracket stops shrinking.
    """
    while total(lo) < budget:
        lo *= 1e-2
        if lo < 1e-280:
            raise NoConvergenceError("budget too large to bracket the water level")
    mu = lo
    for _ in range(LEVEL_MAX_ITER):
        mu = float(np.sqrt(lo * hi))
        t = total(mu)
        if abs(t - budget) <= LEVEL_REL_TOL * budget:
            break
        if t > budget:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 1e-16 * hi:
            mu = lo if abs(total(lo) - budget) <= abs(total(hi) - budget) else hi
            break
    return mu


def waterfill(
    sigma_strong: np.ndarray,
    sigma_weak: np.ndarray,
    a: np.ndarray,
    budget: float,
) -> tuple[np.ndarray, float]:
    """Water-filling over difference-of-log subchannels.

    Maximizes sum_i [ln(1 + sigma_strong_i p_i) - ln(1 + sigma_weak_i p_i)]
    subject to sum_i a_i p_i = budget, p >= 0.  The per-level optimum is in
    closed form; the level ``mu`` is found by bisection on the monotone total.
    Subchannels with sigma_strong <= sigma_weak have no value and get zero.

    Returns the power vector and the water level.

    Raises
    ------
    NoStrongChannelsError
        If the budget is positive but no subchannel has positive value.
    """
    sigma_strong = np.asarray(sigma_strong, dtype=float)
    sigma_weak = np.asarray(sigma_weak, dtype=float)
    a = np.asarray(a, dtype=float)
    if not (sigma_strong.shape == sigma_weak.shape == a.shape):
        raise DimensionMismatchError("sigma and cost vectors must share a shape")
    if np.any(sigma_weak < 0) or np.any(a <= 0):
        raise ValueError("sigma_weak must be >= 0 and costs positive")

    d = sigma_strong - sigma_weak
    ssum = sigma_strong + sigma_weak
    sprod = sigma_strong * sigma_weak
    gaps = d[d > 0] / a[d > 0] if np.any(d > 0) else np.array([])
    mu_ceil = float(gaps.max()) if gaps.size else np.inf

    if budget <= 0:
        return np.zeros_like(a), mu_ceil
    if not np.isfinite(mu_ceil):
        raise NoStrongChannelsError(
            "positive budget but every subchannel has sigma_strong <= sigma_weak"
        )

    def total(mu: float) -> float:
        return float(a @ _powers(mu, d, ssum, sprod, a))

    mu = _level(total, budget, 1e-18 * mu_ceil, mu_ceil)
    return _powers(mu, d, ssum, sprod, a), mu


def waterfill_high_snr(
    sigma_strong: np.ndarray,
    sigma_weak: np.ndarray,
    a: np.ndarray,
    budget: float,
) -> tuple[np.ndarray, float]:
    """Large-budget closed form p_i = sqrt((1/sigma_weak_i - 1/sigma_strong_i) / (mu a_i)).

    The level follows from the budget in closed form after squaring.  Entries
    with sigma_weak = 0 diverge from that scaling (their power grows like
    1/mu, not 1/sqrt(mu)), so their exact expression is kept and the mixed
    total is solved by bisection instead.
    """
    sigma_strong = np.asarray(sigma_strong, dtype=float)
    sigma_weak = np.asarray(sigma_weak, dtype=float)
    a = np.asarray(a, dtype=float)
    d = sigma_strong - sigma_weak
    active = d > 0
    if budget <= 0:
        return np.zeros_like(a), np.inf
    if not np.any(active):
        raise NoStrongChannelsError(
            "positive budget but every subchannel has sigma_strong <= sigma_weak"
        )

    zero_w = active & (sigma_weak <= 1e-12 * sigma_strong)
    sqrt_entries = active & ~zero_w
    k = np.zeros_like(a)
    k[sqrt_entries] = np.sqrt(
        (1.0 / sigma_weak[sqrt_entries] - 1.0 / sigma_strong[sqrt_entries])
        / a[sqrt_entries]
    )

    if not np.any(zero_w):
        mu = float((a @ k / budget) ** 2)
        return k / np.sqrt(mu), mu

    def linear(mu: float) -> np.ndarray:
        return np.clip(1.0 / (mu * a[zero_w]) - 1.0 / sigma_strong[zero_w], 0.0, None)

    def total(mu: float) -> float:
        t = float(a[sqrt_entries] @ k[sqrt_entries]) / np.sqrt(mu)
        return t + float(a[zero_w] @ linear(mu))

    hi = 1.0
    while total(hi) > budget:
        hi *= 1e2
    mu = _level(total, budget, hi, hi)
    p = k / np.sqrt(mu)
    p[zero_w] = linear(mu)
    return p, mu


@dataclass
class PowerAllocation:
    """Water-filling outcome for one power split.

    ``p1`` spends alpha * Pt on user 1's subchannels, ``p2`` the rest on
    user 2's.  A user whose block has no subchannel of positive value gets an
    all-zero vector and an infinite level: that power is unusable.
    """

    alpha: float
    p1: np.ndarray
    p2: np.ndarray
    mu1: float
    mu2: float

    def full_vector(self) -> np.ndarray:
        return np.concatenate([self.p1, self.p2])


def check_split(alpha: float, pt: float) -> None:
    """Reject a power split outside [0, 1] or a total power that is negative or not finite."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= pt < np.inf:
        raise ValueError(f"total power must be finite and non-negative, got {pt}")


def split_grid(alpha_grid: int | np.ndarray) -> np.ndarray:
    """Power splits of a sweep: ``alpha_grid`` evenly spaced points of [0, 1],
    or the given splits when ``alpha_grid`` is an array."""
    if np.isscalar(alpha_grid):
        return np.linspace(0.0, 1.0, int(alpha_grid))
    return np.asarray(alpha_grid, dtype=float)


def allocate(dc: DiagonalizedChannel, alpha: float, pt: float) -> PowerAllocation:
    """Split the budget and water-fill each user's block independently."""
    check_split(alpha, pt)
    rho = dc.rho

    def block(strong, weak, cost, budget):
        # Tie subchannels carry no secrecy value; force p = 0 there.
        live = (strong - weak) > SIGMA_TIE_TOL
        p = np.zeros_like(cost)
        if not np.any(live):
            return p, np.inf
        p_live, mu = waterfill(strong[live], weak[live], cost[live], budget)
        p[live] = p_live
        return p, mu

    p1, mu1 = block(dc.sigma1[:rho], dc.sigma2[:rho], dc.a[:rho], alpha * pt)
    p2, mu2 = block(dc.sigma2[rho:], dc.sigma1[rho:], dc.a[rho:], (1.0 - alpha) * pt)
    return PowerAllocation(alpha, p1, p2, mu1, mu2)


def corner_rates(dc: DiagonalizedChannel, alloc: PowerAllocation) -> CornerPoint:
    """Rate pair of an allocation, in bits."""
    rho = dc.rho
    r1 = float(
        np.sum(np.log1p(dc.sigma1[:rho] * alloc.p1) - np.log1p(dc.sigma2[:rho] * alloc.p1))
    )
    r2 = float(
        np.sum(np.log1p(dc.sigma2[rho:] * alloc.p2) - np.log1p(dc.sigma1[rho:] * alloc.p2))
    )
    return CornerPoint(
        clamp_rate(r1) / LN2, clamp_rate(r2) / LN2,
        alpha=alloc.alpha, provenance="avgpower",
    )


def sweep_corners(
    dc: DiagonalizedChannel, pt: float, alpha_grid: int | np.ndarray
) -> list[CornerPoint]:
    """One corner per power split of the grid (see ``split_grid``)."""
    return [corner_rates(dc, allocate(dc, float(al), pt)) for al in split_grid(alpha_grid)]


def region_sweep(ch: Channel, pt: float, alpha_grid: int | np.ndarray = 101) -> RegionEstimate:
    """Sweep the power split over [0, 1] and hull the resulting corners."""
    return estimate_region(sweep_corners(diagonalize(ch), pt, alpha_grid))


def waterfill_capacity(h: np.ndarray, pt: float) -> float:
    """Point-to-point MIMO capacity ln det(I + H Q H^H) under trace(Q) <= pt, in bits.

    Classic single-channel water-filling over the eigenvalues of H^H H,
    solved exactly with the active-set recursion.
    """
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    lam, _, rank = psd_range(herm(h.conj().T @ h), "channel Gram")
    lam = lam[:rank]
    if lam.size == 0 or pt <= 0:
        return 0.0
    for k in range(lam.size, 0, -1):
        level = (pt + np.sum(1.0 / lam[:k])) / k
        if level >= 1.0 / lam[k - 1]:
            break
    p = np.clip(level - 1.0 / lam[:k], 0.0, None)
    return float(np.sum(np.log1p(lam[:k] * p))) / LN2


def p2p_limit_check(ch: Channel, pt: float, eps: float = 1e-6) -> tuple[float, float]:
    """Secrecy rate with the second channel scaled by ``eps`` vs plain capacity.

    As the second receiver fades away, the alpha = 1 corner of the secrecy
    region must approach the point-to-point water-filling capacity of H.
    Returns (secrecy R1, capacity), both in bits.
    """
    faded = Channel(ch.H, eps * ch.G)
    dc = diagonalize(faded)
    point = corner_rates(dc, allocate(dc, 1.0, pt))
    return point.R1, waterfill_capacity(ch.H, pt)
