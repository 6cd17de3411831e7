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
# budget; failing to stop within LEVEL_MAX_ITER steps raises NoConvergenceError.
LEVEL_REL_TOL = 1e-13
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


def _check_fill(sigma_strong, sigma_weak, a, budget):
    """Shape, domain and finiteness check of both water-fillers; also returns the valued mask."""
    s, w, a = (np.asarray(v, dtype=float) for v in (sigma_strong, sigma_weak, a))
    if s.ndim != 1 or not s.shape == w.shape == a.shape:
        raise DimensionMismatchError("sigma and cost vectors must be 1-D and share a shape")
    if not (np.isfinite(s).all() and np.isfinite(w).all() and np.isfinite(a).all()):
        raise ValueError("sigmas and costs must be finite")
    if np.any(w < 0) or np.any(a <= 0):
        raise ValueError("sigma_weak must be >= 0 and costs positive")
    if not 0.0 <= budget < np.inf:
        raise ValueError(f"budget must be finite and non-negative, got {budget}")
    if budget > 0 and not np.any(s > w):
        raise NoStrongChannelsError("positive budget but every subchannel has "
                                    "sigma_strong <= sigma_weak")
    return s, w, a, float(budget), s > w


def _fill(strong: np.ndarray, weak: np.ndarray, a: np.ndarray, budgets: np.ndarray,
          live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Powers (one row per budget, zero off ``live``, the subchannels with
    strong > weak) and levels (inf when nothing is live).

    At mu = mu_max exp(t), t <= 0, and c = d/(mu a) the optimum is
    p = 2 (c - 1) / (ssum + sqrt(d^2 + 4 sprod c)), with c - 1 from expm1(-t).
    The spent power T is convex and decreasing in t, and
    dT/dt = -sum a c / (ssum + 2 sprod p) over open subchannels.  Each row
    takes a Newton step on log T against t (exact for T a power of mu), else
    against log(-t) (exact for T a power of -t, as subchannels open), else
    bisects, whichever stays in the bracket, until T meets the budget to
    ``LEVEL_REL_TOL`` or the bracket cannot be split.
    """
    p = np.zeros((budgets.size, a.size))
    if not np.any(live):
        return p, np.full(budgets.size, np.inf)
    s, w, a = strong[live], weak[live], a[live]
    d, ssum, sprod = s - w, s + w, s * w
    mu_max = np.max(d / a)
    ratio = d / a / mu_max
    closed, root_sprod = 1.0 - ratio, 2.0 * np.sqrt(sprod)
    spend = budgets > 0
    b = np.where(spend, budgets, 1.0)

    def spent(t):
        x = ratio * np.expm1(-t)[:, None] - closed
        c = x + 1.0
        q = 2.0 * np.maximum(x, 0.0) / (ssum + np.hypot(d, root_sprod * np.sqrt(c)))
        return q, q @ a, -(np.where(x > 0, c / (ssum + 2.0 * sprod * q), 0.0) @ a)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a p >= (a/s)(sqrt(c) - 1): T >= 2 b once sqrt(c) = 2 + 2 b s/a.  Below
        # floor, mu < tiny * max(1, mu_max) or c > 1/tiny overflows float64.
        floor = np.log(np.finfo(float).tiny) + max(0.0, -np.log(mu_max))
        start = np.log(ratio) - 2.0 * (LN2 + np.logaddexp(0.0, np.log(b)[:, None] + np.log(s / a)))
        t = np.maximum(floor, start.max(axis=1))
        lo, hi = t, np.zeros_like(t)
        q, total, slope = spent(t)
        short = spend & ~(total >= b)
        if np.any(short):
            raise ValueError(f"budget {b[short].max():.6g} is outside the supported range [0, "
                             f"{total[short][0]:.6g}]: its water level is below the float64 range")
        todo = spend.copy()
        for _ in range(LEVEL_MAX_ITER):
            todo &= ~(np.abs(total - b) <= LEVEL_REL_TOL * b)
            if not np.any(todo):
                break
            over = ~(total < b)
            lo, hi = np.where(over, t, lo), np.where(over, hi, t)
            step = mid = 0.5 * (lo + hi)
            for newton in (t * (b / total) ** (total / (t * slope)),
                           t - np.log(total / b) * total / slope):
                step = np.where((lo < newton) & (newton < hi), newton, step)
            todo &= (lo < mid) & (mid < hi)
            t = np.where(todo, step, t)
            q, total, slope = spent(t)
        else:
            raise NoConvergenceError(f"water level not found in {LEVEL_MAX_ITER} steps")
    p[:, live] = np.where(spend[:, None], q, 0.0)
    return p, np.where(spend, mu_max * np.exp(t), mu_max)


def waterfill(sigma_strong: np.ndarray, sigma_weak: np.ndarray, a: np.ndarray,
              budget: float) -> tuple[np.ndarray, float]:
    """Water-filling over difference-of-log subchannels.

    Maximizes sum_i [ln(1 + sigma_strong_i p_i) - ln(1 + sigma_weak_i p_i)]
    subject to sum_i a_i p_i = budget, p >= 0.  The per-level optimum is in
    closed form; the level ``mu`` solves the monotone budget equation by a
    bracketed Newton search in log mu.  Subchannels with
    sigma_strong <= sigma_weak have no value and get zero.

    Supported budgets have a level mu of at least 2.2e-308 (the smallest
    normal float64) times max(1, mu_max), mu_max = max_i (sigma_strong_i -
    sigma_weak_i) / a_i.  Spent power grows like mu^{-1/2} (like 1/mu where
    sigma_weak = 0), so for O(1) sigmas and costs that is up to about 1e150.

    Returns the power vector and the water level.

    Raises
    ------
    DimensionMismatchError
        If the three vectors are not 1-D of one shape.
    ValueError
        If an input is not finite, sigma_weak < 0, a cost is not positive, or
        the budget is negative or above the supported range the message gives.
    NoStrongChannelsError
        If the budget is positive but no subchannel has positive value.
    """
    s, w, a, budget, live = _check_fill(sigma_strong, sigma_weak, a, budget)
    p, mu = _fill(s, w, a, np.array([budget]), live)
    return p[0], float(mu[0])


def waterfill_high_snr(sigma_strong: np.ndarray, sigma_weak: np.ndarray, a: np.ndarray,
                       budget: float) -> tuple[np.ndarray, float]:
    """Large-budget closed form p_i = sqrt((1/sigma_weak_i - 1/sigma_strong_i) / (mu a_i)).

    With y = mu^{-1/2} these entries spend A y.  Entries with sigma_weak = 0
    grow like 1/mu instead, so their exact p_j = max(0, y^2/a_j - 1/sigma_strong_j)
    is kept, and the piecewise quadratic total A y + sum_j max(0, y^2 - a_j/sigma_strong_j)
    is solved per active set like ``waterfill_capacity``.  Inputs are checked as in
    ``waterfill``.
    """
    s, w, a, budget, active = _check_fill(sigma_strong, sigma_weak, a, budget)
    if budget <= 0:
        return np.zeros_like(a), np.inf
    zero_w = active & (w <= 1e-12 * s)
    root = active & ~zero_w
    k = np.zeros_like(a)
    k[root] = np.sqrt((1.0 / w[root] - 1.0 / s[root]) / a[root])
    big_a = float(a @ k)
    tau = np.sort(a[zero_w] / s[zero_w])
    for m in range(tau.size, -1, -1):
        total = budget + float(np.sum(tau[:m]))
        y = 2.0 * total / (big_a + float(np.sqrt(big_a * big_a + 4.0 * m * total)))
        if m == 0 or y * y >= tau[m - 1]:
            break
    # The same level floor as ``waterfill``; the range ends where y = floor^{-1/2}.
    floor = np.finfo(float).tiny * max(1.0, float(np.max((s - w)[active] / a[active])))
    if not 1.0 / (y * y) >= floor:
        y_top = floor ** -0.5
        top = big_a * y_top + float(np.sum(np.clip(y_top * y_top - tau, 0.0, None)))
        raise ValueError(f"budget {budget:.6g} is outside the supported range [0, {top:.6g}]: "
                         "its water level is below the float64 range")
    p = k * y
    p[zero_w] = np.clip(y * y / a[zero_w] - 1.0 / s[zero_w], 0.0, None)
    return p, 1.0 / (y * y)


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


def _split_fills(dc: DiagonalizedChannel, alphas: np.ndarray, pt: float):
    """(powers, levels) of user 1 and of user 2, one row per split.  Tie
    subchannels carry no secrecy value and get p = 0."""
    rho, s1, s2, a = dc.rho, dc.sigma1, dc.sigma2, dc.a
    return (_fill(s1[:rho], s2[:rho], a[:rho], alphas * pt, (s1 - s2)[:rho] > SIGMA_TIE_TOL),
            _fill(s2[rho:], s1[rho:], a[rho:], (1 - alphas) * pt, (s2 - s1)[rho:] > SIGMA_TIE_TOL))


def _rates(dc: DiagonalizedChannel, p1: np.ndarray, p2: np.ndarray):
    """Both users' rates in bits, for powers with or without a leading batch axis."""
    rho = dc.rho
    r1 = np.sum(np.log1p(dc.sigma1[:rho] * p1) - np.log1p(dc.sigma2[:rho] * p1), axis=-1)
    r2 = np.sum(np.log1p(dc.sigma2[rho:] * p2) - np.log1p(dc.sigma1[rho:] * p2), axis=-1)
    return clamp_rate(r1) / LN2, clamp_rate(r2) / LN2


def allocate(dc: DiagonalizedChannel, alpha: float, pt: float) -> PowerAllocation:
    """Split the budget and water-fill each user's block independently."""
    check_split(alpha, pt)
    (p1, mu1), (p2, mu2) = _split_fills(dc, np.array([alpha], dtype=float), pt)
    return PowerAllocation(alpha, p1[0], p2[0], float(mu1[0]), float(mu2[0]))


def corner_rates(dc: DiagonalizedChannel, alloc: PowerAllocation) -> CornerPoint:
    """Rate pair of an allocation, in bits."""
    r1, r2 = _rates(dc, alloc.p1, alloc.p2)
    return CornerPoint(r1, r2, alpha=alloc.alpha, provenance="avgpower")


def sweep_corners(
    dc: DiagonalizedChannel, pt: float, alpha_grid: int | np.ndarray
) -> list[CornerPoint]:
    """One corner per power split of the grid (see ``split_grid``), all
    splits water-filled in one batch per user."""
    alphas = split_grid(alpha_grid)
    for alpha in alphas:
        check_split(alpha, pt)
    (p1, _), (p2, _) = _split_fills(dc, alphas, pt)
    return [CornerPoint(r1, r2, alpha=float(alpha), provenance="avgpower")
            for alpha, r1, r2 in zip(alphas, *_rates(dc, p1, p2))]


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


def p2p_limit_check(ch: Channel, pt: float) -> tuple[float, float]:
    """Secrecy rate with the second channel scaled by 1e-6 vs plain capacity.

    As the second receiver fades away, the alpha = 1 corner of the secrecy
    region must approach the point-to-point water-filling capacity of H.
    Returns (secrecy R1, capacity), both in bits.
    """
    dc = diagonalize(Channel(ch.H, 1e-6 * ch.G))
    point = corner_rates(dc, allocate(dc, 1.0, pt))
    return point.R1, waterfill_capacity(ch.H, pt)
