"""Secrecy rate region under an average (trace) power constraint.

The channel pair is rotated into a basis where both Gram matrices are
diagonal: with W = (H^H H + G^H G)^{-1/2}, the whitened Grams W H^H H W and
W G^H G W commute, share eigenvectors Phi, and have eigenvalue profiles
sigma1, sigma2 with sigma1 + sigma2 = 1; all come from SVDs, the first of
[H; G], whose U holds the whitened channels.  Subchannels with sigma1 > sigma2
serve user 1, the rest user 2, and S = W Phi diag(p) Phi^H W decouples the problem
into two scalar water-filling allocations, one per user, tied by a split alpha.

Each split yields one rectangle corner; sweeping alpha and convexifying
traces out the full region.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NoStrongChannelsError,
    ZeroChannelError,
)
from .hull import RegionEstimate
from .linalg import LN2, RANK_TOL, _lapack, clamp_rate, herm
from .sdpc import Channel, CornerPoint

# Subchannels whose eigenvalue gap is below this carry no secrecy value.
SIGMA_TIE_TOL = 1e-9
# Consecutive sigma1 values closer than this form a degenerate cluster.  The
# value sits between the spacing a vanishing channel induces (its squared size
# amplified by the conditioning of the surviving Gram) and the O(1) spacing of
# generic spectra, so degenerate limits are resolved without ever disturbing
# well-separated subchannels.
CLUSTER_TOL = 1e-6
# Water-level search: each row meets its budget to LEVEL_REL_TOL within LEVEL_MAX_ITER
# steps, if need be by a mix of its bracket's ends, or raises NoConvergenceError.
LEVEL_REL_TOL = 1e-13
LEVEL_MAX_ITER = 200


def reduce_nullspace(ch: Channel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept factors U_r, sigma_r, V_r of [H; G] = U S V^H, on the range of H^H H + G^H G.

    Directions in the common null space can never carry rate, so dropping them
    loses nothing and makes the whitening well defined.  sigma_r descends, each
    sigma_i^2 above ``RANK_TOL`` times the largest.  As [H; G] V_r = U_r diag(sigma_r),
    U_r's two row blocks are the whitened H and G, X V_r diag(1/sigma_r).
    """
    u, sv, vh = _lapack("svd", np.vstack([ch.H, ch.G]), "stacked channel", full_matrices=False)
    if not np.all(sv[:1] ** 2 < np.inf):
        raise ValueError(f"the stacked channel's singular value {sv[0]:.6g} squares past float64")
    rank = np.count_nonzero(sv * sv > RANK_TOL * sv[:1] ** 2)
    if rank == 0:
        raise ZeroChannelError("both channel matrices are numerically zero")
    return u[:, :rank], sv[:rank], vh[:rank].conj().T


@dataclass
class DiagonalizedChannel:
    """Common eigenbasis of the whitened channel Grams.

    ``basis`` = V_r diag(1/sigma_r) Phi (n_t x n) holds the range basis of
    ``reduce_nullspace``, the whitening and the common eigenvectors in one product.

    Entries are ordered so the first ``rho`` subchannels have sigma1 > sigma2
    (by more than the tie tolerance), descending sigma1 within each block.
    ``a`` holds the per-subchannel power cost: spending p_i on subchannel i
    consumes a_i of the trace budget.
    """

    basis: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    a: np.ndarray
    rho: int

    @property
    def n(self) -> int:
        return self.sigma1.size


def _refine_ties(sigma1: np.ndarray, phi: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Resolve the basis freedom inside near-degenerate sigma1 clusters.

    Within a cluster both whitened Grams are scaled identities (sigma2 is
    pinned to 1 - sigma1), so any rotation of its columns preserves the
    joint diagonalization.  Rotating to the right singular vectors of
    diag(1/sigma_r) Phi_c, the eigenbasis of the restricted power-cost matrix,
    makes the costs extremal, which is what lets the allocation collapse to
    plain water-filling capacity when one channel vanishes.
    """
    apart = sigma1[:-1] - sigma1[1:] > CLUSTER_TOL
    if apart.all():
        return phi
    cuts = np.concatenate(([0], np.flatnonzero(apart) + 1, [sigma1.size]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 2:
            continue
        vh = _lapack("svd", phi[:, lo:hi] / sv[:, None], "whitened cluster", full_matrices=False)[2]
        phi[:, lo:hi] = phi[:, lo:hi] @ vh.conj().T
    return phi


def diagonalize(ch: Channel) -> DiagonalizedChannel:
    """Whiten and jointly diagonalize a channel pair.

    Phi holds the right singular vectors of the whitened H, the first row block
    of ``reduce_nullspace``'s U_r, and sigma1, sigma2 are squared column norms
    of both blocks times Phi, so sigma1 + sigma2 = 1 to rounding.
    """
    u_r, sv, v_r = reduce_nullspace(ch)
    u_h, u_g = u_r[:ch.H.shape[0]], u_r[ch.H.shape[0]:]
    phi = _lapack("svd", u_h, "whitened H")[2].conj().T
    phi = _refine_ties((np.abs(u_h @ phi) ** 2).sum(axis=0), phi, sv)
    sigma1, sigma2 = ((np.abs(x @ phi) ** 2).sum(axis=0) for x in (u_h, u_g))

    # Stable partition: user-1 subchannels first, original order inside blocks.
    strong1 = (sigma1 - sigma2) > SIGMA_TIE_TOL
    order = np.argsort(~strong1, kind="stable")
    sigma1, sigma2, w_phi = sigma1[order], sigma2[order], phi[:, order] / sv[:, None]
    a = (np.abs(w_phi) ** 2).sum(axis=0)
    return DiagonalizedChannel(v_r @ w_phi, sigma1, sigma2, a, int(strong1.sum()))


def make_matrix_constraint(dc: DiagonalizedChannel, p: np.ndarray) -> np.ndarray:
    """Transmit covariance basis diag(p) basis^H, from ``dc.basis``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (dc.n,):
        raise DimensionMismatchError(f"expected {dc.n} powers, got shape {p.shape}")
    if not np.all((0.0 <= p) & (p < np.inf)):
        raise ValueError("subchannel powers must be finite and non-negative")
    return herm((dc.basis * p) @ dc.basis.conj().T)


def _check_fill(sigma_strong, sigma_weak, a, budget):
    """Shape, domain and finiteness check of both water-fillers; also returns the valued mask."""
    s, w, a = (np.asarray(v, dtype=float) for v in (sigma_strong, sigma_weak, a))
    if s.ndim != 1 or not s.shape == w.shape == a.shape:
        raise DimensionMismatchError("sigma and cost vectors must be 1-D and share a shape")
    if not (np.isfinite(s).all() and np.isfinite(w).all() and np.isfinite(a).all()):
        raise ValueError("sigmas and costs must be finite")
    if (w < 0).any() or (a <= 0).any():
        raise ValueError("sigma_weak must be >= 0 and costs positive")
    if not 0.0 <= budget < np.inf:
        raise ValueError(f"budget must be finite and non-negative, got {budget}")
    if budget > 0 and not (s > w).any():
        raise NoStrongChannelsError("positive budget but every subchannel has "
                                    "sigma_strong <= sigma_weak")
    return s, w, a, float(budget), s > w


def _fill(strong: np.ndarray, weak: np.ndarray, a: np.ndarray, budgets: np.ndarray,
          live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Powers (one row per budget, zero off ``live``, the subchannels with
    strong > weak) and levels (inf when nothing is live).

    At mu = mu_max exp(t), t <= 0, and c = d/(mu a) the optimum is
    p = 2 (c - 1) / (ssum + disc), disc = sqrt(d^2 + 4 sprod c) = ssum + 2 sprod p,
    with c - 1 from expm1(-t).  The spent power T is convex and decreasing in t,
    and dT/dt = -sum a c / disc over open subchannels.  Subchannel i alone spends
    b at t_i = ln(d_i / (a_i mu_max)) - log1p(s_i b/a_i) - log1p(w_i b/a_i): -inf
    where s_i b/a_i overflows, and then truly below -709.8, under the floor (at
    most -708.4).  Each p_i falls as t rises, so T(max_i t_i) is b to (live count) b.
    Every row starts there, exact when one subchannel is live, and takes a
    Newton step on log T against log(-t) (exact for T a power of -t) or bisects,
    whichever stays in its bracket (updated in place), until T meets the budget
    to ``LEVEL_REL_TOL`` or the bracket cannot be split; then a mix of its ends'
    powers spends b.
    """
    p = np.zeros((budgets.size, a.size))
    if not live.any():
        return p, np.full(budgets.size, np.inf)
    s, w, a = strong[live], weak[live], a[live]
    d, ssum, sprod = s - w, s + w, s * w
    mu_max = (d / a).max()
    ratio = d / a / mu_max
    closed, root_sprod = 1.0 - ratio, 2.0 * np.sqrt(sprod)
    spend = budgets > 0
    b = np.where(spend, budgets, 1.0)
    tol = LEVEL_REL_TOL * b

    def spent(t):
        x = ratio * np.expm1(-t)[:, None] - closed
        c = x + 1.0
        disc = np.hypot(d, root_sprod * np.sqrt(c))
        q = 2.0 * np.maximum(x, 0.0) / (ssum + disc)
        return q, q @ a, -(np.where(x > 0, c / disc, 0.0) @ a)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # Below floor, mu < tiny * max(1, mu_max) or c > 1/tiny overflows
        # float64.  The start may spend a rounding error under the budget, so
        # the bracket starts at the floor, and only the floor can be short.
        floor = np.log(np.finfo(float).tiny) + max(0.0, -np.log(mu_max))
        alone = np.log(ratio) - np.log1p(b[:, None] * (s / a)) - np.log1p(b[:, None] * (w / a))
        t, lo, hi = np.maximum(floor, alone.max(axis=1)), np.full(b.size, floor), np.zeros(b.size)
        q, total, slope = spent(t)
        short = spend & ~(total >= b) & (t <= lo)
        if short.any():
            raise ValueError(f"budget {b[short].max():.6g} is outside the supported range [0, "
                             f"{total[short][0]:.6g}]: its water level is below the float64 range")
        # Where -t is subnormal, T has too few bits to meet the budget.
        sub = spend & (t > -np.finfo(float).tiny)
        if sub.any():
            raise ValueError(f"budget {b[sub].min():.6g} is outside the supported range: its water "
                             f"level is within a subnormal factor of mu_max = {mu_max:.6g}")
        todo = spend.copy()
        for _ in range(LEVEL_MAX_ITER):
            todo &= ~(np.abs(total - b) <= tol)
            if not todo.any():
                break
            under = total < b
            np.copyto(lo, t, where=~under)
            np.copyto(hi, t, where=under)
            mid = 0.5 * (lo + hi)
            newton = t * (b / total) ** (total / (t * slope))
            todo &= (lo < mid) & (mid < hi)
            np.copyto(t, mid, where=todo)
            np.copyto(t, newton, where=todo & (lo < newton) & (newton < hi))
            q, total, slope = spent(t)
        off = spend & ~(np.abs(total - b) <= tol)
        if off.any():
            (q_lo, total_lo, _), (q_hi, total_hi, _) = spent(lo[off]), spent(hi[off])
            theta = np.clip((b[off] - total_hi) / (total_lo - total_hi), 0.0, 1.0)[:, None]
            q[off] = theta * q_lo + (1.0 - theta) * q_hi
            off &= todo | ~(np.abs(q @ a - b) <= tol)
            if off.any():
                raise NoConvergenceError(f"no water level in t = [{lo[off][0]}, {hi[off][0]}]")
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
    At the low end ln(mu_max / mu) must be 2.2e-308 or more, or the spent
    power has too few bits to meet the budget: for one subchannel, that is
    budgets from about 2.2e-308 a / (sigma_strong + sigma_weak) on.

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
    NoConvergenceError
        If the level search, or the mix of its final bracket's ends, misses the budget.
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
    is solved per active set: exactly, when every sigma_weak is zero, as in
    ``waterfill_capacity``.  Inputs are checked as in ``waterfill``.
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
    # Without root entries (A = 0) some zero-weak entry is always open, even
    # where y^2 rounds an ulp below its tau.
    last = 0 if big_a > 0 else 1
    for m in range(tau.size, last - 1, -1):
        total = budget + float(np.sum(tau[:m]))
        # y = 2 T / (A + sqrt(A^2 + 4 m T)), in halves so that nothing overflows.
        y = total / (0.5 * big_a + float(np.hypot(0.5 * big_a, np.sqrt(m) * np.sqrt(total))))
        if m == last or y * y >= tau[m - 1]:
            break
    # The same level floor as ``waterfill``; the range ends where y = floor^{-1/2}.
    floor = np.finfo(float).tiny * max(1.0, float(np.max((s - w)[active] / a[active])))
    if not y * y <= 1.0 / floor:
        y_top = floor ** -0.5
        top = big_a * y_top + float(np.sum(np.clip(y_top * y_top - tau, 0.0, None)))
        raise ValueError(f"budget {budget:.6g} is outside the supported range [0, {top:.6g}]: "
                         "its water level is below the float64 range")
    p = k * y
    if root.any():
        p[zero_w] = np.clip(y * y / a[zero_w] - 1.0 / s[zero_w], 0.0, None)
    else:
        # y^2 = (budget + sum_{k<m} tau_k) / m, so y^2/a_j - tau_j/a_j from
        # differences of tau does not cancel at low SNR: one live subchannel gets budget/a.
        spread = np.sum(tau[:m, None] - a[zero_w] / s[zero_w], axis=0)
        p[zero_w] = np.clip((budget + spread) / (m * a[zero_w]), 0.0, None)
    # Below budgets of about 1e-162, y^2 underflows and the level is inf.
    return p, 1.0 / (y * y) if y * y > 0.0 else np.inf


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


def check_split(alpha: float | np.ndarray, pt: float) -> None:
    """Reject a power split outside [0, 1] (or an array holding one) or a
    total power that is negative or not finite."""
    alpha = np.asarray(alpha, dtype=float)
    bad = ~((0.0 <= alpha) & (alpha <= 1.0))
    if bad.any():
        raise ValueError(f"alpha must lie in [0, 1], got {alpha[bad][0]}")
    if not 0.0 <= pt < np.inf:
        raise ValueError(f"total power must be finite and non-negative, got {pt}")


def _check_count(value, name: str, minimum: int = 0) -> None:
    """Reject a count that is not an integer >= ``minimum`` (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def split_grid(alpha_grid: int | np.ndarray) -> np.ndarray:
    """Power splits of a sweep: ``alpha_grid`` evenly spaced points of [0, 1],
    or the given splits when ``alpha_grid`` is a 1-D array.  Any other count
    or shape raises ValueError; the splits' domain is ``check_split``'s."""
    if np.isscalar(alpha_grid):
        _check_count(alpha_grid, "alpha_grid")
        return np.linspace(0.0, 1.0, alpha_grid)
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"alpha_grid must be a count or a 1-D array, got shape {alphas.shape}")
    return alphas


def _blocks(dc: DiagonalizedChannel):
    """(strong, weak, cost, live) of user 1, then of user 2.  A live subchannel has
    a gain gap above ``SIGMA_TIE_TOL``, as all of user 1's do by construction."""
    rho, s1, s2, a = dc.rho, dc.sigma1, dc.sigma2, dc.a
    return ((s1[:rho], s2[:rho], a[:rho], np.ones(rho, dtype=bool)),
            (s2[rho:], s1[rho:], a[rho:], (s2 - s1)[rho:] > SIGMA_TIE_TOL))


def _split_fills(blocks, alphas: np.ndarray, pt: float):
    """(powers, levels) of user 1 and of user 2 (``_blocks``), one row per split."""
    budgets = (alphas * pt, (1 - alphas) * pt)
    return tuple(_fill(s, w, a, b, live) for (s, w, a, live), b in zip(blocks, budgets))


def _rates(blocks, p1: np.ndarray, p2: np.ndarray):
    """Both users' rates (``_blocks``) in bits, for powers with or without a leading batch axis."""
    return tuple(clamp_rate((np.log1p(s * p) - np.log1p(w * p)).sum(axis=-1)) / LN2
                 for (s, w, _, _), p in zip(blocks, (p1, p2)))


def allocate(dc: DiagonalizedChannel, alpha: float, pt: float) -> PowerAllocation:
    """Split the budget and water-fill each user's block independently."""
    check_split(alpha, pt)
    (p1, mu1), (p2, mu2) = _split_fills(_blocks(dc), np.array([alpha], dtype=float), pt)
    return PowerAllocation(alpha, p1[0], p2[0], float(mu1[0]), float(mu2[0]))


def corner_rates(dc: DiagonalizedChannel, alloc: PowerAllocation) -> CornerPoint:
    """Rate pair of an allocation, in bits."""
    r1, r2 = _rates(_blocks(dc), alloc.p1, alloc.p2)
    return CornerPoint(r1, r2, alpha=alloc.alpha, provenance="avgpower")


def sweep_rates(dc: DiagonalizedChannel, pt: float,
                alpha_grid: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power splits of the grid (see ``split_grid``) and their corner
    rates in bits, as a (splits, 2) array, all splits water-filled in one
    batch per user.  ``region_sweep`` and ``search_region`` build their
    regions from these arrays."""
    alphas = split_grid(alpha_grid)
    check_split(alphas, pt)
    blocks = _blocks(dc)
    (p1, _), (p2, _) = _split_fills(blocks, alphas, pt)
    return alphas, np.column_stack(_rates(blocks, p1, p2))


def region_sweep(ch: Channel, pt: float, alpha_grid: int | np.ndarray = 101) -> RegionEstimate:
    """Sweep the power split over [0, 1] and hull the resulting corners."""
    alphas, rates = sweep_rates(diagonalize(ch), pt, alpha_grid)
    return RegionEstimate(rates, alphas, ["avgpower"] * len(alphas))


def waterfill_capacity(h: np.ndarray, pt: float) -> float:
    """Point-to-point MIMO capacity max log2 det(I + H Q H^H) over trace(Q) <= pt, in bits.

    Classic single-channel water-filling over the eigenvalues of H^H H, by
    ``waterfill_high_snr`` with every sigma_weak zero, where it is exact.
    """
    check_split(1.0, pt)
    h = np.atleast_2d(h)
    try:
        lam = reduce_nullspace(Channel(h, np.zeros((1, h.shape[1]))))[1] ** 2
    except ZeroChannelError:
        return 0.0
    p, _ = waterfill_high_snr(lam, np.zeros(lam.size), np.ones(lam.size), pt)
    return float(np.sum(np.log1p(lam * p))) / LN2


def p2p_limit_check(ch: Channel, pt: float) -> tuple[float, float]:
    """Secrecy rate with the second channel scaled by 1e-6 vs plain capacity.

    As the second receiver fades away, the alpha = 1 corner of the secrecy
    region must approach the point-to-point water-filling capacity of H.
    Returns (secrecy R1, capacity), both in bits.
    """
    dc = diagonalize(Channel(ch.H, 1e-6 * ch.G))
    point = corner_rates(dc, allocate(dc, 1.0, pt))
    return point.R1, waterfill_capacity(ch.H, pt)
