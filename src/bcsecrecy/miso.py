"""Closed-form secrecy capacity region for two single-antenna receivers.

All of it happens on span{h, g}, reduced once to r <= 2 coordinates, where
each pencil (I + a x x^H, I + b y y^H) has a closed-form principal pair.  For a
power split alpha, user 1 beams along e1, the principal vector of
(I + Pt h h^H, I + Pt g g^H), and C1 = log (1 + alpha Pt |h^H e1|^2) /
(1 + alpha Pt |g^H e1|^2); C2 and e2 are the principal pair of the swapped
pencil, each term shrunk by the noise e1 leaves at its receiver; and
S_Q = alpha Pt e1 e1^H + (1 - alpha) Pt e2 e2^H attains the pair when r = 2.
Beams read off S_Q lose ln(1 + |N|^2) from both rates, in closed form from
f1 = e2 at alpha = 0, one more split of the same batch: a region takes two
kernel calls, and no LAPACK call follows the reduction.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .avgpower import check_split, reduce_nullspace, split_grid
from .linalg import LN2, clamp_rate
from .sdpc import Channel


@dataclass
class MisoChannel:
    """Finite channel vectors of two single-antenna receivers: y_i = v_i^H x + noise."""

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex).reshape(-1)
        self.g = np.asarray(self.g, dtype=complex).reshape(-1)
        self.as_channel()  # Channel checks the lengths and finiteness

    def as_channel(self) -> Channel:
        """Equivalent two-user matrix channel (1 x n_t rows h^H and g^H)."""
        return Channel(self.h.conj()[None, :], self.g.conj()[None, :])


@dataclass
class MisoRegionPoint:
    """One power split: capacity pair (C1, C2), beamforming pair (R1, R2).

    Rates are in bits; ``r1``/``r2`` stay None until computed.  ``e1``, ``e2``
    and ``s_q`` are in the antenna space, with trace(s_q) = pt.
    """

    alpha: float
    pt: float
    c1: float
    c2: float
    e1: np.ndarray
    e2: np.ndarray
    s_q: np.ndarray
    r1: float | None = None
    r2: float | None = None
    loss_bits: float | None = None


def _det(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """det[x, y] of two 2-vectors, or of every pair of a stack (last axis)."""
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _pin(w0, w1) -> np.ndarray:
    """The vectors [w0, w1] over a ``...`` axis, each turned so that its larger
    entry, the first on a tie, is real positive: ``linalg._fix_phase``, bit for bit."""
    piv = np.where(np.abs(w0) >= np.abs(w1), w0, w1)
    return (np.array((w0, w1)) * (piv.conjugate() / np.abs(piv))).T


def _principal(a, x: np.ndarray, b, y: np.ndarray, cross: complex):
    """Principal pair of the pencil (I + a x x^H, I + b y y^H), a and b over a
    ``...`` axis, x and y of length r <= 2 (independent when r = 2, ``cross``
    = det[y, x]): the unit eigenvector v, phase pinned; mu, the eigenvalue
    being 1 + mu; and the gains (|x^H v|^2, |y^H v|^2).

    Khisti and Wornell (IEEE Trans. IT 2010): on (u, u_perp), u along y,
    diag(1/s, 1), s^2 = 1 + b |y|^2, whitens the pencil to I + x_w x_w^H - y_w y_w^H;
    mu is the positive root of mu^2 - d mu - c, d = |x_w|^2 - |y_w|^2 and
    c = |y_w|^2 |u_perp^H x_w|^2, and v is mapped back from
    (mu + |y_w|^2) x_w - (y_w^H x_w) y_w.  With u_perp^H x = cross / |y| as
    accurate as ``cross``, nothing cancels.
    """
    if x.size == 1:  # one dimension: a ratio of scalars
        gx, gy = abs(x[0]) ** 2, abs(y[0]) ** 2
        mu = (a * gx - b * gy) / (1.0 + b * gy)
        shape = np.shape(mu)
        return np.ones(shape + (1,), dtype=complex), mu, (np.full(shape, gx), np.full(shape, gy))
    (x0, x1), (y0, y1) = map(complex, x), map(complex, y)
    rho = math.hypot(abs(y0), abs(y1))
    u0, u1, xp = y0 / rho, y1 / rho, cross / rho
    xu = (y0.conjugate() * x0 + y1.conjugate() * x1) / rho
    w = b * rho ** 2
    s2, eta2 = 1.0 + w, w / (1.0 + w)
    d = a * (abs(xu) ** 2 / s2 + abs(xp) ** 2) - eta2
    c = eta2 * a * abs(xp) ** 2
    # With big the larger root magnitude, c / big + max(d, 0) is the positive
    # root for either sign of d, and nothing cancels.
    big = 0.5 * (abs(d) + np.hypot(d, 2.0 * c ** 0.5))
    mu = c / np.maximum(big, np.finfo(float).tiny) + np.maximum(d, 0.0)
    # v on (u, u_perp), over sqrt(a) (mu + |y_w|^2), so that nothing under- or
    # overflows; for the pencil (I, I) the first axis, as eigh gives.
    ident = mu + eta2 == 0.0
    v1 = np.where(ident, u0.conjugate(), mu / np.where(ident, 1.0, mu + eta2) * xu / s2)
    v2 = np.where(ident, -u1, xp)
    norm = np.hypot(abs(v1), abs(v2))
    v1, v2 = v1 / norm, v2 / norm
    # For the eigenvector x^H v is a sum of non-negative terms and y^H v = |y| v1.
    gains = abs(xu.conjugate() * v1 + xp.conjugate() * v2) ** 2, rho ** 2 * abs(v1) ** 2
    return _pin(v1 * u0 - v2 * u1.conjugate(), v1 * u1 + v2 * u0.conjugate()), mu, gains


def _check_range(pt: float, *arrays: np.ndarray) -> None:
    """Raise ValueError unless every entry of ``arrays`` is finite: at the top
    of the power range, pt times a channel gain overflows float64."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError(f"power {pt:.6g} is outside the supported range: "
                         "the closed-form rates overflow float64")


def _loss_bits(pt: float, alphas: np.ndarray, e1: np.ndarray, e2: np.ndarray,
               noise_g: np.ndarray, f1: np.ndarray, gain_f: float) -> np.ndarray:
    """Beamforming loss in bits per split from ``_capacity``'s output and f1,
    the principal vector of (I + pt g g^H, I + pt h h^H), with |g^H f1|^2;
    zero where S_Q has rank below two.  With S_Q = E diag(F, R) E^H, E = [e1, e2],
    F = alpha pt and R = (1 - alpha) pt, the coupling |c2^H c1|^2 / |c2|^4 is
    (P / W) (1 + F |g^H f1|^2 |det E|^2 / W) / noise_g, with P = |det[f1, e2]|^2
    and W = P + |det[e1, f1]|^2 F / R; the range unchecked."""
    if e1.size < 2:
        return np.zeros(alphas.shape)
    first, rest = alphas * pt, (1.0 - alphas) * pt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = np.abs(_det(f1, e2)) ** 2
        w = p + np.abs(_det(e1, f1)) ** 2 * first / rest
        # Where S_Q has rank two, P / W <= 1 and F / W <= R / |det[e1, f1]|^2
        # stay finite, and a NaN W, from an overflowed f1, stays NaN.
        extra = first * gain_f * np.abs(_det(e1, e2)) ** 2 / w
        loss = np.log1p(p / w * (1.0 + extra) / noise_g) / LN2
    return np.where((first > 0.0) & (rest > 0.0) & (w != 0.0), loss, 0.0)


def _capacity(mc: MisoChannel, pt: float, alphas: np.ndarray):
    """The basis u_p, (C1, C2) in bits, e1, e2, |g^H e2|^2 and the noise
    1 + alpha pt |g^H e1|^2 per split of ``alphas`` (1-D, or 0-d for one
    split), e1 and e2 on the span, the range unchecked.  At alpha = 0 both
    noises are 1, so e2 is f1, the principal vector of the swapped pencil."""
    check_split(alphas, pt)
    u_r, sv, u_p = reduce_nullspace(mc.as_channel())
    # The coordinates of [h, g] on the span are Sigma_r U_r^H, U_r unitary
    # when r = 2, so the two products of det[g, h] never cancel.
    h, g = (u_r * sv).conj()
    cross = _det(g, h) if h.size == 2 else 0j
    first, rest = alphas * pt, (1.0 - alphas) * pt
    # Past the top of the power range pt |h|^2 overflows; ``_check_range`` reports it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e1, _, (gain_h, gain_g) = _principal(pt, h, pt, g, cross)
        # The first user's beam appears as noise at both receivers: gamma1 is
        # the ratio of those noises, and the second user's pencil shrinks by them.
        noise_h, noise_g = 1.0 + first * gain_h, 1.0 + first * gain_g
        e2, mu2, (gain_2, _) = _principal(rest / noise_g, g, rest / noise_h, h, -cross)
        c1, c2 = clamp_rate(np.log(noise_h / noise_g)) / LN2, np.log1p(clamp_rate(mu2)) / LN2
    return u_p, c1, c2, e1, e2, gain_2, noise_g


def _s_q(pt: float, alphas: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """S_Q = alpha pt e1 e1^H + (1 - alpha) pt e2 e2^H per split, e1 and e2 in the antenna space."""
    first, rest = (x[..., None, None] for x in (alphas * pt, (1.0 - alphas) * pt))
    return first * (e1[:, None] * e1.conj()) + rest * (e2[..., :, None] * e2.conj()[..., None, :])


@dataclass(eq=False)
class MisoRegion:
    """Capacity pairs (C1, C2), beamforming pairs (R1, R2) and loss in bits,
    one entry of each (splits,) array per split of ``alphas``; e1 (n_t,) and
    e2 (splits, n_t) in the antenna space.  S_Q and the points are formed on
    first read; indexing, iteration and slicing give ``MisoRegionPoint``s."""

    pt: float
    alphas: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    loss_bits: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    @cached_property
    def s_q(self) -> np.ndarray:
        return _s_q(self.pt, self.alphas, self.e1, self.e2)

    @cached_property
    def points(self) -> list[MisoRegionPoint]:
        columns = zip(self.alphas.tolist(), self.c1.tolist(), self.c2.tolist(), self.e2, self.s_q,
                      self.r1.tolist(), self.r2.tolist(), self.loss_bits.tolist())
        return [MisoRegionPoint(al, self.pt, x1, x2, self.e1.copy(), y2, s, z1, z2, bits)
                for al, x1, x2, y2, s, z1, z2, bits in columns]

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]


def miso_capacity_point(mc: MisoChannel, pt: float, alpha: float) -> MisoRegionPoint:
    """Capacity pair and attaining covariance for one power split.

    When h and g span one dimension (n_t = 1, or collinear channels), S_Q
    puts all of pt on one direction, whose own corner dominates (C1, C2):
    h = 0, g = 1, pt = 1, alpha = 1 gives (0, 0), S_Q's corner (0, 1 bit).
    The region's hull is unaffected.
    """
    alphas = np.asarray(alpha, dtype=float)
    u_p, c1, c2, e1, e2, _, _ = _capacity(mc, pt, alphas)
    _check_range(pt, c1, c2, e2)  # a non-finite e1 has non-finite gains, so C1
    e1, e2 = u_p @ e1, e2 @ u_p.T
    return MisoRegionPoint(alpha, pt, float(c1), float(c2), e1, e2, _s_q(pt, alphas, e1, e2))


def miso_linear_point(mc: MisoChannel, point: MisoRegionPoint) -> MisoRegionPoint:
    """Complete a capacity point with its beamforming rates.

    The beams c1 along S_Q^{-1/2} e1 and c2 along S_Q^{-1/2} f1 (f1 with the
    receiver roles swapped) both lose exactly ln(1 + |N|^2), clamped at zero;
    nothing when S_Q has rank one (alpha at 0 or 1, or collinear channels).
    Of ``point`` only alpha, pt, c1 and c2 are read: the loss is that of the
    one-split region of ``mc``, so the point must be ``mc``'s, unedited.
    """
    loss = float(miso_region(mc, point.pt, np.array([point.alpha], dtype=float)).loss_bits[0])
    return replace(point, r1=clamp_rate(point.c1 - loss), r2=clamp_rate(point.c2 - loss),
                   loss_bits=loss)


def miso_region(mc: MisoChannel, pt: float, alpha_grid: int | np.ndarray = 101) -> MisoRegion:
    """Capacity and beamforming pairs over a sweep of power splits (see
    ``split_grid``), all splits solved in one batch on the reduced span, and
    alpha = 0 with them for the loss's f1: two kernel calls in all."""
    alphas = split_grid(alpha_grid)
    u_p, c1, c2, e1, e2, gain_2, noise_g = _capacity(mc, pt, np.append(alphas, 0.0))
    c1, c2, e2, f1 = c1[:-1], c2[:-1], e2[:-1], e2[-1]
    loss = _loss_bits(pt, alphas, e1, e2, noise_g[:-1], f1, gain_2[-1])
    _check_range(pt, c1, c2, e2, loss)
    return MisoRegion(pt, alphas, c1, c2, clamp_rate(c1 - loss), clamp_rate(c2 - loss), loss,
                      u_p @ e1, e2 @ u_p.T)
