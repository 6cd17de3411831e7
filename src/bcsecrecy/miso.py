"""Closed-form secrecy capacity region for two single-antenna receivers.

With channel vectors h and g the whole region is expressible through
generalized eigenvectors of 2x2 pencils.  For a power split alpha:

* user 1 transmits along e1, the principal generalized eigenvector of
  (I + Pt h h^H, I + Pt g g^H), giving C1 = ln gamma1(alpha) with
  gamma1 = (1 + alpha Pt |h^H e1|^2) / (1 + alpha Pt |g^H e1|^2);
* user 2 sees both receivers through the interference of that beam, so C2 is
  the log of the largest generalized eigenvalue gamma2 of the same pencil
  with each rank-one term shrunk by its interference-laden noise power;
* the covariance S_Q = alpha Pt e1 e1^H + (1 - alpha) Pt e2 e2^H (e2 the
  principal eigenvector of the shrunk pencil) attains the pair exactly when
  h and g span two dimensions; its corner pencil then has lambda_1 = gamma1
  and lambda_2 = 1/gamma2.

A beamforming pair (c1, c2) derived from S_Q achieves both rates up to the
same scalar loss ln(1 + |N|^2) as the general loss-bounded construction.
"""

from dataclasses import dataclass, replace

import numpy as np

from .avgpower import check_split, reduce_nullspace, split_grid
from .errors import DimensionMismatchError
from .linalg import LN2, _fix_phase, _gevd_core, clamp_rate, ctrans, herm, psd_range
from .sdpc import Channel


@dataclass
class MisoChannel:
    """Finite channel vectors of two single-antenna receivers: y_i = v_i^H x + noise."""

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex).reshape(-1)
        self.g = np.asarray(self.g, dtype=complex).reshape(-1)
        if self.h.shape != self.g.shape:
            raise DimensionMismatchError(
                f"channel vectors differ in length: {self.h.size} vs {self.g.size}"
            )
        if not (np.isfinite(self.h).all() and np.isfinite(self.g).all()):
            raise ValueError("channel vectors have non-finite entries")

    def as_channel(self) -> Channel:
        """Equivalent two-user matrix channel (1 x n_t rows h^H and g^H)."""
        return Channel(self.h.conj()[None, :], self.g.conj()[None, :])


@dataclass
class MisoRegionPoint:
    """One power split: capacity pair (C1, C2), beamforming pair (R1, R2).

    Rates are in bits; ``r1``/``r2`` stay None until the beamforming point is
    computed.  ``e1``, ``e2`` and ``s_q`` are expressed in the full antenna
    space, with trace(s_q) = pt.
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


def _outer(v: np.ndarray) -> np.ndarray:
    """v v^H of a vector, or of every vector of a stack (last axis)."""
    return v[..., :, None] * v.conj()[..., None, :]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H y of two vectors, or of every pair of a stack (last axis)."""
    return np.sum(x.conj() * y, axis=-1)


def _principal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm principal generalized eigenvectors and eigenvalues of the
    pencils (a, b), over a leading ``...`` axis.

    Each pencil is I plus PSD terms, so definite by construction, and only its
    principal pair is read.  ``gevd_definite``'s check on the smallest
    eigenvalue, which rejects any spread above 1 / RANK_TOL, is skipped.
    """
    eigvals, eigvecs = _gevd_core(a, b)
    vec = eigvecs[..., 0]
    return _fix_phase(vec / np.linalg.norm(vec, axis=-1, keepdims=True)), eigvals[..., 0]


def _capacity(mc: MisoChannel, pt: float, alphas: np.ndarray):
    """(C1, C2) in bits, e1, and e2 and S_Q per split, for every split of
    ``alphas`` (a 1-D array, or 0-d for one split), in the full antenna
    space.  The channel is reduced and e1 solved once; the shrunk pencils of
    all splits are one stack."""
    check_split(alphas, pt)
    ch_r, u_p, _ = reduce_nullspace(mc.as_channel())
    h, g = ch_r.H[0].conj(), ch_r.G[0].conj()
    eye = np.eye(h.size)
    hh, gg = _outer(h), _outer(g)

    e1, _ = _principal(eye + pt * hh, eye + pt * gg)
    gain_h, gain_g = (float(np.abs(v.conj() @ e1) ** 2) for v in (h, g))
    first, rest = alphas * pt, (1.0 - alphas) * pt
    # The first user's beam appears as noise at both receivers: gamma1 is the
    # ratio of those noises, and the second user's pencil shrinks by them.
    noise_h, noise_g = 1.0 + first * gain_h, 1.0 + first * gain_g
    e2, gamma2 = _principal(eye + (rest / noise_g)[..., None, None] * gg,
                            eye + (rest / noise_h)[..., None, None] * hh)

    s_q = herm(first[..., None, None] * _outer(e1) + rest[..., None, None] * _outer(e2))
    c1, c2 = (clamp_rate(np.log(x)) / LN2 for x in (noise_h / noise_g, gamma2))
    return c1, c2, u_p @ e1, e2 @ u_p.T, herm(u_p @ s_q @ ctrans(u_p))


def miso_capacity_point(mc: MisoChannel, pt: float, alpha: float) -> MisoRegionPoint:
    """Capacity pair and attaining covariance for one power split.

    When h and g span one dimension (n_t = 1, or collinear channels), S_Q
    puts all of pt on one direction, whose own corner dominates (C1, C2):
    h = 0, g = 1, pt = 1, alpha = 1 gives (0, 0), S_Q's corner (0, 1 bit).
    The region's hull is unaffected.
    """
    c1, c2, e1, e2, s_q = _capacity(mc, pt, np.asarray(alpha, dtype=float))
    return MisoRegionPoint(alpha, pt, float(c1), float(c2), e1, e2, s_q)


def _loss_bits(mc: MisoChannel, pt: float, e1: np.ndarray, s_q: np.ndarray) -> np.ndarray:
    """Beamforming loss in bits of each S_Q (leading ``...`` axis) with first
    beam e1; zero where S_Q has rank below two."""
    lam, v, rank = psd_range(s_q, "covariance")
    full = np.asarray(rank >= 2)
    if not full.any():
        return np.zeros(full.shape)
    # Rows of rank below two run with unit eigenvalues, and their loss is dropped.
    lam = np.where(full[..., None], lam[..., :2], 1.0)
    u_h = ctrans(v[..., :2])
    h, g, e1 = u_h @ mc.h, u_h @ mc.g, u_h @ e1
    eye = np.eye(2)
    f1, _ = _principal(eye + pt * _outer(g), eye + pt * _outer(h))

    def beam(direction: np.ndarray) -> np.ndarray:
        scale = np.sum(np.abs(direction) ** 2 / lam, axis=-1) + np.abs(_dot(g, direction)) ** 2
        return direction / np.sqrt(lam) / np.sqrt(scale)[..., None]

    with np.errstate(divide="ignore", invalid="ignore"):  # on the dropped rows
        c1_vec, c2_vec = beam(e1), beam(f1)
        # |N|^2 for the scalar N = -(c2^H c2)^{-1} c2^H c1, as in precoding.
        coupling = np.abs(_dot(c2_vec, c1_vec)) ** 2 / np.real(_dot(c2_vec, c2_vec)) ** 2
        return np.where(full, np.log1p(coupling) / LN2, 0.0)


def miso_linear_point(mc: MisoChannel, point: MisoRegionPoint) -> MisoRegionPoint:
    """Complete a capacity point with its beamforming rates.

    The two beams are read off the attaining covariance: c1 along
    S_Q^{-1/2} e1 and c2 along S_Q^{-1/2} f1 (f1 the principal generalized
    eigenvector with the receiver roles swapped), each normalized against the
    second receiver's pencil component.  Both users then lose exactly
    ln(1 + |N|^2) for a scalar coupling N, clamped at zero.

    When S_Q collapses to rank one (alpha at 0 or 1, or collinear channels)
    there is only one beam and nothing couples: loss is zero.  Otherwise its
    range is span{h, g}, so its leading eigenvectors are the working basis
    and S_Q^{-1/2} is diagonal there.
    """
    loss = float(_loss_bits(mc, point.pt, point.e1, point.s_q))
    return replace(point, r1=clamp_rate(point.c1 - loss), r2=clamp_rate(point.c2 - loss),
                   loss_bits=loss)


def miso_region(mc: MisoChannel, pt: float,
                alpha_grid: int | np.ndarray = 101) -> list[MisoRegionPoint]:
    """Capacity and beamforming pairs over a sweep of power splits (see
    ``split_grid``), all splits solved in one batch."""
    alphas = split_grid(alpha_grid)
    c1, c2, e1, e2, s_q = _capacity(mc, pt, alphas)
    loss = _loss_bits(mc, pt, e1, s_q)
    rates = zip(alphas.tolist(), c1.tolist(), c2.tolist(), e2, s_q,
                clamp_rate(c1 - loss).tolist(), clamp_rate(c2 - loss).tolist(), loss.tolist())
    return [MisoRegionPoint(al, pt, x1, x2, e1.copy(), y2, s, z1, z2, bits)
            for al, x1, x2, y2, s, z1, z2, bits in rates]
