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
  principal eigenvector of the shrunk pencil) attains the pair exactly, and
  the corner pencil of S_Q has lambda_1 = gamma1 and lambda_2 = 1/gamma2.

A beamforming pair (c1, c2) derived from S_Q achieves both rates up to the
same scalar loss ln(1 + |N|^2) as the general loss-bounded construction.
"""

from dataclasses import dataclass, replace

import numpy as np

from .avgpower import check_split, reduce_nullspace, split_grid
from .errors import DimensionMismatchError
from .linalg import LN2, clamp_rate, gevd_definite, herm, psd_range
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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(v)))
    piv = v[idx]
    if np.abs(piv) == 0.0:
        return v
    return v * (piv.conj() / np.abs(piv))


def _principal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm principal generalized eigenvector and eigenvalue of (a, b)."""
    res = gevd_definite(a, b)
    vec = res.eigvecs[:, 0]
    return _fix_phase(vec / np.linalg.norm(vec)), float(res.eigvals[0])


def miso_capacity_point(mc: MisoChannel, pt: float, alpha: float) -> MisoRegionPoint:
    """Capacity pair and attaining covariance for one power split."""
    check_split(alpha, pt)
    ch_r, u_p, _ = reduce_nullspace(mc.as_channel())
    h = ch_r.H[0].conj()
    g = ch_r.G[0].conj()
    eye = np.eye(h.size)
    hh = np.outer(h, h.conj())
    gg = np.outer(g, g.conj())

    e1, _ = _principal(eye + pt * hh, eye + pt * gg)
    gain_h = float(np.abs(h.conj() @ e1) ** 2)
    gain_g = float(np.abs(g.conj() @ e1) ** 2)
    gamma1 = (1.0 + alpha * pt * gain_h) / (1.0 + alpha * pt * gain_g)
    c1 = clamp_rate(np.log(gamma1))

    # The first user's beam appears as noise at both receivers.
    shrink_g = (1.0 - alpha) * pt / (1.0 + alpha * pt * gain_g)
    shrink_h = (1.0 - alpha) * pt / (1.0 + alpha * pt * gain_h)
    e2, gamma2 = _principal(eye + shrink_g * gg, eye + shrink_h * hh)
    c2 = clamp_rate(np.log(gamma2))

    s_q = herm(
        alpha * pt * np.outer(e1, e1.conj())
        + (1.0 - alpha) * pt * np.outer(e2, e2.conj())
    )
    return MisoRegionPoint(
        alpha=alpha, pt=pt,
        c1=c1 / LN2, c2=c2 / LN2,
        e1=u_p @ e1, e2=u_p @ e2,
        s_q=herm(u_p @ s_q @ u_p.conj().T),
    )


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
    lam, v, rank = psd_range(point.s_q, "covariance")
    if rank < 2:
        return replace(point, r1=point.c1, r2=point.c2, loss_bits=0.0)

    u = v[:, :rank]
    h = u.conj().T @ mc.h
    g = u.conj().T @ mc.g
    eye = np.eye(rank)
    hh = np.outer(h, h.conj())
    gg = np.outer(g, g.conj())
    pt = point.pt
    e1 = u.conj().T @ point.e1
    f1, _ = _principal(eye + pt * gg, eye + pt * hh)

    s_inv_half = np.diag(1.0 / np.sqrt(lam[:rank]))
    s_inv = np.diag(1.0 / lam[:rank])

    def beam(direction: np.ndarray) -> np.ndarray:
        scale = np.real(direction.conj() @ (s_inv + gg) @ direction)
        return (s_inv_half @ direction) / np.sqrt(scale)

    c1_vec = beam(e1)
    c2_vec = beam(f1)

    def perp(v: np.ndarray) -> np.ndarray:
        return eye - np.outer(v, v.conj()) / np.real(v.conj() @ v)

    p1c = perp(c1_vec)
    p2c = perp(c2_vec)
    denom = float(np.real(c2_vec.conj() @ p1c @ c2_vec))
    coupling = complex(c1_vec.conj() @ p2c @ p1c @ c2_vec)
    loss_nats = float(np.log1p(np.abs(coupling) ** 2 / denom**2))
    loss_bits = loss_nats / LN2
    return replace(
        point,
        r1=clamp_rate(point.c1 - loss_bits),
        r2=clamp_rate(point.c2 - loss_bits),
        loss_bits=loss_bits,
    )


def miso_region(
    mc: MisoChannel, pt: float, alpha_grid: int | np.ndarray = 101
) -> list[MisoRegionPoint]:
    """Capacity and beamforming pairs over a sweep of power splits (see ``split_grid``)."""
    return [
        miso_linear_point(mc, miso_capacity_point(mc, pt, float(al)))
        for al in split_grid(alpha_grid)
    ]
