"""Corner points of the secrecy capacity region under a matrix power constraint.

For a two-user Gaussian MIMO broadcast channel (receivers H and G, transmit
covariance capped by a PSD matrix S) the region is a rectangle, so it is fully
described by one corner.  The corner falls out of the definite pencil

    (S^{1/2} H^H H S^{1/2} + I,  S^{1/2} G^H G S^{1/2} + I):

with generalized eigenvalues lambda_1 >= ... >= lambda_n and b of them above
one, user 1's rate is sum(ln lambda_i, i <= b) and user 2's is
-sum(ln lambda_i, i > b).  The optimal input covariance for user 1 is
K = S^{1/2} P S^{1/2} with P the projector onto the leading eigenvector block.

Rank-deficient S is handled by restricting the channel to range(S) and lifting
the covariance back, never by regularizing.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    LN2,
    RANK_TOL,
    GevdResult,
    clamp_rate,
    ctrans,
    gevd_definite,
    herm,
    herm_eig,
    projector,
    psd_range,
    psd_sqrt,
)


@dataclass
class Channel:
    """Pair of finite complex channel matrices with a common transmit dimension."""

    H: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=complex))
        self.G = np.atleast_2d(np.asarray(self.G, dtype=complex))
        if self.H.ndim != 2 or self.G.ndim != 2:
            raise DimensionMismatchError("channel matrices must be 2-D")
        if self.H.shape[1] != self.G.shape[1]:
            raise DimensionMismatchError(
                f"channel matrices disagree on transmit antennas: "
                f"{self.H.shape[1]} vs {self.G.shape[1]}"
            )
        if not (np.isfinite(self.H).all() and np.isfinite(self.G).all()):
            raise ValueError("channel matrices have non-finite entries")

    @property
    def n_t(self) -> int:
        return self.H.shape[1]

    def gram_h(self) -> np.ndarray:
        """H^H H."""
        return herm(self.H.conj().T @ self.H)

    def gram_g(self) -> np.ndarray:
        """G^H G."""
        return herm(self.G.conj().T @ self.G)

    def swapped(self) -> "Channel":
        """The same channel with the user roles exchanged."""
        return Channel(self.G, self.H)


@dataclass
class CornerPoint:
    """One rate pair, in bits.  ``alpha`` is the power split that produced it,
    when one exists."""

    R1: float
    R2: float
    alpha: float | None = None
    provenance: str = ""

    def nats(self) -> tuple[float, float]:
        return self.R1 * LN2, self.R2 * LN2


@dataclass
class SdpcSolution:
    """Corner-point solution for one (channel, matrix constraint) pair.

    ``gevd`` lives in the working space: the full transmit space when S has
    full rank, otherwise range(S) with ``u_r`` holding the orthonormal basis
    used for the reduction.  ``kt_star`` and ``corner`` are always expressed
    for the original channel.
    """

    channel: Channel
    s: np.ndarray
    gevd: GevdResult
    kt_star: np.ndarray
    corner: CornerPoint
    u_r: np.ndarray | None = field(default=None, repr=False)
    s_sqrt: np.ndarray | None = field(default=None, repr=False)

    @property
    def s_reduced(self) -> bool:
        """Whether S was rank-deficient, so the pencil was solved on its range."""
        return self.u_r is not None

    def lift(self, a: np.ndarray) -> np.ndarray:
        """Map a working-space matrix back to the full transmit space."""
        if self.u_r is None:
            return a
        return self.u_r @ a @ self.u_r.conj().T


def _sized_constraint(s: np.ndarray, n_t: int) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.shape != (n_t, n_t):
        raise DimensionMismatchError(
            f"constraint must be {n_t}x{n_t} to match the channel's transmit antennas, "
            f"got shape {s.shape}"
        )
    return s


def _root(w: np.ndarray, v: np.ndarray, rank: int | np.ndarray) -> np.ndarray:
    """Hermitian root of a constraint from its ``psd_range`` decomposition,
    with the eigenvalues past ``rank`` set to zero.  Works on stacks."""
    kept = np.arange(w.shape[-1]) < np.expand_dims(rank, -1)
    root = np.where(kept, np.sqrt(np.clip(w, 0.0, None)), 0.0)
    return herm((v * root[..., None, :]) @ ctrans(v))


def _pencil(s_sqrt: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R H^H H R + I, R G^H G R + I) for a Hermitian root R of the
    constraint, or for a ``(k, n, n)`` stack of roots."""
    eye = np.eye(s_sqrt.shape[-1])
    return tuple(herm(s_sqrt @ (x.conj().T @ x) @ s_sqrt) + eye for x in (h, g))


def _rates_bits(gevd: GevdResult) -> tuple[np.ndarray, np.ndarray]:
    """Corner rates in bits: R1 = sum of ln lambda_i over the ``b`` leading
    eigenvalues, R2 = -sum over the rest, each floored at zero.  Works on
    the result of a stack of pencils."""
    logs = np.log(gevd.eigvals)
    upper = np.arange(logs.shape[-1]) < np.expand_dims(gevd.b, -1)
    r1 = np.sum(logs, axis=-1, where=upper)
    r2 = -np.sum(logs, axis=-1, where=~upper)
    return clamp_rate(r1) / LN2, clamp_rate(r2) / LN2


def build_pencil(ch: Channel, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both components of the definite pencil for constraint ``s``.

    Returns (S^{1/2} H^H H S^{1/2} + I, S^{1/2} G^H G S^{1/2} + I); each is
    Hermitian with every eigenvalue >= 1, so the pencil is always definite.
    """
    return _pencil(psd_sqrt(_sized_constraint(s, ch.n_t)), ch.H, ch.G)


def solve_matrix_constraint(ch: Channel, s: np.ndarray) -> SdpcSolution:
    """Corner point and optimal covariance under the matrix constraint ``s``.

    ``s`` must be a Hermitian PSD matrix of the channel's transmit size.  It
    is reduced to its range when rank-deficient, the pencil is solved there,
    and the covariance split is lifted back.  Both rates come out
    non-negative; ``b = 0`` or ``b = n`` collapse to (0, R2) and (R1, 0)
    corners with covariance 0 and S respectively.
    """
    s = _sized_constraint(s, ch.n_t)
    w, v, rank = psd_range(s, "constraint")
    s = herm(s)

    # A zero constraint (rank 0) runs through the reduced path on an empty
    # working space: an empty pencil, rates (0, 0) and covariance 0.
    if rank < ch.n_t:
        u_r = v[:, :rank]
        h_r = ch.H @ u_r
        g_r = ch.G @ u_r
        s_sqrt = np.diag(np.sqrt(w[:rank])).astype(complex)
    else:
        u_r = None
        h_r, g_r = ch.H, ch.G
        s_sqrt = _root(w, v, rank)

    n = s_sqrt.shape[0]
    gevd = gevd_definite(*_pencil(s_sqrt, h_r, g_r))
    r1, r2 = _rates_bits(gevd)

    split = gevd.b
    if split == 0:
        kt_work = np.zeros((n, n), dtype=complex)
    elif split == n:
        kt_work = herm(s_sqrt @ s_sqrt)
    else:
        kt_work = herm(s_sqrt @ projector(gevd.upper_vecs) @ s_sqrt)

    sol = SdpcSolution(
        ch, s, gevd,
        np.zeros((ch.n_t, ch.n_t), dtype=complex),
        CornerPoint(r1, r2, provenance="sdpc"),
        u_r=u_r, s_sqrt=s_sqrt,
    )
    sol.kt_star = sol.lift(kt_work)
    return sol


def _stacked_corners(ch: Channel, s: np.ndarray) -> np.ndarray:
    """Corner rates in bits, shape (k, 2), of a ``(k, n_t, n_t)`` stack of
    constraints, every item solved in one batch of the kernels above.

    Each item stays in the full transmit space: its root S^{1/2} keeps only
    the eigenvalues above ``RANK_TOL`` times its scale.  A rank-deficient
    item's pencil then has the eigenvalues of the reduced pencil of
    ``solve_matrix_constraint`` plus n_t - rank eigenvalues equal to one up
    to rounding, which change neither ``b`` nor the rates, so every rank
    from 0 to n_t shares the stack.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1:] != (ch.n_t, ch.n_t):
        raise DimensionMismatchError(
            f"constraints must form a (k, {ch.n_t}, {ch.n_t}) stack, got shape {s.shape}"
        )
    # Nested so that each stage's stack is freed once the next one is built.
    gevd = gevd_definite(*_pencil(_root(*psd_range(s, "constraint")), ch.H, ch.G))
    return np.stack(_rates_bits(gevd), axis=-1)


def orthogonality_defect(sol: SdpcSolution) -> float:
    """Normalized coupling between the two eigenvector blocks.

    ||C1^H C2||_F / (||C1||_F ||C2||_F); zero exactly when linear precoding
    achieves the corner, and zero by convention for degenerate splits.
    """
    c1 = sol.gevd.upper_vecs
    c2 = sol.gevd.lower_vecs
    if c1.shape[1] == 0 or c2.shape[1] == 0:
        return 0.0
    num = np.linalg.norm(c1.conj().T @ c2)
    den = np.linalg.norm(c1) * np.linalg.norm(c2)
    return float(num / den)


@dataclass
class RankBoundReport:
    """Eigenvalue-count bounds tying the pencil split to the channel difference.

    The split ``b`` can never exceed the number of positive eigenvalues of
    H^H H - G^H G, and symmetrically the count of pencil eigenvalues below one
    can never exceed the number of negative ones.
    """

    b: int
    m: int
    holds: bool
    below_one: int
    m_negative: int
    lower_holds: bool


def rank_bound_check(ch: Channel, sol: SdpcSolution) -> RankBoundReport:
    """Verify both eigenvalue-count bounds for a solved instance."""
    diff = herm(ch.gram_h() - ch.gram_g())
    w, _ = herm_eig(diff)
    scale = np.abs(w).max() if w.size else 0.0
    m = int(np.count_nonzero(w > RANK_TOL * scale))
    m_neg = int(np.count_nonzero(w < -RANK_TOL * scale))
    lam = sol.gevd.eigvals
    if lam.size:
        eps = 1e-9 * (1.0 + lam[0])
        below = int(np.count_nonzero(lam < 1.0 - eps))
    else:
        below = 0
    return RankBoundReport(
        b=sol.gevd.b, m=m, holds=sol.gevd.b <= m,
        below_one=below, m_negative=m_neg, lower_holds=below <= m_neg,
    )
