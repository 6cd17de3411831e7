"""Linear precoder construction and rate evaluation.

When the two eigenvector blocks of the corner-point pencil are orthogonal,
splitting the transmit covariance as (K, S - K) with independent Gaussian
codebooks reaches the corner exactly.  When they are not, projecting the
constraint onto the second block and its complement still works, at a price
no larger than ln det(I + N^H N) per user for an explicit coupling matrix N;
that guaranteed rate is met with equality whenever it is positive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthogonalError
from .linalg import LN2, clamp_rate, herm, logdet, projector, rate_logdet
from .sdpc import Channel, CornerPoint, SdpcSolution, orthogonality_defect

# Largest block coupling accepted for the exact factorization.
ORTHOGONALITY_TOL = 1e-6


@dataclass
class LinearPrecoderPair:
    """Per-user transmit covariances of a two-codebook linear scheme."""

    cov_v1: np.ndarray
    cov_v2: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return herm(self.cov_v1 + self.cov_v2)


def rate_evaluate(ch: Channel, pair: LinearPrecoderPair) -> CornerPoint:
    """Secrecy rates of a linear pair under layered encoding, in bits.

    User 2 is encoded first; user 1 is encoded against user 2's interference,
    so user 1 sees a clean leakage term and user 2 a clean interference-free
    term at the opposite receiver.  Rates are clamped at zero.
    """
    k1, k2 = pair.cov_v1, pair.cov_v2
    total = pair.total
    r1 = rate_logdet(ch.H, total) - rate_logdet(ch.H, k2) - rate_logdet(ch.G, k1)
    r2 = rate_logdet(ch.G, total) - rate_logdet(ch.G, k1) - rate_logdet(ch.H, k2)
    return CornerPoint(clamp_rate(r1) / LN2, clamp_rate(r2) / LN2, provenance="linear")


def optimal_precoders(sol: SdpcSolution) -> LinearPrecoderPair:
    """Exact covariance split (K, S - K) for an orthogonal-block solution.

    Raises
    ------
    NotOrthogonalError
        If the block coupling exceeds ``ORTHOGONALITY_TOL``; use
        :func:`loss_bounded_precoders` in that case.
    """
    defect = orthogonality_defect(sol)
    if defect > ORTHOGONALITY_TOL:
        raise NotOrthogonalError(
            f"eigenvector blocks couple with defect {defect:.3e} "
            f"(limit {ORTHOGONALITY_TOL:.0e}); the exact split does not apply"
        )
    return LinearPrecoderPair(sol.kt_star, herm(sol.s - sol.kt_star))


@dataclass
class LossReport:
    """Loss-bounded linear scheme built from the second eigenvector block.

    ``n_mat`` measures the coupling between the blocks; both users give up at
    most ``loss_bits`` relative to the corner.  ``exact`` holds the actually
    achieved rates of the constructed pair, ``guaranteed`` the lower bound
    max(0, corner - loss).
    """

    n_mat: np.ndarray
    loss_bits: float
    guaranteed: CornerPoint
    exact: CornerPoint


def loss_bounded_precoders(sol: SdpcSolution) -> LossReport:
    """Linear precoders with a certified distance from the corner point.

    The covariances are S^{1/2} P2c S^{1/2} and S^{1/2} P2 S^{1/2}, with P2
    the projector onto the second eigenvector block and P2c its complement.
    Degenerate splits (b = 0 or b = n) have nothing to couple: the corner
    itself is returned with zero loss.
    """
    gevd = sol.gevd
    n = gevd.eigvals.size
    b = gevd.b
    ch = sol.channel

    if b == 0 or b == n:
        pair = LinearPrecoderPair(sol.kt_star, herm(sol.s - sol.kt_star))
        exact = rate_evaluate(ch, pair)
        guaranteed = CornerPoint(
            sol.corner.R1, sol.corner.R2, provenance="linear-guaranteed"
        )
        return LossReport(np.zeros((n - b, b), dtype=complex), 0.0, guaranteed, exact)

    c1 = gevd.upper_vecs
    c2 = gevd.lower_vecs
    p1c = np.eye(ch.n_t) - projector(c1)
    p2 = projector(c2)
    p2c = np.eye(ch.n_t) - p2

    gram = herm(c2.conj().T @ p1c @ c2)
    n_mat = np.linalg.solve(gram, c2.conj().T @ p1c @ p2c @ c1)
    loss_nats = logdet(np.eye(b) + herm(n_mat.conj().T @ n_mat))

    r1_nats, r2_nats = (sol.corner.R1 * LN2, sol.corner.R2 * LN2)
    guaranteed = CornerPoint(
        clamp_rate(r1_nats - loss_nats) / LN2,
        clamp_rate(r2_nats - loss_nats) / LN2,
        provenance="linear-guaranteed",
    )

    s_sqrt = sol.s_sqrt
    pair = LinearPrecoderPair(
        herm(s_sqrt @ p2c @ s_sqrt), herm(s_sqrt @ p2 @ s_sqrt)
    )
    exact = rate_evaluate(ch, pair)
    return LossReport(n_mat, loss_nats / LN2, guaranteed, exact)
