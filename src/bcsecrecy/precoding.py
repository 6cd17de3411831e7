"""Linear precoder construction and rate evaluation.

When the two eigenvector blocks of the corner-point pencil are orthogonal,
splitting the transmit covariance as (K, S - K) with independent Gaussian
codebooks reaches the corner exactly.  When they are not, projecting the
constraint onto the second block and its complement still works, at a price
no larger than ln det(I + N^H N) per user, for N = -(C2^H C2)^{-1} C2^H C1
the least-squares fit of C1 on span C2 (the projector form of N reduces to it
since P1c C1 = 0 and C2^H P2c = 0); that guaranteed rate is met with equality
whenever it is positive.

The loss-bounded pair is never formed: forming its covariances and the
projectors behind them costs several n_t^3 products each, and N and the exact
rates need only one complete QR basis of the second block.  That block is
read in the coordinates of the corner's factor F of S, where the layered
rates and det(I + N^H N) are the same as in the transmit space; the exact
rates read that basis against the corner's own pencil.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthogonalError
from .linalg import LN2, _chol_logs, clamp_rate, ctrans, herm, rate_logdet
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


def _layered(h_total: float, h_k2: float, g_total: float, g_k1: float) -> CornerPoint:
    """Layered-encoding secrecy rates in bits from the four log-determinants
    ln det(I + X K X^H), in nats, of receiver X in {H, G} and covariance K in
    {K1 + K2, K2} for H and {K1 + K2, K1} for G."""
    r1 = h_total - h_k2 - g_k1
    r2 = g_total - g_k1 - h_k2
    return CornerPoint(clamp_rate(r1) / LN2, clamp_rate(r2) / LN2, provenance="linear")


def rate_evaluate(ch: Channel, pair: LinearPrecoderPair) -> CornerPoint:
    """Secrecy rates of a linear pair under layered encoding, in bits.

    User 2 is encoded first; user 1 is encoded against user 2's interference,
    so user 1 sees a clean leakage term and user 2 a clean interference-free
    term at the opposite receiver.  Rates are clamped at zero.
    """
    total = pair.total
    return _layered(rate_logdet(ch.H, total), rate_logdet(ch.H, pair.cov_v2),
                    rate_logdet(ch.G, total), rate_logdet(ch.G, pair.cov_v1))


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


def _coupling(c: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Complete QR basis Q = [Q2 | Q2c] of the second block C2 = Q2 R2 of the
    eigenvectors ``c``, split after column ``b``, and the least-squares
    coupling N = -R2^{-1} Q2^H C1 of the first block on it."""
    k = c.shape[1] - b
    q, r = np.linalg.qr(c[:, b:], mode="complete")
    return q, -np.linalg.solve(r[:k], ctrans(q[:, :k]) @ c[:, :b])


@dataclass
class LossReport:
    """Loss-bounded linear scheme built from the second eigenvector block.

    Both users give up at most ``loss_bits`` = log2 det(I + N^H N) relative
    to the corner.  ``exact`` holds the actually achieved rates of the
    constructed pair, ``guaranteed`` the lower bound max(0, corner - loss).
    """

    loss_bits: float
    guaranteed: CornerPoint
    exact: CornerPoint


def loss_bounded_precoders(sol: SdpcSolution) -> LossReport:
    """Linear precoders with a certified distance from the corner point.

    The covariances are K1 = S^{1/2} P2c S^{1/2} and K2 = S^{1/2} P2 S^{1/2},
    with P2 the projector onto the second eigenvector block C2 and P2c its
    complement, and the coupling is N = (C2^H P1c C2)^{-1} C2^H P1c P2c C1.
    Neither projector nor covariance is formed: everything comes from the
    complete QR basis Q = [Q2 | Q2c] of C2 = Q2 R2 in the coordinates of the
    factor F = S^{1/2} U of the solution, where C2 is U^H times the transmit
    block up to column phases.

    * C2^H P2c = 0 makes P2c C1 = C1 + C2 N the residual of the least-squares
      fit N = -(C2^H C2)^{-1} C2^H C1 = -R2^{-1} Q2^H C1, and P1c C1 = 0
      leaves C2^H P1c P2c C1 = C2^H P1c C2 N.
    * The channel is not read: I + (X F Q)^H (X F Q) is Q^H A Q for X = H
      and Q^H B Q for X = G, with (A, B) the corner's pencil.  So the four
      layered terms are ln det A, ln det(Q2^H A Q2), ln det B =
      -2 sum ln |diag L^{-1}| for the solve's B = L L^H, and
      ln det(Q2c^H B Q2c); every matrix factored has eigenvalues >= 1.

    Degenerate splits (b = 0 or b = rank) take the same path: N is empty and
    the pair is the corner's (K*, S - K*).
    """
    gevd = sol.gevd
    k = sol.rank - gevd.b
    q, n_mat = _coupling(gevd.factor_vecs, gevd.b)
    loss_bits = float(np.sum(_chol_logs(np.eye(gevd.b) + herm(ctrans(n_mat) @ n_mat)))) / LN2
    guaranteed = CornerPoint(
        clamp_rate(sol.corner.R1 - loss_bits),
        clamp_rate(sol.corner.R2 - loss_bits),
        provenance="linear-guaranteed",
    )

    (a, b), q2, q2c = gevd.pencil, q[:, :k], q[:, k:]
    ln_det_b = -2.0 * np.sum(np.log(np.abs(np.diagonal(gevd.chol_inv))))
    exact = _layered(np.sum(_chol_logs(a)), np.sum(_chol_logs(ctrans(q2) @ a @ q2)),
                     ln_det_b, np.sum(_chol_logs(ctrans(q2c) @ b @ q2c)))
    return LossReport(loss_bits, guaranteed, exact)
