"""Dense Hermitian linear algebra kernels.

Everything downstream (corner points, precoders, power allocation) reduces to
a handful of primitives on small complex matrices: Hermitian eigendecomposition,
the range and rank of a PSD matrix, PSD square roots, a definite generalized
eigendecomposition, orthogonal projectors, and log-determinants.  They are
collected here with explicit tolerance contracts so the rest of the package
never touches raw LAPACK calls.

Conventions
-----------
* Eigenvalues are always returned in descending order; ties keep the
  ascending-solver index order, so results are deterministic.
* Tolerances are relative to the matrix scale unless stated otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonHermitianError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    RankDeficientError,
)

# Relative tolerances shared across the package.
HERM_TOL = 1e-12     # Hermitian symmetry, scaled by 1 + max|entry|
PSD_TOL = 1e-10      # admissible negative eigenvalue, scaled by spectral norm
RANK_TOL = 1e-10     # eigenvalues below RANK_TOL * lambda_max count as zero
COND_LIMIT = 1e12    # largest Gram-matrix condition number projector() accepts

LN2 = float(np.log(2.0))


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2."""
    return 0.5 * (a + a.conj().T)


def _check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
    # A NaN or inf entry makes the scale non-finite.  Huge finite entries can
    # overflow it too, so only a full scan decides.
    if not math.isfinite(scale) and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERM_TOL * scale:
        raise NonHermitianError(
            f"{name} deviates from Hermitian symmetry by {dev:.3e} "
            f"(tolerance {HERM_TOL * scale:.3e})"
        )
    return herm(a)


def _eigh(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` (eigenvalues ascending); a LAPACK failure becomes
    NoConvergenceError naming ``name``."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh failed on {name}: {exc}") from exc


def herm_eig(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Parameters
    ----------
    a : ndarray
        Square finite matrix, Hermitian within ``HERM_TOL`` relative tolerance.
    name : str
        How error messages refer to ``a``.

    Returns
    -------
    w : ndarray
        Real eigenvalues sorted in descending order.
    v : ndarray
        Unitary matrix whose columns are the matching eigenvectors.
    """
    w, v = _eigh(_check_hermitian(a, name), name)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def psd_range(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, int]:
    """Eigendecomposition and numerical rank of a Hermitian PSD matrix.

    Returns ``(w, v, rank)``: eigenvalues descending and their eigenvectors,
    as from ``herm_eig``, and the count of eigenvalues above ``RANK_TOL``
    times the spectral norm, so ``v[:, :rank]`` is an orthonormal basis of
    range(A).  An eigenvalue below ``-PSD_TOL`` times the spectral norm
    raises NotPositiveSemidefiniteError naming ``name``; smaller negatives
    are rounding noise.
    """
    w, v = herm_eig(a, name)
    scale = np.abs(w).max() if w.size else 0.0
    if w.size and w.min() < -PSD_TOL * scale:
        raise NotPositiveSemidefiniteError(
            f"{name} has eigenvalue {w.min():.3e} below -{PSD_TOL:.0e} * {scale:.3e}"
        )
    return w, v, int(np.count_nonzero(w > RANK_TOL * scale))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root, flooring eigenvalues at zero.

    Negative eigenvalues within the ``psd_range`` tolerance are rounding
    noise.  Every eigenvalue enters, not only those above the rank tolerance.
    """
    w, v, _ = psd_range(a)
    w = np.clip(w, 0.0, None)
    return herm((v * np.sqrt(w)) @ v.conj().T)


@dataclass
class GevdResult:
    """Definite generalized eigendecomposition C^H A C = diag(eigvals), C^H B C = I.

    ``b`` counts eigenvalues exceeding one (with a relative tie tolerance);
    the leading ``b`` columns of ``eigvecs`` span the block where A dominates B.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    b: int

    @property
    def upper_vecs(self) -> np.ndarray:
        """Columns with eigenvalue above one."""
        return self.eigvecs[:, : self.b]

    @property
    def lower_vecs(self) -> np.ndarray:
        """Columns with eigenvalue at most one."""
        return self.eigvecs[:, self.b:]


def gevd_definite(a: np.ndarray, b: np.ndarray) -> GevdResult:
    """Generalized eigendecomposition of a Hermitian positive definite pencil.

    Solves A c = lambda B c for Hermitian positive definite A and B by
    congruence: with W = B^{-1/2}, the eigenvectors Phi of W A W give
    C = W Phi, which satisfies C^H A C = diag(lambda) and C^H B C = I.

    Parameters
    ----------
    a, b : ndarray
        Hermitian positive definite matrices of equal size.  An eigenvalue at
        or below ``RANK_TOL`` times the largest counts as zero.

    Returns
    -------
    GevdResult
        Eigenvalues descending (all positive), eigenvector matrix C, and the
        split index ``b`` = number of eigenvalues above 1 + 1e-9 * (1 + lambda_1).
    """
    a = _check_hermitian(a, "pencil component A")
    b = _check_hermitian(b, "pencil component B")
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"pencil components differ in shape: {a.shape} vs {b.shape}"
        )
    wb, vb = _eigh(b, "pencil component B")
    if wb.size == 0:
        return GevdResult(np.zeros((0, 0), dtype=complex), np.zeros(0), 0)
    if wb.min() <= RANK_TOL * max(wb.max(), 0.0):
        raise NotPositiveDefiniteError(
            f"pencil component B has eigenvalue {wb.min():.3e}, not positive definite"
        )
    w_inv_half = (vb / np.sqrt(wb)) @ vb.conj().T
    m = herm(w_inv_half @ a @ w_inv_half)
    wm, vm = _eigh(m, "reduced pencil")
    if wm.min() <= RANK_TOL * max(wm.max(), 0.0):
        raise NotPositiveDefiniteError(
            f"pencil component A has eigenvalue {wm.min():.3e} along the pencil, "
            "not positive definite"
        )
    order = np.argsort(-wm, kind="stable")
    eigvals = wm[order]
    eigvecs = w_inv_half @ vm[:, order]
    eps = 1e-9 * (1.0 + eigvals[0])
    split = int(np.count_nonzero(eigvals > 1.0 + eps))
    return GevdResult(eigvecs, eigvals, split)


def projector(c: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span of ``c``.

    ``c`` must have full column rank: the Gram matrix condition number must
    stay below ``COND_LIMIT``.  An empty block projects onto nothing.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix of columns, got shape {c.shape}")
    n, k = c.shape
    if k == 0:
        return np.zeros((n, n), dtype=complex)
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    # cond(C^H C) = (s_max / s_min)^2
    if s[-1] <= 0.0 or (s[0] / s[-1]) ** 2 >= COND_LIMIT:
        raise RankDeficientError(
            f"columns are numerically dependent (Gram condition >= {COND_LIMIT:.0e})"
        )
    return herm(u @ u.conj().T)


def logdet(a: np.ndarray) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix."""
    a = _check_hermitian(a)
    if a.size == 0:
        return 0.0
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky failed, matrix not PD: {exc}") from exc
    return float(2.0 * np.sum(np.log(np.real(np.diag(chol)))))


def rate_logdet(h: np.ndarray, k: np.ndarray) -> float:
    """ln det(I + H K H^H) for a PSD input covariance ``k``, in nats.

    Evaluated on the receive side so the argument stays Hermitian positive
    definite even when ``k`` is singular.
    """
    h = np.asarray(h, dtype=complex)
    m = h.shape[0]
    return logdet(np.eye(m) + herm(h @ k @ h.conj().T))


def clamp_rate(x: float) -> float:
    """A rate floored at zero; NaN stays NaN instead of passing for a zero rate.

    ``np.maximum`` returns its second argument on a tie, so -0.0 comes out
    as 0.0.
    """
    return float(np.maximum(x, 0.0))
