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


def ctrans(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, so of every matrix of a stack."""
    return a.swapaxes(-1, -2).conj()


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2, of one matrix or of every matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2).conj())


def _any(mask: np.ndarray) -> bool:
    """Whether any entry of a boolean array is true; a numpy bool scalar
    (from a single matrix) skips the reduction."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _count(mask: np.ndarray) -> int | np.ndarray:
    """True entries along the last axis; a plain int for a single vector."""
    return np.count_nonzero(mask, axis=-1) if mask.ndim > 1 else int(np.count_nonzero(mask))


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The entry of ``values`` at the first true entry of ``bad`` (same shape)."""
    return float(values[bad].flat[0])


def _check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Hermitian part of a finite square matrix or ``(..., n, n)`` stack,
    each matrix checked against its own scale.  An exactly Hermitian input is
    its own Hermitian part and comes back as is, without a copy."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    scale = 1.0 + np.abs(a).max(axis=(-2, -1), initial=0.0)
    # A NaN or inf entry makes the scale non-finite.  Huge finite entries can
    # overflow it too, so only a full scan decides.
    if _any(~(scale < np.inf)) and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.abs(a - ctrans(a)).max(axis=(-2, -1), initial=0.0)
    bad = dev > HERM_TOL * scale
    if _any(bad):
        raise NonHermitianError(
            f"{name} deviates from Hermitian symmetry by {_first(dev, bad):.3e} "
            f"(tolerance {HERM_TOL * _first(scale, bad):.3e})"
        )
    return herm(a) if _any(dev > 0.0) else a


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
        Square finite matrix, Hermitian within ``HERM_TOL`` relative tolerance,
        or a ``(..., n, n)`` stack of them.
    name : str
        How error messages refer to ``a``.

    Returns
    -------
    w : ndarray
        Real eigenvalues sorted in descending order (along the last axis).
    v : ndarray
        Unitary matrix whose columns are the matching eigenvectors (one per
        stack item).
    """
    w, v = _eigh(_check_hermitian(a, name), name)
    return _descending(w, v)


def _descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from ``eigh`` reordered by descending eigenvalue; ties keep
    the ascending-solver order.  Works on stacks."""
    order = np.argsort(-w, axis=-1, kind="stable")
    if w.ndim == 1:
        return w[order], v[:, order]
    return np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)


def psd_range(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Eigendecomposition and numerical rank of a Hermitian PSD matrix.

    Returns ``(w, v, rank)``: eigenvalues descending and their eigenvectors,
    as from ``herm_eig``, and the count of eigenvalues above ``RANK_TOL``
    times the spectral norm, so ``v[:, :rank]`` is an orthonormal basis of
    range(A).  An eigenvalue below ``-PSD_TOL`` times the spectral norm
    raises NotPositiveSemidefiniteError naming ``name``; smaller negatives
    are rounding noise.  A ``(..., n, n)`` stack is decomposed in one call,
    each matrix against its own spectral norm, and ``rank`` is then an
    integer array of the stack's shape.
    """
    w, v = herm_eig(a, name)
    scale = np.abs(w).max(axis=-1, initial=0.0)
    low = w.min(axis=-1, initial=0.0)
    bad = low < -PSD_TOL * scale
    if _any(bad):
        raise NotPositiveSemidefiniteError(
            f"{name} has eigenvalue {_first(low, bad):.3e} below "
            f"-{PSD_TOL:.0e} * {_first(scale, bad):.3e}"
        )
    return w, v, _count(w > RANK_TOL * scale[..., None])


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
    For a stack of pencils every field gains the stack's leading axes and
    ``b`` is an integer array; the block properties need a single pencil.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    b: int | np.ndarray

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
    congruence: with the Cholesky factor B = L L^H, the eigenvectors Phi of
    L^{-1} A L^{-H} give C = L^{-H} Phi, which satisfies C^H A C = diag(lambda)
    and C^H B C = I.  One Cholesky factorization and one ``eigh`` per pencil.

    Parameters
    ----------
    a, b : ndarray
        Hermitian positive definite matrices of equal size, or equal-shape
        ``(..., n, n)`` stacks of them, solved in one batch.  A failed
        Cholesky factorization of B, or an eigenvalue of A along the pencil
        at or below ``RANK_TOL`` times the largest, raises
        NotPositiveDefiniteError.

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
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(b))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"pencil component B is not positive definite: {exc}"
        ) from exc
    # eigh reads one triangle only, so the product needs no symmetrizing.
    wm, vm = _eigh(chol_inv @ a @ ctrans(chol_inv), "reduced pencil")
    low = wm.min(axis=-1, initial=np.inf)
    bad = low <= RANK_TOL * wm.max(axis=-1, initial=0.0)
    if _any(bad):
        raise NotPositiveDefiniteError(
            f"pencil component A has eigenvalue {_first(low, bad):.3e} along the pencil, "
            "not positive definite"
        )
    eigvals, vm = _descending(wm, vm)
    eps = 1e-9 * (1.0 + eigvals[..., :1])
    return GevdResult(ctrans(chol_inv) @ vm, eigvals, _count(eigvals > 1.0 + eps))


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


def clamp_rate(x: float | np.ndarray) -> float | np.ndarray:
    """Rates floored at zero, elementwise; NaN stays NaN instead of passing for a zero rate.

    ``np.maximum`` returns its second argument on a tie, so -0.0 comes out
    as 0.0.
    """
    return np.maximum(x, 0.0)
