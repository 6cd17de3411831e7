"""Dense Hermitian linear algebra kernels.

Everything downstream (corner points, precoders, power allocation) reduces to
a handful of primitives on small complex matrices: the eigendecomposition,
range and rank of a Hermitian PSD matrix, PSD square roots, a definite generalized
eigendecomposition, checked projectors, and log-determinants.
They are collected here with explicit tolerance contracts.

Conventions
-----------
* Eigenvalues are always returned in descending order; ties keep the
  ascending-solver index order, so results are deterministic.
* Tolerances are relative to the matrix scale unless stated otherwise.
* Checked kernels take one matrix; only ``_reduced_eigh`` (with its
  ``_tri_inv``) takes (k, n, n) stacks.
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
# Largest Gram condition projector() accepts.  A definite pencil's eigenvector
# blocks skip it: independent by construction, their scale is set by C^H B C = I.
COND_LIMIT = 1e12

LN2 = float(np.log(2.0))


def ctrans(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, so of every matrix of a stack."""
    return a.swapaxes(-1, -2).conj()


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2, of one matrix or of every matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2).conj())


def _check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Hermitian part of a finite square matrix, checked against its own
    scale.  An exactly Hermitian input is its own Hermitian part and comes
    back as is, without a copy."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be a square matrix, got shape {a.shape}")
    scale = 1.0 + np.abs(a).max(initial=0.0)
    # A NaN or inf entry makes the scale non-finite.  Huge finite entries can
    # overflow it too, so only a full scan decides.
    if not scale < np.inf and not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.abs(a - ctrans(a)).max(initial=0.0)
    if dev > HERM_TOL * scale:
        raise NonHermitianError(
            f"{name} deviates from Hermitian symmetry by {dev:.3e} "
            f"(tolerance {HERM_TOL * scale:.3e})"
        )
    return herm(a) if dev > 0.0 else a


def _lapack(func: str, a: np.ndarray, name: str, **kwargs) -> tuple:
    """``np.linalg.<func>(a, **kwargs)``, looked up at call time; a LAPACK
    failure becomes NoConvergenceError naming ``name``."""
    try:
        return getattr(np.linalg, func)(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{func} failed on {name}: {exc}") from exc


def _descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from ``eigh`` reordered by descending eigenvalue; ties keep
    the ascending-solver order.  The eigenvectors come back in C order:
    products with a factor built from them then round as products with the
    C-ordered factors of a stacked solve."""
    order = np.argsort(-w, kind="stable")
    return w[order], np.take_along_axis(v, order[None, :], -1)


def psd_range(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, int]:
    """Eigendecomposition and numerical rank of a Hermitian PSD matrix.

    Returns ``(w, v, rank)``: eigenvalues descending, a unitary matrix of
    their eigenvectors, and the count above ``RANK_TOL`` times the spectral
    norm, so ``v[:, :rank]`` is an orthonormal basis of range(A).  ``a`` must
    be square, finite and Hermitian within ``HERM_TOL``.  An eigenvalue below
    ``-PSD_TOL`` times the spectral norm raises NotPositiveSemidefiniteError;
    smaller negatives are rounding noise.  Errors name ``a`` ``name``.
    """
    w, v = _descending(*_lapack("eigh", _check_hermitian(a, name), name))
    scale = np.abs(w).max(initial=0.0)
    low = w.min(initial=0.0)
    if low < -PSD_TOL * scale:
        raise NotPositiveSemidefiniteError(
            f"{name} has eigenvalue {low:.3e} below -{PSD_TOL:.0e} * {scale:.3e}"
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
    congruence: with the Cholesky factor B = L L^H, the eigenvectors Phi of
    L^{-1} A L^{-H} give C = L^{-H} Phi, which satisfies C^H A C = diag(lambda)
    and C^H B C = I.  One Cholesky factorization and one ``eigh``, by the
    stacked core ``_reduced_eigh`` on a stack of one, as for a stacked solve.
    Where an eigenvalue falls to ``RANK_TOL`` times the largest, that
    ``eigh`` is replaced by one Cholesky factorization of A and one SVD.

    Parameters
    ----------
    a, b : ndarray
        Hermitian positive definite matrices of equal size.  A failed
        Cholesky factorization of B, or of A where it is taken, raises
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
    chol_inv, w, phi, split = _reduced_eigh(a[None], b[None])
    eigvals, phi = _descending(w[0], phi[0])
    return GevdResult(ctrans(chol_inv[0]) @ phi, eigvals, int(split[0]))


def _reduced_eigh(a: np.ndarray, b: np.ndarray) -> tuple:
    """The stacked core of ``gevd_definite``: (L^{-1}, w ascending, Phi, b) of (k, n, n) stacks."""
    chol_inv = _tri_inv(_cholesky(b, "pencil component B"))
    # eigh reads one triangle only, so the product needs no symmetrizing.
    w, phi = _lapack("eigh", chol_inv @ a @ ctrans(chol_inv), "reduced pencil")
    # eigh rounds every eigenvalue by about eps lambda_max, which swamps one
    # at or below RANK_TOL lambda_max.  There the SVD of M = L^{-1} L_A, with
    # A = L_A L_A^H, gives lambda = sigma^2 to about eps sigma_max / sigma,
    # and M M^H = L^{-1} A L^{-H} keeps Phi = U.
    spread = np.min(w, axis=-1, initial=np.inf) <= RANK_TOL * np.max(w, axis=-1, initial=0.0)
    if spread.any():
        chol_a = _cholesky(a[spread], "pencil component A")
        u, sigma, _ = _lapack("svd", chol_inv[spread] @ chol_a, "reduced pencil")
        w[spread], phi[spread] = sigma[:, ::-1] ** 2, u[..., ::-1]
    return chol_inv, w, phi, np.count_nonzero(w > 1.0 + _split_tie(w[:, -1:]), axis=-1)


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L, or of each of a stack, by halves: the
    inverses of L's diagonal blocks, and -L22^{-1} L21 L11^{-1} below them
    (Du Croz and Higham, IMA J. Numer. Anal., 1992).  Order 16 or less takes
    ``np.linalg.inv``."""
    n = low.shape[-1]
    if n <= 16:
        return np.linalg.inv(low)
    h = n // 2
    inv = np.zeros_like(low)
    inv[..., :h, :h] = _tri_inv(low[..., :h, :h])
    inv[..., h:, h:] = _tri_inv(low[..., h:, h:])
    inv[..., h:, :h] = -(inv[..., h:, h:] @ low[..., h:, :h]) @ inv[..., :h, :h]
    return inv


def _cholesky(a: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of ``a``, or of each matrix of a stack; a failure is
    NotPositiveDefiniteError naming ``name``."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite: {exc}") from exc


def _split_tie(lam_max: np.ndarray | float) -> np.ndarray | float:
    """Half-width 1e-9 (1 + lambda_max) of the band around one whose pencil
    eigenvalues count as ties: neither in the split ``b`` nor below one."""
    return 1e-9 * (1.0 + lam_max)


def projector(c: np.ndarray) -> np.ndarray:
    """Orthogonal projector Q Q^H onto the column span of ``c`` (n x k), with
    Q from a reduced Householder QR.

    ``c`` must have full column rank: the Gram matrix condition number, read
    off the singular values of the k x k factor R, must stay below
    ``COND_LIMIT``.  An empty block projects onto nothing.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix of columns, got shape {c.shape}")
    k = c.shape[1]
    q, r = np.linalg.qr(c)
    if k:
        # C = Q R with Q orthonormal, so cond(C^H C) = (s_max / s_min)^2 of R.
        s = np.linalg.svd(r[:k], compute_uv=False)
        if s.size < k or s[-1] <= 0.0 or (s[0] / s[-1]) ** 2 >= COND_LIMIT:
            raise RankDeficientError(
                f"columns are numerically dependent (Gram condition >= {COND_LIMIT:.0e})"
            )
    return herm(q @ ctrans(q))


def _fix_phase(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Rotate each vector along ``axis`` (the last axis, or -2 for the columns
    of a matrix) so its largest-magnitude entry is real positive."""
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=axis, keepdims=True), axis)
    return v * (piv.conj() / np.abs(piv))


def _chol_logs(a: np.ndarray) -> np.ndarray:
    """2 ln diag(L) for the Cholesky factor L of a Hermitian positive definite
    matrix; only the lower triangle is read.

    Their sum is ln det A.  The leading block of L is the factor of A's
    leading block, so the sum of the first k is the log-determinant of A's
    leading k x k block.
    """
    chol = _cholesky(a, "matrix")
    return 2.0 * np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1)))


def logdet(a: np.ndarray) -> float:
    """Natural-log determinant of a Hermitian positive definite matrix."""
    return float(np.sum(_chol_logs(_check_hermitian(a))))


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
