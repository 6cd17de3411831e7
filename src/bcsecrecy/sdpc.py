"""Corner points of the secrecy capacity region under a matrix power constraint.

For a two-user Gaussian MIMO broadcast channel (receivers H and G, transmit
covariance capped by a PSD matrix S) the region is a rectangle, so it is fully
described by one corner.  The corner falls out of the definite pencil

    (S^{1/2} H^H H S^{1/2} + I,  S^{1/2} G^H G S^{1/2} + I):

with generalized eigenvalues lambda_1 >= ... >= lambda_n and b of them above
one, user 1's rate is sum(ln lambda_i, i <= b) and user 2's is
-sum(ln lambda_i, i > b).  The optimal input covariance for user 1 is
K = S^{1/2} P S^{1/2} with P the projector onto the leading eigenvector block.

Every solve uses a factor F of S = F F^H (n_t x rank(S)) in place of
S^{1/2}, and any factor gives the same corner: F = S^{1/2} U for the isometry
U = F (F^H F)^{-1/2}, so (F^H H^H H F + I, F^H G^H G F + I) is U^H times the
pencil of S^{1/2} times U.  It has the eigenvalues above less the
n_t - rank(S) that equal one and change neither b nor the rates, and when C
diagonalizes it, U C diagonalizes the pencil of S^{1/2}.  A constraint that
``_certified`` proves full-rank takes its Cholesky factor; any other takes
F = V diag(sqrt(w)) of S = V diag(w) V^H, cut to the rank of S and never
regularized, and then U = V.  Only S^{1/2} and the transmit-space
eigenvectors need U, so they are formed on first read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    LN2,
    RANK_TOL,
    GevdResult,
    _check_hermitian,
    _fix_phase,
    _reduced_eigh,
    clamp_rate,
    ctrans,
    gevd_definite,
    herm,
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


class _CornerGevd(GevdResult):
    """``GevdResult`` of the pencil of a factor F (``factor``) of the constraint,
    whose eigenvectors are ``factor_vecs``; ``eigvecs`` = U ``factor_vecs``
    with pinned phases, formed on first read."""

    def __init__(self, gevd: GevdResult, factor: np.ndarray, basis: np.ndarray | None):
        self.factor_vecs, self.eigvals, self.b = gevd.eigvecs, gevd.eigvals, gevd.b
        self.factor, self._basis = factor, basis

    @cached_property
    def isometry(self) -> np.ndarray:
        """U with F = S^{1/2} U: the range basis V when F = V diag(sqrt(w)),
        else the polar factor of F, from one SVD."""
        if self._basis is not None:
            return self._basis
        u, _, zh = np.linalg.svd(self.factor, full_matrices=False)
        return u @ zh

    @cached_property
    def eigvecs(self) -> np.ndarray:
        return _fix_phase(self.isometry @ self.factor_vecs, axis=-2)


@dataclass
class SdpcSolution:
    """Corner-point solution for one (channel, matrix constraint) pair.

    ``gevd`` holds one eigenpair per dimension of range(S).  Stored when
    solved: the factor F of S (``gevd.factor``, n_t x ``rank``), the
    eigenvectors of F's pencil (``gevd.factor_vecs``), ``gevd.eigvals``,
    ``gevd.b``, ``corner`` and ``rank``.  Formed on first read, then kept,
    and the same whichever factor was taken: ``s_sqrt`` = S^{1/2};
    ``kt_star``; and ``gevd.eigvecs``, n_t x ``rank``, whose columns
    diagonalize the pencil of ``s_sqrt`` as built by ``build_pencil``, each
    rotated so that its largest-magnitude entry is real positive, so they do
    not carry the eigensolver's arbitrary phases.
    """

    channel: Channel
    s: np.ndarray
    gevd: _CornerGevd
    corner: CornerPoint
    rank: int

    @property
    def s_reduced(self) -> bool:
        """Whether S was rank-deficient, so the pencil was solved on its range."""
        return self.rank < self.channel.n_t

    @cached_property
    def s_sqrt(self) -> np.ndarray:
        """S^{1/2} = F U^H."""
        return herm(self.gevd.factor @ ctrans(self.gevd.isometry))

    @cached_property
    def kt_star(self) -> np.ndarray:
        """K* = F P(C1) F^H = Y Y^H for Y = F Q1, Q1 an orthonormal basis of
        the leading block of ``factor_vecs``."""
        gevd = self.gevd
        y = gevd.factor
        if gevd.b < self.rank:
            y = y @ np.linalg.qr(gevd.factor_vecs[:, : gevd.b])[0]
        return herm(y @ ctrans(y))


def _sized_constraint(s: np.ndarray, n_t: int) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.shape != (n_t, n_t):
        raise DimensionMismatchError(
            f"constraint must be {n_t}x{n_t} to match the channel's transmit antennas, "
            f"got shape {s.shape}"
        )
    return s


def _pencil(f: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F^H H^H H F + I, F^H G^H G F + I) for a factor F of the constraint
    (n_t x r), or for a ``(k, n_t, r)`` stack of factors."""
    eye = np.eye(f.shape[-1])
    return tuple(herm(ctrans(xf) @ xf) + eye for xf in (h @ f, g @ f))


def _rates_bits(eigvals: np.ndarray, b: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner rates in bits from descending pencil eigenvalues: R1 = sum of
    ln lambda_i over the ``b`` leading ones, R2 = -sum over the rest, each
    floored at zero.  Works on the eigenvalues of a stack of pencils."""
    logs = np.log(eigvals)
    upper = np.arange(logs.shape[-1]) < np.expand_dims(b, -1)
    r1 = np.sum(logs, axis=-1, where=upper)
    r2 = -np.sum(logs, axis=-1, where=~upper)
    return clamp_rate(r1) / LN2, clamp_rate(r2) / LN2


def build_pencil(ch: Channel, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both components of the definite pencil for constraint ``s``.

    Returns (S^{1/2} H^H H S^{1/2} + I, S^{1/2} G^H G S^{1/2} + I); each is
    Hermitian with every eigenvalue >= 1, so the pencil is always definite.
    """
    return _pencil(psd_sqrt(_sized_constraint(s, ch.n_t)), ch.H, ch.G)


def _certified(s: np.ndarray) -> bool | np.ndarray:
    """Whether a Cholesky factorization of S - 2 RANK_TOL tr(S) I completes,
    for a Hermitian constraint or each of a ``(k, n, n)`` stack (a stack that
    fails is decided item by item).  It then proves every eigenvalue of S
    above RANK_TOL tr(S) >= RANK_TOL lambda_max, so S has full rank by
    ``psd_range``'s rule: the factor is exact for the shifted matrix plus a
    backward error of norm about (n + 1) eps tr(S) at most (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.5).
    """
    shift = 2.0 * RANK_TOL * np.trace(s, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(s - shift[..., None, None] * np.eye(s.shape[-1]))
    except np.linalg.LinAlgError:
        return np.array([_certified(x) for x in s], dtype=bool) if s.ndim > 2 else False
    return np.ones(s.shape[:-2], dtype=bool) if s.ndim > 2 else True


def solve_matrix_constraint(ch: Channel, s: np.ndarray) -> SdpcSolution:
    """Corner point and optimal covariance under the matrix constraint ``s``.

    ``s`` must be a Hermitian PSD matrix of the channel's transmit size.  The
    pencil is solved on range(S), through the factor the module docstring
    describes.  Both rates come out non-negative; ``b = 0`` or ``b = rank``
    collapse to (0, R2) and (R1, 0) corners with covariance 0 and S
    respectively.  A zero constraint gives an empty pencil, rates (0, 0) and
    covariance 0.
    """
    s = _check_hermitian(_sized_constraint(s, ch.n_t), "constraint")
    if _certified(s):
        f, basis = np.linalg.cholesky(s), None
    else:
        w, v, rank = psd_range(s, "constraint")
        basis = v[:, :rank]
        f = basis * np.sqrt(w[:rank])
    gevd = _CornerGevd(gevd_definite(*_pencil(f, ch.H, ch.G)), f, basis)
    r1, r2 = _rates_bits(gevd.eigvals, gevd.b)
    return SdpcSolution(ch, herm(s), gevd, CornerPoint(r1, r2, provenance="sdpc"), f.shape[1])


def _stacked_corners(ch: Channel, s: np.ndarray, candidates=None) -> np.ndarray:
    """Corner rates in bits, shape (k, 2), of a ``(k, n_t, n_t)`` stack of
    constraints, each item with the factor ``solve_matrix_constraint`` takes
    for it, so both give the same rates and raise on the same inputs.

    Only the ``candidates`` (a boolean mask, every item by default) go
    through the rank certificate, as one batch; the rest go through
    ``psd_range``.  A caller may leave out items of rank below n_t, as
    pt A A^H / tr(A A^H) for an A of fewer columns: forming S rounds its zero
    eigenvalues to about n_t eps tr(S), far below the 2 RANK_TOL tr(S) shift,
    so ``_certified`` fails on them alone too.  Each rank is one
    ``_reduced_eigh`` batch; ``_pencil`` makes the pencils exactly Hermitian.
    """
    s = np.asarray(s, dtype=complex)
    n = ch.n_t
    if s.ndim != 3 or s.shape[1:] != (n, n):
        raise DimensionMismatchError(f"constraints must form a (k, {n}, {n}) stack, got shape {s.shape}")
    s = _check_hermitian(s, "constraint")
    ok = np.ones(len(s), dtype=bool) if candidates is None else np.array(candidates, dtype=bool)
    ok[ok] = _certified(s[ok])
    # C order: with one receive antenna, H F rounds differently on a column-major F.
    f, rank = np.empty(s.shape, dtype=complex), np.full(len(s), n)
    f[ok] = np.linalg.cholesky(s[ok])
    w, v, rank[~ok] = psd_range(s[~ok], "constraint")
    # Range factors V diag(sqrt(w)); past the rank (cut below) w can be < 0.
    f[~ok] = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    rates = np.empty((len(s), 2))
    for r in set(rank.tolist()):
        at = rank == r
        pencil = _pencil(f[at, :, :r], ch.H, ch.G)
        for name, x in zip("AB", pencil):
            if not np.isfinite(x).all():
                raise ValueError(f"pencil component {name} has non-finite entries")
        _, lam, _, b = _reduced_eigh(*pencil)
        rates[at, 0], rates[at, 1] = _rates_bits(np.ascontiguousarray(lam[:, ::-1]), b)
    return rates


def orthogonality_defect(sol: SdpcSolution) -> float:
    """Normalized coupling between the two eigenvector blocks.

    ||C1^H C2||_F / (||C1||_F ||C2||_F); zero exactly when linear precoding
    achieves the corner, and zero by convention for degenerate splits.  The
    blocks are read in F's coordinates, which leave the ratio unchanged.
    """
    c, b = sol.gevd.factor_vecs, sol.gevd.b
    c1, c2 = c[:, :b], c[:, b:]
    if c1.shape[1] == 0 or c2.shape[1] == 0:
        return 0.0
    num = np.linalg.norm(c1.conj().T @ c2)
    den = np.linalg.norm(c1) * np.linalg.norm(c2)
    return float(num / den)
