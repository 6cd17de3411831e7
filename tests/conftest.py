"""Shared fixtures: the worked 2x2 channel pair and random-instance helpers."""

import numpy as np
import pytest

from bcsecrecy import Channel, baseline, solve_matrix_constraint
from bcsecrecy.linalg import ctrans, herm
from bcsecrecy.sdpc import _stacked_corners

FIG_H = np.array([[0.3, 2.5], [2.2, 1.8]], dtype=complex)
FIG_G = np.array([[1.3, 1.2], [1.5, 3.9]], dtype=complex)
FIG_PT = 12.0

# Under S = I the pencil (I + H^H H, I + G^H G) has eigenvalues
# (1.21, 1.105, 0.625).  Its two leading eigenvectors are orthogonal, but
# C^H B C = I scales them to norms of about 1e-7 and 0.71, so their Gram
# matrix has condition about 5e13, past linalg.COND_LIMIT.
SCALED_H = np.diag([1.1e7, 1.1, 0.5]).astype(complex)
SCALED_G = np.diag([1e7, 1.0, 1.0]).astype(complex)


# (n_t, rank) of the constraints whose transmit-space fields are checked.
LAZY_GRID = ((2, 2), (3, 1), (5, 5), (6, 3), (9, 7), (32, 32), (32, 16))


@pytest.fixture
def fig_channel() -> Channel:
    return Channel(FIG_H.copy(), FIG_G.copy())


def cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram(x: np.ndarray) -> np.ndarray:
    """X^H X, made exactly Hermitian."""
    return herm(x.conj().T @ x)


def rand_psd(rng: np.random.Generator, n: int, trace: float | None = None) -> np.ndarray:
    f = cgauss(rng, (n, n))
    s = f @ f.conj().T
    s = 0.5 * (s + s.conj().T)
    if trace is not None:
        s *= trace / float(np.trace(s).real)
    return s


def rand_channel(rng: np.random.Generator, n: int, m1=None, m2=None) -> Channel:
    m1 = int(rng.integers(1, n + 1)) if m1 is None else m1
    m2 = int(rng.integers(1, n + 1)) if m2 is None else m2
    return Channel(cgauss(rng, (m1, n)), cgauss(rng, (m2, n)))


def sample_constraint(n: int, pt: float, rng: np.random.Generator) -> np.ndarray:
    """The definition of ``search_region``'s sample on the stream ``rng``:
    S = F F^H, trace ``pt``, for the factor F that ``baseline._factors``
    scales from ``baseline._draw``.  The search solves F and never forms S."""
    out = np.empty(2 * n * n)
    f = baseline._factors(out[: 2 * n * baseline._draw(rng, n, out)], n, pt)
    return herm(f @ ctrans(f))


def constraint_of_rank(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """PSD constraint with a random range of dimension ``rank`` and its
    nonzero eigenvalues uniform in [0.5, 2]."""
    u = np.linalg.qr(cgauss(rng, (n, rank)))[0]
    s = (u * rng.uniform(0.5, 2.0, rank)) @ u.conj().T
    return 0.5 * (s + s.conj().T)


def count_decompositions(monkeypatch) -> dict[str, list]:
    """Record the argument shape of every np.linalg.eigh, cholesky and svd call."""
    calls = {"eigh": [], "cholesky": [], "svd": []}
    for name, shapes in calls.items():
        def counting(a, *args, _f=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def factor_corners(ch: Channel, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner rates, shape (count, 2), of each constraint of ``stack``: from
    ``_stacked_corners`` given the factors ``solve_matrix_constraint`` takes,
    one batch per rank, and from the single solves."""
    sols = [solve_matrix_constraint(ch, s) for s in stack]
    want = np.array([[sol.corner.R1, sol.corner.R2] for sol in sols]).reshape(-1, 2)
    got = np.empty_like(want)
    ranks = np.array([sol.rank for sol in sols], dtype=int)
    for r in set(ranks.tolist()):
        at = np.flatnonzero(ranks == r)
        got[at] = _stacked_corners(ch, np.stack([sols[i].gevd.factor for i in at]))
    return got, want
