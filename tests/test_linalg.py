"""Kernel-level tests: eigendecompositions, square roots, projectors, log-determinants."""

import re

import numpy as np
import pytest
import scipy.linalg

from bcsecrecy.errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    RankDeficientError,
)
from bcsecrecy.linalg import (
    COND_LIMIT,
    _tri_inv,
    clamp_rate,
    gevd_definite,
    herm,
    logdet,
    projector,
    psd_range,
    psd_sqrt,
    rate_logdet,
)
from conftest import cgauss, rand_psd


class TestHermEig:
    """The Hermitian eigendecomposition, as ``psd_range`` runs it."""

    def test_identity(self):
        w, v, rank = psd_range(np.eye(3, dtype=complex))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)
        assert rank == 3

    def test_diagonal_sorted_descending(self):
        # Tied eigenvalues keep the order the ascending solver gives them.
        a = np.diag([1.0, 3.0, 1.0]).astype(complex)
        w, v, rank = psd_range(a)
        w_asc, v_asc = np.linalg.eigh(a)
        assert w.tolist() == [3.0, 1.0, 1.0] and rank == 3
        assert np.array_equal(v, v_asc[:, [2, 0, 1]])

    def test_random_gram_reconstruction(self):
        rng = np.random.default_rng(0)
        b = cgauss(rng, (6, 6))
        a = herm(b @ b.conj().T)
        w, v, _ = psd_range(a)
        assert np.all(w >= -1e-10)
        assert np.all(np.diff(w) <= 1e-12)
        scale = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-10 * scale

    def test_rejects_indefinite_by_name(self):
        with pytest.raises(NotPositiveSemidefiniteError, match="constraint has eigenvalue -1"):
            psd_range(np.diag([2.0, -1.0]).astype(complex), "constraint")

    def test_rejects_nonhermitian(self):
        with pytest.raises(NonHermitianError, match="constraint deviates"):
            psd_range(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "constraint")

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError, match="constraint must be a square matrix"):
            psd_range(np.zeros((2, 3), dtype=complex), "constraint")

    def test_rejects_nonfinite_by_name(self):
        a = np.eye(2, dtype=complex)
        a[1, 1] = np.inf
        with pytest.raises(ValueError, match="constraint has non-finite entries"):
            psd_range(a, "constraint")


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2, dtype=complex)), np.eye(2))

    def test_diagonal(self):
        r = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(r, np.diag([2.0, 3.0]))

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rand_psd(rng, 5)
        r = psd_sqrt(a)
        assert np.linalg.norm(r @ r - a) <= 1e-9 * (1.0 + np.linalg.norm(a))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


class TestGevd:
    def test_equal_components(self):
        res = gevd_definite(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        assert np.allclose(res.eigvals, 1.0)
        assert res.b == 0

    def test_diagonal_pencil(self):
        res = gevd_definite(np.diag([2.0, 1.0]).astype(complex), np.eye(2, dtype=complex))
        assert np.allclose(res.eigvals, [2.0, 1.0])
        # The unit eigenvalue ties and lands in the lower block.
        assert res.b == 1

    def test_unit_eigenvalue_is_lower_block(self):
        a = np.diag([3.0, 1.0, 0.5]).astype(complex)
        res = gevd_definite(a, np.eye(3, dtype=complex))
        assert res.b == 1
        assert res.upper_vecs.shape == (3, 1)
        assert res.lower_vecs.shape == (3, 2)

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rand_psd(rng, n) + 0.5 * np.eye(n)
            b = rand_psd(rng, n) + 0.5 * np.eye(n)
            res = gevd_definite(a, b)
            brute = np.sort(scipy.linalg.eig(a, b)[0].real)[::-1]
            assert np.max(np.abs(res.eigvals - brute) / (1.0 + np.abs(brute))) <= 1e-8

    def test_normalization_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rand_psd(rng, n) + 0.5 * np.eye(n)
            b = rand_psd(rng, n) + 0.5 * np.eye(n)
            res = gevd_definite(a, b)
            c = res.eigvecs
            lam = np.diag(res.eigvals)
            assert np.linalg.norm(c.conj().T @ a @ c - lam) <= 1e-8 * np.linalg.norm(lam)
            assert np.linalg.norm(c.conj().T @ b @ c - np.eye(n)) <= 1e-8

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="differ in shape"):
            gevd_definite(np.eye(2), np.eye(3))

    def test_rejects_nonfinite_by_name(self):
        a = np.eye(2, dtype=complex)
        a[1, 1] = np.inf
        with pytest.raises(ValueError, match="pencil component A"):
            gevd_definite(a, np.eye(2, dtype=complex))

    def test_rejects_semidefinite_component(self):
        good = np.eye(2, dtype=complex)
        with pytest.raises(NotPositiveDefiniteError):
            gevd_definite(good, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(NotPositiveDefiniteError):
            gevd_definite(np.diag([1.0, -0.5]).astype(complex), good)
        with pytest.raises(NotPositiveDefiniteError, match="pencil component A is not"):
            gevd_definite(np.diag([1.0, 0.0]).astype(complex), good)

    def test_spread_pencil_solved(self):
        # Eigenvalues 1e6 and 1e-6 along the pencil, a spread past 1 / RANK_TOL
        # that takes the SVD: each to about eps * 1e6 relative.
        rng = np.random.default_rng(8)
        q = np.linalg.qr(cgauss(rng, (2, 2)))[0]
        a = herm(q @ np.diag([1e6, 1.0]) @ q.conj().T)
        b = herm(q @ np.diag([1.0, 1e6]) @ q.conj().T)
        res = gevd_definite(a, b)
        assert res.eigvals == pytest.approx([1e6, 1e-6], rel=1e-8)
        assert res.b == 1
        c = res.eigvecs
        assert np.allclose(c.conj().T @ b @ c, np.eye(2), atol=1e-12)


class TestTriInv:
    """The inverse by halves of a Cholesky factor, which ``_reduced_eigh`` takes."""

    @pytest.mark.parametrize("n", [1, 16, 17, 33, 128])
    def test_matches_general_inverse(self, n):
        rng = np.random.default_rng(70 + n)
        x = cgauss(rng, (3, n, n))
        low = np.linalg.cholesky(x @ x.conj().swapaxes(-1, -2) + np.eye(n))
        stacked = _tri_inv(low)
        for i in range(len(low)):
            got, want = _tri_inv(low[i]), np.linalg.inv(low[i])
            assert np.array_equal(stacked[i], got)
            if n <= 16:
                # Small factors take the general inverse itself, bit for bit.
                assert np.array_equal(got, want)
                continue
            # The block above the split is zero; the diagonal blocks are
            # general inverses, whose upper triangles may hold rounding.
            assert not got[: n // 2, n // 2:].any()
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(got @ low[i] - np.eye(n))) <= 1e-13


class TestOneMatrix:
    """The checked kernels take one matrix; a stack is refused by name."""

    def test_stack_rejected_by_name(self):
        stack = np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(DimensionMismatchError, match="constraint must be a square matrix"):
            psd_range(stack, "constraint")

    def test_gevd_stack_rejected_by_name(self):
        stack = np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(DimensionMismatchError, match="pencil component A"):
            gevd_definite(stack, stack)
        with pytest.raises(DimensionMismatchError, match="pencil component B"):
            gevd_definite(stack[0], stack)

    def test_split_and_rank_are_ints(self):
        res = gevd_definite(np.diag([2.0, 1.0]).astype(complex), np.eye(2))
        assert type(res.b) is int and res.b == 1
        rank = psd_range(np.diag([2.0, 0.0]).astype(complex))[2]
        assert type(rank) is int and rank == 1


class TestProjector:
    def test_standard_basis_column(self):
        c = np.zeros((3, 1), dtype=complex)
        c[0, 0] = 1.0
        assert np.allclose(projector(c), np.diag([1.0, 0.0, 0.0]))

    def test_full_basis(self):
        p = projector(np.eye(4, dtype=complex))
        assert np.allclose(p, np.eye(4))

    def test_random_tall(self):
        rng = np.random.default_rng(5)
        c = cgauss(rng, (6, 2))
        p = projector(c)
        assert np.linalg.norm(p @ p - p) <= 1e-9
        assert abs(np.trace(p).real - 2.0) <= 1e-9
        assert np.linalg.norm(p @ c - c) <= 1e-9 * np.linalg.norm(c)
        assert np.linalg.norm(p @ (np.eye(6) - p)) <= 1e-9

    def test_empty_input(self):
        assert np.allclose(projector(np.zeros((4, 0), dtype=complex)), np.zeros((4, 4)))

    def test_non_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError, match="matrix of columns"):
            projector(np.ones(3))

    def test_rank_deficient_rejected(self):
        c = np.ones((3, 2), dtype=complex)
        with pytest.raises(RankDeficientError):
            projector(c)

    def test_close_unit_columns_rejected(self):
        c = np.array([[1.0, 1.0], [0.0, 1e-7], [0.0, 0.0]], dtype=complex)
        with pytest.raises(RankDeficientError):
            projector(c / np.linalg.norm(c, axis=0))

    def test_more_columns_than_rows_rejected(self):
        c = cgauss(np.random.default_rng(12), (3, 4))
        with pytest.raises(RankDeficientError):
            projector(c)

    @pytest.mark.parametrize("factor", [1.0 + 1e-3, 1.0 - 1e-3])
    def test_condition_limit_boundary(self, factor):
        # C = U diag(s) V^H with cond(C^H C) = (s_max / s_min)^2 = COND_LIMIT * factor.
        rng = np.random.default_rng(11)
        n, k = 7, 4
        u = np.linalg.qr(cgauss(rng, (n, k)))[0]
        v = np.linalg.qr(cgauss(rng, (k, k)))[0]
        ratio = np.sqrt(COND_LIMIT * factor)
        s = np.array([ratio, ratio**0.7, ratio**0.2, 1.0])
        c = (u * s) @ v.conj().T
        if factor > 1.0:
            message = f"columns are numerically dependent (Gram condition >= {COND_LIMIT:.0e})"
            with pytest.raises(RankDeficientError, match=re.escape(message)):
                projector(c)
            return
        p = projector(c)
        assert np.max(np.abs(p - p.conj().T)) == 0.0
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p - u @ u.conj().T) <= 1e-9


class TestLogdet:
    def test_identity(self):
        assert logdet(np.eye(3, dtype=complex)) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_diagonal(self):
        assert logdet(np.diag([np.e, np.e]).astype(complex)) == pytest.approx(2.0, rel=1e-12)

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(6)
        a = rand_psd(rng, 5) + 0.1 * np.eye(5)
        want = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert logdet(a) == pytest.approx(want, abs=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet(np.diag([1.0, -2.0]).astype(complex))

    def test_empty_matrix(self):
        # A zero constraint's empty pencil: no factor entries, a zero sum.
        assert logdet(np.zeros((0, 0))) == 0.0
        assert rate_logdet(np.zeros((0, 2)), np.eye(2)) == 0.0

    def test_rate_logdet_zero_covariance(self):
        rng = np.random.default_rng(7)
        h = cgauss(rng, (2, 3))
        assert rate_logdet(h, np.zeros((3, 3), dtype=complex)) == pytest.approx(0.0)

    def test_clamp_rate_keeps_nan(self):
        assert clamp_rate(2.5) == 2.5
        assert clamp_rate(-1.0) == 0.0
        assert np.copysign(1.0, clamp_rate(-0.0)) == 1.0
        assert np.isnan(clamp_rate(np.nan))

    def test_rate_logdet_matches_slogdet(self):
        rng = np.random.default_rng(8)
        h = cgauss(rng, (2, 3))
        k = rand_psd(rng, 3)
        want = np.linalg.slogdet(np.eye(2) + h @ k @ h.conj().T)[1]
        assert rate_logdet(h, k) == pytest.approx(float(want), abs=1e-10)
