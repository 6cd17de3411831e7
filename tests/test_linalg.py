"""Kernel-level tests: eigensolvers, square roots, projectors, log-determinants."""

import numpy as np
import pytest
import scipy.linalg

from bcsecrecy.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonHermitianError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    RankDeficientError,
)
from bcsecrecy.linalg import (
    clamp_rate,
    gevd_definite,
    herm,
    herm_eig,
    logdet,
    projector,
    psd_range,
    psd_sqrt,
    rate_logdet,
)
from conftest import cgauss, rand_psd


class TestHermEig:
    def test_identity(self):
        w, v = herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        w, _ = herm_eig(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(w, [2.0, -1.0])

    def test_random_gram_reconstruction(self):
        rng = np.random.default_rng(0)
        b = cgauss(rng, (6, 6))
        a = herm(b @ b.conj().T)
        w, v = herm_eig(a)
        assert np.all(w >= -1e-10)
        assert np.all(np.diff(w) <= 1e-12)
        scale = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-10 * scale

    def test_rejects_nonhermitian(self):
        with pytest.raises(NonHermitianError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            herm_eig(np.zeros((2, 3), dtype=complex))

    def test_rejects_nonfinite_by_name(self):
        a = np.eye(2, dtype=complex)
        a[1, 1] = np.inf
        with pytest.raises(ValueError, match="pencil component A"):
            gevd_definite(a, np.eye(2, dtype=complex))


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

    def test_rejects_semidefinite_component(self):
        good = np.eye(2, dtype=complex)
        with pytest.raises(NotPositiveDefiniteError):
            gevd_definite(good, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(NotPositiveDefiniteError):
            gevd_definite(np.diag([1.0, -0.5]).astype(complex), good)


class TestStacks:
    """Every kernel takes a (k, n, n) stack and answers item by item."""

    def test_gevd_stack_matches_items(self):
        rng = np.random.default_rng(20)
        a = np.stack([rand_psd(rng, 4) + 0.5 * np.eye(4) for _ in range(6)])
        b = np.stack([rand_psd(rng, 4) + 0.5 * np.eye(4) for _ in range(6)])
        res = gevd_definite(a, b)
        assert res.eigvecs.shape == (6, 4, 4) and res.eigvals.shape == (6, 4)
        for i in range(6):
            one = gevd_definite(a[i], b[i])
            assert res.b[i] == one.b
            np.testing.assert_allclose(res.eigvals[i], one.eigvals, rtol=1e-12)
            c = res.eigvecs[i]
            assert np.linalg.norm(c.conj().T @ b[i] @ c - np.eye(4)) <= 1e-10

    def test_psd_range_stack_ranks(self):
        rng = np.random.default_rng(21)
        stack = []
        for r in range(4):
            f = cgauss(rng, (3, r))
            stack.append(herm(f @ f.conj().T))
        w, v, rank = psd_range(np.stack(stack), "constraint")
        assert rank.tolist() == [0, 1, 2, 3]
        assert np.all(np.diff(w, axis=-1) <= 0.0)
        np.testing.assert_allclose((v * w[:, None, :]) @ v.conj().swapaxes(-1, -2),
                                   np.stack(stack), atol=1e-12)

    def test_empty_stack(self):
        w, v, rank = psd_range(np.zeros((0, 3, 3), dtype=complex))
        assert w.shape == (0, 3) and v.shape == (0, 3, 3) and rank.shape == (0,)
        res = gevd_definite(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))
        assert res.eigvals.shape == (0, 2) and res.b.shape == (0,)

    def test_hermitian_tolerance_is_per_item(self):
        # Judged against the stack's largest entry, the small item's asymmetry
        # would pass.
        big = 1e6 * np.eye(2, dtype=complex)
        small = np.array([[1.0, 1e-9], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitianError, match="constraint"):
            psd_range(np.stack([big, small]), "constraint")

    def test_errors_keep_type_and_name(self, monkeypatch):
        eye = np.eye(2, dtype=complex)
        bad = np.stack([eye, eye])
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="constraint has non-finite"):
            psd_range(bad, "constraint")
        with pytest.raises(NotPositiveSemidefiniteError, match="constraint"):
            psd_range(np.stack([eye, np.diag([1.0, -1.0]).astype(complex)]), "constraint")
        with pytest.raises(NotPositiveDefiniteError, match="pencil component B"):
            gevd_definite(np.stack([eye, eye]), np.stack([eye, np.diag([1.0, 0.0])]))
        with pytest.raises(NotPositiveDefiniteError, match="pencil component A"):
            gevd_definite(np.stack([eye, np.diag([1.0, -0.5])]), np.stack([eye, eye]))

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergenceError, match="reduced pencil"):
            gevd_definite(np.stack([eye, eye]), np.stack([eye, eye]))


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

    def test_rank_deficient_rejected(self):
        c = np.ones((3, 2), dtype=complex)
        with pytest.raises(RankDeficientError):
            projector(c)


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
