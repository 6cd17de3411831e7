"""Linear precoding: exact optimality when orthogonal, certified loss otherwise."""

import copy

import numpy as np
import pytest

from bcsecrecy import (
    Channel,
    LinearPrecoderPair,
    diagonalize,
    loss_bounded_precoders,
    make_matrix_constraint,
    optimal_precoders,
    orthogonality_defect,
    rate_evaluate,
    solve_matrix_constraint,
)
from bcsecrecy.errors import NotOrthogonalError
from bcsecrecy.linalg import LN2, herm, projector
from bcsecrecy.precoding import _coupling
from bcsecrecy.sdpc import SdpcSolution
from conftest import (
    FIG_PT,
    LAZY_GRID,
    SCALED_G,
    SCALED_H,
    build_pencil,
    cgauss,
    constraint_of_rank,
    gram,
    rand_channel,
    rand_psd,
)


def _svd_projector(c):
    u = np.linalg.svd(c, full_matrices=False)[0]
    return u @ u.conj().T


def _n_mat(sol):
    """N = -(C2^H C2)^{-1} C2^H C1 of the transmit-space blocks, phases pinned."""
    return _coupling(sol.gevd.eigvecs, sol.gevd.b)[1]


def _explicit_loss(sol):
    """(n_mat, loss_bits, guaranteed, exact) of the loss-bounded pair built
    explicitly: SVD projectors, formed covariances and ``rate_evaluate``."""
    gevd, ch = sol.gevd, sol.channel
    b, rank = gevd.b, gevd.eigvals.size
    r1, r2 = sol.corner.R1, sol.corner.R2
    if b in (0, rank):
        pair = LinearPrecoderPair(sol.kt_star, herm(sol.s - sol.kt_star))
        return np.zeros((rank - b, b)), 0.0, (r1, r2), rate_evaluate(ch, pair)
    c1, c2 = gevd.upper_vecs, gevd.lower_vecs
    eye = np.eye(ch.n_t)
    p1c = eye - _svd_projector(c1)
    p2 = _svd_projector(c2)
    p2c = eye - p2
    n_mat = np.linalg.solve(c2.conj().T @ p1c @ c2, c2.conj().T @ p1c @ p2c @ c1)
    loss = np.linalg.slogdet(np.eye(b) + n_mat.conj().T @ n_mat)[1] / LN2
    rt = sol.s_sqrt
    pair = LinearPrecoderPair(herm(rt @ p2c @ rt), herm(rt @ p2 @ rt))
    return n_mat, loss, (max(r1 - loss, 0.0), max(r2 - loss, 0.0)), rate_evaluate(ch, pair)


def _split_cases():
    """(channel, constraint, b): every n_t from 2 to 12, every constraint
    rank, and every split b from 0 to the rank; then n_t = 40, and near-ties:
    H ~ G, and H ~ G on all but three rows, which leaves pencil eigenvalues
    within 1e-6 of one and the exact rates unclamped; last, eigenvector
    blocks whose column norms differ by seven orders.  H with b rows and G
    with rank - b rows put exactly b pencil eigenvalues above one; a zero
    row stands in for an empty channel."""
    rng = np.random.default_rng(61)
    for n in range(2, 13):
        for rank in range(1, n + 1):
            u = np.linalg.qr(cgauss(rng, (n, rank)))[0]
            s = herm((u * rng.uniform(0.5, 2.0, rank)) @ u.conj().T)
            for b in range(rank + 1):
                h, g = (cgauss(rng, (m, n)) if m else np.zeros((1, n)) for m in (b, rank - b))
                yield Channel(h, g), s, b
    yield rand_channel(rng, 40, 40, 40), rand_psd(rng, 40, trace=40.0), None
    h = cgauss(rng, (6, 6))
    near = h + 1e-6 * cgauss(rng, (6, 6))
    yield Channel(h, near), rand_psd(rng, 6, trace=6.0), None
    ch = Channel(np.vstack([h, cgauss(rng, (2, 6))]), np.vstack([near, cgauss(rng, (1, 6))]))
    yield ch, rand_psd(rng, 6, trace=6.0), None
    yield Channel(SCALED_H, SCALED_G), np.eye(3), 2


def _orthogonal_solution(rng, ch, scale=2.0):
    dc = diagonalize(ch)
    s_w = make_matrix_constraint(dc, rng.uniform(0.1, scale, dc.n))
    return solve_matrix_constraint(ch, s_w), s_w


class TestOptimalPrecoders:
    def test_no_second_receiver_gets_everything(self):
        rng = np.random.default_rng(0)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, np.zeros((1, 3), dtype=complex))
        s = rand_psd(rng, 3)
        sol = solve_matrix_constraint(ch, s)
        pair = optimal_precoders(sol)
        assert np.allclose(pair.cov_v1, s, atol=1e-9)
        assert np.allclose(pair.cov_v2, 0.0, atol=1e-9)

    def test_zero_constraint(self, fig_channel):
        sol = solve_matrix_constraint(fig_channel, np.zeros((2, 2), dtype=complex))
        pair = optimal_precoders(sol)
        assert np.allclose(pair.cov_v1, 0.0)
        assert np.allclose(pair.cov_v2, 0.0)

    def test_orthogonal_family_achieves_corner(self, fig_channel):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sol, s_w = _orthogonal_solution(rng, fig_channel)
            pair = optimal_precoders(sol)
            assert np.linalg.norm(pair.total - s_w) <= 1e-9 * (1 + np.linalg.norm(s_w))
            got = rate_evaluate(fig_channel, pair)
            assert got.R1 == pytest.approx(sol.corner.R1, abs=1e-8)
            assert got.R2 == pytest.approx(sol.corner.R2, abs=1e-8)

    def test_non_orthogonal_rejected(self, fig_channel):
        rng = np.random.default_rng(2)
        sol = solve_matrix_constraint(fig_channel, rand_psd(rng, 2, trace=FIG_PT))
        with pytest.raises(NotOrthogonalError):
            optimal_precoders(sol)


class TestRateEvaluate:
    def test_zero_pair(self, fig_channel):
        zero = np.zeros((2, 2), dtype=complex)
        got = rate_evaluate(fig_channel, LinearPrecoderPair(zero, zero))
        assert (got.R1, got.R2) == (0.0, 0.0)

    def test_exact_never_below_guarantee(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            ch = rand_channel(rng, n)
            sol = solve_matrix_constraint(ch, rand_psd(rng, n, trace=float(n)))
            report = loss_bounded_precoders(sol)
            assert report.exact.R1 >= report.guaranteed.R1 - 1e-8
            assert report.exact.R2 >= report.guaranteed.R2 - 1e-8


class TestLossBounded:
    def test_orthogonal_means_zero_loss(self, fig_channel):
        rng = np.random.default_rng(4)
        sol, _ = _orthogonal_solution(rng, fig_channel)
        report = loss_bounded_precoders(sol)
        assert np.linalg.norm(_n_mat(sol)) <= 1e-7
        assert report.loss_bits <= 1e-8
        assert report.guaranteed.R1 == pytest.approx(sol.corner.R1, abs=1e-8)
        assert report.guaranteed.R2 == pytest.approx(sol.corner.R2, abs=1e-8)

    def test_generic_constraint_loses_and_is_exact(self, fig_channel):
        rng = np.random.default_rng(5)
        seen_loss = 0.0
        for _ in range(20):
            sol = solve_matrix_constraint(fig_channel, rand_psd(rng, 2, trace=FIG_PT))
            report = loss_bounded_precoders(sol)
            seen_loss = max(seen_loss, report.loss_bits)
            assert report.loss_bits >= 0.0
            if report.guaranteed.R1 > 0:
                assert report.exact.R1 == pytest.approx(report.guaranteed.R1, abs=1e-8)
            if report.guaranteed.R2 > 0:
                assert report.exact.R2 == pytest.approx(report.guaranteed.R2, abs=1e-8)
        assert seen_loss > 0.0

    def test_badly_scaled_orthogonal_blocks(self):
        sol = solve_matrix_constraint(Channel(SCALED_H, SCALED_G), np.eye(3))
        report = loss_bounded_precoders(sol)
        assert report.loss_bits == 0.0
        assert abs(report.exact.R1 - sol.corner.R1) <= 1e-12
        assert abs(report.exact.R2 - sol.corner.R2) <= 1e-12

    def test_scalar_blocks_loss_formula(self, fig_channel):
        rng = np.random.default_rng(6)
        sol = solve_matrix_constraint(fig_channel, rand_psd(rng, 2, trace=FIG_PT))
        assert sol.gevd.b == 1
        report = loss_bounded_precoders(sol)
        n_scalar = _n_mat(sol).reshape(())
        want = np.log1p(abs(n_scalar) ** 2) / LN2
        assert report.loss_bits == pytest.approx(float(want), rel=1e-10)

    def test_covariances_split_the_constraint(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            ch = rand_channel(rng, n)
            sol, s_w = _orthogonal_solution(rng, ch)
            pair = optimal_precoders(sol)
            assert np.linalg.norm(pair.total - s_w) <= 1e-9 * (1 + np.linalg.norm(s_w))
            for cov in (pair.cov_v1, pair.cov_v2):
                assert np.linalg.eigvalsh(herm(cov)).min() >= -1e-9

    def test_loss_vanishes_along_homotopy(self, fig_channel):
        rng = np.random.default_rng(8)
        s_rand = rand_psd(rng, 2, trace=FIG_PT)
        dc = diagonalize(fig_channel)
        s_w = make_matrix_constraint(dc, rng.uniform(0.5, 2.0, dc.n))
        s_w *= FIG_PT / float(np.trace(s_w).real)
        losses = []
        for t in np.linspace(0.0, 1.0, 6):
            s_t = herm((1.0 - t) * s_rand + t * s_w)
            sol = solve_matrix_constraint(fig_channel, s_t)
            losses.append(loss_bounded_precoders(sol).loss_bits)
        assert losses[0] > 1e-3
        assert losses[-1] <= 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rank_deficient_constraint_matches_reduced_problem(self, n):
        rng = np.random.default_rng(40 + n)
        checked = 0
        while checked < 5:
            r = int(rng.integers(2, n))
            ch = rand_channel(rng, n)
            u = np.linalg.qr(cgauss(rng, (n, r)))[0]
            w_r = rng.uniform(0.5, 2.0, r)
            s = herm((u * w_r) @ u.conj().T)
            sol = solve_matrix_constraint(ch, s)
            gevd = sol.gevd
            if not 0 < gevd.b < r:
                continue
            checked += 1
            assert sol.s_reduced and sol.rank == r
            reduced = solve_matrix_constraint(
                Channel(ch.H @ u, ch.G @ u), np.diag(w_r).astype(complex)
            )
            report = loss_bounded_precoders(sol)
            want = loss_bounded_precoders(reduced)
            assert abs(orthogonality_defect(sol) - orthogonality_defect(reduced)) <= 1e-12
            assert abs(report.loss_bits - want.loss_bits) <= 1e-12
            assert _n_mat(sol).shape == _n_mat(reduced).shape == (r - gevd.b, gevd.b)
            for got, ref in ((report.exact, want.exact), (report.guaranteed, want.guaranteed)):
                assert abs(got.R1 - ref.R1) <= 1e-12
                assert abs(got.R2 - ref.R2) <= 1e-12

            assert np.max(np.abs(sol.s_sqrt @ sol.s_sqrt - s)) <= 1e-12
            a, b = build_pencil(ch, s)
            c = gevd.eigvecs
            assert c.shape == (n, r)
            assert np.max(np.abs(c.conj().T @ a @ c - np.diag(gevd.eigvals))) <= 1e-10
            assert np.max(np.abs(c.conj().T @ b @ c - np.eye(r))) <= 1e-10


def test_factored_loss_matches_explicit_construction():
    for ch, s, b in _split_cases():
        sol = solve_matrix_constraint(ch, s)
        assert b is None or sol.gevd.b == b
        report = loss_bounded_precoders(sol)
        n_mat, loss, guaranteed, exact = _explicit_loss(sol)
        got = _n_mat(sol)
        assert got.shape == n_mat.shape
        assert np.max(np.abs(got - n_mat), initial=0.0) <= 1e-9
        assert abs(report.loss_bits - loss) <= 1e-10
        assert abs(report.guaranteed.R1 - guaranteed[0]) <= 1e-10
        assert abs(report.guaranteed.R2 - guaranteed[1]) <= 1e-10
        assert abs(report.exact.R1 - exact.R1) <= 1e-10
        assert abs(report.exact.R2 - exact.R2) <= 1e-10


@pytest.mark.parametrize("pt", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("n", [2, 4, 17, 33])
def test_exact_rates_match_explicit_construction(n, full, pt):
    # Splits b = 0, rank / 2 and rank, on S of full or half rank and trace
    # pt.  The explicit construction forms covariances of norm about pt, so
    # it rounds by about eps pt per antenna: the tolerance is 16 times that.
    rank = n if full else n // 2
    for b in sorted({0, rank // 2, rank}):
        rng = np.random.default_rng(1000 * n + 10 * rank + b)
        u = np.linalg.qr(cgauss(rng, (n, rank)))[0]
        w = rng.uniform(0.5, 2.0, rank)
        s = herm((u * (w * pt / w.sum())) @ u.conj().T)
        h, g = (cgauss(rng, (m, n)) if m else np.zeros((1, n)) for m in (b, rank - b))
        sol = solve_matrix_constraint(Channel(h, g), s)
        assert sol.gevd.b == b
        report = loss_bounded_precoders(sol)
        exact = _explicit_loss(sol)[3]
        for got, want in ((report.exact.R1, exact.R1), (report.exact.R2, exact.R2)):
            tol = 16 * np.finfo(float).eps * (1.0 + pt) * n * (1.0 + abs(want))
            assert abs(got - want) <= tol


class _Blind(SdpcSolution):
    """A solution whose channel raises when read."""

    @property
    def channel(self):
        raise AssertionError("the channel was read")


@pytest.mark.parametrize("n, rank", LAZY_GRID)
def test_loss_step_reads_no_channel(n, rank):
    # The exact rates come from the corner's own pencil.
    rng = np.random.default_rng(300 + 10 * n + rank)
    sol = solve_matrix_constraint(rand_channel(rng, n), constraint_of_rank(rng, n, rank))
    want = loss_bounded_precoders(sol)
    blind = copy.copy(sol)
    blind.__class__ = _Blind
    with pytest.raises(AssertionError, match="channel was read"):
        blind.channel
    got = loss_bounded_precoders(blind)
    assert (got.loss_bits, got.guaranteed, got.exact) == (want.loss_bits, want.guaranteed, want.exact)


@pytest.mark.parametrize("n, rank", LAZY_GRID)
def test_coupling_formed_once_from_transmit_blocks(n, rank):
    rng = np.random.default_rng(200 + 10 * n + rank)
    ch = rand_channel(rng, n)
    sol = solve_matrix_constraint(ch, constraint_of_rank(rng, n, rank))
    got, want = _n_mat(sol), _explicit_loss(sol)[0]
    assert got.shape == want.shape
    scale = 1.0 + np.abs(want).max(initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * scale


class TestDeterminantIdentities:
    def test_orthogonal_instances(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            ch = rand_channel(rng, n)
            sol, s_w = _orthogonal_solution(rng, ch)
            b = sol.gevd.b
            if not 0 < b < sol.gevd.eigvals.size:
                continue
            checked += 1
            lam = sol.gevd.eigvals
            c1, c2 = sol.gevd.upper_vecs, sol.gevd.lower_vecs
            eye = np.eye(n)
            det = np.linalg.det
            inv = np.linalg.inv
            lam1, lam2 = np.prod(lam[:b]), np.prod(lam[b:])

            lhs = det(eye + (s_w - sol.kt_star) @ gram(ch.H))
            rhs = det(inv(c2.conj().T @ c2)) * lam2
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)

            lhs = det(eye + sol.kt_star @ gram(ch.G))
            rhs = det(inv(c1.conj().T @ c1))
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)

            lhs = det(eye + s_w @ gram(ch.H))
            rhs = det(inv(c1.conj().T @ c1)) * det(inv(c2.conj().T @ c2)) * lam1 * lam2
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)

    def test_general_instances(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            ch = rand_channel(rng, n)
            sol = solve_matrix_constraint(ch, rand_psd(rng, n, trace=float(n)))
            b = sol.gevd.b
            if not 0 < b < sol.gevd.eigvals.size:
                continue
            checked += 1
            lam = sol.gevd.eigvals
            c = sol.gevd.eigvecs
            c1, c2 = sol.gevd.upper_vecs, sol.gevd.lower_vecs
            eye = np.eye(n)
            det = np.linalg.det
            inv = np.linalg.inv
            p2 = projector(c2)
            p2c = eye - p2
            s_half = sol.s_sqrt
            lam2 = np.prod(lam[b:])

            lhs = det(eye + s_half @ p2 @ s_half @ gram(ch.H))
            rhs = det(inv(c2.conj().T @ c2)) * lam2
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)

            n_mat = _n_mat(sol)
            lhs = det(eye + s_half @ p2c @ s_half @ gram(ch.G))
            rhs = det(inv(c1.conj().T @ p2c @ c1)) * det(
                np.eye(n_mat.shape[1]) + n_mat.conj().T @ n_mat
            )
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)

            # Schur split of the Gram determinant.
            full = det(c.conj().T @ c)
            p1c = eye - projector(c1)
            split1 = det(c1.conj().T @ p2c @ c1) * det(c2.conj().T @ c2)
            split2 = det(c2.conj().T @ p1c @ c2) * det(c1.conj().T @ c1)
            assert abs(full - split1) <= 1e-8 * abs(full)
            assert abs(full - split2) <= 1e-8 * abs(full)
