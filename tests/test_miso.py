"""Single-antenna receivers: closed-form capacity region and beamforming region."""

import numpy as np
import pytest

from bcsecrecy import (
    MisoChannel,
    loss_bounded_precoders,
    miso_capacity_point,
    miso_linear_point,
    miso_region,
    solve_matrix_constraint,
)
from bcsecrecy.errors import ZeroChannelError
from bcsecrecy.linalg import LN2
from conftest import cgauss


def rand_miso(rng, n=2):
    return MisoChannel(cgauss(rng, n), cgauss(rng, n))


class TestCapacityPoint:
    def test_no_second_receiver(self):
        rng = np.random.default_rng(0)
        h = cgauss(rng, 3)
        mc = MisoChannel(h, np.zeros(3, dtype=complex))
        point = miso_capacity_point(mc, 10.0, 1.0)
        want = np.log1p(10.0 * np.linalg.norm(h) ** 2) / LN2
        assert point.c2 == 0.0
        assert point.c1 == pytest.approx(want, rel=1e-10)

    def test_orthogonal_channels_beam_at_first(self):
        h = np.array([1.0, 0.0], dtype=complex)
        g = np.array([0.0, 1.0], dtype=complex)
        point = miso_capacity_point(MisoChannel(h, g), 10.0, 0.5)
        assert np.abs(np.vdot(point.e1, h)) == pytest.approx(1.0, abs=1e-10)

    def test_structure_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mc = rand_miso(rng)
            alpha = float(rng.uniform(0.0, 1.0))
            point = miso_capacity_point(mc, 10.0, alpha)
            assert point.c1 >= -1e-10 and point.c2 >= -1e-10
            assert np.linalg.norm(point.e1) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(point.e2) == pytest.approx(1.0, abs=1e-10)
            assert np.trace(point.s_q).real == pytest.approx(10.0, rel=1e-9)
            eig = np.linalg.eigvalsh(point.s_q)
            assert np.sum(eig > 1e-10 * 10.0) <= 2

    def test_matches_matrix_constraint_corner(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mc = rand_miso(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            point = miso_capacity_point(mc, 10.0, alpha)
            sol = solve_matrix_constraint(mc.as_channel(), point.s_q)
            assert point.c1 == pytest.approx(sol.corner.R1, abs=1e-6)
            assert point.c2 == pytest.approx(sol.corner.R2, abs=1e-6)

    def test_parallel_equal_channels_zero(self):
        h = np.array([1.0, 1.0], dtype=complex)
        point = miso_capacity_point(MisoChannel(h, h.copy()), 10.0, 0.5)
        assert point.c1 == pytest.approx(0.0, abs=1e-9)
        assert point.c2 == pytest.approx(0.0, abs=1e-9)

    def test_split_domain_rejected(self):
        rng = np.random.default_rng(9)
        mc = rand_miso(rng)
        for alpha, pt in ((1.5, 10.0), (np.nan, 10.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                miso_capacity_point(mc, pt, alpha)
        point = miso_capacity_point(mc, 0.0, 0.5)
        assert (point.c1, point.c2) == (0.0, 0.0)

    def test_zero_channels_rejected(self):
        zero = np.zeros(2, dtype=complex)
        with pytest.raises(ZeroChannelError):
            miso_capacity_point(MisoChannel(zero, zero.copy()), 10.0, 0.5)

    def test_nonfinite_vectors_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            MisoChannel(np.array([1.0, np.nan]), np.array([0.0, 1.0]))

    def test_wide_arrays_reduce(self):
        rng = np.random.default_rng(3)
        mc = rand_miso(rng, n=5)
        point = miso_capacity_point(mc, 10.0, 0.4)
        assert point.s_q.shape == (5, 5)
        assert np.trace(point.s_q).real == pytest.approx(10.0, rel=1e-9)


class TestLinearPoint:
    def test_covariance_decomposed_once(self, monkeypatch):
        # One eigh of S_Q, one Cholesky and one eigh for the swapped-role 2x2
        # pencil; the channel is not reduced again.
        rng = np.random.default_rng(5)
        mc = rand_miso(rng, n=4)
        point = miso_capacity_point(mc, 10.0, 0.5)
        calls = {"eigh": [], "cholesky": []}
        for name, shapes in calls.items():
            def counting(a, *args, _f=getattr(np.linalg, name), _shapes=shapes, **kwargs):
                _shapes.append(np.shape(a))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        miso_linear_point(mc, point)
        assert calls == {"eigh": [(4, 4), (2, 2)], "cholesky": [(2, 2)]}

    def test_endpoints_equal_capacity(self):
        rng = np.random.default_rng(4)
        mc = rand_miso(rng)
        for alpha in (0.0, 1.0):
            point = miso_linear_point(mc, miso_capacity_point(mc, 10.0, alpha))
            assert point.r1 == pytest.approx(point.c1, abs=1e-9)
            assert point.r2 == pytest.approx(point.c2, abs=1e-9)
            assert point.loss_bits == 0.0

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(5)
        for point in miso_region(rand_miso(rng), 10.0, 21):
            assert point.r1 <= point.c1 + 1e-8
            assert point.r2 <= point.c2 + 1e-8

    def test_matches_loss_bounded_construction(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mc = rand_miso(rng)
            point = miso_linear_point(mc, miso_capacity_point(mc, 10.0, 0.5))
            sol = solve_matrix_constraint(mc.as_channel(), point.s_q)
            report = loss_bounded_precoders(sol)
            assert point.r1 == pytest.approx(report.exact.R1, abs=1e-7)
            assert point.r2 == pytest.approx(report.exact.R2, abs=1e-7)


class TestRegion:
    def test_capacity_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        points = miso_region(rand_miso(rng), 10.0, 21)
        c1 = [p.c1 for p in points]
        c2 = [p.c2 for p in points]
        assert np.all(np.diff(c1) >= -1e-9)
        assert np.all(np.diff(c2) <= 1e-9)

    def test_explicit_grid_accepted(self):
        rng = np.random.default_rng(8)
        points = miso_region(rand_miso(rng), 10.0, np.array([0.0, 0.25, 1.0]))
        assert [p.alpha for p in points] == [0.0, 0.25, 1.0]
