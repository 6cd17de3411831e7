"""Randomized invariant battery: pass/fail wiring, fault injection and the rank bound."""

import math

import numpy as np
import pytest

import bcsecrecy.checks as checks_mod
from bcsecrecy import Channel, allocate, diagonalize, run_battery, solve_matrix_constraint
from bcsecrecy.checks import (
    FAULTS,
    TOLERANCES,
    InvariantResult,
    _rank_bound_counts,
    _waterfill_residuals,
)
from bcsecrecy.cli import main
from conftest import SCALED_G, SCALED_H, cgauss, rand_channel, rand_psd


class TestRunBattery:
    def test_clean_run_is_ok(self):
        report = run_battery(trials=5, dim=3, seed=7)
        assert report.ok
        assert {r.name for r in report.results} == set(TOLERANCES)
        for r in report.results:
            assert r.max_residual <= r.tolerance

    def test_report_metadata(self):
        report = run_battery(trials=2, dim=2, seed=1)
        doc = report.as_dict()
        assert doc["trials"] == 2 and doc["dim"] == 2 and doc["seed"] == 1
        assert doc["ok"] is True
        assert list(doc) == ["trials", "dim", "seed", "ok", "invariants"]
        for inv in doc["invariants"]:
            assert list(inv) == ["name", "max_residual", "tolerance", "ok"]
        names = [inv["name"] for inv in doc["invariants"]]
        assert names == [r.name for r in report.results]

    def test_deterministic_per_seed(self):
        r1 = run_battery(trials=3, dim=3, seed=11)
        r2 = run_battery(trials=3, dim=3, seed=11)
        assert [a.max_residual for a in r1.results] == [b.max_residual for b in r2.results]

    def test_zero_trials_rejected(self):
        for trials in (0, -5, 2.5, True):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                run_battery(trials=trials, dim=2, seed=0)
        for dim in (0, 2.5, True):
            with pytest.raises(ValueError, match="dim must be an integer >= 1"):
                run_battery(trials=1, dim=dim, seed=0)
        for seed in (-1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                run_battery(trials=1, dim=2, seed=seed)

    def test_nan_residual_fails(self, monkeypatch):
        monkeypatch.setattr(checks_mod, "_objective", lambda ch, k: np.nan)
        report = run_battery(trials=3, dim=3, seed=0)
        assert not report.ok
        by_name = {r.name: r for r in report.results}
        assert math.isnan(by_name["corner_identity"].max_residual)
        assert not by_name["corner_identity"].ok
        assert not by_name["corner_optimality"].ok
        assert main(["check", "--trials", "3", "--dim", "3", "--seed", "0"]) == 1

    def test_scalar_dim(self):
        assert run_battery(trials=3, dim=1, seed=2).ok

    def test_fault_injection_detected(self):
        report = run_battery(trials=2, dim=3, seed=1, inject_fault="gevd")
        assert not report.ok
        failed = {r.name for r in report.results if not r.ok}
        assert "gevd_diagonalizes" in failed

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            run_battery(trials=1, dim=2, seed=0, inject_fault="nonsense")

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            run_battery(trials=1, dim=0, seed=0)

    def test_faults_listed(self):
        assert "gevd" in FAULTS

    def test_projector_on_scaled_eigenvectors(self, monkeypatch):
        # C^H B C = I scales the two leading eigenvectors to norms of about
        # 1e-7 and 0.71, a Gram condition past COND_LIMIT, though they are
        # orthogonal; the invariant judges their span.
        monkeypatch.setattr(checks_mod, "random_channel",
                            lambda rng, dim: Channel(SCALED_H, SCALED_G))
        monkeypatch.setattr(checks_mod, "random_constraint", lambda rng, dim, trace: np.eye(dim))
        report = run_battery(trials=1, dim=3, seed=0)
        assert {r.name: r.ok for r in report.results}["projector"]

    def test_kkt_residual_at_huge_powers(self):
        # The rank cut leaves user 1 one subchannel of cost 4.5e-15, so its
        # power is 3e13 to 6e14, where s/(1 + s p) - w/(1 + w p) cancels to
        # a residual of up to 0.24 although the allocation is exact.
        dc = diagonalize(Channel(SCALED_H, SCALED_G))
        assert dc.a[: dc.rho].max() < 1e-14
        for alpha in np.linspace(0.05, 0.95, 19):
            kkt, budget = _waterfill_residuals(dc, allocate(dc, alpha, 3.0), 3.0)
            assert kkt <= TOLERANCES["kkt_stationarity"]
            assert budget <= TOLERANCES["budget_equality"]


def bound_holds(counts: tuple[int, int, int, int]) -> bool:
    b, below, m_pos, m_neg = counts
    return b <= m_pos and below <= m_neg


class TestRankBound:
    def test_no_second_receiver_full_bound(self):
        rng = np.random.default_rng(10)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, np.zeros((1, 3), dtype=complex))
        counts = _rank_bound_counts(ch, solve_matrix_constraint(ch, rand_psd(rng, 3)))
        assert counts[2] == 3
        assert bound_holds(counts)

    def test_identical_channels(self):
        rng = np.random.default_rng(11)
        h = cgauss(rng, (3, 3))
        ch = Channel(h, h.copy())
        counts = _rank_bound_counts(ch, solve_matrix_constraint(ch, rand_psd(rng, 3)))
        b, _, m_pos, _ = counts
        assert m_pos == 0
        assert b == 0
        assert bound_holds(counts)

    def test_random_sweep_holds(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ch = rand_channel(rng, 4)
            sol = solve_matrix_constraint(ch, rand_psd(rng, 4, trace=4.0))
            assert bound_holds(_rank_bound_counts(ch, sol))

    def test_eigenvalue_at_one_is_a_tie(self):
        # With one-row H and G on three antennas, S = I puts one pencil
        # eigenvalue at one (the direction orthogonal to h and g), and it
        # rounds to either side.  Counted below one, it would break the bound.
        rng = np.random.default_rng(7)
        untied = 0
        for _ in range(200):
            ch = Channel(cgauss(rng, (1, 3)), cgauss(rng, (1, 3)))
            sol = solve_matrix_constraint(ch, np.eye(3))
            counts = _rank_bound_counts(ch, sol)
            assert counts[2:] == (1, 1)
            assert bound_holds(counts)
            untied += np.count_nonzero(sol.gevd.eigvals < 1.0) > counts[3]
        assert untied > 0


class TestInvariantResult:
    def test_ok_boundary(self):
        assert InvariantResult("x", 1e-9, 1e-9).ok
        assert not InvariantResult("x", 2e-9, 1e-9).ok
