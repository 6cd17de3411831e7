"""Randomized invariant battery: pass/fail wiring and fault injection."""

import math

import numpy as np
import pytest

import bcsecrecy.checks as checks_mod
from bcsecrecy import run_battery
from bcsecrecy.checks import FAULTS, TOLERANCES, InvariantResult
from bcsecrecy.cli import main


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
        names = [inv["name"] for inv in doc["invariants"]]
        assert names == [r.name for r in report.results]

    def test_deterministic_per_seed(self):
        r1 = run_battery(trials=3, dim=3, seed=11)
        r2 = run_battery(trials=3, dim=3, seed=11)
        assert [a.max_residual for a in r1.results] == [b.max_residual for b in r2.results]

    def test_zero_trials_rejected(self):
        for trials in (0, -5):
            with pytest.raises(ValueError):
                run_battery(trials=trials, dim=2, seed=0)

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


class TestInvariantResult:
    def test_ok_boundary(self):
        assert InvariantResult("x", 1e-9, 1e-9).ok
        assert not InvariantResult("x", 2e-9, 1e-9).ok
