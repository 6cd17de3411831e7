"""Self-test of the benchmark's output check.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from verify import load_reference, mismatches  # noqa: E402
from worker import Tally, latency_metrics, run_op  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

REFS, PRINTS = load_reference()
KEY = "sweep.0"


def reference_copy() -> dict:
    return {field: value.copy() for field, value in REFS[KEY].items()}


def test_nan_rate_and_shifted_corner_count_as_failed_ops():
    nan_rate = reference_copy()
    nan_rate["rates"][5, 1] = np.nan
    shifted = reference_copy()
    shifted["rates"][7] += [0.0, 1e-7]
    # An op that hands back prepared outputs, checked the way a timed op is.
    wl = replace(WORKLOADS["sweep"], op=lambda out: out, extract=lambda out: out)
    item = next(it for it in wl.make_pool() if it.key == KEY)
    tally = Tally()
    for out in (reference_copy(), nan_rate, shifted):
        tally.add(item, *run_op(wl, replace(item, args=(out,)), REFS))
    assert tally.bad == [False, True, True]
    assert tally.failed == 2


def test_nan_area_missing_output_and_changed_shape_are_mismatches():
    nan_area = reference_copy()
    nan_area["area"] = np.array(np.nan)
    assert mismatches(nan_area, REFS[KEY])
    missing = reference_copy()
    del missing["area"]
    assert mismatches(missing, REFS[KEY])
    short = reference_copy()
    short["rates"] = short["rates"][:-1]
    assert mismatches(short, REFS[KEY])


def test_rounding_noise_within_tolerance_passes():
    got = reference_copy()
    got["rates"] += 1e-12
    got["area"] = got["area"] * (1.0 + 1e-12)
    assert mismatches(got, REFS[KEY]) == []


def test_live_ops_match_reference():
    for name in WORKLOADS:
        wl = WORKLOADS[name]
        item = min(wl.make_pool(), key=lambda it: (it.shape != "n2", it.shape != "n32", it.key))
        assert abs(fingerprint(item) - PRINTS[item.key]) <= 1e-12 * PRINTS[item.key]
        assert mismatches(wl.extract(wl.op(*item.args)), REFS[item.key]) == []


def test_times_in_cal_hold_when_the_host_slows_partway():
    # The host slows 1.7x halfway through; the op and the kernel slow alike.
    wl = WORKLOADS["miso"]
    item = wl.make_pool()[0]
    steady, swung = Tally(), Tally()
    for i in range(60):
        scale = 1.7 if i >= 30 else 1.0
        for tally, s in ((steady, 1.0), (swung, scale)):
            tally.add(item, round(s * (80e6 + 1e5 * (i % 7))), [])
            tally.cal_ns.append(round(s * 2e6))
    want, want_notes = latency_metrics(wl, steady)
    got, got_notes = latency_metrics(wl, swung)
    for name in ("corners_per_cal", "latency_p50_cal", "latency_tail_cal"):
        assert got[name] == pytest.approx(want[name])
    assert got_notes["corners_per_s"] < 0.8 * want_notes["corners_per_s"]
