"""Benchmark of bcsecrecy: one workload per run, timed end to end or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it times the workload and
prints its end-to-end metrics; with ``--trace 1`` it traces every workload
(and ``wide`` once more at the default BLAS thread count) and prints the
per-layer metrics of all of them, named ``<workload>.<layer metric>``.  Every
worker runs at one BLAS thread, except that default-thread run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.

This process only starts and reads worker processes (``worker.py``), one at
a time, so that set-up can be timed from interpreter start.  It imports
nothing outside the standard library.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "bcsecrecy"
WORKLOADS = ("sweep", "baseline", "miso", "wide")
SETUPS = 5          # set-ups timed per run; setup_s is their median
DEADLINE_S = 170.0  # whole run, under the 180 s a run may take

# Workers run at one BLAS thread.  At the default (one per core) the n=128
# ops of `wide` slow down three-fold whenever the host contends for the
# second core, which makes their timings bimodal from run to run.  One traced
# run of `wide` keeps the library default, to show what threads buy.
ONE_THREAD = {k: v for k, v in os.environ.items()
              if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ONE_THREAD["SECRECY_NUM_THREADS"] = "1"

# A cal is the duration of the calibration kernel timed right after an op
# (worker.py); end-to-end times are given in it, and in ms as notes.
UNITS = {
    "corners_per_cal": "1/cal",
    "latency_p50_cal": "cal",
    "latency_tail_cal": "cal",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("n32", "n128", "tdefault"):
        return "ms"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("share", "frac"), ("_frac", "frac")):
        if last.endswith(suffix):
            return unit
    return "count"


class Worker:
    """One worker process; times from start until it reports set-up done."""

    def __init__(self, workload: str, seed: int, seconds: float, mode: str, deadline: float,
                 env: dict | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        readable, _, _ = select.select([self.proc.stdout], [], [], max(deadline - perf_counter(), 0.0))
        first = self.proc.stdout.readline() if readable else ""
        self.setup_s = perf_counter() - t0
        if first.strip() != "ready":
            self.finish()
            raise RuntimeError(f"{workload} worker failed during set-up")

    def finish(self) -> dict | None:
        """Wait for the worker; its last JSON line, or None if it wrote none."""
        try:
            out, _ = self.proc.communicate(timeout=max(self.deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker overran the run's deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def source_record() -> dict:
    """Git commit when run in a git checkout, and a digest of the library source."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def finite(value: float) -> float:
    # A percentile over failed (infinitely slow) ops stays a JSON number.
    return value if math.isfinite(value) else sys.float_info.max


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUPS - 1):
        w = Worker(args.workload, args.seed, args.seconds, "setup", deadline, ONE_THREAD)
        w.finish()
        setups.append(w.setup_s)
    w = Worker(args.workload, args.seed, args.seconds, "measure", deadline, ONE_THREAD)
    setups.append(w.setup_s)
    res = w.finish()
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_s_samples"] = setups
    return res, {k: finite(v) for k, v in res["metrics"].items()}


def trace(args, deadline: float) -> tuple[dict, dict]:
    runs = [(name, ONE_THREAD, "") for name in WORKLOADS] + [("wide", None, ".tdefault")]
    info = {"attempted": 0, "failed": 0, "failures": [], "workloads": {}}
    metrics = {}
    for name, env, suffix in runs:
        res = Worker(name, args.seed, args.seconds, "trace", deadline, env).finish()
        info["attempted"] += res["attempted"]
        info["failed"] += res["failed"]
        info["failures"] += res["failures"]
        info["workloads"][name + suffix] = {k: res[k] for k in ("environment", "warmup_ms", "ops")}
        for key, value in res["metrics"].items():
            if not suffix:
                metrics[f"{name}.{key}"] = value
            elif key.startswith("linalg.self_ms.n"):
                metrics[f"{name}.{key}{suffix}"] = value
    return info, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no library source at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        info, metrics = (trace if args.trace else measure)(args, deadline)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    unit = layer_unit if args.trace else UNITS.get
    label = "trace" if args.trace else args.workload
    for name, value in metrics.items():
        print(f"{label}  {name:48s} {value:14.6g} {unit(name)}")
    if not args.trace:
        for name, unit_ in (("corners_per_s", "1/s"), ("latency_p50_ms", "ms"),
                            ("latency_tail_ms", "ms"), ("cal_ms", "ms"), ("fail_frac", "frac")):
            print(f"{label}  {name:48s} {finite(info[name]):14.6g} {unit_}")
        print(f"{label}  tail at p{info['latency_tail_pct']:.1f} of {info['ops']} ops")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    info.pop("metrics", None)
    info.update(source_record(), workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
