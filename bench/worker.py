"""One benchmark process: set up one workload, then time it or trace it.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` on
its own line once set-up (interpreter start, imports, input generation and
one warm-up op per input shape) is done, so the parent can time set-up from
outside, and at the end one JSON line with its results.

Modes: ``setup`` stops after set-up; ``measure`` runs whole op blocks until
``--seconds`` have passed, timing the calibration kernel after every op;
``trace`` runs a fixed number of blocks, each op once untraced and once
under ``LayerTracer``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The package applies SECRECY_NUM_THREADS only if it is imported before numpy.
import bcsecrecy  # noqa: E402
import numpy as np  # noqa: E402
from layertrace import LAYERS, LayerTracer  # noqa: E402
from verify import load_reference, mismatches  # noqa: E402
from workloads import COUNTS, WORKLOADS, blocks, fingerprint, warmup_items  # noqa: E402

FINGERPRINT_RTOL = 1e-12
CAL_WINDOW = 5  # an op's time is scaled by the median kernel time of the ops within 5 of it

# The calibration kernel: a Python loop and small numpy and LAPACK calls, the
# mix of work the library does on small channels.  It is the benchmark's own
# code, so no change to the library moves its duration; only the host does.
_CAL_LOOP = 10_000
_CAL_MATS = [m @ m.conj().T + np.eye(4) for m in (
    np.random.default_rng(0).standard_normal((8, 4, 4))
    + 1j * np.random.default_rng(1).standard_normal((8, 4, 4)))]


def calibrate() -> int:
    """Duration of one run of the calibration kernel, in ns."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(_CAL_LOOP):
        acc += i * i % 7
    total = 0.0
    for _ in range(6):
        for m in _CAL_MATS:
            w = np.linalg.eigvalsh(m)
            total += float(np.sum(np.log2(1.0 + np.maximum(w, 0.0))))
    return perf_counter_ns() - t0


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "SECRECY_NUM_THREADS": os.environ.get("SECRECY_NUM_THREADS"),
        "seed": seed,
    }


def run_op(wl, item, refs) -> tuple[int, list[str]]:
    """Time one op, then check its outputs outside the timed region."""
    t0 = perf_counter_ns()
    try:
        out = wl.op(*item.args)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return perf_counter_ns() - t0, [f"raised {type(exc).__name__}: {exc}"]
    dt = perf_counter_ns() - t0
    try:
        problems = mismatches(wl.extract(out), refs[item.key])
    except Exception as exc:  # malformed output: a failed op as well
        problems = [f"unreadable output {type(exc).__name__}: {exc}"]
    return dt, problems


class Tally:
    """Latencies and failures of the ops of one pass, and in a measured pass
    the duration of the calibration kernel timed right after each op."""

    def __init__(self):
        self.ns: list[int] = []
        self.cal_ns: list[int] = []
        self.bad: list[bool] = []
        self.failures: list[str] = []
        self.failed = 0

    def add(self, item, dt: int, problems: list[str]) -> None:
        self.ns.append(dt)
        self.bad.append(bool(problems))
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{item.key}: " + "; ".join(problems))


def latency_metrics(wl, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of a measured pass, and notes about them.

    Op times are given in ``cal``: each op's time over the duration of the
    calibration kernel around it, the median of the kernel times of the
    ops within ``CAL_WINDOW`` of it, so one disturbed kernel run does not
    skew an op.  On the shared host the benchmark was tuned on, the
    machine's speed swings by up to 1.7x for tens of seconds to minutes, and
    the kernel slows with it, so times in ``cal`` keep the library's cost
    and drop most of the host's swing.  The same numbers in ms are notes.  A
    failed op counts as infinitely slow in the percentiles, and completes no
    corner.
    """
    n = len(tally.ns)
    ok = n - tally.failed
    tail_index = max(n - 11, 0)  # leaves 10 samples beyond it when n > 10
    cal = [statistics.median(tally.cal_ns[max(i - CAL_WINDOW, 0):i + CAL_WINDOW + 1])
           for i in range(n)]

    def summary(cost: list[float], suffix: str) -> dict:
        lat = sorted(float("inf") if bad else c for c, bad in zip(cost, tally.bad))
        return {
            f"corners_per_{suffix}": ok * wl.corners / sum(cost),
            f"latency_p50_{suffix}": statistics.median(lat),
            f"latency_tail_{suffix}": lat[tail_index],
        }

    metrics = summary([dt / c for dt, c in zip(tally.ns, cal)], "cal")
    metrics["ok_frac"] = ok / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = summary([dt / 1e6 for dt in tally.ns], "ms")
    notes = {
        "ops": n,
        "corners_per_s": plain.pop("corners_per_ms") * 1e3,
        **plain,
        "cal_ms": sum(tally.cal_ns) / n / 1e6,
        "fail_frac": tally.failed / n,
        "latency_tail_pct": 100.0 * (tail_index + 1) / n,
    }
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(bcsecrecy.__file__).resolve().parents:
        print(f"bcsecrecy imported from {bcsecrecy.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    pool = wl.make_pool()
    warmup_ms = {}
    for shape, item in warmup_items(pool).items():
        t0 = perf_counter_ns()
        wl.op(*item.args)
        warmup_ms[shape] = (perf_counter_ns() - t0) / 1e6
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    refs, prints = load_reference()
    for item in pool:
        want = prints.get(item.key)
        if want is None or abs(fingerprint(item) - want) > FINGERPRINT_RTOL * abs(want):
            print(f"input {item.key} no longer matches reference.npz; "
                  "regenerate it with make_reference.py", file=sys.stderr)
            return 2

    seq = blocks(wl, pool, args.seed)
    result = {"environment": environment(args.seed), "warmup_ms": warmup_ms}
    if args.mode == "measure":
        tally = Tally()
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            for item in next(seq):
                tally.add(item, *run_op(wl, item, refs))
                tally.cal_ns.append(calibrate())
        metrics, notes = latency_metrics(wl, tally)
        result.update(notes)
        passes = [tally]
    else:
        n_blocks = max(1, round(wl.trace_blocks * args.seconds / 20.0))
        items = [item for _ in range(n_blocks) for item in next(seq)]
        metrics, passes = trace_metrics(wl, items, refs)
        result["ops"] = len(items)
    result["attempted"] = sum(len(p.ns) for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["failures"] = [f for p in passes for f in p.failures][:5]
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


def trace_metrics(wl, items, refs) -> tuple[dict, list[Tally]]:
    """Per-layer metrics per op, from running each of ``items`` untraced and
    then traced.  Alternating keeps drift in machine speed out of the
    overhead estimate."""
    plain = Tally()
    traced = Tally()
    tracer = LayerTracer()
    per_op: list[Counter] = []
    for item in items:
        plain.add(item, *run_op(wl, item, refs))
        before = Counter(tracer.self_ns)
        tracer.install()
        try:
            traced.add(item, *run_op(wl, item, refs))
        finally:
            tracer.remove()
        per_op.append(tracer.self_ns - before)

    n = len(items)
    wall_ns = sum(traced.ns)
    self_ns, calls, incl_ns = tracer.self_ns, tracer.calls, tracer.incl_ns
    m = {}
    for layer in wl.layers:
        m[f"{layer}.self_ms"] = self_ns[layer] / n / 1e6
        m[f"{layer}.share"] = self_ns[layer] / wall_ns
    for name in COUNTS:
        m[name] = calls[name.removesuffix(".calls")] / n
    for fn in wl.call_us:
        m[f"{fn}.call_us"] = incl_ns[fn] / max(calls[fn], 1) / 1e3
    m["trace.overhead_frac"] = wall_ns / sum(plain.ns) - 1.0
    m["trace.unattributed_ms"] = (wall_ns - sum(self_ns[layer] for layer in LAYERS)) / n / 1e6
    if wl.name == "wide":
        for shape in ("n32", "n128"):
            own = [op["linalg"] for op, item in zip(per_op, items) if item.shape == shape]
            m[f"linalg.self_ms.{shape}"] = sum(own) / len(own) / 1e6
    return m, [plain, traced]


if __name__ == "__main__":
    sys.exit(main())
