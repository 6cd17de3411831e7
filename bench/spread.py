"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 bench/spread.py --seeds 31-40 --out bench_spread.json
    python3 bench/spread.py --seeds 31-35 --workloads sweep miso

Run from the repository root.  It runs ``run.py`` once per seed and
workload, one run at a time, at the ``run_seconds`` of ``BENCHMARK.json``,
and prints for each end-to-end metric its median and its spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) over the median, next to the metric's bound.  With ``--trace-seed``
it adds one traced run.  ``--out`` writes everything to a JSON file in the
layout of ``BENCH_baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with code {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported failed ops:\n{proc.stdout}")
    return json.loads(lines[-2])["run"], result


def quartile_spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("31-40"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {
        "what": "Baseline of the benchmark in this directory (python3 bench/run.py). End-to-end "
                "metrics: one run per seed and workload at run_seconds; median, quartiles and "
                "spread = (q3 - q1) / median; notes are the same timings in ms. Per-layer "
                "metrics: one traced run (--trace 1) at trace_seed.",
        "run_seconds": seconds,
        "trace_seed": args.trace_seed,
        "end_to_end": {},
    }
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "seeds": args.seeds,
            "ops": [info["ops"] for info, _ in runs],
            "latency_tail_pct": [round(info["latency_tail_pct"], 2) for info, _ in runs],
            "metrics": {},
            "notes": {},
        }
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for _, res in runs]
            stats = quartile_spread(values)
            entry["metrics"][name] = {"unit": runs[0][1]["metrics"][name]["unit"], **stats,
                                      "bound": bound, "values": values}
            flag = "" if stats["spread"] <= bound / 3 or name == "setup_s" else "  above bound/3"
            print(f"{workload:8s} {name:16s} median {stats['median']:12.6g}"
                  f"  spread {stats['spread']:.3f}  bound {bound}{flag}", flush=True)
        for name in ("corners_per_s", "latency_p50_ms", "latency_tail_ms", "cal_ms"):
            values = [info[name] for info, _ in runs]
            stats = entry["notes"][name] = {**quartile_spread(values), "values": values}
            print(f"{workload:8s} {name:16s} median {stats['median']:12.6g}"
                  f"  spread {stats['spread']:.3f}  (note)", flush=True)
        record["end_to_end"][workload] = entry
        record.setdefault("environment", runs[0][0]["environment"])
        record.setdefault("library", {k: runs[0][0][k] for k in ("git_commit", "src_sha256")})

    if args.trace_seed is not None:
        info, res = run(args.workloads[0], args.trace_seed, seconds, 1)
        record["per_layer"] = res["metrics"]
        record["traced_runs"] = info["workloads"]

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
