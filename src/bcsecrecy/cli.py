"""Command-line front end: JSON channels in, CSV or JSON results out.

Exit codes: 0 success, 1 invariant violation (``check``), 2 malformed
input, 3 numerical failure; failure messages name the subcommand.  Output
is deterministic for fixed flags and seed, floats are written with
round-trip precision, and line endings are always LF.
"""

import argparse
import json
import sys

import numpy as np

from .avgpower import allocate, diagonalize, make_matrix_constraint, region_sweep
from .baseline import SearchConfig, search_region
from .checks import FAULTS, run_battery
from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    SecrecyError,
    ZeroChannelError,
)
from .linalg import LN2
from .miso import MisoChannel, miso_region
from .sdpc import Channel, orthogonality_defect, solve_matrix_constraint


class InputFileError(Exception):
    """Channel or constraint file does not match the documented schema."""


# Errors the user can fix by correcting flags or files, versus genuine
# numerical failures inside an otherwise well-posed computation.
INPUT_ERRORS = (
    InputFileError,
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    ZeroChannelError,
    ValueError,
    OSError,
)


def complex_matrix(node, name: str) -> np.ndarray:
    """Decode a row-major nested array of [re, im] pairs."""
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"{name} is not a rectangular numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputFileError(f"{name} must be a non-empty matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_pairs(m: np.ndarray) -> list:
    """Inverse of ``complex_matrix``: complex matrix to nested [re, im] pairs."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise InputFileError(f"{path} must hold a JSON object")
    return doc


def load_channel(path: str) -> tuple[Channel, float | None]:
    """Read a channel file; returns the pair and the optional power hint."""
    doc = _load_json(path)
    if "H" not in doc or "G" not in doc:
        raise InputFileError(f"{path} must define both 'H' and 'G'")
    h = complex_matrix(doc["H"], "H")
    g = complex_matrix(doc["G"], "G")
    pt = doc.get("Pt")
    if pt is not None:
        pt = float(pt)
        if not pt > 0:
            raise InputFileError("Pt must be positive when present")
    return Channel(h, g), pt


def load_constraint(path: str) -> np.ndarray:
    doc = _load_json(path)
    if "S" not in doc:
        raise InputFileError(f"{path} must define 'S'")
    return complex_matrix(doc["S"], "S")


def _resolve_power(flag: float | None, hint: float | None) -> float:
    power = flag if flag is not None else hint
    if power is None:
        raise InputFileError("no --power given and the channel file has no Pt")
    if not power > 0:
        raise InputFileError("power must be positive")
    return float(power)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` with LF line endings, or to stdout."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _write_rows(path: str | None, header: tuple, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: str | None, obj) -> None:
    _write(path, json.dumps(obj) + "\n")


def cmd_region(args) -> int:
    ch, hint = load_channel(args.channels)
    power = _resolve_power(args.power, hint)
    if args.alpha_grid < 2:
        raise InputFileError("--alpha-grid must be at least 2")
    est = region_sweep(ch, power, args.alpha_grid)
    if args.dump_sw is not None:
        dc = diagonalize(ch)
        s_w = make_matrix_constraint(dc, allocate(dc, args.dump_sw_alpha, power).full_vector())
    scale, unit = (LN2, "nats") if args.nats else (1.0, "bits")
    rows = sorted(
        (p.alpha, p.R1 * scale, p.R2 * scale, p.provenance) for p in est.points
    )
    _write_rows(args.out, ("alpha", f"R1_{unit}", f"R2_{unit}", "provenance"), rows)
    if args.dump_sw is not None:
        _write_json(args.dump_sw, {"S": matrix_pairs(s_w)})
    return 0


def cmd_corner(args) -> int:
    ch, _ = load_channel(args.channels)
    s = load_constraint(args.constraint)
    sol = solve_matrix_constraint(ch, s)
    _write_json(
        None,
        {
            "R1_bits": sol.corner.R1,
            "R2_bits": sol.corner.R2,
            "b": sol.gevd.b,
            "defect": orthogonality_defect(sol),
        },
    )
    return 0


def cmd_miso(args) -> int:
    ch, hint = load_channel(args.channels)
    power = _resolve_power(args.power, hint)
    if ch.H.shape[0] != 1 or ch.G.shape[0] != 1:
        raise InputFileError("miso needs single-row H and G")
    if args.alpha_grid < 2:
        raise InputFileError("--alpha-grid must be at least 2")
    points = miso_region(MisoChannel(ch.H[0], ch.G[0]), power, args.alpha_grid)
    rows = [(p.alpha, p.c1, p.c2, p.r1, p.r2) for p in points]
    _write_rows(args.out, ("alpha", "C1", "C2", "R1", "R2"), rows)
    return 0


def cmd_baseline(args) -> int:
    ch, hint = load_channel(args.channels)
    power = _resolve_power(args.power, hint)
    cfg = SearchConfig(samples=args.samples, seed=args.seed, pt=power)
    est = search_region(ch, cfg)
    # Hull vertices carry no single alpha; the row order is R1 ascending.
    rows = [(float("nan"), x, y, "baseline-hull") for x, y in est.hull.vertices]
    _write_rows(args.out, ("alpha", "R1_bits", "R2_bits", "provenance"), rows)
    return 0


def cmd_check(args) -> int:
    report = run_battery(args.trials, args.dim, args.seed, args.inject_fault)
    width = max(len(r.name) for r in report.results)
    for r in report.results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  {r.max_residual:12.5e}  tol {r.tolerance:8.1e}  {status}")
    print(json.dumps(report.as_dict()))
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcsecrecy",
        description="Secrecy rate regions of two-user Gaussian MIMO broadcast channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="sweep the power split and emit corner points")
    region.add_argument("--channels", required=True, help="channel JSON file")
    region.add_argument("--power", type=float, help="total transmit power (overrides Pt)")
    region.add_argument("--alpha-grid", type=int, default=101, help="sweep resolution")
    region.add_argument("--out", help="CSV path (stdout when omitted)")
    region.add_argument("--nats", action="store_true", help="emit nats instead of bits")
    region.add_argument("--dump-sw", help="also write the sweep covariance as a constraint JSON")
    region.add_argument("--dump-sw-alpha", type=float, default=0.5,
                        help="power split for --dump-sw")
    region.set_defaults(func=cmd_region)

    corner = sub.add_parser("corner", help="corner point under a matrix constraint")
    corner.add_argument("--channels", required=True, help="channel JSON file")
    corner.add_argument("--constraint", required=True, help="constraint JSON file")
    corner.set_defaults(func=cmd_corner)

    miso = sub.add_parser("miso", help="single-antenna receivers: capacity and beamforming")
    miso.add_argument("--channels", required=True, help="channel JSON file (single-row H, G)")
    miso.add_argument("--power", type=float, help="total transmit power (overrides Pt)")
    miso.add_argument("--alpha-grid", type=int, default=101, help="sweep resolution")
    miso.add_argument("--out", help="CSV path (stdout when omitted)")
    miso.set_defaults(func=cmd_miso)

    baseline = sub.add_parser("baseline", help="randomized search over matrix constraints")
    baseline.add_argument("--channels", required=True, help="channel JSON file")
    baseline.add_argument("--power", type=float, help="total transmit power (overrides Pt)")
    baseline.add_argument("--samples", type=int, default=1000, help="random constraints to try")
    baseline.add_argument("--seed", type=int, default=0, help="search seed")
    baseline.add_argument("--out", help="CSV path (stdout when omitted)")
    baseline.set_defaults(func=cmd_baseline)

    check = sub.add_parser("check", help="run the randomized invariant battery")
    check.add_argument("--trials", type=int, default=20, help="random instances per invariant")
    check.add_argument("--dim", type=int, default=4, help="transmit antenna count")
    check.add_argument("--seed", type=int, default=0, help="instance seed")
    check.add_argument("--inject-fault", choices=FAULTS, help="test hook: corrupt one stage")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except SecrecyError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
