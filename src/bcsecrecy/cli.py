"""Command-line front end: JSON channels in, CSV or JSON results out.

Exit codes: 0 success, 1 invariant violation (``check``), 2 malformed
input, 3 numerical failure; failure messages name the subcommand.  Output
is deterministic for fixed flags and seed, floats are written with
round-trip precision, and line endings are always LF.
"""

import argparse
import contextlib
import json
import os
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


def _read(path: str, *keys: str) -> tuple[dict, list[np.ndarray]]:
    """The JSON object in ``path`` and its matrices under ``keys``.  Every JSON number,
    integers included, reads as a float, so one beyond the float range reads as inf."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f, parse_int=float)
    if not isinstance(doc, dict):
        raise InputFileError(f"{path} must hold a JSON object")
    if not all(key in doc for key in keys):
        raise InputFileError(f"{path} must define {' and '.join(map(repr, keys))}")
    return doc, [complex_matrix(doc[key], key) for key in keys]


def load_channel(path: str) -> tuple[Channel, float | None]:
    """Read a channel file; returns the pair and the optional power hint."""
    doc, (h, g) = _read(path, "H", "G")
    pt = doc.get("Pt")  # a float exactly when the file gives a number
    if pt is not None and not (isinstance(pt, float) and pt > 0):
        raise InputFileError("Pt must be a positive number when present")
    return Channel(h, g), pt


def _channel_and_power(args) -> tuple[Channel, float]:
    """The ``--channels`` pair and ``--power``, else ``Pt``."""
    ch, hint = load_channel(args.channels)
    power = args.power if args.power is not None else hint
    if power is None:
        raise InputFileError("no --power given and the channel file has no Pt")
    if not power > 0:
        raise InputFileError("power must be positive")
    return ch, power


def _grid(args) -> int:
    if args.alpha_grid < 2:
        raise InputFileError("--alpha-grid must be at least 2")
    return args.alpha_grid


def _csv(header: tuple, rows: list) -> str:
    cells = ([v if isinstance(v, str) else repr(float(v)) for v in row] for row in rows)
    return "".join(",".join(row) + "\n" for row in [header, *cells])


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each ``(path, text)``, to stdout for a None path.  Every file is opened
    before any is written; if one cannot be, the files this call created are removed."""
    # As if written in turn: every spelling of one file shares a handle and its last text.
    texts = {path and os.path.realpath(path): (path, text) for path, text in outputs}
    with contextlib.ExitStack() as undo, contextlib.ExitStack() as stack:
        files = {None: sys.stdout}
        for key, (path, _) in texts.items():
            if key is not None:
                if not os.path.lexists(path):  # never remove a file this call did not create
                    undo.callback(os.remove, path)
                files[key] = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
        undo.pop_all()
        for key, (_, text) in texts.items():
            files[key].write(text)


def cmd_region(args) -> int:
    ch, power = _channel_and_power(args)
    est = region_sweep(ch, power, _grid(args))
    scale, unit = (LN2, "nats") if args.nats else (1.0, "bits")
    rows = zip(est.alphas, *(est.rates * scale).T, est.provenance)
    outputs = [(args.out, _csv(("alpha", f"R1_{unit}", f"R2_{unit}", "provenance"), rows))]
    if args.dump_sw is not None:
        dc = diagonalize(ch)
        s_w = make_matrix_constraint(dc, allocate(dc, args.dump_sw_alpha, power).full_vector())
        outputs.append((args.dump_sw, json.dumps({"S": matrix_pairs(s_w)}) + "\n"))
    _write(*outputs)
    return 0


def cmd_corner(args) -> int:
    ch, _ = load_channel(args.channels)
    _, (s,) = _read(args.constraint, "S")
    sol = solve_matrix_constraint(ch, s)
    doc = {
        "R1_bits": sol.corner.R1,
        "R2_bits": sol.corner.R2,
        "b": sol.gevd.b,
        "defect": orthogonality_defect(sol),
    }
    _write((None, json.dumps(doc) + "\n"))
    return 0


def cmd_miso(args) -> int:
    ch, power = _channel_and_power(args)
    if ch.H.shape[0] != 1 or ch.G.shape[0] != 1:
        raise InputFileError("miso needs single-row H and G")
    reg = miso_region(MisoChannel(ch.H[0], ch.G[0]), power, _grid(args))
    rows = zip(*(x.tolist() for x in (reg.alphas, reg.c1, reg.c2, reg.r1, reg.r2)))
    _write((args.out, _csv(("alpha", "C1", "C2", "R1", "R2"), rows)))
    return 0


def cmd_baseline(args) -> int:
    ch, power = _channel_and_power(args)
    cfg = SearchConfig(samples=args.samples, seed=args.seed, pt=power)
    est = search_region(ch, cfg)
    # Hull vertices carry no single alpha; the row order is R1 ascending.
    rows = [(float("nan"), x, y, "baseline-hull") for x, y in est.hull.vertices]
    _write((args.out, _csv(("alpha", "R1_bits", "R2_bits", "provenance"), rows)))
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

    def command(name, func, summary, parents=()):
        cmd = sub.add_parser(name, parents=parents, help=summary)
        cmd.set_defaults(func=func)
        return cmd

    channels = argparse.ArgumentParser(add_help=False)
    channels.add_argument("--channels", required=True, help="channel JSON file")
    powered = argparse.ArgumentParser(add_help=False, parents=[channels])
    powered.add_argument("--power", type=float, help="total transmit power (overrides Pt)")
    powered.add_argument("--out", help="CSV path (stdout when omitted)")
    sweep = argparse.ArgumentParser(add_help=False, parents=[powered])
    sweep.add_argument("--alpha-grid", type=int, default=101, help="sweep resolution")

    region = command("region", cmd_region, "sweep the power split and emit corner points", [sweep])
    region.add_argument("--nats", action="store_true", help="emit nats instead of bits")
    region.add_argument("--dump-sw", help="also write the sweep covariance as a constraint JSON")
    region.add_argument("--dump-sw-alpha", type=float, default=0.5,
                        help="power split for --dump-sw")

    corner = command("corner", cmd_corner, "corner point under a matrix constraint", [channels])
    corner.add_argument("--constraint", required=True, help="constraint JSON file")

    command("miso", cmd_miso, "single-antenna receivers: capacity and beamforming", [sweep])

    baseline = command("baseline", cmd_baseline, "randomized search over matrix constraints",
                       [powered])
    baseline.add_argument("--samples", type=int, default=1000, help="random constraints to try")
    baseline.add_argument("--seed", type=int, default=0, help="search seed")

    check = command("check", cmd_check, "run the randomized invariant battery")
    check.add_argument("--trials", type=int, default=20, help="random instances per invariant")
    check.add_argument("--dim", type=int, default=4, help="transmit antenna count")
    check.add_argument("--seed", type=int, default=0, help="instance seed")
    check.add_argument("--inject-fault", choices=FAULTS, help="test hook: corrupt one stage")

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
