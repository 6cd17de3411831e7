"""Comparison of op outputs against the stored reference outputs.

Values are compared raw, element by element, with ``abs(got - want) <= tol``:
a NaN on either side makes that comparison false, so it counts as a
mismatch instead of being folded away.  A missing output or a changed shape
is a mismatch too.
"""

from pathlib import Path

import numpy as np

RATE_TOL_BITS = 1e-8   # absolute, on every rate (and loss) in bits
AREA_REL_TOL = 1e-9    # relative, on region areas

REFERENCE_FILE = Path(__file__).with_name("reference.npz")


def mismatches(got: dict, want: dict) -> list[str]:
    """Reasons ``got`` differs from ``want``; empty when every value matches.

    ``area`` is compared relative to the reference, ``b`` (an eigenvalue
    count) exactly, everything else as rates in bits.
    """
    problems = []
    for key, ref in want.items():
        if key not in got or got[key] is None:
            problems.append(f"{key}: missing")
            continue
        have = np.asarray(got[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        if have.shape != ref.shape:
            problems.append(f"{key}: shape {have.shape}, reference {ref.shape}")
            continue
        if key == "area":
            tol = AREA_REL_TOL * np.abs(ref)
        elif key == "b":
            tol = 0.0
        else:
            tol = RATE_TOL_BITS
        bad = ~(np.abs(have - ref) <= tol)
        if np.any(bad):
            first = np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.ndim else ()
            problems.append(
                f"{key}: {int(np.sum(bad))} of {bad.size} values differ, first at "
                f"{first}: {have[first]!r} vs reference {ref[first]!r}"
            )
    return problems


def load_reference(path: Path = REFERENCE_FILE) -> tuple[dict, dict]:
    """Reference outputs by item key (a dict of arrays by output name each),
    and the input fingerprint of every item."""
    refs: dict[str, dict[str, np.ndarray]] = {}
    prints: dict[str, float] = {}
    with np.load(path) as data:
        for name in data.files:
            item, _, field = name.rpartition(".")
            if field == "fingerprint":
                prints[item] = float(data[name])
            else:
                refs.setdefault(item, {})[field] = data[name]
    return refs, prints
