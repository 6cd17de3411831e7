"""Regenerate ``reference.npz``: the outputs of every pool input at this commit.

Run from the repository root only when the pools in ``workloads.py`` change,
never to make a failing benchmark pass:

    python3 bench/make_reference.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from verify import REFERENCE_FILE  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402


def main() -> None:
    arrays = {}
    for wl in WORKLOADS.values():
        for item in wl.make_pool():
            for field, value in wl.extract(wl.op(*item.args)).items():
                arrays[f"{item.key}.{field}"] = np.asarray(value, dtype=float)
            arrays[f"{item.key}.fingerprint"] = np.array(fingerprint(item))
    np.savez_compressed(REFERENCE_FILE, **arrays)
    print(f"wrote {len(arrays)} arrays to {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
