"""The four benchmark workloads: seeded input pools, op sequences, ops, outputs.

Every input comes from a fixed pool per workload, generated from
``POOL_ENTROPY`` so that the reference outputs in ``reference.npz`` cover
every input a run can see.  The run's ``--seed`` picks the order in which
pool items are used.  Ops run in whole blocks; a block holds one op of every
class in ``Workload.pattern``, so each run has the same mix of input classes
whatever its seed and length, and run-to-run spread comes from timing alone.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import bcsecrecy as bc

# Changing this changes every input: regenerate reference.npz afterwards.
POOL_ENTROPY = 13044627

# The worked channel pair of the package README.
WORKED_H = np.array([[0.3, 2.5], [2.2, 1.8]], dtype=complex)
WORKED_G = np.array([[1.3, 1.2], [1.5, 3.9]], dtype=complex)

SPLITS = 101             # alpha grid of region_sweep, miso_region and the sw family
BASELINE_SAMPLES = 1000  # sampled constraints per search_region op


@dataclass(frozen=True)
class Item:
    """One pool input: ``key`` names its reference outputs, ``cls`` its class
    in the block pattern, ``shape`` the warm-up group it belongs to."""

    key: str
    cls: str
    shape: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple[str, ...]
    op: Callable
    extract: Callable[[object], dict]
    corners: int
    make_pool: Callable[[], list[Item]]
    trace_blocks: int                    # blocks per traced pass at --seconds 20
    layers: tuple[str, ...]              # modules the op enters at this commit
    call_us: tuple[str, ...]             # functions whose time per call is reported


# Exact counts reported for every workload (zero where a module is not entered).
COUNTS = (
    "linalg.lapack_calls",
    "linalg.gevd_definite.calls",
    "linalg.herm_eig.calls",
    "linalg.projector.calls",
    "sdpc.solve_matrix_constraint.calls",
    "precoding.rate_evaluate.calls",
    "avgpower.waterfill.calls",
    "avgpower.diagonalize.calls",
    "hull.points_in",
)


def _rng(workload: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(POOL_ENTROPY, spawn_key=(workload, index)))


def _cgauss(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _keyed(name: str, items: list[tuple[str, str, tuple]]) -> list[Item]:
    return [Item(f"{name}.{i}", cls, shape, args) for i, (cls, shape, args) in enumerate(items)]


def _sweep_pool() -> list[Item]:
    items = [("worked", "n2", (bc.Channel(WORKED_H, WORKED_G), pt)) for pt in (1.0, 12.0, 100.0)]
    for n in (2, 4, 8):
        for pt in (1.0, 12.0, 100.0):
            for _ in range(3):
                rng = _rng(0, len(items))
                m1, m2 = (int(m) for m in rng.integers(1, n + 1, size=2))
                ch = bc.Channel(_cgauss(rng, m1, n), _cgauss(rng, m2, n))
                items.append((f"n{n}-pt{pt:g}", f"n{n}", (ch, pt)))
    return _keyed("sweep", items)


def _baseline_pool() -> list[Item]:
    worked = bc.Channel(WORKED_H, WORKED_G)
    items = []
    for _ in range(3):
        items.append(("worked", "n2", (worked, bc.SearchConfig(BASELINE_SAMPLES, len(items), 12.0))))
        rng = _rng(1, len(items))
        ch = bc.Channel(_cgauss(rng, 4, 4), _cgauss(rng, 4, 4))
        items.append(("n4", "n4", (ch, bc.SearchConfig(BASELINE_SAMPLES, len(items), 12.0))))
    return _keyed("baseline", items)


def _miso_pool() -> list[Item]:
    items = []
    for n in (2, 4, 8):
        for pt in (1.0, 10.0, 100.0):
            for _ in range(2):
                rng = _rng(2, len(items))
                mc = bc.MisoChannel(_cgauss(rng, 1, n)[0], _cgauss(rng, 1, n)[0])
                items.append((f"n{n}-pt{pt:g}", f"n{n}", (mc, pt)))
    return _keyed("miso", items)


def _wide_pool() -> list[Item]:
    items = []
    for n, full, half in ((32, 18, 6), (128, 6, 2)):
        for rank, count in ((n, full), (n // 2, half)):
            for _ in range(count):
                rng = _rng(3, len(items))
                ch = bc.Channel(_cgauss(rng, n, n), _cgauss(rng, n, n))
                a = _cgauss(rng, n, rank)
                s = a @ a.conj().T
                s = 0.5 * (s + s.conj().T) * (n / float(np.real(np.trace(s))))
                tag = "full" if rank == n else "half"
                items.append((f"n{n}-{tag}", f"n{n}", (ch, s)))
    return _keyed("wide", items)


def _wide_pattern() -> tuple[str, ...]:
    # 3:1 by count of n=32 to n=128; constraint of rank n/2 on one op in four
    # of each size (where the group of four equals the position in it).
    return tuple(
        f"n{128 if i % 4 == 3 else 32}-{'half' if i // 4 == i % 4 else 'full'}"
        for i in range(16)
    )


def _region_outputs(est) -> dict:
    rates = np.array([[p.R1, p.R2] for p in est.points], dtype=float)
    return {"rates": rates, "area": np.array(est.area, dtype=float)}


def _miso_outputs(points) -> dict:
    def num(v):
        return np.nan if v is None else v

    rates = np.array([[p.c1, p.c2, num(p.r1), num(p.r2)] for p in points], dtype=float)
    return {"rates": rates}


def _wide_op(ch, s):
    sol = bc.solve_matrix_constraint(ch, s)
    return sol, bc.loss_bounded_precoders(sol)


def _wide_outputs(out) -> dict:
    sol, rep = out
    rates = [sol.corner.R1, sol.corner.R2, rep.guaranteed.R1, rep.guaranteed.R2,
             rep.exact.R1, rep.exact.R2, rep.loss_bits]
    return {"rates": np.array(rates, dtype=float), "b": np.array(sol.gevd.b, dtype=float)}


# Ops look the library function up on the package at call time, so the
# traced pass sees the wrapped version.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            pattern=("worked",) + tuple(f"n{n}-pt{pt}" for n in (2, 4, 8) for pt in (1, 12, 100)),
            op=lambda ch, pt: bc.region_sweep(ch, pt, SPLITS),
            extract=_region_outputs,
            corners=SPLITS,
            make_pool=_sweep_pool,
            trace_blocks=2,
            layers=("linalg", "avgpower", "hull"),
            call_us=("avgpower.waterfill",),
        ),
        Workload(
            name="baseline",
            pattern=("worked", "n4"),
            op=lambda ch, cfg: bc.search_region(ch, cfg),
            extract=_region_outputs,
            corners=BASELINE_SAMPLES + SPLITS,
            make_pool=_baseline_pool,
            trace_blocks=3,
            layers=("linalg", "sdpc", "avgpower", "hull", "baseline"),
            call_us=("avgpower.waterfill", "linalg.gevd_definite", "sdpc.solve_matrix_constraint"),
        ),
        Workload(
            name="miso",
            pattern=tuple(f"n{n}-pt{pt}" for n in (2, 4, 8) for pt in (1, 10, 100)),
            op=lambda mc, pt: bc.miso_region(mc, pt, SPLITS),
            extract=_miso_outputs,
            corners=SPLITS,
            make_pool=_miso_pool,
            trace_blocks=4,
            layers=("linalg", "miso"),
            call_us=("linalg.gevd_definite", "miso.miso_capacity_point", "miso.miso_linear_point"),
        ),
        Workload(
            name="wide",
            pattern=_wide_pattern(),
            op=_wide_op,
            extract=_wide_outputs,
            corners=1,
            make_pool=_wide_pool,
            trace_blocks=2,
            layers=("linalg", "sdpc", "precoding"),
            call_us=("linalg.gevd_definite", "sdpc.solve_matrix_constraint",
                     "precoding.loss_bounded_precoders"),
        ),
    )
}


def blocks(wl: Workload, pool: list[Item], seed: int):
    """Endless sequence of op blocks; ``seed`` fixes which item each op uses."""
    rng = np.random.default_rng(seed)
    by_cls = {c: [it for it in pool if it.cls == c] for c in sorted(set(wl.pattern))}
    order = {c: rng.permutation(len(items)) for c, items in by_cls.items()}
    used = dict.fromkeys(by_cls, 0)
    while True:
        block = []
        for c in wl.pattern:
            items = by_cls[c]
            block.append(items[order[c][used[c] % len(items)]])
            used[c] += 1
        yield block


def warmup_items(pool: list[Item]) -> dict[str, Item]:
    """The first pool item of every distinct input shape."""
    first: dict[str, Item] = {}
    for it in pool:
        first.setdefault(it.shape, it)
    return first


def fingerprint(item: Item) -> float:
    """Sum of squared magnitudes of an item's arrays, to detect drifted inputs."""
    total = 0.0
    for a in item.args:
        if isinstance(a, bc.Channel):
            arrays = (a.H, a.G)
        elif isinstance(a, bc.MisoChannel):
            arrays = (a.h, a.g)
        elif isinstance(a, np.ndarray):
            arrays = (a,)
        else:
            arrays = ()
        total += sum(float(np.sum(np.abs(x) ** 2)) for x in arrays)
    return total
