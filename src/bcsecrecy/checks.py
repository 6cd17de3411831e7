"""Randomized invariant battery shared by the test suite and the CLI.

Every check draws fresh instances from one seeded generator, pushes them
through the public API, and records the worst residual it sees.  A residual
above its tolerance marks the invariant as violated; the CLI maps that to a
nonzero exit code.  A NaN residual is a violation too: it sticks as the
worst value and fails every tolerance.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .avgpower import _blocks, _check_count, allocate, corner_rates, diagonalize, make_matrix_constraint
from .linalg import _split_tie, herm, projector, psd_sqrt, rate_logdet
from .precoding import loss_bounded_precoders, optimal_precoders, rate_evaluate
from .sdpc import Channel, SdpcSolution, _pencil, orthogonality_defect, solve_matrix_constraint

# Report order; values are the pass thresholds on the max residual.
TOLERANCES = {
    "gevd_diagonalizes": 1e-8,
    "gevd_eigenvalues": 1e-8,
    "sqrt_roundtrip": 1e-10,
    "projector": 1e-10,
    "corner_identity": 1e-8,
    "corner_optimality": 1e-8,
    "swap_symmetry": 1e-8,
    "rank_bound": 0.0,
    "loss_identity": 1e-7,
    "sigma_sum": 1e-9,
    "pencil_range": 1e-9,
    "kkt_stationarity": 1e-8,
    "budget_equality": 1e-10,
    "sw_defect": 1e-8,
    "sw_corner_match": 1e-8,
    "sw_linear_match": 1e-8,
}


@dataclass
class InvariantResult:
    """Worst residual observed for one invariant across all trials."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass
class CheckReport:
    """Outcome of one battery run."""

    trials: int
    dim: int
    seed: int
    results: list[InvariantResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "dim": self.dim,
            "seed": self.seed,
            "ok": self.ok,
            "invariants": [{**asdict(r), "ok": r.ok} for r in self.results],
        }


def random_channel(rng: np.random.Generator, dim: int) -> Channel:
    """Complex Gaussian channel pair with random receiver counts."""
    m1 = int(rng.integers(1, dim + 1))
    m2 = int(rng.integers(1, dim + 1))
    h = rng.standard_normal((m1, dim)) + 1j * rng.standard_normal((m1, dim))
    g = rng.standard_normal((m2, dim)) + 1j * rng.standard_normal((m2, dim))
    return Channel(h, g)


def random_constraint(rng: np.random.Generator, dim: int, trace: float) -> np.ndarray:
    """Full-rank Wishart matrix normalized to the given trace."""
    f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s = herm(f @ f.conj().T)
    return s * (trace / float(np.trace(s).real))


def random_dominated(rng: np.random.Generator, s_sqrt: np.ndarray) -> np.ndarray:
    """Random covariance K with 0 <= K <= S, from S^1/2 U diag(u) U^H S^1/2."""
    n = s_sqrt.shape[0]
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(f)
    d = rng.uniform(0.0, 1.0, n)
    return herm(s_sqrt @ ((q * d) @ q.conj().T) @ s_sqrt)


def _rel(x: np.ndarray, ref: float) -> float:
    return float(np.linalg.norm(x) / (1.0 + ref))


def _objective(ch: Channel, k: np.ndarray) -> float:
    return rate_logdet(ch.H, k) - rate_logdet(ch.G, k)


def _gevd_residuals(ch, s_sqrt, res):
    c, lam = res.eigvecs, res.eigvals
    a, b = _pencil(s_sqrt, ch.H, ch.G)
    diag = _rel(c.conj().T @ a @ c - np.diag(lam), float(np.linalg.norm(a)))
    unit = _rel(c.conj().T @ b @ c - np.eye(len(lam)), float(np.linalg.norm(b)))
    brute = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)[::-1]
    eig = float(np.max(np.abs(brute - lam) / (1.0 + np.abs(brute))))
    return np.maximum(diag, unit), eig


def _rank_bound_counts(dc, sol: SdpcSolution) -> tuple[int, int, int, int]:
    """(b, pencil eigenvalues below one, and the live subchannels of each user's
    block in ``_blocks(dc)``: by Sylvester's law, the positive and negative
    eigenvalues of H^H H - G^H G on the range).  b can never exceed the third,
    nor the below-one count the fourth.  Ties, within ``_split_tie`` of one or
    ``SIGMA_TIE_TOL`` of sigma1 = sigma2, count on neither side."""
    lam = sol.gevd.eigvals
    below = np.count_nonzero(lam < 1.0 - _split_tie(lam.max(initial=0.0)))
    m_pos, m_neg = (int(np.count_nonzero(live)) for *_, live in _blocks(dc))
    return sol.gevd.b, int(below), m_pos, m_neg


def _waterfill_residuals(dc, alloc, pt):
    kkt = budget = 0.0
    fills = ((alloc.p1, alloc.mu1, alloc.alpha * pt), (alloc.p2, alloc.mu2, (1.0 - alloc.alpha) * pt))
    for (strong, weak, cost, live), (p, mu, share) in zip(_blocks(dc), fills):
        if not live.any() or share <= 0 or np.isinf(mu):
            continue
        budget = np.maximum(budget, abs(float(p @ cost) - share) / share)
        on = live & (p > 0)
        if on.any():
            slope = (strong - weak)[on] / ((1.0 + strong[on] * p[on]) * (1.0 + weak[on] * p[on]))
            kkt = np.maximum(kkt, np.max(np.abs(slope - mu * cost[on]) / (mu * cost[on])))
        off = live & (p == 0)
        if off.any():
            kkt = np.maximum(kkt, np.max((strong - weak)[off] - mu * cost[off]))
    return kkt, budget


def run_battery(trials: int, dim: int, seed: int) -> CheckReport:
    """Run every invariant on ``trials`` random instances of width ``dim``."""
    for count, name in ((trials, "trials"), (dim, "dim")):
        _check_count(count, name, minimum=1)
    _check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(TOLERANCES, 0.0)

    def note(name: str, value: float) -> None:
        value = float(value)
        if value > worst[name] or np.isnan(value):
            worst[name] = value

    pt = float(dim)
    for _ in range(trials):
        ch = random_channel(rng, dim)
        s = random_constraint(rng, dim, pt)
        sol = solve_matrix_constraint(ch, s)
        s_sqrt = psd_sqrt(s)

        diag, eig = _gevd_residuals(ch, s_sqrt, sol.gevd)
        note("gevd_diagonalizes", diag)
        note("gevd_eigenvalues", eig)

        note("sqrt_roundtrip", _rel(s_sqrt @ s_sqrt - s, float(np.linalg.norm(s))))

        c1 = sol.gevd.upper_vecs if sol.gevd.b else sol.gevd.eigvecs
        # Unit columns: C^H B C = I sets their norms, which say nothing of their span.
        c1 = c1 / np.linalg.norm(c1, axis=0)
        p1 = projector(c1)
        note("projector", _rel(p1 @ p1 - p1, 1.0))
        note("projector", _rel(p1 @ c1 - c1, float(np.linalg.norm(c1))))

        r1, r2 = sol.corner.nats()
        direct1 = _objective(ch, sol.kt_star)
        direct2 = direct1 - _objective(ch, s)  # R2 = f(K*) - f(S) for f the H-over-G gap
        note("corner_identity", abs(r1 - direct1))
        note("corner_identity", abs(r2 - direct2))

        for _ in range(5):
            k = random_dominated(rng, s_sqrt)
            note("corner_optimality", np.maximum(0.0, _objective(ch, k) - direct1))

        swapped = solve_matrix_constraint(ch.swapped(), s)
        note("swap_symmetry", abs(sol.corner.R1 - swapped.corner.R2))
        note("swap_symmetry", abs(sol.corner.R2 - swapped.corner.R1))

        dc = diagonalize(ch)
        b, below, m_pos, m_neg = _rank_bound_counts(dc, sol)
        note("rank_bound", 0.0 if b <= m_pos and below <= m_neg else 1.0)

        loss = loss_bounded_precoders(sol)
        note("loss_identity", abs(loss.exact.R1 - loss.guaranteed.R1))
        note("loss_identity", abs(loss.exact.R2 - loss.guaranteed.R2))

        note("sigma_sum", float(np.max(np.abs(dc.sigma1 + dc.sigma2 - 1.0))))

        gh, gg = _pencil(dc.basis, ch.H, ch.G)
        lam = np.linalg.eigvals(np.linalg.solve(gg, gh)).real
        note("pencil_range", np.maximum(0.0, lam.max() - 2.0))
        note("pencil_range", np.maximum(0.0, 0.5 - lam.min()))

        alloc = allocate(dc, float(rng.uniform(0.05, 0.95)), pt)
        kkt, budget = _waterfill_residuals(dc, alloc, pt)
        note("kkt_stationarity", kkt)
        note("budget_equality", budget)

        p = alloc.full_vector()
        if p.sum() > 0:
            s_w = make_matrix_constraint(dc, p)
            sol_w = solve_matrix_constraint(ch, s_w)
            note("sw_defect", orthogonality_defect(sol_w))
            want = corner_rates(dc, alloc)
            note("sw_corner_match", abs(sol_w.corner.R1 - want.R1))
            note("sw_corner_match", abs(sol_w.corner.R2 - want.R2))
            got = rate_evaluate(ch, optimal_precoders(sol_w))
            note("sw_linear_match", abs(got.R1 - sol_w.corner.R1))
            note("sw_linear_match", abs(got.R2 - sol_w.corner.R2))

    results = [InvariantResult(k, worst[k], tol) for k, tol in TOLERANCES.items()]
    return CheckReport(trials, dim, seed, results)
