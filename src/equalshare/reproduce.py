"""Experiment reproduction: convergence tables, utility and exploitability
evaluation, lower-bound sweeps, and the scaling fit.

The table experiments need hundreds of seeded training runs; they use the
batched trainers of `learners` (every run advances in lockstep, one numpy
Generator drives the whole batch), and `analysis.exploitability`'s exploiter
protocol.  The tests replay each trainer's rule round by round to
cross-check it, as they do for the whole-match forms behind
`arena.run_matches`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .analysis import exploitability, monte_carlo_utility
from .arena import BiasedCoinSchedule, PureSwapSchedule, compute_metrics, run_matches
from .games import SymmetricGame, expected_payoff_mixed
# batch_exploiter is not called here; callers of reproduce.batch_* still import it from here.
from .learners import LearnerSpec, batch_exploiter, batch_hedge_vs_fixed, batch_self_play

CONVERGENCE_THRESHOLD = 0.99
REGULARIZATION_STRENGTHS = (1e-5, 1e-4, 1e-3, 1e-2)  # the roster's sp_bc_reg rows
SCALING_V_BUDGET = 8.0  # variation budget of the scaling fit's biased-coin schedule


def classify(finals: np.ndarray) -> np.ndarray:
    """Pure-strategy label per run: argmax when its mass clears
    CONVERGENCE_THRESHOLD, else -1 for unconverged."""
    top = finals.max(axis=1)
    labels = finals.argmax(axis=1)
    return np.where(top >= CONVERGENCE_THRESHOLD, labels, -1)


# ---------------------------------------------------------------------------
# Table experiments.
# ---------------------------------------------------------------------------

@dataclass
class AlgorithmResult:
    label: str
    finals: np.ndarray
    labels: np.ndarray
    limit_shares: dict[str, float]
    worst_limit: np.ndarray | None = None
    exact_utility: float | None = None
    mc_utility: tuple[float, float] | None = None  # mean, std over eval repeats
    exploit_protocol: float | None = None  # best-of-runs exploiter payoff
    exploit_exact: float | None = None  # grid value

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "limit_shares": self.limit_shares,
            "worst_limit": None if self.worst_limit is None else [float(v) for v in self.worst_limit],
            "exact_utility": self.exact_utility,
            "mc_utility": None if self.mc_utility is None else list(self.mc_utility),
            "exploitability_protocol": self.exploit_protocol,
            "exploitability_grid": self.exploit_exact,
        }


@dataclass
class RunReport:
    name: str
    game: str
    horizon_by_algorithm: dict[str, int]
    runs: int
    seed: int
    rows: list[AlgorithmResult]
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "game": self.game,
            "horizon_by_algorithm": self.horizon_by_algorithm,
            "runs": self.runs,
            "seed": self.seed,
            "rows": [r.as_dict() for r in self.rows],
            "notes": self.notes,
        }

    def to_markdown(self) -> str:
        lines = [f"# {self.name}", ""]
        lines.append(f"game: {self.game}; runs per algorithm: {self.runs}; base seed: {self.seed}")
        lines.append(f"horizons: {self.horizon_by_algorithm}")
        for key, val in self.notes.items():
            lines.append(f"{key}: {val}")
        lines.append("")
        lines.append("## Convergence distribution")
        limits = sorted({k for r in self.rows for k in r.limit_shares})
        lines.append("| algorithm | " + " | ".join(limits) + " |")
        lines.append("|" + "---|" * (len(limits) + 1))
        for r in self.rows:
            cells = [f"{100 * r.limit_shares.get(k, 0.0):.0f}%" for k in limits]
            lines.append(f"| {r.label} | " + " | ".join(cells) + " |")
        lines.append("")
        lines.append("## Utility and exploitability (worst converged limit)")
        lines.append("| algorithm | exact utility | MC utility (mean +/- std) | exploitability (protocol) | exploitability (grid) |")
        lines.append("|---|---|---|---|---|")
        for r in self.rows:
            mc = "-" if r.mc_utility is None else f"{r.mc_utility[0]:.4f} +/- {r.mc_utility[1]:.4f}"
            eu = "-" if r.exact_utility is None else f"{r.exact_utility:.4f}"
            ep = "-" if r.exploit_protocol is None else f"{r.exploit_protocol:.4f}"
            eg = "-" if r.exploit_exact is None else f"{r.exploit_exact:.4f}"
            lines.append(f"| {r.label} | {eu} | {mc} | {ep} | {eg} |")
        lines.append("")
        return "\n".join(lines)

    def convergence_csv(self) -> str:
        lines = ["algorithm,run,label,mass_on_label"]
        for r in self.rows:
            for i, (lab, row) in enumerate(zip(r.labels, r.finals)):
                mass = row.max()
                lines.append(f"{r.label},{i},{int(lab)},{float(mass)!r}")
        return "\n".join(lines) + "\n"


def _limit_shares(labels: np.ndarray, A: int) -> dict[str, float]:
    shares = {}
    for a in range(A):
        shares[f"pure_{a}"] = float(np.mean(labels == a))
    shares["unconverged"] = float(np.mean(labels < 0))
    return shares


def roster() -> list[tuple[str, dict]]:
    entries = [("sp_scratch", {"mode": "scratch"}), ("sp_bc", {"mode": "bc_init"})]
    entries += [(f"sp_bc_reg({lam:g})", {"mode": "regularized", "lam": lam}) for lam in REGULARIZATION_STRENGTHS]
    entries.append(("hedge", {}))
    return entries


def run_table_experiment(
    game: SymmetricGame,
    y_meta: np.ndarray,
    eta: float,
    runs: int = 100,
    seed: int = 0,
    hedge_horizon: int = 200_000,
    sp_horizon: int = 20_000,
    eval_games: int = 300_000,
    eval_repeats: int = 10,
    exploit_runs: int = 100,
    exploit_steps: int = 10_000,
    name: str = "table",
) -> RunReport:
    """Train the whole roster, classify limits, and evaluate the worst
    converged limit's utility (Monte Carlo) and exploitability.

    Self-play rows are evaluated at their worst observed limit, mirroring
    the worst-case reading of multi-limit convergence; hedge converges to a
    single limit so its worst limit is its only one.
    """
    y_meta = np.asarray(y_meta, dtype=float)
    rows = []
    horizons = {}
    for label, cfg in roster():
        label_key = zlib.crc32(label.encode())
        ss_train, ss_eval, ss_exp = np.random.SeedSequence((seed, label_key)).spawn(3)
        rng = np.random.default_rng(ss_train)
        if label == "hedge":
            finals = batch_hedge_vs_fixed(game, y_meta, hedge_horizon, runs, eta, rng)
            horizons[label] = hedge_horizon
        else:
            finals = batch_self_play(
                game, sp_horizon, runs, eta, rng,
                mode=cfg["mode"], lam=cfg.get("lam", 0.0), y_meta=y_meta,
            )
            horizons[label] = sp_horizon
        labels = classify(finals)
        shares = _limit_shares(labels, game.A)
        result = AlgorithmResult(label, finals, labels, shares)

        converged = labels[labels >= 0]
        if converged.size:
            # worst converged limit by exact utility against the meta-strategy
            candidates = sorted(set(int(v) for v in converged))
            utils = {}
            for a in candidates:
                pure = np.zeros(game.A)
                pure[a] = 1.0
                utils[a] = expected_payoff_mixed(game, pure, y_meta)
            worst_action = min(utils, key=utils.get)
            worst = np.zeros(game.A)
            worst[worst_action] = 1.0
            result.worst_limit = worst
            result.exact_utility = utils[worst_action]
            eval_rng = np.random.default_rng(ss_eval)
            estimates = [
                monte_carlo_utility(game, worst, y_meta, eval_games, eval_rng)[0]
                for _ in range(eval_repeats)
            ]
            result.mc_utility = (float(np.mean(estimates)), float(np.std(estimates, ddof=1)))
            result.exploit_protocol = exploitability(
                game, worst, method="exploiter", runs=exploit_runs, steps=exploit_steps, eta=eta, seed=ss_exp
            )[0]
            result.exploit_exact = float(exploitability(game, worst, method="grid")[0])
        rows.append(result)
    return RunReport(
        name,
        game.name,
        horizons,
        runs,
        seed,
        rows,
        notes={"eta": eta, "y_meta": [float(v) for v in y_meta],
               "threshold": CONVERGENCE_THRESHOLD,
               "eval_games": eval_games, "eval_repeats": eval_repeats,
               "exploiter": f"best of {exploit_runs} runs x {exploit_steps} steps"},
    )


def mv_table(seed: int = 0, runs: int = 100, **overrides) -> RunReport:
    from .games import majority3

    cfg = dict(eta=1.0, hedge_horizon=200_000, sp_horizon=20_000, name="mv")
    cfg.update(overrides)
    return run_table_experiment(majority3(), np.array([0.49, 0.51]), runs=runs, seed=seed, **cfg)


def sdg_table(seed: int = 0, runs: int = 100, **overrides) -> RunReport:
    from .games import sdg

    cfg = dict(eta=2.0, hedge_horizon=20_000, sp_horizon=20_000, name="sdg")
    cfg.update(overrides)
    return run_table_experiment(sdg(30), np.array([0.399, 0.6, 0.001]), runs=runs, seed=seed, **cfg)


# ---------------------------------------------------------------------------
# Lower-bound sweeps and scaling fit (one run_matches call per row).
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    schedule: str
    kind: str
    T: int
    v_budget: float
    seeds: int
    u_avg_mean: float
    u_avg_std: float
    dreg_mean: float
    dreg_std: float

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def lowerbound_sweep(
    game: SymmetricGame,
    configs: list[tuple[str, float, int]],
    kinds=("hedge", "saol", "clone"),
    seeds: int = 20,
    base_seed: int = 0,
) -> list[SweepRow]:
    """Run each learner, at eta 1, against each (schedule kind, V, T)
    configuration; a row's stds need at least two seeds."""
    if seeds < 2:
        raise ValueError(f"a std needs at least two seeds, got {seeds}")
    rows = []
    for sched_kind, v, T in configs:
        sched = (BiasedCoinSchedule if sched_kind == "biased_coin" else PureSwapSchedule)(v, T)
        for kind in kinds:
            runs = run_matches(game, LearnerSpec(kind), sched, T,
                               [base_seed * 1_000_003 + s for s in range(seeds)])
            metrics = [compute_metrics(tr) for tr in runs]
            uavg = [m.u_avg for m in metrics]
            dreg = [m.dynamic_regret for m in metrics]
            rows.append(
                SweepRow(
                    sched_kind, kind, T, v, seeds,
                    float(np.mean(uavg)), float(np.std(uavg, ddof=1)),
                    float(np.mean(dreg)), float(np.std(dreg, ddof=1)),
                )
            )
    return rows


def fit_scaling_exponent(
    game: SymmetricGame,
    kind: str,
    horizons=(1024, 2048, 4096, 8192, 16384),
    seeds: int = 20,
    base_seed: int = 0,
) -> tuple[float, list[tuple[int, float]]]:
    """Log-log slope of the seed-averaged dynamic regret against the
    +/-eps hard schedule at variation budget SCALING_V_BUDGET."""
    means = []
    for T in horizons:
        runs = run_matches(game, LearnerSpec(kind), BiasedCoinSchedule(SCALING_V_BUDGET, T), T,
                           [base_seed * 7_777_777 + s for s in range(seeds)])
        vals = [compute_metrics(tr).dynamic_regret for tr in runs]
        means.append((T, float(np.mean(vals))))
    slope = float(np.polyfit(np.log([t for t, _ in means]), np.log([max(m, 1e-12) for _, m in means]), 1)[0])
    return slope, means
