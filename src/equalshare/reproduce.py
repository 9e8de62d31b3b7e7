"""Experiment reproduction: convergence tables, utility and exploitability
evaluation, lower-bound sweeps, and the scaling fit.

The table experiments need hundreds of seeded training runs, advanced in
lockstep by the batched trainers of `learners`, each row of a table on its
own training generator: one `self_play_roster` call trains the self-play
rows.  Each distinct worst limit, a pure action that several rows may
share, is then evaluated once, on generators seeded by the action: Monte
Carlo (EVAL_REPEATS estimates) and the certified oracle per action, and
one `analysis.exploiter_protocol` call for the exploiters of all.  The tests
replay each trainer's rule round by round to cross-check it, as they do
for the whole-match forms behind `arena.run_matches`.

Every horizon x schedule x learner experiment is one `lowerbound_sweep`
call, and `fit_scaling_exponent` fits a slope to its rows.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analysis import certified_exploitability, exploiter_protocol, monte_carlo_utility
from .arena import BiasedCoinSchedule, PureSwapSchedule, compute_metrics, run_matches
from .games import SymmetricGame, payoff_vector
# batch_exploiter and batch_self_play are not called here; callers of reproduce.batch_* still import them from here.
from .learners import LearnerSpec, batch_exploiter, batch_hedge_vs_fixed, batch_self_play, self_play_roster

CONVERGENCE_THRESHOLD = 0.99
REGULARIZATION_STRENGTHS = (1e-5, 1e-4, 1e-3, 1e-2)  # the roster's sp_bc_reg rows
SCALING_V_BUDGET = 8.0  # variation budget of the scaling fit's biased-coin schedule
SCALING_HORIZONS = (1024, 2048, 4096, 8192, 16384)  # the scaling fit's horizons
EVAL_REPEATS = 10  # Monte Carlo estimates per evaluated limit, whose mean and std a table reports


def classify(finals: np.ndarray) -> np.ndarray:
    """Pure-strategy label per run: argmax when its mass clears
    CONVERGENCE_THRESHOLD, else -1 for unconverged."""
    return np.where(finals.max(axis=1) >= CONVERGENCE_THRESHOLD, finals.argmax(axis=1), -1)


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
    exploit_exact: float | None = None  # certified value, within CERTIFIED_TOL * scale

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "limit_shares": self.limit_shares,
            "worst_limit": None if self.worst_limit is None else [float(v) for v in self.worst_limit],
            "exact_utility": self.exact_utility,
            "mc_utility": None if self.mc_utility is None else list(self.mc_utility),
            "exploitability_protocol": self.exploit_protocol,
            "exploitability_certified": self.exploit_exact,
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
        lines.append("| algorithm | exact utility | MC utility (mean +/- std) | exploitability (protocol) | exploitability (certified) |")
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
    shares = {f"pure_{a}": float(np.mean(labels == a)) for a in range(A)}
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
    runs: int,
    seed: int,
    hedge_horizon: int,
    sp_horizon: int,
    name: str,
    eval_games: int = 300_000,
    exploit_runs: int = 100,
    exploit_steps: int = 10_000,
) -> RunReport:
    """Train the whole roster, classify limits, and evaluate the worst
    converged limit's utility (exact and Monte Carlo) and exploitability
    (protocol and certified); the Monte Carlo utility is the mean and std
    of EVAL_REPEATS estimates of eval_games games each.

    Self-play rows are evaluated at their worst observed limit, mirroring
    the worst-case reading of multi-limit convergence; hedge converges to a
    single limit so its worst limit is its only one.  Every row trains on
    its own generator, seeded by its label, so the self-play rows train in
    one self_play_roster call.  Every limit is a pure action, and each
    distinct worst action is evaluated once, on eval and exploiter
    generators seeded by the table seed and the action alone: rows with the
    same worst limit share its numbers, and the exploiters of all distinct
    limits train in one exploiter_protocol call.  Sizes below 1 are refused
    before anything trains.
    """
    sizes = {"runs": runs, "eval_games": eval_games, "exploit_runs": exploit_runs, "exploit_steps": exploit_steps}
    for size, value in sizes.items():
        if value < 1:
            raise ValueError(f"{size} must be at least 1, got {value}")
    y_meta = np.asarray(y_meta, dtype=float)
    # each label's training generator: child 0 of its seed sequence
    train = {label: np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(label.encode()))).spawn(1)[0])
             for label, _ in roster()}
    self_play = [(label, cfg) for label, cfg in roster() if label != "hedge"]
    sp_rows = [(cfg["mode"], cfg.get("lam", 0.0), train[label]) for label, cfg in self_play]
    finals_by_label = dict(zip([label for label, _ in self_play],
                               self_play_roster(game, sp_horizon, runs, eta, sp_rows, y_meta)))
    finals_by_label["hedge"] = batch_hedge_vs_fixed(game, y_meta, hedge_horizon, runs, eta, train["hedge"])
    horizons = {label: hedge_horizon if label == "hedge" else sp_horizon for label, _ in roster()}
    payoffs = payoff_vector(game, y_meta)
    labels_by_label = {label: classify(finals_by_label[label]) for label, _ in roster()}
    worst = {}  # per label with a converged run, its worst limit's action by exact utility against y_meta
    for label, labels in labels_by_label.items():
        converged = sorted({int(v) for v in labels[labels >= 0]})
        if converged:
            worst[label] = min(converged, key=lambda a: payoffs[a])
    actions = sorted(set(worst.values()))
    # per distinct worst action, its eval and exploiter seeds: a row's numbers depend on its worst limit alone
    streams = {a: np.random.SeedSequence((seed, zlib.crc32(f"pure_{a}".encode()))).spawn(2) for a in actions}
    pure = np.eye(game.A)
    protocol = exploiter_protocol(game, [pure[a] for a in actions], [streams[a][1] for a in actions],
                                  exploit_runs, exploit_steps, eta)
    evaluation = {}  # per distinct worst action, the AlgorithmResult fields of its rows
    for a, (exploit_value, _) in zip(actions, protocol):
        eval_rng = np.random.default_rng(streams[a][0])
        estimates = [monte_carlo_utility(game, pure[a], y_meta, eval_games, eval_rng)[0] for _ in range(EVAL_REPEATS)]
        evaluation[a] = dict(exact_utility=float(payoffs[a]),
                             mc_utility=(float(np.mean(estimates)), float(np.std(estimates, ddof=1))),
                             exploit_protocol=exploit_value,
                             exploit_exact=certified_exploitability(game, pure[a])[1])
    rows = []
    for label, labels in labels_by_label.items():
        evaluated = {"worst_limit": pure[worst[label]].copy(), **evaluation[worst[label]]} if label in worst else {}
        rows.append(AlgorithmResult(label, finals_by_label[label], labels, _limit_shares(labels, game.A), **evaluated))
    return RunReport(
        name,
        game.name,
        horizons,
        runs,
        seed,
        rows,
        notes={"eta": eta, "y_meta": [float(v) for v in y_meta],
               "threshold": CONVERGENCE_THRESHOLD,
               "eval_games": eval_games, "eval_repeats": EVAL_REPEATS,
               "exploiter": f"best of {exploit_runs} runs x {exploit_steps} steps",
               "evaluation": "once per distinct worst limit, seeded by the table seed and the limit's action, "
                             "so rows with the same worst limit share its Monte Carlo and exploiter numbers"},
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
# Lower-bound sweeps and scaling fit (one run_matches call per horizon).
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


def lowerbound_sweep(
    game: SymmetricGame,
    configs: list[tuple[str, float, int]],
    seeds: Sequence[int],
    kinds=("hedge", "saol", "clone"),
) -> list[SweepRow]:
    """Run each learner, at eta 1, against each (schedule kind, V, T)
    configuration, one match per seed in `seeds`, which are the match seeds
    themselves; a row's stds need at least two seeds.  Every learner plays
    the same matches: one run_matches call per horizon plays all its
    configurations, and each transcript is reduced to its metrics as it
    comes, so the sweep holds one batch of matches at a time."""
    if len(seeds) < 2:
        raise ValueError(f"a std needs at least two seeds, got {len(seeds)}")
    specs = [LearnerSpec(kind) for kind in kinds]
    schedules = [(BiasedCoinSchedule if sched_kind == "biased_coin" else PureSwapSchedule)(v, T)
                 for sched_kind, v, T in configs]
    found = [[[] for _ in kinds] for _ in configs]  # per config and kind, each seed's (u_avg, dreg)
    for T in dict.fromkeys(T for _, _, T in configs):
        at_T = [i for i, (_, _, t) in enumerate(configs) if t == T]
        matches = [(schedules[i], s) for i in at_T for s in seeds]
        owners = [i for i in at_T for _ in seeds]
        # map keeps no transcript once it is reduced, so none outlives its batch
        for i, values in zip(owners, map(_sweep_values, run_matches(game, specs, matches, T))):
            for per_kind, value in zip(found[i], values):
                per_kind.append(value)
    rows = []
    for (sched_kind, v, T), per_config in zip(configs, found):
        for kind, per_kind in zip(kinds, per_config):
            uavg, dreg = zip(*per_kind)
            rows.append(SweepRow(sched_kind, kind, T, v, len(seeds), float(np.mean(uavg)), float(np.std(uavg, ddof=1)),
                                 float(np.mean(dreg)), float(np.std(dreg, ddof=1))))
    return rows


def _sweep_values(transcripts) -> list[tuple[float, float]]:
    """Each transcript's (u_avg, dynamic regret)."""
    return [(m.u_avg, m.dynamic_regret) for m in map(compute_metrics, transcripts)]


def fit_scaling_exponent(rows: list[SweepRow], kind: str) -> tuple[float, list[tuple[int, float]]]:
    """Log-log slope of one learner's seed-mean dynamic regret against the
    horizon, fitted over its sweep rows, one per horizon; and the
    (T, dreg_mean) points it fits, in row order."""
    means = [(row.T, row.dreg_mean) for row in rows if row.kind == kind]
    slope = float(np.polyfit(np.log([t for t, _ in means]), np.log([max(m, 1e-12) for _, m in means]), 1)[0])
    return slope, means
