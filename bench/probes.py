"""Per-module probes for the traced run.

Each probe calls one module's public functions directly, from outside the
package, and times every call with a span.  Every workload runs every probe,
so each traced run reports the full per-layer metric set; the inputs are the
workload's own where it has them (its games, the match the sweep hands to
run_match, the meta-strategies of the tables).  tables and oracles never
call run_match, so their match-level probes play the sweep's schedule at a
short horizon: those numbers exist to show that a match-loop change leaves
those workloads flat.  Games are built before the probe that uses them, so
a build is timed only by the games probe.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics

import numpy as np
from equalshare import analysis, arena, cli, learners, reproduce, sampling
from equalshare import games as G

from rep import ORACLE_EXPLOITER, SIMULATE_HORIZON, SIMULATE_SEEDS, SWEEP_HORIZON, WORK
from spans import clock_ns

EM32 = ("extended_majority", {"n": 3, "num_actions": 2})
EM64 = ("extended_majority", {"n": 6, "num_actions": 4})
MV = ("majority3", {})
SDG30 = ("sdg", {"n": 30})
SDG200 = ("sdg", {"n": 200})
KINDS = ("hedge", "saol", "clone")
SHORT_MATCH = dict(game=EM32, v_budget=8.0, T=512, simulate_T=256)

PROBES = {
    "sweep": dict(
        match=dict(game=EM32, v_budget=8.0, T=SWEEP_HORIZON, simulate_T=SIMULATE_HORIZON),
        builds=[EM32],
        grid=dict(game=EM32, x=[0.5, 0.5]),
        batch=dict(game=EM32, eta=1.0, y=[0.5, 0.5], target=[0.5, 0.5], runs=100, hedge_T=2_000, sp_T=200, exploiter_T=200),
        monte_carlo=dict(game=EM32, x=[0.5, 0.5], y=[0.5, 0.5], games=100_000),
        exploiter=dict(game=EM32, x=[0.5, 0.5], steps=200, protocol=dict(runs=2, steps=200)),
        minimax=dict(identical=EM32, independent=EM32),
    ),
    "tables": dict(
        match=SHORT_MATCH,
        builds=[MV, SDG30],
        grid=dict(game=SDG30, x=[0.0, 1.0, 0.0]),
        batch=dict(game=SDG30, eta=2.0, y=[0.399, 0.6, 0.001], target=[0.0, 1.0, 0.0], runs=100, hedge_T=20_000, sp_T=500, exploiter_T=500),
        monte_carlo=dict(game=MV, x=[0.0, 1.0], y=[0.49, 0.51], games=200_000),
        exploiter=dict(game=SDG30, x=[0.0, 1.0, 0.0], steps=200, protocol=dict(runs=2, steps=200)),
        minimax=dict(identical=SDG30, independent=MV),
    ),
    "oracles": dict(
        match=SHORT_MATCH,
        builds=[SDG200, EM64, MV],
        grid=dict(game=SDG200, x=[0.0, 1.0, 0.0]),
        batch=dict(game=SDG200, eta=2.0, y=[0.399, 0.6, 0.001], target=[0.0, 1.0, 0.0], runs=100, hedge_T=2_000, sp_T=200, exploiter_T=200),
        monte_carlo=dict(game=SDG200, x=[0.0, 1.0, 0.0], y=[0.399, 0.6, 0.001], games=10_000),
        exploiter=dict(game=EM64, x=[0.5, 0.5, 0.0, 0.0], steps=300, protocol=ORACLE_EXPLOITER),
        minimax=dict(identical=EM64, independent=MV),
    ),
}

# Counts and computed sizes: they must repeat exactly from run to run.
COUNTS = (
    "games.index_table_bytes",
    "games.payoff_calls",
    "learners.saol_live_experts",
    "arena.rounds",
    "reproduce.run_steps",
    "analysis.grid_points",
    "analysis.grid_weight_bytes",
)


def _make(spec) -> G.SymmetricGame:
    name, params = spec
    return G.builtin_game(name, **params)


def _timed(tracer, name, fn, *args, **kwargs):
    """Call fn inside a span; returns (result, seconds)."""
    sid = tracer.begin(name)
    out = fn(*args, **kwargs)
    return out, tracer.end(sid) / 1e9


def _median_us(ns: list[int]) -> float:
    return statistics.median(ns) / 1e3


def _payoff_calls(game: G.SymmetricGame) -> int:
    """Payoff-function calls made by payoff_matrix on a fresh game object.
    The wrapper sits on this instance only, outside any timed span."""
    calls = 0
    inner = game.payoff

    def counting(a, counts):
        nonlocal calls
        calls += 1
        return inner(a, counts)

    game.payoff = counting
    game.payoff_matrix()
    return calls


def games_probe(tracer, specs, m):
    build = matrix = valid = 0.0
    index_bytes = calls = 0
    for spec in specs:
        game = _make(spec)
        table, dt = _timed(tracer, "games.SymmetricGame.count_table", game.count_table)
        build += dt
        matrix += _timed(tracer, "games.SymmetricGame.payoff_matrix", game.payoff_matrix)[1]
        valid += _timed(tracer, "games.validate", G.validate, game)[1]
        index = getattr(table, "index_of", None)
        index_bytes += 0 if index is None else index.nbytes
        calls += _payoff_calls(_make(spec))
    m["games.count_table_build_s"] = build
    m["games.payoff_matrix_s"] = matrix
    m["games.validate_s"] = valid
    m["games.index_table_bytes"] = index_bytes
    m["games.payoff_calls"] = calls


def grid_probe(tracer, cfg, m):
    game = _make(cfg["game"])
    game.payoff_matrix()
    grid = analysis.SimplexGrid(game.A, analysis.default_resolution(game.A))
    pts = grid.points()
    dt = _timed(tracer, "games.payoff_vectors_batch", G.payoff_vectors_batch, game, pts)[1]
    m["games.payoff_vectors_batch_ns_per_point"] = dt / len(pts) * 1e9
    m["analysis.grid_exploitability_s"] = _timed(
        tracer, "analysis.exploitability", analysis.exploitability, game, cfg["x"], method="grid")[1]
    # coarse grid plus the whole 10x finer grid that the refinement pass enumerates
    fine = math.comb(10 * grid.resolution + game.A - 1, game.A - 1)
    m["analysis.grid_points"] = len(grid) + fine
    # the largest (Ny, K) float64 weight matrix: the coarse scan's
    m["analysis.grid_weight_bytes"] = len(grid) * game.count_table().counts.shape[0] * 8


def match_probe(tracer, cfg, seed, m):
    game = _make(cfg["game"])
    T = cfg["T"]
    schedule = arena.BiasedCoinSchedule(cfg["v_budget"], T)
    match_us, transcripts = {}, {}
    for kind in KINDS:
        tr, dt = _timed(tracer, "arena.run_match", arena.run_match, game, learners.LearnerSpec(kind, horizon=T), schedule, T, seed)
        transcripts[kind] = tr
        match_us[kind] = m[f"arena.match_us_per_round.{kind}"] = dt / T * 1e6
    m["arena.rounds"] = sum(tr.T for tr in transcripts.values())
    m["arena.to_csv_s"] = _timed(tracer, "arena.Transcript.to_csv", transcripts["hedge"].to_csv)[1]

    # run_match's callees, called directly on the inputs of the hedge match
    tr = transcripts["hedge"]
    A, n = game.A, game.n
    counts = [sampling.counts_from_actions(o, A) for o in tr.opponent_actions]
    gains = [G.realized_payoff_vector(game, c) / game.scale for c in counts]
    rngs = sampling.role_rngs(seed)
    record = tracer.record
    sample_ns, realized_ns, pv_ns = [], [], []
    for t in range(T):
        t0 = clock_ns()
        sampling.sample_actions(rngs["learner"], tr.strategies[t])
        t1 = clock_ns()
        sampling.sample_actions(rngs["opponents"], tr.y_seq[t], n - 1)
        t2 = clock_ns()
        G.realized_payoff_vector(game, counts[t])
        t3 = clock_ns()
        G.payoff_vector(game, tr.y_seq[t])
        t4 = clock_ns()
        sample_ns.append(record("sampling.sample_actions", t0, t1))
        sample_ns.append(record("sampling.sample_actions", t1, t2))
        realized_ns.append(record("games.realized_payoff_vector", t2, t3))
        pv_ns.append(record("games.payoff_vector", t3, t4))

    step_ns = {kind: [] for kind in KINDS}
    hedge = learners.HedgeState.fresh(A, 1.0)
    saol = learners.SAOLState.fresh(T, A, 1.0)
    clone = learners.CloneState(A)
    live = 0
    for t in range(T):
        live += len(saol.experts)
        t0 = clock_ns()
        learners.hedge_act(hedge)
        hedge = learners.hedge_observe(hedge, gains[t])
        t1 = clock_ns()
        learners.saol_act(saol)
        saol = learners.saol_observe(saol, gains[t])
        t2 = clock_ns()
        learners.clone_strategy(clone)
        clone = learners.clone_observe(clone, tr.opponent_actions[t][0])
        t3 = clock_ns()
        step_ns["hedge"].append(record("learners.hedge_step", t0, t1))
        step_ns["saol"].append(record("learners.saol_step", t1, t2))
        step_ns["clone"].append(record("learners.clone_step", t2, t3))

    step_us = {kind: _median_us(ns) for kind, ns in step_ns.items()}
    for kind in KINDS:
        m[f"learners.{kind}_step_us"] = step_us[kind]
    m["learners.saol_live_experts"] = live / T
    sample_us, realized_us, pv_us = _median_us(sample_ns), _median_us(realized_ns), _median_us(pv_ns)
    m["sampling.sample_actions_us"] = sample_us
    m["games.realized_payoff_vector_us"] = realized_us
    m["games.payoff_vector_us"] = pv_us
    # Derived: per round, run_match draws twice, looks up one realized payoff
    # vector, steps the learner, and computes payoff_vector once per distinct
    # meta-strategy; what is left of its time is the loop's own.
    distinct = len({y.tobytes() for y in tr.y_seq})
    callees = {k: step_us[k] + 2 * sample_us + realized_us + pv_us * distinct / T for k in KINDS}
    m["arena.self_us_per_round"] = statistics.mean(match_us[k] - callees[k] for k in KINDS)


def simulate_probe(tracer, cfg, seed, nproc, m):
    name, params = cfg["game"]
    config = WORK / "probe_simulate.json"
    out = WORK / "probe_simulate"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps({
        "game": {"name": name, **params},
        "learner": {"kind": "saol"},
        "schedule": {"kind": "biased_coin", "v_budget": cfg["v_budget"], "horizon": cfg["simulate_T"]},
        "T": cfg["simulate_T"],
        "seeds": {"count": SIMULATE_SEEDS, "base": seed},
    }))
    argv = ["--seed", str(seed), "--threads", str(nproc), "--out", str(out), "simulate", "--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc, m["cli.simulate_s"] = _timed(tracer, "cli.main", cli.main, argv)
    if rc != 0:
        raise RuntimeError(f"simulate probe exited {rc}")


def batch_probe(tracer, cfg, seed, m):
    game = _make(cfg["game"])
    game.payoff_matrix()
    rng = np.random.default_rng(seed)
    runs, eta = cfg["runs"], cfg["eta"]
    dt = _timed(tracer, "reproduce.batch_hedge_vs_fixed", reproduce.batch_hedge_vs_fixed,
                game, np.asarray(cfg["y"]), cfg["hedge_T"], runs, eta, rng)[1]
    m["reproduce.batch_hedge_ns_per_run_step"] = dt / (runs * cfg["hedge_T"]) * 1e9
    dt = _timed(tracer, "reproduce.batch_self_play", reproduce.batch_self_play, game, cfg["sp_T"], runs, eta, rng)[1]
    m["reproduce.batch_self_play_us_per_step"] = dt / cfg["sp_T"] * 1e6
    dt = _timed(tracer, "reproduce.batch_exploiter", reproduce.batch_exploiter,
                game, np.asarray(cfg["target"]), cfg["exploiter_T"], runs, eta, rng)[1]
    m["reproduce.batch_exploiter_us_per_step"] = dt / cfg["exploiter_T"] * 1e6
    m["reproduce.run_steps"] = runs * (cfg["hedge_T"] + cfg["sp_T"] + cfg["exploiter_T"])


def monte_carlo_probe(tracer, cfg, seed, m):
    game = _make(cfg["game"])
    game.payoff_matrix()
    dt = _timed(tracer, "analysis.monte_carlo_utility", analysis.monte_carlo_utility,
                game, cfg["x"], cfg["y"], cfg["games"], np.random.default_rng(seed))[1]
    m["analysis.monte_carlo_ns_per_game"] = dt / cfg["games"] * 1e9


def exploiter_probe(tracer, cfg, seed, m):
    game = _make(cfg["game"])
    game.payoff_matrix()
    x = np.asarray(cfg["x"])
    state = learners.ExploiterState.fresh(game, x)
    rng = np.random.default_rng(seed)
    ns = []
    for _ in range(cfg["steps"]):
        t0 = clock_ns()
        state, _ = learners.exploiter_step(state, game, rng)
        ns.append(tracer.record("learners.exploiter_step", t0, clock_ns()))
    m["learners.exploiter_step_us"] = _median_us(ns)
    m["analysis.exploiter_protocol_s"] = _timed(
        tracer, "analysis.exploitability", analysis.exploitability, game, x, method="exploiter",
        seed=seed, **cfg["protocol"])[1]


def minimax_probe(tracer, cfg, m):
    identical = _make(cfg["identical"])
    identical.payoff_matrix()
    m["analysis.minimax_identical_s"] = _timed(
        tracer, "analysis.minimax_identical", analysis.minimax_identical, identical, "minmax")[1]
    m["analysis.minimax_independent_s"] = _timed(
        tracer, "analysis.minimax_independent", analysis.minimax_independent, _make(cfg["independent"]))[1]


def run_probes(tracer, workload: str, seed: int, nproc: int) -> tuple[dict, dict]:
    """All per-layer metrics of one traced repetition, and its counts."""
    cfg = PROBES[workload]
    m: dict[str, float] = {}
    games_probe(tracer, cfg["builds"], m)
    grid_probe(tracer, cfg["grid"], m)
    match_probe(tracer, cfg["match"], seed, m)
    simulate_probe(tracer, cfg["match"], seed, nproc, m)
    batch_probe(tracer, cfg["batch"], seed, m)
    monte_carlo_probe(tracer, cfg["monte_carlo"], seed, m)
    exploiter_probe(tracer, cfg["exploiter"], seed, m)
    minimax_probe(tracer, cfg["minimax"], m)
    return m, {name: m[name] for name in COUNTS}
