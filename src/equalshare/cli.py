"""Command-line front end.

Verbs:
  verify     structural invariants of a game (zero-sum, symmetry)
  simulate   seeded learner-vs-schedule sweeps from a config file
  reproduce  the packaged experiments: mv | sdg | lowerbound | scaling
  analyze    minimax | equilibrium | exploitability | pooling oracles

Exit codes: 0 success, 2 config error, 3 invariant violation, 4 size-cap
refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis
from .arena import compute_metrics, run_match
from .config import ConfigError, load_config
from .games import (
    SizeCapExceeded,
    SymmetricGame,
    as_strategy,
    dense_from_symmetric,
    load_game,
    validate,
    validate_dense,
)
from .reproduce import fit_scaling_exponent, lowerbound_sweep, mv_table, sdg_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_SIZE_CAP = 4


def _thread_count(args) -> int:
    if args.threads:
        return args.threads
    env = os.environ.get("EQS_THREADS")
    return int(env) if env else 1


def _load_cli_game(args) -> SymmetricGame:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.num_actions is not None:
        params["num_actions"] = args.num_actions
    return load_game(args.game, **params)


def _emit(doc: dict, out: str | None, name: str) -> None:
    text = json.dumps(doc, indent=2, default=float)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
    print(text)


def cmd_verify(args) -> int:
    game = _load_cli_game(args)
    report = validate(game)
    print(report)
    ok = report.passed
    if game.n <= 4 and game.A <= 8:
        dense_report = validate_dense(dense_from_symmetric(game))
        print(dense_report)
        ok = ok and dense_report.passed
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out or cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    def one(seed: int):
        tr = run_match(cfg.game, cfg.learner, cfg.schedule, cfg.T, seed)
        return seed, tr, compute_metrics(tr)

    threads = _thread_count(args)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, cfg.seeds))
    else:
        results = [one(s) for s in cfg.seeds]
    results.sort(key=lambda r: cfg.seeds.index(r[0]))

    metrics_rows = []
    for seed, tr, metrics in results:
        (out / f"transcript_seed{seed}.csv").write_text(tr.to_csv())
        (out / f"replay_seed{seed}.json").write_text(json.dumps(tr.replay_document()) + "\n")
        metrics_rows.append({"seed": seed, **metrics.as_dict()})
    head = list(metrics_rows[0].keys())
    lines = [",".join(head)]
    for row in metrics_rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in head))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    agg = {
        "config": args.config,
        "seeds": cfg.seeds,
        "u_avg_mean": float(np.mean([r["u_avg"] for r in metrics_rows])),
        "u_avg_std": float(np.std([r["u_avg"] for r in metrics_rows], ddof=1)) if len(metrics_rows) > 1 else 0.0,
    }
    _emit(agg, str(out), "summary.json")
    if args.self_audit:
        # re-read the emitted rows and recompute the aggregate from them
        body = (out / "metrics.csv").read_text().strip().split("\n")
        col = body[0].split(",").index("u_avg")
        recomputed = float(np.mean([float(line.split(",")[col]) for line in body[1:]]))
        if abs(recomputed - agg["u_avg_mean"]) > 1e-12:
            return _audit_fail(f"u_avg_mean {agg['u_avg_mean']} != recomputation {recomputed}")
    return EXIT_OK


def _audit_fail(msg: str) -> int:
    print(f"self-audit failed: {msg}", file=sys.stderr)
    return EXIT_INVARIANT


def cmd_reproduce(args) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed

    if args.table in ("mv", "sdg"):
        overrides = {}
        if args.runs:
            overrides["runs"] = args.runs
        if args.eval_games:
            overrides["eval_games"] = args.eval_games
        if args.exploit_runs:
            overrides["exploit_runs"] = args.exploit_runs
        report = (mv_table if args.table == "mv" else sdg_table)(seed=seed, **overrides)
        (out / f"{args.table}_report.json").write_text(json.dumps(report.as_dict(), indent=2, default=float) + "\n")
        (out / f"{args.table}_summary.md").write_text(report.to_markdown())
        (out / f"{args.table}_convergence.csv").write_text(report.convergence_csv())
        print(report.to_markdown())
        if args.self_audit:
            for row in report.rows:
                for key, share in row.limit_shares.items():
                    if key == "unconverged":
                        recomputed = float(np.mean(row.labels < 0))
                    else:
                        recomputed = float(np.mean(row.labels == int(key.split("_")[1])))
                    if abs(recomputed - share) > 1e-12:
                        return _audit_fail(f"{row.label}/{key}: {share} != recomputation {recomputed}")
        return EXIT_OK

    if args.table == "lowerbound":
        from .games import extended_majority

        game = extended_majority(3, 2)
        T = args.horizon or 1024
        configs = [
            ("pure_swap", 32.0, T),
            ("pure_swap", T / 4.0, T),
            ("biased_coin", 8.0, T),
        ]
        rows = lowerbound_sweep(game, configs, seeds=args.runs or 20, base_seed=seed)
        doc = {"game": game.name, "rows": [r.as_dict() for r in rows]}
        _emit(doc, str(out), "lowerbound.json")
        lines = ["schedule,kind,T,v_budget,seeds,u_avg_mean,u_avg_std,dreg_mean,dreg_std"]
        for r in rows:
            lines.append(
                f"{r.schedule},{r.kind},{r.T},{r.v_budget!r},{r.seeds},{r.u_avg_mean!r},{r.u_avg_std!r},{r.dreg_mean!r},{r.dreg_std!r}"
            )
        (out / "lowerbound.csv").write_text("\n".join(lines) + "\n")
        if args.self_audit:
            for r in rows:
                if not (r.u_avg_std >= 0 and r.dreg_std >= 0):
                    return _audit_fail("negative std")
        return EXIT_OK

    if args.table == "scaling":
        from .games import extended_majority

        game = extended_majority(3, 2)
        results = {}
        for kind in ("saol", "hedge"):
            slope, means = fit_scaling_exponent(game, kind, seeds=args.runs or 20, base_seed=seed)
            results[kind] = {"slope": slope, "dreg_by_T": {str(t): m for t, m in means}}
        _emit({"v_budget": 8.0, **results}, str(out), "scaling.json")
        lines = ["kind,T,dreg_mean"]
        for kind, res in results.items():
            for t, m in res["dreg_by_T"].items():
                lines.append(f"{kind},{t},{m!r}")
        (out / "scaling.csv").write_text("\n".join(lines) + "\n")
        return EXIT_OK

    print(f"unknown table {args.table!r}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_analyze(args) -> int:
    game = _load_cli_game(args)
    seed = args.seed
    if args.quantity == "minimax":
        which = args.which or "minmax-identical"
        if which in ("minmax-identical", "maxmin-identical"):
            value, arg = analysis.minimax_identical(game, which.split("-")[0])
        elif which in ("maxmin-independent", "minmax-independent"):
            both = analysis.minimax_independent(game)
            value, arg = both[which.split("-")[0]]
        else:
            print(f"unknown minimax variant {which!r}", file=sys.stderr)
            return EXIT_CONFIG
        doc = {
            "quantity": f"minimax:{which}",
            "value": value,
            "argument": {k: list(map(float, np.atleast_1d(v))) for k, v in arg.items()},
            "tolerance": 2.0 * game.scale / analysis.default_resolution(game.A),
            "method": "simplex grid with 10x local refinement",
            "seed": seed,
        }
        _emit(doc, args.out, "minimax.json")
        print(f"{which} on {game.name}: {value:.6g}")
        return EXIT_OK
    if args.quantity == "exploitability":
        x = as_strategy([float(v) for v in args.x.split(",")], game.A)
        value, worst = analysis.exploitability(game, x, method=args.method, seed=seed)
        doc = {
            "quantity": "exploitability",
            "value": value,
            "argument": {"x": [float(v) for v in x], "worst_meta_strategy": [float(v) for v in worst]},
            "tolerance": 2.0 * game.scale / analysis.default_resolution(game.A) if args.method != "exploiter" else None,
            "method": args.method,
            "seed": seed,
        }
        _emit(doc, args.out, "exploitability.json")
        print(f"exploitability of [{args.x}] on {game.name}: {value:.6g} at y={np.round(worst, 4)}")
        return EXIT_OK
    if args.quantity == "equilibrium":
        dense = dense_from_symmetric(game)
        if args.product:
            dist = [as_strategy([float(v) for v in part.split(",")], game.A) for part in args.product.split(";")]
        else:
            with open(args.dist) as fh:
                arr = np.asarray(json.load(fh), dtype=float)
            dist = arr if args.concept != "ne" else [as_strategy(row, game.A) for row in arr]
        report = analysis.check_equilibrium(dense, dist, args.concept, tol=args.tol)
        doc = {
            "quantity": f"equilibrium:{args.concept}",
            "value": report.epsilon,
            "argument": {"verdict": bool(report.verdict)},
            "tolerance": args.tol,
            "method": "exact tensor contraction",
            "seed": seed,
        }
        _emit(doc, args.out, "equilibrium.json")
        print(report)
        return EXIT_OK if report.verdict else EXIT_INVARIANT
    if args.quantity == "pooling":
        with open(args.population) as fh:
            pop = json.load(fh)
        z = as_strategy([float(v) for v in args.z.split(",")], game.A)
        report = analysis.pooling_check(game, pop, z)
        doc = {
            "quantity": "pooling",
            "value": report.lhs,
            "argument": {"bound": report.bound, "pass": bool(report.passed)},
            "tolerance": 1e-9 * game.scale,
            "method": "exact enumeration of ordered opponent tuples",
            "seed": seed,
        }
        _emit(doc, args.out, "pooling.json")
        print(f"pooling gap {report.lhs:.6g} <= bound {report.bound:.6g}: {'pass' if report.passed else 'FAIL'}")
        return EXIT_OK if report.passed else EXIT_INVARIANT
    print(f"unknown quantity {args.quantity!r}", file=sys.stderr)
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equalshare",
        description="Symmetric zero-sum game simulations, learners, and analysis oracles",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker threads (or EQS_THREADS)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_game_args(p):
        p.add_argument("--game", required=True, help="builtin name or file:<path>")
        p.add_argument("--n", type=int, default=None, help="players, for parametric games")
        p.add_argument("--num-actions", type=int, default=None, help="actions, for parametric games")

    p_verify = sub.add_parser("verify", help="check structural invariants of a game")
    add_game_args(p_verify)

    p_sim = sub.add_parser("simulate", help="run seeded matches from a config file")
    p_sim.add_argument("--config", type=str, default=None, help="config file")
    p_sim.add_argument("--self-audit", action="store_true", help="recompute aggregates from emitted rows")

    p_rep = sub.add_parser("reproduce", help="run a packaged experiment")
    p_rep.add_argument("table", choices=["mv", "sdg", "lowerbound", "scaling"])
    p_rep.add_argument("--runs", type=int, default=None, help="runs/seeds per configuration")
    p_rep.add_argument("--horizon", type=int, default=None)
    p_rep.add_argument("--eval-games", type=int, default=None, help="Monte Carlo games per evaluation")
    p_rep.add_argument("--exploit-runs", type=int, default=None, help="exploiter restarts per strategy")
    p_rep.add_argument("--self-audit", action="store_true", help="recompute aggregates from rows")

    p_an = sub.add_parser("analyze", help="run an analysis oracle")
    p_an.add_argument("quantity", choices=["minimax", "equilibrium", "exploitability", "pooling"])
    add_game_args(p_an)
    p_an.add_argument("--which", type=str, default=None, help="minimax variant")
    p_an.add_argument("--x", type=str, default=None, help="strategy, comma separated")
    p_an.add_argument("--z", type=str, default=None, help="pooling probe strategy")
    p_an.add_argument("--method", type=str, default="auto", help="exploitability method")
    p_an.add_argument("--concept", type=str, default="ne", choices=["ne", "ce", "cce"])
    p_an.add_argument("--product", type=str, default=None, help="per-player strategies 'p0,p1;p0,p1;...'")
    p_an.add_argument("--dist", type=str, default=None, help="JSON file with a joint distribution")
    p_an.add_argument("--population", type=str, default=None, help="JSON file with population strategies")
    p_an.add_argument("--tol", type=float, default=1e-9)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            return cmd_verify(args)
        if args.verb == "simulate":
            if not args.config:
                print("simulate needs --config", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_simulate(args)
        if args.verb == "reproduce":
            return cmd_reproduce(args)
        if args.verb == "analyze":
            return cmd_analyze(args)
        return EXIT_CONFIG
    except ConfigError as exc:
        print("config errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeCapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SIZE_CAP
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
