"""Command-line front end.

Verbs:
  verify     the zero-sum identity of a game over every full action profile
  simulate   seeded learner-vs-schedule sweeps from a config file
  reproduce  the packaged experiments: mv | sdg | lowerbound | scaling
  analyze    minimax | equilibrium | exploitability | pooling oracles

Each reproduce table and each analyze quantity is its own subcommand, and
accepts only the options it reads; --seed, --out and --threads come before
the verb.  An unknown, missing or conflicting option exits 2.

Exit codes: 0 success, 2 config error, 3 invariant violation, 4 size-cap
refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .arena import compute_metrics, run_matches
from .config import ConfigError, load_config
from .games import SizeCapExceeded, SymmetricGame, as_strategy, extended_majority, load_game, validate
from .reproduce import SCALING_HORIZONS, SCALING_V_BUDGET, fit_scaling_exponent, lowerbound_sweep, mv_table, sdg_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_SIZE_CAP = 4


def _count(text: str) -> int:
    """argparse type of a size option: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy seeds from."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _given(**options) -> dict:
    """The options set on the command line; the others keep the library's
    defaults."""
    return {k: v for k, v in options.items() if v is not None}


def _load_cli_game(args) -> SymmetricGame:
    params = _given(n=args.n, num_actions=args.num_actions)
    if params and args.game.startswith("file:"):
        raise ValueError(f"--n and --num-actions size a builtin game; {args.game} gives its own sizes")
    return load_game(args.game, **params)


def _json_array(path: str, option: str) -> np.ndarray:
    """The float array in the JSON file of an array option, refused unless
    the file holds a JSON array of numbers or of such arrays."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        arr = np.asarray(doc)
    except ValueError as exc:  # a ragged nesting
        raise ValueError(f"{option} must hold a JSON array of numbers: {exc}") from exc
    if arr.ndim == 0 or arr.dtype.kind not in "iuf":  # a bool, string, null or object is no number
        raise ValueError(f"{option} must hold a JSON array of numbers, or of such arrays")
    return arr.astype(float)


def _emit(doc: dict, out: str | Path | None, name: str) -> None:
    text = json.dumps(doc, indent=2, default=float)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
    print(text)


def _document(args, quantity: str, value, argument: dict, tolerance, method: str, **bounds) -> None:
    """Print an analysis document, and write it to <quantity>.json under --out;
    `bounds` are certified bounds on the quantity, added after its fields."""
    doc = {"quantity": quantity, "value": value, "argument": argument,
           "tolerance": tolerance, "method": method, "seed": args.seed, **bounds}
    _emit(doc, args.out, f"{args.quantity}.json")


def _grid_tolerance(game: SymmetricGame) -> float:
    return 2.0 * game.scale / analysis.default_resolution(game.A)


def _csv(rows: list[dict]) -> str:
    """CSV text of dict rows under their first row's keys; floats as
    repr(float(v)), which round-trips."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _reproduce_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _audit_fail(msg: str) -> int:
    print(f"self-audit failed: {msg}", file=sys.stderr)
    return EXIT_INVARIANT


def cmd_verify(args) -> int:
    game = _load_cli_game(args)
    report = validate(game)
    print(report)
    return EXIT_OK if report.passed else EXIT_INVARIANT


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out or cfg.out)
    transcripts = run_matches(cfg.game, [cfg.learner], [(cfg.schedule, seed) for seed in cfg.seeds], cfg.T)
    metrics_rows = []
    for (tr,) in transcripts:
        # made only now: a config that parses can still fail its first match
        out.mkdir(parents=True, exist_ok=True)
        (out / f"transcript_seed{tr.seed}.csv").write_text(tr.to_csv())
        metrics_rows.append({"seed": tr.seed, **asdict(compute_metrics(tr))})
    (out / "metrics.csv").write_text(_csv(metrics_rows))
    agg = {
        "config": args.config,
        "seeds": cfg.seeds,
        "u_avg_mean": float(np.mean([r["u_avg"] for r in metrics_rows])),
        "u_avg_std": float(np.std([r["u_avg"] for r in metrics_rows], ddof=1)) if len(metrics_rows) > 1 else 0.0,
    }
    _emit(agg, out, "summary.json")
    if args.self_audit:
        # re-read the emitted rows and recompute the aggregate from them
        body = (out / "metrics.csv").read_text().strip().split("\n")
        col = body[0].split(",").index("u_avg")
        recomputed = float(np.mean([float(line.split(",")[col]) for line in body[1:]]))
        if abs(recomputed - agg["u_avg_mean"]) > 1e-12:
            return _audit_fail(f"u_avg_mean {agg['u_avg_mean']} != recomputation {recomputed}")
    return EXIT_OK


def cmd_table(args) -> int:
    """reproduce mv | sdg: the convergence table of one game."""
    out = _reproduce_dir(args)
    table = mv_table if args.table == "mv" else sdg_table
    report = table(seed=args.seed, **_given(runs=args.runs, eval_games=args.eval_games, exploit_runs=args.exploit_runs))
    (out / f"{args.table}_report.json").write_text(json.dumps(report.as_dict(), indent=2, default=float) + "\n")
    (out / f"{args.table}_summary.md").write_text(report.to_markdown())
    (out / f"{args.table}_convergence.csv").write_text(report.convergence_csv())
    print(report.to_markdown())
    if args.self_audit:
        # re-read the emitted labels and recompute each row's limit shares from them
        labels = {}
        for line in (out / f"{args.table}_convergence.csv").read_text().strip().split("\n")[1:]:
            algorithm, _, label, _ = line.split(",")
            labels.setdefault(algorithm, []).append(int(label))
        for row in report.rows:
            emitted = np.array(labels.get(row.label, []))
            for key, share in row.limit_shares.items():
                hits = emitted < 0 if key == "unconverged" else emitted == int(key.split("_")[1])
                recomputed = float(np.mean(hits))
                if not abs(recomputed - share) <= 1e-12:  # a row with no emitted labels recomputes NaN
                    return _audit_fail(f"{row.label}/{key}: {share} != recomputation {recomputed}")
    return EXIT_OK


def _sweep_seeds(args, stride: int) -> list[int]:
    """A sweep verb's match seeds: --runs of them (default 20), from --seed times the verb's stride."""
    return [args.seed * stride + s for s in range(args.runs or 20)]


def cmd_lowerbound(args) -> int:
    game = extended_majority(3, 2)
    T = args.horizon
    configs = [("pure_swap", 32.0, T), ("pure_swap", T / 4.0, T), ("biased_coin", 8.0, T)]
    rows = [asdict(r) for r in lowerbound_sweep(game, configs, _sweep_seeds(args, 1_000_003))]
    out = _reproduce_dir(args)
    _emit({"game": game.name, "rows": rows}, out, "lowerbound.json")
    (out / "lowerbound.csv").write_text(_csv(rows))
    if args.self_audit and not all(r["u_avg_std"] >= 0 and r["dreg_std"] >= 0 for r in rows):
        return _audit_fail("negative std")
    return EXIT_OK


def cmd_scaling(args) -> int:
    game = extended_majority(3, 2)
    configs = [("biased_coin", SCALING_V_BUDGET, T) for T in SCALING_HORIZONS]
    swept = lowerbound_sweep(game, configs, _sweep_seeds(args, 7_777_777), kinds=("saol", "hedge"))
    results = {}
    for kind in ("saol", "hedge"):
        slope, means = fit_scaling_exponent(swept, kind)
        results[kind] = {"slope": slope, "dreg_by_T": {str(t): m for t, m in means}}
    out = _reproduce_dir(args)
    _emit({"v_budget": SCALING_V_BUDGET, **results}, out, "scaling.json")
    rows = [{"kind": kind, "T": t, "dreg_mean": m} for kind, res in results.items() for t, m in res["dreg_by_T"].items()]
    (out / "scaling.csv").write_text(_csv(rows))
    return EXIT_OK


def cmd_minimax(args) -> int:
    game = _load_cli_game(args)
    bound, opponents = args.which.split("-")
    bounds = {}
    if opponents == "identical":
        value, arg = analysis.minimax_identical(game, bound)
        if bound == "maxmin":  # what the returned x1 secures against every y bounds maxmin from below
            bounds["certified_lower"] = analysis.certified_exploitability(game, arg["learner_strategy"])[0]
    else:
        value, arg = analysis.minimax_independent(game)[bound]
    _document(args, f"minimax:{args.which}", value, {k: list(map(float, np.atleast_1d(v))) for k, v in arg.items()},
              _grid_tolerance(game), f"simplex grid with {analysis.REFINE_FACTOR}x local refinement", **bounds)
    print(f"{args.which} on {game.name}: {value:.6g}")
    return EXIT_OK


def cmd_exploitability(args) -> int:
    game = _load_cli_game(args)
    x = as_strategy([float(v) for v in args.x.split(",")], game.A)
    bounds = {}
    if args.method == "auto":
        lower, value, worst = analysis.certified_exploitability(game, x)
        tolerance, bounds["certified_lower"] = value - lower, lower
    else:
        value, worst = analysis.exploitability(game, x, method=args.method, seed=args.seed)
        tolerance = _grid_tolerance(game) if args.method == "grid" else None
    _document(args, "exploitability", value, {"x": [float(v) for v in x], "worst_meta_strategy": [float(v) for v in worst]},
              tolerance, args.method, **bounds)
    print(f"exploitability of [{args.x}] on {game.name}: {value:.6g} at y={np.round(worst, 4)}")
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    if args.product is not None and args.concept != "ne":  # no A^n product is formed
        raise ValueError(f"--product gives per-player strategies, which --concept ne reads; "
                         f"give --concept {args.concept} its joint distribution with --dist")
    game = _load_cli_game(args)
    if args.product is not None:
        dist = [as_strategy([float(v) for v in part.split(",")], game.A) for part in args.product.split(";")]
    else:
        dist = _json_array(args.dist, "--dist")
    report = analysis.check_equilibrium(game, dist, args.concept, tol=args.tol)
    method = "exact count form (opponent count-vector laws)" if args.concept == "ne" else "exact joint-action deviation table"
    _document(args, f"equilibrium:{args.concept}", report.epsilon, {"verdict": bool(report.verdict)}, args.tol, method)
    print(report)
    return EXIT_OK if report.verdict else EXIT_INVARIANT


def cmd_pooling(args) -> int:
    game = _load_cli_game(args)
    pop = _json_array(args.population, "--population")
    z = as_strategy([float(v) for v in args.z.split(",")], game.A)
    report = analysis.pooling_check(game, pop, z)
    _document(args, "pooling", report.lhs, {"bound": report.bound, "pass": bool(report.passed)},
              1e-9 * game.scale, "exact subset recursion over opponent count vectors")
    print(f"pooling gap {report.lhs:.6g} <= bound {report.bound:.6g}: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_INVARIANT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: each main call only parses."""
    parser = argparse.ArgumentParser(
        prog="equalshare",
        description="Symmetric zero-sum game simulations, learners, and analysis oracles",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="base seed, a non-negative integer (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--threads", type=_count, default=None,
                        help="a positive integer, accepted and ignored: matches run in one thread")
    verbs = parser.add_subparsers(dest="verb", required=True)

    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--game", required=True, help="builtin name or file:<path>")
    game.add_argument("--n", type=int, help="players, for parametric games")
    game.add_argument("--num-actions", type=int, help="actions, for parametric games")
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--runs", type=_count,
                      help="runs (seeds) per configuration (default 100 for mv and sdg, 20 for lowerbound and scaling)")
    audit = argparse.ArgumentParser(add_help=False)
    audit.add_argument("--self-audit", action="store_true", help="recompute the aggregates from the emitted rows")

    def leaf(subparsers, name, run, summary, parents):
        p = subparsers.add_parser(name, help=summary, description=summary, parents=parents)
        p.set_defaults(run=run)
        return p

    leaf(verbs, "verify", cmd_verify, "check structural invariants of a game", [game])
    p = leaf(verbs, "simulate", cmd_simulate, "run seeded matches from a config file", [audit])
    p.add_argument("--config", required=True, help="config file")

    tables = verbs.add_parser("reproduce", help="run a packaged experiment").add_subparsers(dest="table", required=True)
    for name in ("mv", "sdg"):
        p = leaf(tables, name, cmd_table, f"the {name} convergence table", [runs, audit])
        p.add_argument("--eval-games", type=_count, help="Monte Carlo games per evaluation (default 300000)")
        p.add_argument("--exploit-runs", type=_count, help="exploiter restarts per strategy (default 100)")
    p = leaf(tables, "lowerbound", cmd_lowerbound, "learners against the lower-bound schedules", [runs, audit])
    p.add_argument("--horizon", type=_count, default=1024, help="rounds per match (default 1024)")
    leaf(tables, "scaling", cmd_scaling,
         f"dynamic-regret scaling fit over horizons {SCALING_HORIZONS[0]}..{SCALING_HORIZONS[-1]}", [runs])

    quantities = verbs.add_parser("analyze", help="run an analysis oracle").add_subparsers(dest="quantity", required=True)
    p = leaf(quantities, "minimax", cmd_minimax, "minimax values against identical or independent opponents", [game])
    p.add_argument("--which", default="minmax-identical",
                   choices=["minmax-identical", "maxmin-identical", "maxmin-independent", "minmax-independent"])
    p = leaf(quantities, "exploitability", cmd_exploitability, "exploitability of a strategy", [game])
    p.add_argument("--x", required=True, help="strategy, comma separated")
    p.add_argument("--method", default="auto", choices=["auto", "grid", "exploiter"],
                   help=f"auto: a certified branch and bound within {analysis.CERTIFIED_TOL:g} x scale, at any number of actions; "
                        "grid: a simplex grid scan; exploiter: the exploiter protocol")
    p = leaf(quantities, "equilibrium", cmd_equilibrium, "equilibrium check of a distribution", [game])
    p.add_argument("--concept", default="ne", choices=["ne", "ce", "cce"])
    dist = p.add_mutually_exclusive_group(required=True)
    dist.add_argument("--product", help="per-player strategies 'p0,p1;p0,p1;...'")
    dist.add_argument("--dist", help="JSON file with a joint distribution")
    p.add_argument("--tol", type=float, default=1e-9)
    p = leaf(quantities, "pooling", cmd_pooling, "population pooling bound", [game])
    p.add_argument("--population", required=True, help="JSON file with population strategies")
    p.add_argument("--z", required=True, help="pooling probe strategy, comma separated")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
