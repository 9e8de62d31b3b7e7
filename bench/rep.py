"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 bench/rep.py --workload sweep --seed 0 --trace 0 --nproc 2

Imports the package and builds the game objects the library-call units take
(that is the set-up), then runs the workload's units one after another in
this process, a closed loop with one client.  With --trace 1 each unit runs
inside a span and the per-module probes (probes.py) run afterwards.  The
last stdout line is a JSON record of the repetition; everything the package
prints is captured and hashed instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Relative to ROOT (the child's working directory), so that paths the CLI
# writes into its outputs, and hence the output digests, do not depend on
# where the checkout lives.
WORK = Path(".bench_out") / "work"

# Sizes.  A repetition must fit several times into one run of the benchmark
# (BENCHMARK.json run_seconds), for a steady median; README.md gives timings.
SWEEP_HORIZON = 2048  # reproduce lowerbound --horizon
SWEEP_RUNS = 2  # reproduce lowerbound --runs (2 is the least with a std)
SIMULATE_HORIZON = 2048
SIMULATE_SEEDS = 4
TABLE_SIZES = dict(runs=100, hedge_horizon=20_000, sp_horizon=1_000, eval_games=10_000, exploit_steps=500)
TABLE_EXPLOIT_RUNS = 100  # run_table_experiment's default exploit_runs
ORACLE_EXPLOITER = dict(runs=8, steps=500)


@dataclass
class Output:
    """What a unit produced: bytes to hash, a failed check (or None), and
    the learner steps it ran (runs x steps, summed over trainers)."""

    data: bytes
    problem: str | None
    steps: int


def run_units(units, tracer=None) -> list[dict]:
    """Run (name, span_name, fn) units in order.  A unit fails when it
    raises or when its own check reports a problem; either way the next
    unit still runs."""
    records = []
    for name, span_name, fn in units:
        sid = tracer.begin(span_name) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                out = fn()
            data = captured.getvalue().encode() + out.data
            record = {"sha256": hashlib.sha256(data).hexdigest(), "problem": out.problem, "steps": out.steps}
        except Exception as exc:  # a unit failure is a measurement, not a crash
            tail = traceback.format_exc(limit=-3)
            record = {"sha256": None, "problem": f"raised {type(exc).__name__}: {exc}\n{tail}", "steps": 0}
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end(sid)
        records.append({"name": name, "wall_s": wall, **record})
    return records


def close_problem(what: str, got, want, tol: float) -> str | None:
    """None when every entry of `got` is within `tol` of `want`."""
    got, want = list(map(float, got)), list(map(float, want))
    if len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want)):
        return None
    return f"{what}: got {got}, expected {want} (tol {tol:g})"


def _files_bytes(directory: Path) -> bytes:
    parts = []
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        parts.append(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return b"\0".join(parts)


def _fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli(argv: list[str], out: Path | None) -> Output:
    """Run the CLI; its exit code must be 0.  Outputs are stdout (captured
    by run_units) plus every file it wrote."""
    from equalshare import cli

    rc = cli.main(argv)
    return Output(_files_bytes(out) if out else b"", None if rc == 0 else f"exit code {rc}", 0)


# ---------------------------------------------------------------------------
# Workloads.  Each returns [(unit name, span name, fn)] in run order.
# ---------------------------------------------------------------------------

def sweep_units(seed: int, nproc: int, games: dict):
    import numpy as np
    from equalshare.games import payoff_vector

    config = WORK / "simulate_config.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps({
        "game": {"name": "extended_majority", "n": 3, "num_actions": 2},
        "learner": {"kind": "saol"},
        "schedule": {"kind": "biased_coin", "v_budget": 8, "horizon": SIMULATE_HORIZON},
        "T": SIMULATE_HORIZON,
        "seeds": {"count": SIMULATE_SEEDS, "base": seed},
    }))

    def lowerbound():
        out = _fresh_dir("lowerbound")
        res = _cli(["--seed", str(seed), "--out", str(out), "reproduce", "lowerbound",
                    "--horizon", str(SWEEP_HORIZON), "--runs", str(SWEEP_RUNS), "--self-audit"], out)
        rows = json.loads((out / "lowerbound.json").read_text())["rows"]
        if res.problem is None and len(rows) != 9:
            res.problem = f"{len(rows)} lowerbound rows, expected 3 schedules x 3 learners"
        res.steps = 9 * SWEEP_RUNS * SWEEP_HORIZON
        return res

    def simulate():
        out = _fresh_dir("simulate")
        res = _cli(["--seed", str(seed), "--threads", str(nproc), "--out", str(out),
                    "simulate", "--config", str(config), "--self-audit"], out)
        res.steps = SIMULATE_SEEDS * SIMULATE_HORIZON
        return res

    def payoff_vector_ref():
        v = payoff_vector(games["majority3"], [0.49, 0.51])
        return Output(np.asarray(v).tobytes(), close_problem("payoff_vector(majority3, [.49,.51])", v, [-0.0102, 0.0098], 1e-12), 0)

    return [
        ("lowerbound", "cli.main", lowerbound),
        ("simulate", "cli.main", simulate),
        ("payoff_vector_ref", "games.payoff_vector", payoff_vector_ref),
    ]


def tables_units(seed: int, nproc: int, games: dict):
    from equalshare.reproduce import mv_table, sdg_table

    def table(fn, check_grid_value):
        def unit():
            report = fn(seed=seed, **TABLE_SIZES)
            data = (json.dumps(report.as_dict(), indent=2, default=float) + report.to_markdown() + report.convergence_csv()).encode()
            hedge = next(r for r in report.rows if r.label == "hedge")
            converged = {int(v) for v in hedge.labels if v >= 0}
            problem = None if converged == {1} else f"hedge runs converged to actions {sorted(converged)}, expected only 1"
            if problem is None and check_grid_value:
                # exploitability(sdg(30), [0,1,0]) by the grid oracle
                problem = close_problem("sdg hedge grid exploitability", [hedge.exploit_exact], [-29.0], 1e-9)
            evaluated = sum(r.exploit_protocol is not None for r in report.rows)
            sp_rows = len(report.rows) - 1
            steps = TABLE_SIZES["runs"] * (TABLE_SIZES["hedge_horizon"] + sp_rows * TABLE_SIZES["sp_horizon"])
            steps += evaluated * TABLE_EXPLOIT_RUNS * TABLE_SIZES["exploit_steps"]
            return Output(data, problem, steps)
        return unit

    return [
        ("mv_table", "reproduce.mv_table", table(mv_table, False)),
        ("sdg_table", "reproduce.sdg_table", table(sdg_table, True)),
    ]


def oracles_units(seed: int, nproc: int, games: dict):
    import numpy as np
    from equalshare.analysis import exploitability, minimax_independent

    def verify():
        return _cli(["verify", "--game", "sdg", "--n", "200"], None)

    def exploitability_sdg200():
        out = _fresh_dir("exploitability")
        res = _cli(["--seed", str(seed), "--out", str(out), "analyze", "exploitability",
                    "--game", "sdg", "--n", "200", "--x", "0,1,0"], out)
        value = json.loads((out / "exploitability.json").read_text())["value"]
        if res.problem is None and not value <= 0.0:
            res.problem = f"sdg(200) grid exploitability {value} > 0"
        return res

    def minimax_em64():
        out = _fresh_dir("minimax")
        return _cli(["--seed", str(seed), "--out", str(out), "analyze", "minimax",
                     "--game", "extended_majority", "--n", "6", "--num-actions", "4"], out)

    def exploiter_em64():
        value, y = exploitability(games["em64"], [0.5, 0.5, 0.0, 0.0], method="exploiter", seed=seed, **ORACLE_EXPLOITER)
        problem = None if math.isfinite(value) and value <= 1e-9 else f"exploiter exploitability {value} not <= 0"
        steps = ORACLE_EXPLOITER["runs"] * ORACLE_EXPLOITER["steps"]
        return Output(np.asarray([value, *y]).tobytes(), problem, steps)

    def minimax_independent_mv():
        res = minimax_independent(games["majority3"])
        flat = [res[k][0] for k in ("maxmin", "minmax")]
        flat += [float(v) for k in ("maxmin", "minmax") for arr in res[k][1].values() for v in arr]
        problem = None if all(map(math.isfinite, flat)) else f"non-finite minimax values {flat}"
        return Output(np.asarray(flat).tobytes(), problem, 0)

    return [
        ("verify_sdg200", "cli.main", verify),
        ("exploitability_sdg200", "cli.main", exploitability_sdg200),
        ("minimax_em64", "cli.main", minimax_em64),
        ("exploiter_em64", "analysis.exploitability", exploiter_em64),
        ("minimax_independent_mv", "analysis.minimax_independent", minimax_independent_mv),
    ]


UNITS = {"sweep": sweep_units, "tables": tables_units, "oracles": oracles_units}
WORKLOADS = tuple(UNITS)


def versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints instead of returning a dict
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nproc", type=int, required=True)
    args = parser.parse_args(argv)

    # set-up: imports plus the game objects (built here, in this interpreter)
    sys.path.insert(0, str(ROOT / "src"))
    from equalshare import analysis, arena, cli, games as G, learners, reproduce, sampling  # noqa: F401

    games = {"majority3": G.majority3(), "em64": G.extended_majority(6, 4)}
    units = UNITS[args.workload](args.seed, args.nproc, games)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        root = tracer.begin(f"bench.{args.workload}")
    t0 = time.perf_counter()
    records = run_units(units, tracer)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "units": records,
        "versions": versions(),
    }
    if tracer:
        from probes import run_probes

        with tracer.span("bench.probes"):
            result["layers"], result["counts"] = run_probes(tracer, args.workload, args.seed, args.nproc)
        tracer.end(root)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
