"""Benchmark of the equalshare package: one run of one workload.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

A run repeats the workload, each repetition in a fresh interpreter
(bench/rep.py), one after another, until --seconds is used up, and never
fewer than three times.  Every repetition of a run uses the same seed, so
their output digests must agree.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json as medians over repetitions; with
--trace 1 it alternates traced and untraced repetitions and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last stdout line is the JSON result.  A record of the run (machine,
versions, per-repetition numbers, output SHA-256s, spans) is written under
.bench_out/.

Exit codes: 0 result printed, 1 no repetition produced a result,
2 the package or BENCHMARK.json is missing, 3 a self-check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from rep import WORKLOADS, Output, close_problem, run_units  # noqa: E402
from spans import Tracer, self_seconds_by_module, tree_problems  # noqa: E402

MIN_REPS = 3  # untraced run: repetitions, for a median and a digest comparison
MIN_TRACED = 2  # traced run: traced repetitions, for count comparison (plus one untraced)
SAFE_S = 150.0  # start no repetition expected to end later than this
DEADLINE_S = 175.0  # kill a repetition still running this long after the run started
BLAS_THREADS = 1
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_names(names) -> list[str]:
    return [f"metric name {n!r} is not [A-Za-z0-9_.-], at most 64 long" for n in names if not METRIC_NAME.fullmatch(n)]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_rep(workload: str, seed: int, traced: bool, nproc: int, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--nproc", str(nproc)]
    spawn = time.monotonic()
    rep = {"traced": traced, "spawn_monotonic": spawn, "result": None, "error": None}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["error"] = f"repetition killed after {timeout:.0f} s"
        return rep
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        rep["error"] = f"repetition exited {proc.returncode}"
        return rep
    try:
        rep["result"] = json.loads(lines[-1])
    except json.JSONDecodeError:
        rep["error"] = "repetition printed no JSON record"
    return rep


def run_reps(workload: str, seed: int, seconds: int, trace: bool, nproc: int) -> list[dict]:
    start = time.monotonic()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 0  # traced runs: traced, untraced, traced, ...
        reps.append(run_rep(workload, seed, traced, nproc, DEADLINE_S - (time.monotonic() - start)))
        n_traced = sum(r["traced"] for r in reps)
        enough = (n_traced >= MIN_TRACED and len(reps) > n_traced) if trace else len(reps) >= MIN_REPS
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(reps)
        if (enough and next_end > seconds) or next_end > SAFE_S:
            return reps


def count_failures(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all units of all repetitions.  A
    unit fails when it raised, failed its check, or its output digest
    differs from the first repetition's; a repetition that produced no
    record fails all its units."""
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    per_rep = max((len(r["result"]["units"]) for r in reps if r["result"]), default=1)
    for i, rep in enumerate(reps):
        if rep["result"] is None:
            attempted += per_rep
            failed += per_rep
            problems.append(f"rep {i}: {rep['error']}")
            continue
        for unit in rep["result"]["units"]:
            attempted += 1
            problem = unit["problem"]
            if problem is None and first.setdefault(unit["name"], unit["sha256"]) != unit["sha256"]:
                problem = f"output digest {unit['sha256'][:12]} differs from {first[unit['name']][:12]}"
            if problem:
                failed += 1
                problems.append(f"rep {i} unit {unit['name']}: {problem}")
    return attempted, failed, problems


def summarize(values: list[float]) -> dict:
    # inclusive: with a handful of repetitions the default method extrapolates past the data
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for rep in reps:
        res = rep["result"]
        if res is None or rep["traced"]:
            continue
        steps = sum(u["steps"] for u in res["units"])
        for name, value in (
            ("wall_s", res["wall_s"]),
            ("cpu_s", res["cpu_s"]),
            ("setup_s", res["ready_monotonic"] - rep["spawn_monotonic"]),
            ("peak_rss_mb", res["peak_rss_mb"]),
            ("learner_steps_per_s", steps / res["wall_s"]),
        ):
            samples.setdefault(name, []).append(value)
    return samples


def per_layer(reps: list[dict], problems: list[str]) -> dict[str, list[float]]:
    """Per-layer samples of the traced repetitions, plus the tracing
    overhead; checks span trees and that counts repeat exactly."""
    samples: dict[str, list[float]] = {}
    counts = None
    traced = [r for r in reps if r["traced"] and r["result"]]
    for i, rep in enumerate(traced):
        res = rep["result"]
        problems.extend(f"traced rep {i}: {p}" for p in tree_problems(res["spans"]))
        if counts is None:
            counts = res["counts"]
        elif res["counts"] != counts:
            problems.append(f"traced rep {i}: counts {res['counts']} differ from {counts}")
        for name, value in res["layers"].items():
            samples.setdefault(name, []).append(value)
    plain = [r["result"]["wall_s"] for r in reps if not r["traced"] and r["result"]]
    if traced and plain:
        overhead = statistics.median(r["result"]["wall_s"] for r in traced) - statistics.median(plain)
        samples["trace.overhead_s"] = [overhead]
    return samples


def code_facts() -> dict:
    """Line count and digest of src/, and a digest of the benchmark itself."""
    facts = {}
    for tree in ("src", "bench"):
        digest = hashlib.sha256()
        lines = 0
        for path in sorted((ROOT / tree).rglob("*.py")):
            data = path.read_bytes()
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
            lines += data.count(b"\n")
        facts[f"{tree}_lines"], facts[f"{tree}_sha256"] = lines, digest.hexdigest()
    return facts


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_counts_across_runs(workload: str, code: dict, reps: list[dict], problems: list[str]) -> None:
    """Counts depend on sizes, not seeds: a run of the same package and
    benchmark code must reproduce the counts of the previous traced run in
    this checkout."""
    counts = next((r["result"]["counts"] for r in reps if r["traced"] and r["result"]), None)
    if counts is None:
        return
    path = OUT / f"counts-{workload}.json"
    key = code["src_sha256"] + code["bench_sha256"]
    if path.exists():
        before = json.loads(path.read_text())
        if before["code"] == key and before["counts"] != counts:
            problems.append(f"counts {counts} differ from the previous run's {before['counts']}")
    path.write_text(json.dumps({"code": key, "counts": counts}, indent=1) + "\n")


def selfcheck() -> list[str]:
    """The benchmark's checks on itself, run before every run."""
    problems = []

    def raises():
        raise RuntimeError("forced failure")

    def wrong():
        return Output(b"", close_problem("forced reference", [1.0], [2.0], 1e-9), 1)

    def fine():
        return Output(b"same", None, 1)

    units = [("raises", "bench.raises", raises), ("wrong", "bench.wrong", wrong), ("fine", "bench.fine", fine)]
    second = run_units(units)
    second[2]["sha256"] = "0" * 64  # same seed, different output
    reps = [{"result": {"units": run_units(units)}}, {"result": {"units": second}}, {"result": None, "error": "forced"}]
    got = count_failures(reps)[:2]
    if got != (9, 8):
        problems.append(f"forced failures counted as (attempted, failed) = {got}, expected (9, 8)")
    if not check_metric_names(["bad name!"]) or check_metric_names(["arena.match_us_per_round.saol"]):
        problems.append("metric name check accepts a bad name or rejects a good one")
    tracer = Tracer()
    for name in ("bench.a", "bench.b"):
        with tracer.span(name):
            pass
    one_root = Tracer()
    with one_root.span("bench.root"), one_root.span("bench.child"):
        pass
    if not tree_problems(tracer.spans) or tree_problems(one_root.spans):
        problems.append("span tree check does not require exactly one root")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "equalshare" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("bench: src/equalshare or BENCHMARK.json not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    problems = selfcheck() + check_metric_names(wanted)
    if problems:
        print("bench: self-check failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 3

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    if not any(r["result"] for r in reps):
        print("bench: no repetition produced a result: " + "; ".join(r["error"] for r in reps), file=sys.stderr)
        return 1

    attempted, failed, problems = count_failures(reps)
    code = code_facts()
    if args.trace:
        samples = per_layer(reps, problems)
        check_counts_across_runs(args.workload, code, reps, problems)
    else:
        samples = end_to_end(reps)
    if set(samples) != set(wanted):
        problems.append(f"measured metrics {sorted(samples)} differ from BENCHMARK.json's {sorted(wanted)}")
    stats = {name: summarize(values) for name, values in samples.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": nproc, **next(r["result"]["versions"] for r in reps if r["result"]),
                    "blas_threads": BLAS_THREADS, "git_commit": git_commit(), **code},
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {name: {**s, "unit": wanted.get(name)} for name, s in stats.items()},
        "repetitions": [
            {"traced": r["traced"], "error": r["error"],
             **({k: v for k, v in r["result"].items() if k != "spans"} if r["result"] else {}),
             **({"self_s_by_module": self_seconds_by_module(r["result"]["spans"])} if r["traced"] and r["result"] else {})}
            for r in reps
        ],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [{"rep": i, "spans": r["result"]["spans"]} for i, r in enumerate(reps) if r["traced"] and r["result"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for problem in problems:
        print(f"problem: {problem}")
    for name, s in stats.items():
        print(f"{args.workload} {name} = {s['median']:.6g} {wanted.get(name, '')} "
              f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} units)")
    if not args.trace:
        alias = {"sweep": "rounds_per_s", "tables": "run_steps_per_s"}.get(args.workload)
        if alias:
            print(f"{args.workload} {alias} = {stats['learner_steps_per_s']['median']:.6g} 1/s (learner_steps_per_s)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in wanted.items() if name in stats},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
