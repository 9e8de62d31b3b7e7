"""Golden hashes: byte identity of transcripts, tables and oracle outputs.

`golden.json` maps each key of a fixed grid of (game, learner, schedule, T,
seed) transcripts, tiny convergence tables, grid oracles, pooling checks,
batch trainers, Monte Carlo estimates and the files of the sweep verbs to
the first 16 hex digits of a SHA-256 of its bytes.
A change that moves an output fails here and names the key.  Float bytes
depend on numpy, the BLAS build and the BLAS thread count (conftest.py pins
it to one thread), so the file records all three, and a failure says when
they differ from the ones in use.

After a change that moves a hash on purpose, regenerate the file by hand:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

# before numpy: importing conftest pins BLAS to one thread, run as a script too
from conftest import BLAS_THREAD_VARS

import numpy as np
import pytest

from equalshare import analysis, games, learners, reproduce
from equalshare.arena import BiasedCoinSchedule, PureSwapSchedule, run_matches
from equalshare.learners import LEARNER_FIELDS, LearnerSpec
from equalshare.reproduce import mv_table, sdg_table

GOLDEN = Path(__file__).resolve().parent / "golden.json"

TRANSCRIPT_FIELDS = ("strategies", "actions", "opponent_actions", "realized", "y_seq", "u_vectors", "expected")
ORACLE_GAMES = {
    "majority3": games.majority3,
    "minority3": games.minority3,
    "sdg30": lambda: games.sdg(30),
    "extended_majority3_3": lambda: games.extended_majority(3, 3),
}
# (name, game, population size) of the pinned pooling checks
POOLING_CASES = (
    ("majority3", games.majority3(), 6),
    ("sdg5", games.sdg(5), 7),
    ("extended_majority5_2", games.extended_majority(5, 2), 9),
)
# (name, game) of the pinned equilibrium checks
EQUILIBRIUM_CASES = (
    ("majority3", games.majority3()),
    ("extended_majority3_3", games.extended_majority(3, 3)),
    ("sdg5", games.sdg(5)),
)
TINY_TABLE = dict(runs=4, hedge_horizon=2_000, sp_horizon=1_000, eval_games=5_000, exploit_runs=2, exploit_steps=400)
TINY_EVAL_REPEATS = 2  # reproduce.EVAL_REPEATS in the tiny tables


def _canonical(obj) -> bytes:
    """Bytes that pin an output exactly: arrays by dtype, shape and raw
    bytes, floats by their hex form, text as UTF-8."""
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype.str}{obj.shape}:".encode() + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(repr(k).encode() + b":" + _canonical(v) for k, v in obj.items()) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_canonical(v) for v in obj) + b"]"
    if isinstance(obj, float):
        return float(obj).hex().encode()
    if isinstance(obj, str):
        return obj.encode()
    return repr(obj).encode()


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj)).hexdigest()[:16]


def transcripts() -> dict:
    game, T = games.extended_majority(3, 2), 1024
    schedules = {f"biased_coin(V=8,T={T})": BiasedCoinSchedule(8.0, T), f"pure_swap(V=32,T={T})": PureSwapSchedule(32.0, T)}
    matches = [(label, seed) for label in schedules for seed in (0, 1)]
    # every kind plays every match in one call
    played = dict(zip(matches, run_matches(game, [LearnerSpec(kind) for kind in LEARNER_FIELDS],
                                           [(schedules[label], seed) for label, seed in matches], T)))
    out = {}
    for k, kind in enumerate(LEARNER_FIELDS):
        for label, seed in matches:
            tr = played[label, seed][k]
            key = f"run_matches/{kind}/{label}/seed{tr.seed}"
            for name in TRANSCRIPT_FIELDS:
                out[f"{key}/{name}"] = getattr(tr, name)
            out[f"{key}/to_csv"] = tr.to_csv()
    return out


def tables() -> dict:
    out = {}
    for name, table in (("mv", mv_table), ("sdg", sdg_table)):
        with mock.patch.object(reproduce, "EVAL_REPEATS", TINY_EVAL_REPEATS):
            report = table(seed=3, **TINY_TABLE)
        out[f"{name}_table/as_dict"] = json.dumps(report.as_dict(), default=float)
        out[f"{name}_table/convergence_csv"] = report.convergence_csv()
        out[f"{name}_table/to_markdown"] = report.to_markdown()
    return out


def oracles() -> dict:
    out = {}
    for name, build in ORACLE_GAMES.items():
        game = build()
        for which in ("minmax", "maxmin"):
            out[f"minimax_identical/{which}/{name}"] = analysis.minimax_identical(game, which)
        for a in range(game.A):
            out[f"exploitability/grid/{name}/pure{a}"] = analysis.exploitability(game, np.eye(game.A)[a], method="grid")
        if game.n == 3:
            out[f"minimax_independent/{name}"] = analysis.minimax_independent(game)
    # sdg(200)'s coarse scan is the one pinned scan that payoff_vectors_batch
    # splits into row chunks (K = 20,100 count vectors per grid point)
    sdg200 = games.sdg(200)
    grid = analysis.SimplexGrid(3, analysis.default_resolution(3))
    out["payoff_vectors_batch/sdg200/grid"] = games.payoff_vectors_batch(sdg200, grid.points())
    out["exploitability/grid/sdg200/pure1"] = analysis.exploitability(sdg200, [0.0, 1.0, 0.0], method="grid")
    for name, game in EQUILIBRIUM_CASES:
        rng = np.random.default_rng(24)
        profiles = [rng.dirichlet(np.ones(game.A), size=game.n) for _ in range(4)]
        joints = [rng.dirichlet(np.ones(game.A**game.n)) for _ in range(4)]
        joints[-1][rng.random(game.A**game.n) < 0.7] = 0.0  # zero-probability recommendations
        joints = [joint.reshape((game.A,) * game.n) / joint.sum() for joint in joints]
        for concept, dists in (("ne", profiles), ("ce", joints), ("cce", joints)):
            out[f"check_equilibrium/{concept}/{name}"] = [
                analysis.check_equilibrium(game, dist, concept).epsilon for dist in dists]
    for name, game, size in POOLING_CASES:
        rng = np.random.default_rng(16)
        population, z = rng.dirichlet(np.ones(game.A), size=size), rng.dirichlet(np.ones(game.A))
        report = analysis.pooling_check(game, population, z)
        out[f"pooling_check/{name}/N{size}"] = (float(report.lhs), report.bound, bool(report.passed))
    return out


def trainers() -> dict:
    mv, sdg30 = games.majority3(), games.sdg(30)
    y_mv, y_sdg = np.array([0.49, 0.51]), np.array([0.399, 0.6, 0.001])
    runs = {
        "batch_hedge_vs_fixed/majority3": lambda rng: learners.batch_hedge_vs_fixed(mv, y_mv, 3_000, 16, 1.0, rng),
        "batch_hedge_vs_fixed/sdg30": lambda rng: learners.batch_hedge_vs_fixed(sdg30, y_sdg, 1_000, 8, 2.0, rng),
        "batch_self_play/scratch/sdg30": lambda rng: learners.batch_self_play(sdg30, 300, 8, 2.0, rng),
        # the one-row rosters of the bc_init and regularized modes
        "batch_self_play/bc_init/majority3": lambda rng: learners.self_play_roster(
            mv, 500, 8, 1.0, [("bc_init", 0.0, rng)], y_mv)[0],
        "batch_self_play/regularized/majority3": lambda rng: learners.self_play_roster(
            mv, 500, 8, 1.0, [("regularized", 1e-2, rng)], y_mv)[0],
        "batch_exploiter/majority3": lambda rng: learners.batch_exploiter(mv, np.array([0.3, 0.7]), 500, 8, 1.0, rng),
        "batch_exploiter/sdg30": lambda rng: learners.batch_exploiter(sdg30, np.array([0.0, 1.0, 0.0]), 300, 4, 2.0, rng),
    }
    out = {}
    for seed, (key, run) in enumerate(runs.items()):
        rng = np.random.default_rng(seed)
        out[f"{key}/finals"] = run(rng)
        out[f"{key}/next_draw"] = rng.random(4)
    for name, game, x, y in (("majority3", mv, [0.2, 0.8], y_mv), ("sdg30", sdg30, [0.0, 1.0, 0.0], y_sdg)):
        out[f"monte_carlo_utility/{name}"] = analysis.monte_carlo_utility(game, x, y, 20_000, 5)
    return out


def sweeps() -> dict:
    """Every file that `reproduce lowerbound` and `reproduce scaling` write, through cli.main."""
    from equalshare import cli

    runs = {f"lowerbound/horizon256_runs3/seed{seed}": [str(seed), "reproduce", "lowerbound", "--horizon", "256", "--runs", "3"]
            for seed in (0, 5)}
    runs |= {f"scaling/runs2/seed{seed}": [str(seed), "reproduce", "scaling", "--runs", "2"] for seed in (0, 3)}
    out = {}
    for key, (seed, *verb) in runs.items():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["--seed", seed, "--out", tmp, *verb]) != cli.EXIT_OK:
                raise RuntimeError(f"{key}: the CLI failed")
            out |= {f"cli/{key}/{path.name}": path.read_text() for path in sorted(Path(tmp).iterdir())}
    return out


PARTS = {"transcripts": transcripts, "tables": tables, "oracles": oracles, "trainers": trainers, "sweeps": sweeps}


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def regenerate(path: Path = GOLDEN) -> None:
    """Recompute every hash and rewrite the golden file."""
    hashes = {part: {key: _digest(value) for key, value in build().items()} for part, build in PARTS.items()}
    path.write_text(json.dumps({"versions": _versions(), "hashes": hashes}, indent=1) + "\n")


@pytest.mark.parametrize("part", sorted(PARTS))
def test_golden_hashes(part):
    golden = json.loads(GOLDEN.read_text())
    want = golden["hashes"][part]
    got = {key: _digest(value) for key, value in PARTS[part]().items()}
    moved = sorted(key for key in want.keys() & got.keys() if want[key] != got[key])
    note = ""
    if golden["versions"] != _versions():
        note = f"; recorded under {golden['versions']}, running under {_versions()}"
    assert moved == [], f"moved hashes: {moved}{note}"
    assert sorted(got) == sorted(want), (
        f"keys only computed: {sorted(got.keys() - want.keys())}, "
        f"keys only recorded: {sorted(want.keys() - got.keys())}{note}"
    )


if __name__ == "__main__":
    regenerate()
