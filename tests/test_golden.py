"""Golden hashes: byte identity of transcripts, tables and oracle outputs.

`golden.json` maps each key of a fixed grid of (game, learner, schedule, T,
seed) transcripts, tiny convergence tables, grid oracles, batch trainers and
Monte Carlo estimates to the first 16 hex digits of a SHA-256 of its bytes.
A change that moves an output fails here and names the key.  Float bytes
depend on numpy and the BLAS build, so the file records both, and a failure
says when they differ from the ones in use.

After a change that moves a hash on purpose, regenerate the file by hand:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from equalshare import analysis, games, learners
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
TINY_TABLE = dict(runs=4, hedge_horizon=2_000, sp_horizon=1_000, eval_games=5_000, eval_repeats=2,
                  exploit_runs=2, exploit_steps=400)


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
    out = {}
    for kind in LEARNER_FIELDS:
        for schedule in (BiasedCoinSchedule(8.0, T), PureSwapSchedule(32.0, T)):
            for tr in run_matches(game, LearnerSpec(kind), schedule, T, [0, 1]):
                key = f"run_matches/{kind}/{schedule.describe()}/seed{tr.seed}"
                for name in TRANSCRIPT_FIELDS:
                    out[f"{key}/{name}"] = getattr(tr, name)
                out[f"{key}/to_csv"] = tr.to_csv()
    return out


def tables() -> dict:
    out = {}
    for name, table in (("mv", mv_table), ("sdg", sdg_table)):
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
        if name in ("majority3", "minority3"):
            out[f"minimax_independent/{name}"] = analysis.minimax_independent(game)
    return out


def trainers() -> dict:
    mv, sdg30 = games.majority3(), games.sdg(30)
    y_mv, y_sdg = np.array([0.49, 0.51]), np.array([0.399, 0.6, 0.001])
    runs = {
        "batch_hedge_vs_fixed/majority3": lambda rng: learners.batch_hedge_vs_fixed(mv, y_mv, 3_000, 16, 1.0, rng),
        "batch_hedge_vs_fixed/sdg30": lambda rng: learners.batch_hedge_vs_fixed(sdg30, y_sdg, 1_000, 8, 2.0, rng),
        "batch_self_play/scratch/sdg30": lambda rng: learners.batch_self_play(sdg30, 300, 8, 2.0, rng),
        "batch_self_play/bc_init/majority3": lambda rng: learners.batch_self_play(
            mv, 500, 8, 1.0, rng, mode="bc_init", y_meta=y_mv),
        "batch_self_play/regularized/majority3": lambda rng: learners.batch_self_play(
            mv, 500, 8, 1.0, rng, mode="regularized", lam=1e-2, y_meta=y_mv),
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


PARTS = {"transcripts": transcripts, "tables": tables, "oracles": oracles, "trainers": trainers}


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


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
