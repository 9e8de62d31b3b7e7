"""Config documents: each section takes exactly the fields its kind reads."""

import json

import numpy as np
import pytest

from equalshare.arena import SCHEDULE_FIELDS, realize_schedule, run_match
from equalshare.cli import EXIT_CONFIG, main
from equalshare.config import ConfigError, parse_config
from equalshare.games import extended_majority, realized_payoff_vector
from equalshare.learners import LEARNER_FIELDS

T = 100  # past 64, so a SAOL horizon of 2T changes the truncated cover
GAME = extended_majority(3, 2)
BASE = {
    "game": {"name": "extended_majority", "n": 3, "num_actions": 2},
    "learner": {"kind": "hedge"},
    "schedule": {"kind": "biased_coin", "v_budget": 8, "horizon": T},
    "T": T,
    "seeds": [0],
}
# a valid, non-default value of every field some kind reads
LEARNER_VALUES = {"eta": 2.0, "rule": "fixed", "horizon": 2 * T}
SCHEDULE_VALUES = {"y": [0.3, 0.7], "ys": [[0.3, 0.7]] * T, "v_budget": 16, "horizon": T}
SCHEDULE_DEFAULTS = {
    "fixed": {"y": [0.49, 0.51]},
    "sequence": {"ys": [[0.49, 0.51]] * T},
    "biased_coin": {"v_budget": 8, "horizon": T},
    "pure_swap": {"v_budget": 8, "horizon": T},
}


def _strategies(learner: dict) -> np.ndarray:
    cfg = parse_config({**BASE, "learner": learner})
    return run_match(cfg.game, cfg.learner, cfg.schedule, cfg.T, 0).strategies


def _realized(schedule: dict) -> np.ndarray:
    cfg = parse_config({**BASE, "schedule": schedule, "T": schedule.get("horizon", T)})
    return realize_schedule(cfg.schedule, GAME, cfg.T, np.random.default_rng(0))


@pytest.mark.parametrize("kind, field", [(k, f) for k, fields in LEARNER_FIELDS.items() for f in fields])
def test_every_learner_field_read_changes_the_transcript(kind, field):
    default = _strategies({"kind": kind})
    assert not np.array_equal(_strategies({"kind": kind, field: LEARNER_VALUES[field]}), default)


@pytest.mark.parametrize("kind, field", [(k, f) for k, fields in SCHEDULE_FIELDS.items() for f in fields])
def test_every_schedule_field_read_changes_the_realized_schedule(kind, field):
    default = _realized({"kind": kind, **SCHEDULE_DEFAULTS[kind]})
    value = 64 if field == "horizon" else SCHEDULE_VALUES[field]  # a horizon must equal T
    changed = _realized({"kind": kind, **SCHEDULE_DEFAULTS[kind], field: value})
    assert not np.array_equal(changed[:64], default[:64])


@pytest.mark.parametrize("kind, field", [
    (k, f) for k, fields in LEARNER_FIELDS.items() for f in [*LEARNER_VALUES, "lam"] if f not in fields
])
def test_a_learner_field_its_kind_does_not_read_is_refused(kind, field):
    with pytest.raises(ConfigError) as err:
        parse_config({**BASE, "learner": {"kind": kind, field: LEARNER_VALUES.get(field, 1e-3)}})
    assert err.value.problems == [f"learner: unknown fields [{field!r}]: {kind} reads only {sorted(['kind', *LEARNER_FIELDS[kind]])}"]


@pytest.mark.parametrize("kind, field", [
    (k, f) for k, fields in SCHEDULE_FIELDS.items() for f in [*SCHEDULE_VALUES, "eps"] if f not in fields
])
def test_a_schedule_field_its_kind_does_not_read_is_refused(kind, field):
    schedule = {"kind": kind, **SCHEDULE_DEFAULTS[kind], field: SCHEDULE_VALUES.get(field, 0.1)}
    with pytest.raises(ConfigError) as err:
        parse_config({**BASE, "schedule": schedule})
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(f"schedule: unknown fields [{field!r}]")


def test_seed_ranges():
    assert parse_config({**BASE, "seeds": {"count": 2, "base": 7}}).seeds == [7, 8]
    assert parse_config({**BASE, "seeds": {"count": 3}}).seeds == [0, 1, 2]
    for seeds, fragment in (
        ({"count": 2, "bsae": 7}, "unknown fields ['bsae']"),
        ({"count": 2, "base": 2.7}, "got {'count': 2, 'base': 2.7}"),
        ({"count": 0}, "got {'count': 0}"),
        ({"base": 3}, "got {'base': 3}"),
        ([1, 1], "got [1, 1]"),  # a repeated seed would write its transcript and metrics row twice
        ([0, -1], "got [0, -1]"),  # numpy seeds from non-negative ints only
        ({"count": 2, "base": -1}, "got {'count': 2, 'base': -1}"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config({**BASE, "seeds": seeds})
        assert len(err.value.problems) == 1 and fragment in err.value.problems[0]


def test_custom_game_fields():
    custom = {"n": 3, "A": 2, "payoff_table": {f"{a}|{c},{2 - c}": realized_payoff_vector(GAME, (c, 2 - c))[a] for a in range(2) for c in range(3)}}
    assert parse_config({**BASE, "game": {"custom": custom}}).game.kind == "custom"
    for game, field in (({"custom": {**custom, "scale": 2}}, "scale"), ({"custom": custom, "kind": "custom"}, "kind")):
        with pytest.raises(ConfigError) as err:
            parse_config({**BASE, "game": game, "schedule": {"kind": "fixed", "y": [0.5, 0.5]}})
        assert err.value.problems[0].startswith(f"game: unknown fields [{field!r}]")


def _assert_refused_at_parse_time(doc, problem, tmp_path, capsys):
    """parse_config reports `problem` alone, and simulate exits 2 with it
    before creating its output directory."""
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert len(err.value.problems) == 1 and problem in err.value.problems[0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, "out": str(tmp_path / "sim")}))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("section, value, problem", [
    ("T", True, "T: must be a positive integer, got True"),
    ("learner", {"kind": "saol", "horizon": "x"}, "learner: field 'horizon' must be a JSON integer, got 'x'"),
    ("game", {"name": "sdg", "n": 30.5}, "game: field 'n' must be a JSON integer, got 30.5"),
    ("learner", {"kind": "saol", "horizon": 2.5}, "learner: field 'horizon' must be a JSON integer, got 2.5"),
    ("schedule", {"kind": "biased_coin", "v_budget": 8, "horizon": 8.9}, "schedule: field 'horizon' must be a JSON integer, got 8.9"),
    ("schedule", {"kind": "biased_coin", "v_budget": "2", "horizon": T}, "schedule: field 'v_budget' must be a JSON number, got '2'"),
    ("learner", {"kind": "hedge", "eta": True}, "learner: field 'eta' must be a JSON number, got True"),
    ("seeds", [True, False], "got [True, False]"),
    ("schedule", {"kind": "fixed"}, "schedule: missing field 'y'"),
], ids=["T-bool", "saol-horizon-str", "game-n-float", "saol-horizon-float", "schedule-horizon-float",
        "v_budget-str", "eta-bool", "seeds-bools", "fixed-missing-y"])
def test_a_scalar_of_the_wrong_json_type_is_refused_at_parse_time(section, value, problem, tmp_path, capsys):
    _assert_refused_at_parse_time({**BASE, section: value}, problem, tmp_path, capsys)


@pytest.mark.parametrize("schedule, problem", [
    ({"kind": "fixed", "y": ["0.5", "0.5"]}, "schedule: field 'y': ['0.5', '0.5'] is not an array of JSON numbers"),
    ({"kind": "fixed", "y": [0.5, True]}, "schedule: field 'y': [0.5, True] is not an array of JSON numbers"),
    ({"kind": "sequence", "ys": [[0.5, 0.5]] * (T - 1) + [["0.5", "0.5"]]},
     "schedule: field 'ys': ['0.5', '0.5'] is not an array of JSON numbers"),
    ({"kind": "sequence", "ys": [0.5] * T}, "schedule: field 'ys': 0.5 is not an array of JSON numbers"),
], ids=["y-strings", "y-bool", "ys-strings", "ys-flat"])
def test_a_schedule_entry_that_is_not_a_json_number_is_refused(schedule, problem, tmp_path, capsys):
    _assert_refused_at_parse_time({**BASE, "schedule": schedule}, problem, tmp_path, capsys)


@pytest.mark.parametrize("horizon", [0, -3])
def test_a_saol_horizon_below_one_is_refused_at_parse_time(horizon, tmp_path, capsys):
    problem = f"learner: horizon must be at least 1, got {horizon}"
    _assert_refused_at_parse_time({**BASE, "learner": {"kind": "saol", "horizon": horizon}}, problem, tmp_path, capsys)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_a_non_finite_eta_is_refused_at_parse_time(eta, tmp_path, capsys):
    # JSON's NaN and Infinity parse as floats; either would play nan strategies
    problem = f"learner: eta must be finite and positive, got {eta}"
    _assert_refused_at_parse_time({**BASE, "learner": {"kind": "hedge", "eta": eta}}, problem, tmp_path, capsys)
