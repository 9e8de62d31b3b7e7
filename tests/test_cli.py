"""Command-line interface: verbs, exit codes, file outputs, determinism."""

import functools
import json

import numpy as np
import pytest

import equalshare as eq
from equalshare import analysis, cli
from equalshare.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SIZE_CAP, main
from equalshare.games import realized_payoff_vector
from equalshare.reproduce import RunReport, mv_table


def run_cli(*argv):
    return main(list(argv))


def test_verify_builtins_pass():
    assert run_cli("verify", "--game", "majority3") == EXIT_OK
    assert run_cli("verify", "--game", "sdg", "--n", "30") == EXIT_OK
    assert run_cli("verify", "--game", "extended_majority", "--n", "3", "--num-actions", "3") == EXIT_OK


def test_verify_passes_sdg_at_700_players(capsys):
    # 246,051 full profiles, just under MAX_PROFILES: the zero-sum check of
    # the array-form payoff on a 245,350-row table
    assert run_cli("verify", "--game", "sdg", "--n", "700") == EXIT_OK
    assert capsys.readouterr().out.startswith("zero-sum check: pass over 246051 profiles")


def test_verify_tampered_game_fails(tmp_path, capsys):
    g = eq.majority3()
    table = {f"{a}|{c0},{2 - c0}": realized_payoff_vector(g, (c0, 2 - c0))[a] for a in range(2) for c0 in range(3)}
    table["0|0,2"] = -0.9
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": table}}))
    rc = run_cli("verify", "--game", f"file:{path}")
    out = capsys.readouterr().out
    assert rc == EXIT_INVARIANT
    assert "FAIL" in out and "(1, 2)" in out  # violating profile named


@pytest.mark.parametrize("argv, doc", [
    (("--game", "sdg", "--num-actions", "3"), None),
    (("--game", "majority3", "--n", "5"), None),
    ((), {"name": "sdg", "n": 30, "extra": 1}),
    ((), 7),
    (("--n", "30", "--num-actions", "7"), {"name": "sdg", "n": 5}),  # the document sizes a file: game
], ids=["sdg-num-actions", "majority3-n", "file-extra-field", "file-not-an-object", "file-size-options"])
def test_verify_refuses_a_game_parameter_its_builder_does_not_take(argv, doc, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        argv = ("--game", f"file:{path}", *argv)
    assert run_cli("verify", *argv) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("7|1,1", 50.0), ("0|-1,3", 9.0), ("0|01,1", 0.5),
                                        ("x", 0.5), ("a|x,1", 0.5), ("0|1,1|1", 0.5)],
                         ids=["action-out-of-range", "negative-count", "second-spelling",
                              "no-bar", "not-integers", "two-bars"])
def test_verify_refuses_a_payoff_key_the_game_never_reads(key, value, tmp_path, capsys):
    # the first three would load: the first two as unread entries that set
    # the scale to 50 or 9, the third by replacing the entry "0|1,1"; the
    # last three raised bare unpacking and int() errors
    g = eq.majority3()
    table = {f"{a}|{c0},{2 - c0}": realized_payoff_vector(g, (c0, 2 - c0))[a] for a in range(2) for c0 in range(3)}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": {**table, key: value}}}))
    assert run_cli("verify", "--game", f"file:{path}") == EXIT_CONFIG
    assert f"bad payoff key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("drop, missing", [(None, "0|0,2"), ("0|1,1", "0|1,1"), ("1|2,0", "1|2,0")],
                         ids=["empty-table", "one-missing", "last-missing"])
def test_verify_refuses_a_payoff_table_with_a_missing_entry(drop, missing, tmp_path, capsys):
    # the message names the first missing key in game_to_json's order; an
    # empty table used to fail on max() of an empty sequence, and a partial
    # one to load and fail only when first read
    g = eq.majority3()
    table = {f"{a}|{c0},{2 - c0}": realized_payoff_vector(g, (c0, 2 - c0))[a] for a in range(2) for c0 in range(3)}
    table = {} if drop is None else {k: v for k, v in table.items() if k != drop}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": table}}))
    assert run_cli("verify", "--game", f"file:{path}") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"payoff table for n=3, A=2 has no entry {missing!r}" in err and "Traceback" not in err


def test_verify_prints_the_zero_sum_check_alone(capsys):
    assert run_cli("verify", "--game", "majority3") == EXIT_OK
    assert capsys.readouterr().out == "zero-sum check: pass over 4 profiles, worst violation 0\n"


@pytest.mark.parametrize("value", ["2.5", True, float("nan")], ids=["string", "bool", "nan"])
def test_verify_refuses_a_payoff_value_that_is_not_a_finite_number(value, tmp_path, capsys):
    # each would load: the string with scale 2.5, true as 1.0, and NaN as a
    # payoff that fails the zero-sum check with exit 3
    g = eq.majority3()
    table = {f"{a}|{c0},{2 - c0}": realized_payoff_vector(g, (c0, 2 - c0))[a] for a in range(2) for c0 in range(3)}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": {**table, "0|1,1": value}}}))
    assert run_cli("verify", "--game", f"file:{path}") == EXIT_CONFIG
    assert "payoff '0|1,1' must be a finite JSON number" in capsys.readouterr().err


def test_verify_size_cap_exit_code():
    assert run_cli("verify", "--game", "sdg", "--n", "1500") == EXIT_SIZE_CAP


def test_analyze_minimax(capsys, tmp_path):
    rc = run_cli("--out", str(tmp_path), "analyze", "minimax", "--game", "majority3", "--which", "maxmin-identical")
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "minimax.json").read_text())
    assert doc["value"] == pytest.approx(-0.5, abs=0.02)
    assert doc["quantity"] == "minimax:maxmin-identical"
    assert {"value", "argument", "tolerance", "method", "seed"} <= set(doc)
    # what the returned x1 secures, certified, is at most the grid's value
    assert doc["certified_lower"] <= doc["value"]


def test_analyze_minimax_identical_reports_certified_bounds(tmp_path):
    # minority3's grid maxmin reads 0.0, but its x1 secures only about
    # -1.25e-5, which certified_lower reports; the minmax document adds no
    # bound, since its lower end 0 would need a zero-sum game
    docs = {}
    for which in ("maxmin-identical", "minmax-identical"):
        out = tmp_path / which
        assert run_cli("--out", str(out), "analyze", "minimax", "--game", "minority3", "--which", which) == EXIT_OK
        docs[which] = json.loads((out / "minimax.json").read_text())
    maxmin, minmax = docs["maxmin-identical"], docs["minmax-identical"]
    x1 = maxmin["argument"]["learner_strategy"]
    assert abs(maxmin["value"]) < 1e-15 and -2e-5 < maxmin["certified_lower"] < -1e-5
    assert maxmin["certified_lower"] <= analysis.exploitability(eq.minority3(), x1, method="grid")[0]
    assert set(minmax) == {"quantity", "value", "argument", "tolerance", "method", "seed"}


def test_analyze_minimax_identical_bounds_hold_on_a_non_zero_sum_table(tmp_path):
    # a custom table is loaded without a zero-sum check: every payoff -1
    # makes both minimax quantities -1, up to rounding, and the certified
    # lower end is -1 too
    table = {f"{a}|{c0},{2 - c0}": -1.0 for a in range(2) for c0 in range(3)}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": table}}))
    docs = {}
    for which in ("maxmin-identical", "minmax-identical"):
        out = tmp_path / which
        assert run_cli("--out", str(out), "analyze", "minimax", "--game", f"file:{path}", "--which", which) == EXIT_OK
        docs[which] = json.loads((out / "minimax.json").read_text())
    maxmin, minmax = docs["maxmin-identical"], docs["minmax-identical"]
    assert maxmin["certified_lower"] == -1.0 and maxmin["certified_lower"] <= maxmin["value"] + 1e-15
    assert maxmin["value"] == pytest.approx(-1.0, abs=1e-15) and minmax["value"] == pytest.approx(-1.0, abs=1e-15)
    assert "bracket" not in minmax and "certified_lower" not in minmax


def test_analyze_minimax_independent_size_cap_exit_code():
    argv = ("analyze", "minimax", "--which", "maxmin-independent", "--game", "extended_majority", "--n", "3", "--num-actions", "4")
    assert run_cli(*argv) == EXIT_SIZE_CAP


def test_analyze_minimax_independent_runs_on_three_actions(tmp_path):
    # extended_majority(3,3): minmax's coarse scan holds 3 x 1,891^2 values
    argv = ("analyze", "minimax", "--which", "maxmin-independent", "--game", "extended_majority", "--n", "3", "--num-actions", "3")
    assert run_cli("--out", str(tmp_path), *argv) == EXIT_OK
    doc = json.loads((tmp_path / "minimax.json").read_text())
    assert doc["value"] == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_analyze_exploitability(capsys):
    rc = run_cli("analyze", "exploitability", "--game", "sdg", "--n", "30", "--x", "0,1,0")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "-29" in out


def test_analyze_exploitability_auto_on_four_actions_reports_the_certified_gap(tmp_path):
    # auto is certified at any number of actions: its tolerance is the gap
    # upper - lower, and it adds the lower end; the exploiter protocol has
    # no tolerance, and an explicit grid run has the grid's
    game = ("--game", "extended_majority", "--n", "3", "--num-actions", "4", "--x", "1,0,0,0")
    docs = {}
    for method in ("auto", "exploiter", "grid"):
        out = tmp_path / method
        assert run_cli("--out", str(out), "analyze", "exploitability", *game, "--method", method) == EXIT_OK
        docs[method] = json.loads((out / "exploitability.json").read_text())
        assert docs[method]["method"] == method
    auto = docs["auto"]
    assert auto["tolerance"] == auto["value"] - auto["certified_lower"]
    assert 0.0 <= auto["tolerance"] <= 1e-9 and auto["value"] == -1.0
    assert (docs["exploiter"]["tolerance"], docs["grid"]["tolerance"]) == (None, 2.0 / 8)
    assert "certified_lower" not in docs["exploiter"] and "certified_lower" not in docs["grid"]


def test_analyze_exploitability_auto_exits_4_naming_the_bracket_past_the_split_budget(monkeypatch, capsys):
    # minority3 against x = (0.3, 0.7) needs more than one split to close
    monkeypatch.setattr(analysis, "MAX_SPLITS", 1)
    assert run_cli("analyze", "exploitability", "--game", "minority3", "--x", "0.3,0.7") == EXIT_SIZE_CAP
    assert "certified exploitability stopped at [" in capsys.readouterr().err


def test_analyze_equilibrium_product(capsys):
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", "ne",
                 "--product", "0.5,0.5;0.5,0.5;0.5,0.5")
    assert rc == EXIT_OK
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", "ne",
                 "--product", "0.9,0.1;0.9,0.1;0.9,0.1")
    assert rc == EXIT_INVARIANT


def test_analyze_equilibrium_nash_at_thirty_players(tmp_path):
    # sdg(30) used to be refused (exit 4) by the dense expansion; everyone on
    # C is a pure equilibrium, everyone uniform is not
    for profile, rc, verdict in (([0, 0, 1], EXIT_OK, True), ([1 / 3] * 3, EXIT_INVARIANT, False)):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps([profile] * 30))
        assert run_cli("--out", str(tmp_path), "analyze", "equilibrium", "--game", "sdg", "--n", "30",
                       "--concept", "ne", "--dist", str(path)) == rc
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["argument"]["verdict"] is verdict
        assert doc["method"] == "exact count form (opponent count-vector laws)"
        assert (doc["value"] == 0.0) is verdict


@pytest.mark.parametrize("concept", ["ce", "cce"])
def test_analyze_equilibrium_ce_and_cce_past_four_players(concept, tmp_path, capsys):
    # sdg(5) used to be refused (exit 4) by the dense expansion; everyone on
    # C is a pure equilibrium, everyone uniform (independently) is not
    path = tmp_path / "joint.json"
    on_c = np.zeros((3,) * 5)
    on_c[(2,) * 5] = 1.0
    for joint, rc, verdict in ((on_c, EXIT_OK, True), (np.full((3,) * 5, 1 / 3**5), EXIT_INVARIANT, False)):
        path.write_text(json.dumps(joint.tolist()))
        assert run_cli("--out", str(tmp_path), "analyze", "equilibrium", "--game", "sdg", "--n", "5",
                       "--concept", concept, "--dist", str(path)) == rc
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["argument"]["verdict"] is verdict
        assert doc["method"] == "exact joint-action deviation table"
    # sdg(30)'s 3^30 joint actions are refused before the joint's shape is checked
    out = tmp_path / "sdg30"
    assert run_cli("--out", str(out), "analyze", "equilibrium", "--game", "sdg", "--n", "30",
                   "--concept", concept, "--dist", str(path)) == EXIT_SIZE_CAP
    assert "joint-action table of 3^30 entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_analyze_equilibrium_refuses_a_tolerance_outside_zero_to_infinity(tol, capsys):
    # the product is an equilibrium of majority3; NaN and -1 used to fail
    # it (exit 3) and inf would pass any input
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", "ne",
                 "--product", "0.5,0.5;0.5,0.5;0.5,0.5", "--tol", tol)
    assert rc == EXIT_CONFIG
    assert "tol must be finite and non-negative" in capsys.readouterr().err


def test_analyze_minimax_independent_names_its_player_limit(capsys):
    # the n = 3 limit is checked before the grid-size cap, whose message
    # would name a grid the search never runs
    rc = run_cli("analyze", "minimax", "--game", "sdg", "--n", "4", "--which", "maxmin-independent")
    assert rc == EXIT_SIZE_CAP
    err = capsys.readouterr().err
    assert "supports n = 3 only" in err and "grid points" not in err


def test_analyze_pooling(tmp_path, capsys):
    pop_path = tmp_path / "pop.json"
    pop_path.write_text(json.dumps([[1, 0], [1, 0], [0, 1], [0, 1]]))
    rc = run_cli("analyze", "pooling", "--game", "majority3",
                 "--population", str(pop_path), "--z", "1,0")
    assert rc == EXIT_OK
    assert "pass" in capsys.readouterr().out


def test_analyze_pooling_at_thirty_players(tmp_path, capsys):
    # 200 members seat 29 opponents in about 6e65 ordered tuples: only the
    # subset recursion runs this
    pop_path = tmp_path / "pop.json"
    pop_path.write_text(json.dumps(np.random.default_rng(30).dirichlet(np.ones(3), size=200).tolist()))
    rc = run_cli("--out", str(tmp_path), "analyze", "pooling", "--game", "sdg", "--n", "30",
                 "--population", str(pop_path), "--z", "0.2,0.3,0.5")
    assert rc == EXIT_OK
    assert "pass" in capsys.readouterr().out
    doc = json.loads((tmp_path / "pooling.json").read_text())
    assert doc["argument"]["bound"] == pytest.approx(2 * 28**2 / 200)
    assert doc["value"] <= doc["argument"]["bound"]
    assert doc["method"] == "exact subset recursion over opponent count vectors"


def test_simulate_writes_transcripts_and_metrics(tmp_path):
    cfg = {
        "game": {"name": "majority3"},
        "learner": {"kind": "hedge", "eta": 1.0},
        "schedule": {"kind": "fixed", "y": [0.49, 0.51]},
        "T": 300,
        "seeds": [0, 1, 2],
        "out": str(tmp_path / "sim"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cfg_path)) == EXIT_OK
    outdir = tmp_path / "sim"
    transcripts = [f"transcript_seed{seed}.csv" for seed in (0, 1, 2)]
    assert sorted(path.name for path in outdir.iterdir()) == ["metrics.csv", "summary.json", *transcripts]
    metrics = (outdir / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 4
    assert metrics[0].startswith("seed,u_avg,")


def test_simulate_threaded_matches_serial(tmp_path):
    cfg = {
        "game": {"name": "majority3"},
        "learner": {"kind": "hedge"},
        "schedule": {"kind": "fixed", "y": [0.49, 0.51]},
        "T": 200,
        "seeds": {"count": 4, "base": 10},
    }
    for name, extra in (("a", []), ("b", ["--threads", "4"])):
        path = tmp_path / name
        doc = dict(cfg, out=str(path))
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli(*extra, "simulate", "--config", str(cfg_path)) == EXIT_OK
    for seed in range(10, 14):
        a = (tmp_path / "a" / f"transcript_seed{seed}.csv").read_bytes()
        b = (tmp_path / "b" / f"transcript_seed{seed}.csv").read_bytes()
        assert a == b


def test_simulate_config_errors_are_exhaustive(tmp_path, capsys):
    bad = {"learner": {"kind": "zorp"}, "T": -5, "seeds": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = run_cli("simulate", "--config", str(path))
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    for fragment in ("missing 'game'", "zorp", "T: must be", "seeds: must be"):
        assert fragment in err


def test_simulate_rejects_unknown_top_level_keys(tmp_path, capsys):
    good = {
        "game": {"name": "majority3"},
        "learner": {"kind": "hedge"},
        "schedule": {"kind": "fixed", "y": [0.5, 0.5]},
        "T": 10,
        "seeds": [0],
        "out": str(tmp_path / "sim"),
    }
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**good, "evaluation": 5, "seed": 3, "T_max": 7}))
    rc = run_cli("simulate", "--config", str(path))
    assert rc == EXIT_CONFIG
    assert "unknown top-level fields ['T_max', 'evaluation', 'seed']" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("7")
    assert run_cli("simulate", "--config", str(path)) == EXIT_CONFIG
    assert "a config must be a JSON object, got 7" in capsys.readouterr().err


def test_simulate_requires_config(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate")
    assert exc.value.code == EXIT_CONFIG
    assert "required: --config" in capsys.readouterr().err


# each table and quantity refuses the options it does not read
@pytest.mark.parametrize("argv", [
    ("reproduce", "scaling", "--horizon", "64"),
    ("reproduce", "scaling", "--self-audit"),
    ("reproduce", "scaling", "--eval-games", "5"),
    ("reproduce", "lowerbound", "--eval-games", "5"),
    ("reproduce", "lowerbound", "--exploit-runs", "5"),
    ("reproduce", "mv", "--horizon", "64"),
    ("reproduce", "sdg", "--horizon", "64"),
    ("analyze", "minimax", "--game", "majority3", "--x", "1,0"),
    ("analyze", "minimax", "--game", "majority3", "--method", "grid"),
    ("analyze", "pooling", "--game", "majority3", "--population", "p.json", "--z", "1,0", "--tol", "0.1"),
    ("analyze", "exploitability", "--game", "majority3", "--x", "1,0", "--which", "maxmin-identical"),
    ("analyze", "exploitability", "--game", "majority3", "--x", "1,0", "--concept", "ce"),
    ("analyze", "equilibrium", "--game", "majority3", "--product", "1,0;1,0;1,0", "--z", "1,0"),
    ("verify", "--game", "majority3", "--runs", "3"),
    ("simulate", "--config", "c.json", "--runs", "3"),
])
def test_unread_options_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("analyze", "exploitability", "--game", "majority3"), "required: --x"),
    (("analyze", "pooling", "--game", "majority3", "--z", "1,0"), "required: --population"),
    (("analyze", "pooling", "--game", "majority3", "--population", "p.json"), "required: --z"),
    (("analyze", "equilibrium", "--game", "majority3"), "one of the arguments --product --dist is required"),
    (("analyze", "equilibrium", "--game", "majority3", "--product", "1,0;1,0;1,0", "--dist", "d.json"), "not allowed with"),
    (("analyze", "minimax", "--which", "maxmin-identical"), "required: --game"),
    (("analyze", "minimax", "--game", "majority3", "--which", "maxmin"), "invalid choice"),
    (("analyze", "exploitability", "--game", "majority3", "--x", "1,0", "--method", "exact"), "invalid choice"),
    (("reproduce", "lowerbound", "--runs", "0"), "must be a positive integer, got 0"),
    (("reproduce",), "required: table"),
    (("--seed", "-1", "analyze", "exploitability", "--game", "majority3", "--x", "1,0", "--method", "exploiter"),
     "argument --seed: must be a non-negative integer, got -1"),
    (("analyze", "equilibrium", "--game", "majority3", "--concept", "cce", "--product", "0.5,0.5;0.5,0.5;0.5,0.5"),
     "--product gives per-player strategies, which --concept ne reads; give --concept cce its joint distribution with --dist"),
])
def test_missing_or_bad_options_exit_2_without_a_traceback(argv, message, capsys):
    # argparse refuses by SystemExit, a verb by its exit code
    try:
        rc = run_cli(*argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_reproduce_lowerbound_and_determinism(tmp_path):
    args = ["reproduce", "lowerbound", "--runs", "3", "--horizon", "128"]
    assert run_cli("--out", str(tmp_path / "r1"), "--seed", "5", *args) == EXIT_OK
    assert run_cli("--out", str(tmp_path / "r2"), "--seed", "5", *args) == EXIT_OK
    a = (tmp_path / "r1" / "lowerbound.csv").read_bytes()
    b = (tmp_path / "r2" / "lowerbound.csv").read_bytes()
    assert a == b
    rows = json.loads((tmp_path / "r1" / "lowerbound.json").read_text())["rows"]
    assert {r["kind"] for r in rows} == {"hedge", "saol", "clone"}


def test_unknown_arguments_rejected():
    with pytest.raises(SystemExit):
        run_cli("bogus-verb")


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_threads_below_one_is_refused(threads, tmp_path, capsys):
    cfg = {
        "game": {"name": "majority3"},
        "learner": {"kind": "clone"},
        "schedule": {"kind": "fixed", "y": [0.5, 0.5]},
        "T": 20,
        "seeds": [1, 2],
        "out": str(tmp_path / "sim"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        run_cli("--threads", threads, "simulate", "--config", str(path))
    assert exc.value.code == EXIT_CONFIG
    assert f"must be a positive integer, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_refuses_every_field_its_kinds_do_not_read(tmp_path, capsys):
    cfg = {
        "game": {"name": "majority3"},
        "learner": {"kind": "clone", "eta": 5, "rule": "fixed", "horizon": 9},
        "schedule": {"kind": "fixed", "y": [0.49, 0.51], "v_budget": 8, "horizon": 3, "ys": [[1, 0]]},
        "T": 16,
        "seeds": {"count": 2, "bsae": 7},
        "out": str(tmp_path / "sim"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "learner: unknown fields ['eta', 'horizon', 'rule']" in err
    assert "schedule: unknown fields ['horizon', 'v_budget', 'ys']" in err
    assert "seeds: unknown fields ['bsae']" in err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("verb", [("lowerbound", "--horizon", "64", "--self-audit"), ("scaling",)],
                         ids=["lowerbound", "scaling"])
def test_reproduce_sweep_refuses_a_single_seed(verb, tmp_path, capsys):
    # a sweep row reports a std over the seeds, which one seed cannot give
    out = tmp_path / "sweep"
    assert run_cli("--out", str(out), "reproduce", *verb, "--runs", "1") == EXIT_CONFIG
    assert "a std needs at least two seeds, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [{"a": 1}, [[0.5, {"a": 1}], [0.5, 0.5], [0.5, 0.5]], [1, [0.5, 0.5]]])
def test_analyze_equilibrium_refuses_a_dist_that_is_not_an_array_of_numbers(doc, tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", "equilibrium", "--game", "majority3", "--dist", str(path)) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc", [
    (("pooling", "--z", "1,0", "--population"), [{"a": 1}, [0.5, 0.5]]),
    (("pooling", "--z", "1,0", "--population"), 7),
    (("pooling", "--z", "1,0", "--population"), [["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]]),
    (("equilibrium", "--concept", "ne", "--dist"), 7),
], ids=["population-object-member", "population-number", "population-strings", "dist-number"])
def test_analyze_refuses_an_array_file_that_holds_no_array(argv, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", *argv, str(path), "--game", "majority3") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must hold a JSON array of numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("dist, concept", [
    ([[0.5, None], [0.5, 0.5], [0.5, 0.5]], "ne"),
    ([[[0.125, 0.125], [0.125, 0.125]], [[0.125, 0.125], [0.125, None]]], "cce"),
], ids=["product", "cce-joint"])
def test_analyze_equilibrium_refuses_a_nan_probability(dist, concept, tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist))  # null reads as NaN
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", concept, "--dist", str(path))
    assert rc == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_analyze_exploitability_refuses_a_nan_probability(capsys):
    assert run_cli("analyze", "exploitability", "--game", "majority3", "--x", "nan,1") == EXIT_CONFIG
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("learner, schedule", [
    ({"kind": "saol", "horizon": 4}, {"kind": "fixed", "y": [0.5, 0.5]}),
    ({"kind": "hedge"}, {"kind": "sequence", "ys": [[0.5, 0.5]]}),
    ({"kind": "hedge"}, {"kind": "biased_coin", "v_budget": 2, "horizon": 16}),
    ({"kind": "hedge"}, {"kind": "fixed", "y": [float("nan"), 1.0]}),
], ids=["saol-horizon-below-T", "sequence-too-short", "coin-horizon-above-T", "fixed-nan"])
def test_simulate_that_fails_before_its_first_transcript_leaves_no_directory(learner, schedule, tmp_path):
    cfg = {"game": {"name": "extended_majority", "n": 3, "num_actions": 2}, "learner": learner,
           "schedule": schedule, "T": 8, "seeds": [0], "out": str(tmp_path / "sim")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # a NaN is written as the literal NaN, which json reads back
    assert run_cli("simulate", "--config", str(path)) == EXIT_CONFIG
    assert not (tmp_path / "sim").exists()


def test_simulate_past_the_size_cap_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # majority3 draws (T, 2) opponents per match: 300 rounds are 600 entries
    from equalshare import arena

    monkeypatch.setattr(arena, "MAX_ARRAY_ENTRIES", 599)
    cfg = {"game": {"name": "majority3"}, "learner": {"kind": "hedge"}, "schedule": {"kind": "fixed", "y": [0.5, 0.5]},
           "T": 300, "seeds": [0], "out": str(tmp_path / "sim")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(path)) == EXIT_SIZE_CAP
    assert not (tmp_path / "sim").exists()
    assert "exceeds the cap of 599" in capsys.readouterr().err


def test_analyze_size_cap_exit(capsys):
    rc = run_cli("analyze", "minimax", "--game", "sdg", "--n", "30", "--which", "maxmin-independent")
    assert rc == EXIT_SIZE_CAP


def test_reproduce_mv_end_to_end(tmp_path):
    rc = run_cli(
        "--out", str(tmp_path), "--seed", "1",
        "reproduce", "mv", "--runs", "6", "--eval-games", "20000", "--exploit-runs", "4",
        "--self-audit",
    )
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "mv_report.json").read_text())
    rows = {r["label"]: r for r in report["rows"]}
    assert rows["hedge"]["limit_shares"]["pure_1"] == 1.0
    assert rows["hedge"]["exploitability_certified"] == pytest.approx(-1.0, abs=1e-9)
    assert (tmp_path / "mv_summary.md").exists()
    lines = (tmp_path / "mv_convergence.csv").read_text().splitlines()
    assert lines[0] == "algorithm,run,label,mass_on_label"
    masses = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(masses) == 7 * 6 and all(0.0 < m <= 1.0 for m in masses)


def test_reproduce_self_audit_reads_the_emitted_labels(tmp_path, monkeypatch):
    # a small table, then one whose convergence CSV flips the first run's label
    monkeypatch.setattr(cli, "mv_table", functools.partial(
        mv_table, hedge_horizon=500, sp_horizon=300, exploit_steps=100))
    argv = ("--out", str(tmp_path), "reproduce", "mv", "--runs", "2", "--eval-games", "100",
            "--exploit-runs", "1", "--self-audit")
    assert run_cli(*argv) == EXIT_OK
    emit = RunReport.convergence_csv

    def flipped(report):
        lines = emit(report).split("\n")
        algorithm, run, label, mass = lines[1].split(",")
        lines[1] = ",".join([algorithm, run, "0" if label == "-1" else "-1", mass])
        return "\n".join(lines)

    monkeypatch.setattr(RunReport, "convergence_csv", flipped)
    assert run_cli(*argv) == EXIT_INVARIANT


def test_reproduce_mv_determinism_across_processes(tmp_path):
    # byte-identical table output even across interpreter processes with
    # different string-hash salts
    import subprocess
    import sys

    outs = []
    for sub, salt in (("p1", "1"), ("p2", "2")):
        env = dict(__import__("os").environ, PYTHONHASHSEED=salt)
        cmd = [
            sys.executable, "-m", "equalshare.cli",
            "--out", str(tmp_path / sub), "--seed", "4",
            "reproduce", "mv", "--runs", "4",
            "--eval-games", "5000", "--exploit-runs", "2",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / sub / "mv_convergence.csv").read_bytes())
    assert outs[0] == outs[1]


def test_reproduce_scaling_smoke(tmp_path):
    rc = run_cli("--out", str(tmp_path), "--seed", "2", "reproduce", "scaling", "--runs", "2")
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "scaling.json").read_text())
    assert set(doc["saol"]["dreg_by_T"]) == {"1024", "2048", "4096", "8192", "16384"}
    assert 0.45 <= doc["saol"]["slope"] <= 0.95
    assert (tmp_path / "scaling.csv").read_text().startswith("kind,T,dreg_mean")
