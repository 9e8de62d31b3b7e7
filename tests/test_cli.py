"""Command-line interface: verbs, exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

import equalshare as eq
from equalshare.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SIZE_CAP, main


def run_cli(*argv):
    return main(list(argv))


def test_verify_builtins_pass():
    assert run_cli("verify", "--game", "majority3") == EXIT_OK
    assert run_cli("verify", "--game", "sdg", "--n", "30") == EXIT_OK
    assert run_cli("verify", "--game", "extended_majority", "--n", "3", "--num-actions", "3") == EXIT_OK


def test_verify_tampered_game_fails(tmp_path, capsys):
    g = eq.majority3()
    table = {f"{a}|{c0},{2 - c0}": g.payoff(a, (c0, 2 - c0)) for a in range(2) for c0 in range(3)}
    table["0|0,2"] = -0.9
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"custom": {"n": 3, "A": 2, "payoff_table": table}}))
    rc = run_cli("verify", "--game", f"file:{path}")
    out = capsys.readouterr().out
    assert rc == EXIT_INVARIANT
    assert "FAIL" in out and "(1, 2)" in out  # violating profile named


def test_verify_size_cap_exit_code():
    assert run_cli("verify", "--game", "sdg", "--n", "1500") == EXIT_SIZE_CAP


def test_analyze_minimax(capsys, tmp_path):
    rc = run_cli("--out", str(tmp_path), "analyze", "minimax", "--game", "majority3", "--which", "maxmin-identical")
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "minimax.json").read_text())
    assert doc["value"] == pytest.approx(-0.5, abs=0.02)
    assert doc["quantity"] == "minimax:maxmin-identical"
    assert {"value", "argument", "tolerance", "method", "seed"} <= set(doc)


def test_analyze_minimax_independent_size_cap_exit_code():
    argv = ("analyze", "minimax", "--which", "maxmin-independent", "--game", "extended_majority", "--n", "3", "--num-actions", "3")
    assert run_cli(*argv) == EXIT_SIZE_CAP


def test_analyze_exploitability(capsys):
    rc = run_cli("analyze", "exploitability", "--game", "sdg", "--n", "30", "--x", "0,1,0")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "-29" in out


def test_analyze_exploitability_auto_on_four_actions_reports_no_grid_tolerance(tmp_path):
    # auto runs the exploiter protocol above 3 actions, which has no grid
    # tolerance; an explicit grid run on the same game has one
    game = ("--game", "extended_majority", "--n", "3", "--num-actions", "4", "--x", "1,0,0,0")
    for method, tolerance in (("auto", None), ("exploiter", None), ("grid", 2.0 / 8)):
        out = tmp_path / method
        assert run_cli("--out", str(out), "analyze", "exploitability", *game, "--method", method) == EXIT_OK
        doc = json.loads((out / "exploitability.json").read_text())
        assert (doc["method"], doc["tolerance"]) == (method, tolerance)


def test_analyze_equilibrium_product(capsys):
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", "ne",
                 "--product", "0.5,0.5;0.5,0.5;0.5,0.5")
    assert rc == EXIT_OK
    rc = run_cli("analyze", "equilibrium", "--game", "majority3", "--concept", "ne",
                 "--product", "0.9,0.1;0.9,0.1;0.9,0.1")
    assert rc == EXIT_INVARIANT


def test_analyze_pooling(tmp_path, capsys):
    pop_path = tmp_path / "pop.json"
    pop_path.write_text(json.dumps([[1, 0], [1, 0], [0, 1], [0, 1]]))
    rc = run_cli("analyze", "pooling", "--game", "majority3",
                 "--population", str(pop_path), "--z", "1,0")
    assert rc == EXIT_OK
    assert "pass" in capsys.readouterr().out


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
    for seed in (0, 1, 2):
        assert (outdir / f"transcript_seed{seed}.csv").exists()
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
])
def test_missing_or_bad_options_exit_2_without_a_traceback(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_CONFIG
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


def test_reproduce_lowerbound_refuses_a_single_seed(tmp_path, capsys):
    # the sweep reports a std over the seeds, which one seed cannot give
    out = tmp_path / "lb"
    assert run_cli("--out", str(out), "reproduce", "lowerbound", "--runs", "1", "--horizon", "64", "--self-audit") == EXIT_CONFIG
    assert "a std needs at least two seeds, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [{"a": 1}, [[0.5, {"a": 1}], [0.5, 0.5], [0.5, 0.5]], [1, [0.5, 0.5]]])
def test_analyze_equilibrium_refuses_a_dist_that_is_not_an_array_of_numbers(doc, tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    assert run_cli("analyze", "equilibrium", "--game", "majority3", "--dist", str(path)) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


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
    assert rows["hedge"]["exploitability_grid"] == pytest.approx(-1.0, abs=1e-9)
    assert (tmp_path / "mv_summary.md").exists()
    lines = (tmp_path / "mv_convergence.csv").read_text().splitlines()
    assert lines[0] == "algorithm,run,label,mass_on_label"
    masses = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(masses) == 7 * 6 and all(0.0 < m <= 1.0 for m in masses)


def test_replay_document_roundtrip(tmp_path):
    from equalshare.arena import FixedSchedule, replay_from_document, run_match
    from equalshare.learners import LearnerSpec

    g = eq.majority3()
    tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 50, seed=5)
    doc = json.loads(json.dumps(tr.replay_document()))
    tr2 = run_match(g, LearnerSpec("clone"), replay_from_document(doc), 50, seed=99)
    np.testing.assert_array_equal(tr.opponent_actions, tr2.opponent_actions)


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
