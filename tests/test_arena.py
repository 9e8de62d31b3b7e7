"""Arena: schedule realization, the match loop, and regret metrics."""

import numpy as np
import pytest

import equalshare as eq
from equalshare.arena import (
    FixedSchedule,
    ReplaySchedule,
    ScheduleError,
    SequenceSchedule,
    BiasedCoinSchedule,
    PureSwapSchedule,
    compute_metrics,
    dynamic_oracle,
    dynamic_regret,
    realize_schedule,
    replay_of,
    run_match,
    schedule_from_json,
    static_regret,
    u_average,
    variation_budget,
)
from equalshare.games import realized_payoff_vector
from equalshare.learners import (
    CloneState,
    HedgeState,
    LearnerSpec,
    SAOLState,
    clone_observe,
    clone_strategy,
    hedge_act,
    hedge_observe,
    saol_act,
    saol_observe,
)
from equalshare.sampling import counts_from_actions, role_rngs, sample_actions


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Schedule realization.
# ---------------------------------------------------------------------------

def test_fixed_schedule():
    g = eq.majority3()
    ys = realize_schedule(FixedSchedule((0.49, 0.51)), g, 3, rng_for(0))
    assert ys.shape == (3, 2)
    assert np.all(ys == np.array([0.49, 0.51]))


def test_sequence_schedule_checks_length():
    g = eq.majority3()
    seq = SequenceSchedule(((1.0, 0.0), (0.0, 1.0)))
    ys = realize_schedule(seq, g, 2, rng_for(0))
    assert ys[1, 1] == 1.0
    with pytest.raises(ScheduleError):
        realize_schedule(seq, g, 3, rng_for(0))


def test_pure_swap_schedule_with_full_budget_flips_every_round():
    g = eq.extended_majority(3, 2)
    T = 64
    sched = PureSwapSchedule(float(T), T)
    assert sched.batch_length() == 1
    ys = realize_schedule(sched, g, T, rng_for(7))
    assert set(map(tuple, ys)) <= {(1.0, 0.0), (0.0, 1.0)}
    # with T independent coins both cases appear
    assert len(set(map(tuple, ys))) == 2


def test_eps_coin_schedule_arithmetic():
    sched = BiasedCoinSchedule(8.0, 4096)
    assert sched.batch_length() == 64
    assert sched.epsilon() == pytest.approx(1.0 / 64.0)
    g = eq.extended_majority(3, 2)
    ys = realize_schedule(sched, g, 4096, rng_for(3))
    eps = 1.0 / 64.0
    assert set(map(tuple, np.round(ys, 12))) <= {
        (round(0.5 - eps, 12), round(0.5 + eps, 12)),
        (round(0.5 + eps, 12), round(0.5 - eps, 12)),
    }
    # constant within each batch
    for j in range(4096 // 64):
        block = ys[j * 64 : (j + 1) * 64]
        assert np.all(block == block[0])


def test_eps_coin_schedule_requires_majority_family():
    with pytest.raises(ScheduleError):
        realize_schedule(BiasedCoinSchedule(8.0, 64), eq.sdg(30), 64, rng_for(0))
    with pytest.raises(ScheduleError):
        realize_schedule(BiasedCoinSchedule(0.5, 64), eq.extended_majority(3, 2), 64, rng_for(0))


def test_schedule_budget_validation():
    g = eq.extended_majority(3, 2)
    with pytest.raises(ScheduleError):
        realize_schedule(PureSwapSchedule(0.0, 64), g, 64, rng_for(0))
    with pytest.raises(ScheduleError):
        realize_schedule(PureSwapSchedule(100.0, 64), g, 64, rng_for(0))


def test_schedule_realization_deterministic_in_seed():
    g = eq.extended_majority(3, 2)
    a = realize_schedule(BiasedCoinSchedule(8.0, 512), g, 512, rng_for(5))
    b = realize_schedule(BiasedCoinSchedule(8.0, 512), g, 512, rng_for(5))
    np.testing.assert_array_equal(a, b)


def test_schedule_from_json():
    s = schedule_from_json({"kind": "biased_coin", "v_budget": 8, "horizon": 1024})
    assert isinstance(s, BiasedCoinSchedule)
    with pytest.raises(ScheduleError):
        schedule_from_json({"kind": "mystery"})


# ---------------------------------------------------------------------------
# Match loop.
# ---------------------------------------------------------------------------

def test_run_match_reproducible_bit_for_bit():
    g = eq.majority3()
    spec = LearnerSpec("hedge", eta=1.0)
    a = run_match(g, spec, FixedSchedule((0.49, 0.51)), 200, seed=42)
    b = run_match(g, spec, FixedSchedule((0.49, 0.51)), 200, seed=42)
    np.testing.assert_array_equal(a.strategies, b.strategies)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.realized, b.realized)
    c = run_match(g, spec, FixedSchedule((0.49, 0.51)), 200, seed=43)
    assert not np.array_equal(a.actions, c.actions)


def reference_match(game, spec, schedule, T, seed):
    """run_match as a round-by-round loop over the single-step learner API."""
    rngs = role_rngs(seed)
    if spec.kind == "hedge":
        state = HedgeState.fresh(game.A, spec.eta, spec.rule)
        act, observe = hedge_act, lambda st, opp, g: hedge_observe(st, g)
    elif spec.kind == "saol":
        state = SAOLState.fresh(spec.horizon or T, game.A, spec.eta)
        act, observe = saol_act, lambda st, opp, g: saol_observe(st, g)
    else:
        state = CloneState(game.A)
        act, observe = clone_strategy, lambda st, opp, g: clone_observe(st, opp[0])
    ys = realize_schedule(schedule, game, T, rngs["schedule"])
    fields = {k: [] for k in ("strategies", "actions", "opponent_actions", "realized", "u_vectors", "expected")}
    for t in range(T):
        x = act(state)
        a = sample_actions(rngs["learner"], x)
        if isinstance(schedule, ReplaySchedule):
            opp = schedule.opponent_actions[t]
        else:
            opp = sample_actions(rngs["opponents"], ys[t], game.n - 1)
        gains_raw = realized_payoff_vector(game, counts_from_actions(opp, game.A))
        u = eq.payoff_vector(game, ys[t])
        for k, v in zip(fields, (x, a, opp, gains_raw[a], u, float(x @ u))):
            fields[k].append(v)
        state = observe(state, opp, gains_raw / game.scale)
    out = {k: np.array(v) for k, v in fields.items()}
    out["actions"] = out["actions"].astype(np.int64)
    out["opponent_actions"] = out["opponent_actions"].astype(np.int64)
    out["y_seq"] = ys
    return out


def _replay_schedule(T):
    g = eq.extended_majority(3, 2)
    return replay_of(run_match(g, LearnerSpec("clone"), BiasedCoinSchedule(8.0, T), T, seed=99))


@pytest.mark.parametrize("T", [257, 1024])
@pytest.mark.parametrize("kind", ["hedge", "saol", "clone"])
def test_run_match_is_byte_identical_to_the_reference_loop(kind, T):
    em, sdg30 = eq.extended_majority(3, 2), eq.sdg(30)
    cases = [
        (em, LearnerSpec(kind, horizon=T), PureSwapSchedule(32.0, T)),
        (em, LearnerSpec(kind, horizon=T), BiasedCoinSchedule(8.0, T)),
        (sdg30, LearnerSpec(kind, eta=2.0), FixedSchedule((0.399, 0.6, 0.001))),
        (em, LearnerSpec(kind), _replay_schedule(T)),
    ]
    for game, spec, schedule in cases:
        for seed in range(3):
            tr = run_match(game, spec, schedule, T, seed)
            ref = reference_match(game, spec, schedule, T, seed)
            for name, want in ref.items():
                got = getattr(tr, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), (name, schedule.describe(), seed)


def test_run_match_rejects_non_arena_learners_and_short_saol_horizons():
    g = eq.majority3()
    # the self-play trainers are not learner kinds, so no such match can start
    with pytest.raises(ValueError, match="unknown learner kind"):
        run_match(g, LearnerSpec("sp_scratch"), FixedSchedule((0.5, 0.5)), 10, seed=0)
    with pytest.raises(ValueError, match="beyond horizon"):
        run_match(g, LearnerSpec("saol", horizon=5), FixedSchedule((0.5, 0.5)), 10, seed=0)


@pytest.mark.parametrize("bad", [2, -1])
def test_replay_rejects_out_of_range_actions_up_front(bad):
    g = eq.majority3()
    replay = replay_of(run_match(g, LearnerSpec("hedge"), FixedSchedule((0.5, 0.5)), 16, seed=0))
    replay.opponent_actions[5, 1] = bad
    with pytest.raises(ScheduleError, match="outside"):
        run_match(g, LearnerSpec("hedge"), replay, 16, seed=0)


def test_transcript_consistency_and_csv():
    g = eq.majority3()
    tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 50, seed=1)
    assert tr.verify_consistency(g) <= 1e-9 * g.scale
    csv_text = tr.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,x0,x1,action,realized_payoff,expected_payoff,oracle_payoff"
    assert len(lines) == 51


def test_replay_reproduces_opponent_actions():
    g = eq.majority3()
    tr = run_match(g, LearnerSpec("hedge"), PureSwapSchedule(8.0, 64), 64, seed=9)
    replay = replay_of(tr)
    tr2 = run_match(g, LearnerSpec("clone"), replay, 64, seed=1234)
    np.testing.assert_array_equal(tr.opponent_actions, tr2.opponent_actions)
    np.testing.assert_array_equal(tr.y_seq, tr2.y_seq)


def test_clone_match_copies_second_player():
    g = eq.majority3()
    tr = run_match(g, LearnerSpec("clone"), FixedSchedule((0.2, 0.8)), 100, seed=3)
    # from round 2 on, the learner's strategy is a point mass on the
    # previous round's first opponent slot
    for t in range(1, 100):
        prev = tr.opponent_actions[t - 1, 0]
        assert tr.strategies[t, prev] == 1.0
        assert tr.actions[t] == prev


def test_clone_action_distribution_matches_fixed_opponents():
    g = eq.majority3()
    y = np.array([0.2, 0.8])
    tr = run_match(g, LearnerSpec("clone"), FixedSchedule(tuple(y)), 4000, seed=8)
    freq = np.mean(tr.actions[1:] == 1)
    assert abs(freq - 0.8) < 3 * np.sqrt(0.16 / 4000)


def test_clone_average_payoff_vs_fixed_opponents():
    # copying a stationary meta-strategy earns zero in expectation from
    # round 2, so only the first round can cost anything
    g = eq.majority3()
    vals = [
        u_average(run_match(g, LearnerSpec("clone"), FixedSchedule((0.49, 0.51)), 200, seed=s))
        for s in range(50)
    ]
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert np.mean(vals) >= -1.0 / 200 - 3 * se


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _synthetic_transcript(u_vectors, strategies):
    from equalshare.arena import Transcript

    T, A = u_vectors.shape
    return Transcript(
        "synthetic", "none", "none", 0,
        strategies, np.zeros(T, dtype=np.int64), np.zeros((T, 2), dtype=np.int64),
        np.zeros(T), np.tile(np.ones(A) / A, (T, 1)), u_vectors,
        np.einsum("ta,ta->t", strategies, u_vectors),
    )


def test_static_regret_constant_vectors():
    T = 100
    u = np.tile(np.array([0.0098, -0.0102]), (T, 1))
    x = np.tile(np.array([0.0, 1.0]), (T, 1))  # always play the worse action
    tr = _synthetic_transcript(u, x)
    assert static_regret(tr) == pytest.approx(T * 0.02)
    best = np.tile(np.array([1.0, 0.0]), (T, 1))
    assert static_regret(_synthetic_transcript(u, best)) == pytest.approx(0.0, abs=1e-12)


def test_dynamic_equals_static_on_fixed_schedules():
    g = eq.majority3()
    tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 300, seed=0)
    assert dynamic_regret(tr) == pytest.approx(static_regret(tr), abs=1e-12)


def test_dynamic_regret_dominates_static():
    g = eq.extended_majority(3, 2)
    for kind in ("hedge", "clone"):
        tr = run_match(g, LearnerSpec(kind), PureSwapSchedule(16.0, 256), 256, seed=11)
        assert dynamic_regret(tr) >= static_regret(tr) - 1e-12


def test_dynamic_oracle_non_negative_and_eps_formula():
    g = eq.extended_majority(3, 2)
    sched = BiasedCoinSchedule(8.0, 512)
    tr = run_match(g, LearnerSpec("hedge"), sched, 512, seed=2)
    eps = sched.epsilon()
    # per-round best action earns exactly eps - 2 eps^2 on this schedule
    assert dynamic_oracle(tr) == pytest.approx(eps - 2 * eps**2, abs=1e-12)
    oracle_rounds = tr.u_vectors.max(axis=1)
    assert np.all(oracle_rounds >= -1e-12)


def test_dynamic_oracle_zero_on_pure_swaps():
    g = eq.extended_majority(3, 2)
    tr = run_match(g, LearnerSpec("clone"), PureSwapSchedule(8.0, 128), 128, seed=2)
    assert dynamic_oracle(tr) == pytest.approx(0.0, abs=1e-12)


def test_variation_budget_values():
    g = eq.majority3()
    fixed = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 100, seed=0)
    assert variation_budget(fixed) == 0.0

    # one switch between the two pure meta-strategies moves the payoff of
    # some action by exactly 1
    seq = SequenceSchedule(tuple([(1.0, 0.0)] * 5 + [(0.0, 1.0)] * 5))
    tr = run_match(g, LearnerSpec("hedge"), seq, 10, seed=0)
    assert variation_budget(tr) == pytest.approx(1.0)


def test_variation_budget_bounds_on_hard_schedules():
    g = eq.extended_majority(3, 2)
    for v in (4.0, 16.0, 64.0):
        tr = run_match(g, LearnerSpec("clone"), BiasedCoinSchedule(v, 1024), 1024, seed=3)
        assert variation_budget(tr) <= 2.0 * v + 1e-12
        tr5 = run_match(g, LearnerSpec("clone"), PureSwapSchedule(v, 1024), 1024, seed=3)
        sched = PureSwapSchedule(v, 1024)
        boundaries = int(np.ceil(1024 / sched.batch_length())) - 1
        assert variation_budget(tr5) <= 2.0 * g.scale * boundaries + 1e-12


def test_realized_average_concentrates_on_expected():
    # the realized-minus-expected gap is a bounded martingale average
    g = eq.majority3()
    T, seeds = 400, 50
    diffs = []
    for s in range(seeds):
        tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), T, seed=s)
        diffs.append(float(tr.realized.mean()) - u_average(tr))
    assert abs(np.mean(diffs)) <= 3.0 * g.scale / np.sqrt(seeds * T)


def test_metrics_bundle_consistency():
    g = eq.extended_majority(3, 2)
    tr = run_match(g, LearnerSpec("saol", horizon=128), BiasedCoinSchedule(4.0, 128), 128, seed=5)
    m = compute_metrics(tr)
    assert m.u_avg == pytest.approx(u_average(tr))
    assert m.dynamic_regret == pytest.approx(dynamic_regret(tr))
    assert m.static_regret == pytest.approx(static_regret(tr))
    assert m.dynamic_regret >= m.static_regret - 1e-12
    assert m.variation == pytest.approx(variation_budget(tr))
    # identities: D-Reg/T = oracle - u_avg, Reg/T = best_fixed - u_avg
    assert m.dynamic_regret / tr.T == pytest.approx(m.dynamic_oracle - m.u_avg, abs=1e-12)
    assert m.static_regret / tr.T == pytest.approx(m.best_fixed - m.u_avg, abs=1e-12)


def test_learner_action_space_must_match_game():
    g = eq.sdg(30)
    spec = LearnerSpec("hedge")
    tr = run_match(g, spec, FixedSchedule((0.399, 0.6, 0.001)), 10, seed=0)
    assert tr.strategies.shape == (10, 3)
    with pytest.raises(Exception):
        run_match(g, spec, FixedSchedule((0.5, 0.5)), 10, seed=0)


def test_hedge_mean_payoff_near_optimum_on_fixed_opponents():
    # 10-seed mean at T = 1e4 sits within 0.005 of the exact optimum 0.0098
    g = eq.majority3()
    vals = [
        u_average(run_match(g, LearnerSpec("hedge", eta=1.0), FixedSchedule((0.49, 0.51)), 10_000, s))
        for s in range(10)
    ]
    assert abs(float(np.mean(vals)) - 0.0098) <= 0.005
    # and every run clears the coarse floor
    assert all(v >= 0.0098 - 0.05 for v in vals)


def test_eps_coin_schedule_full_budget_edge():
    # V = T degenerates to single-round batches with the eps cap binding
    g = eq.extended_majority(3, 2)
    sched = BiasedCoinSchedule(64.0, 64)
    assert sched.batch_length() == 1
    assert sched.epsilon() == pytest.approx(1.0 / 8.0)
    ys = realize_schedule(sched, g, 64, rng_for(1))
    assert set(np.round(ys[:, 0], 12)) == {0.375, 0.625}
