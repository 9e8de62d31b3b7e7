"""Arena: schedule realization, the match loop, and regret metrics."""

import numpy as np
import pytest

import equalshare as eq
from equalshare.arena import (
    FixedSchedule,
    ScheduleError,
    SequenceSchedule,
    BiasedCoinSchedule,
    PureSwapSchedule,
    compute_metrics,
    realize_schedule,
    run_match,
    run_matches,
    schedule_from_json,
)
from equalshare.games import SizeCapExceeded, realized_payoff_vector
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
    saol_strategies,
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


@pytest.mark.parametrize("T", [257, 1024])
@pytest.mark.parametrize("kind", ["hedge", "saol", "clone"])
def test_run_match_is_byte_identical_to_the_reference_loop(kind, T):
    em, sdg30 = eq.extended_majority(3, 2), eq.sdg(30)
    cases = [
        (em, LearnerSpec(kind, horizon=T), PureSwapSchedule(32.0, T)),
        (em, LearnerSpec(kind, horizon=T), BiasedCoinSchedule(8.0, T)),
        (sdg30, LearnerSpec(kind, eta=2.0), FixedSchedule((0.399, 0.6, 0.001))),
    ]
    for game, spec, schedule in cases:
        for seed in range(3):
            tr = run_match(game, spec, schedule, T, seed)
            ref = reference_match(game, spec, schedule, T, seed)
            for name, want in ref.items():
                got = getattr(tr, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), (name, schedule, seed)


FIELDS = ("strategies", "actions", "opponent_actions", "realized", "y_seq", "u_vectors", "expected")


def _assert_same_transcript(got, want, what):
    assert got.seed == want.seed
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (name, what)
        assert a.tobytes() == b.tobytes(), (name, what)
    assert got.to_csv() == want.to_csv(), what


KINDS = ("hedge", "saol", "clone")


@pytest.mark.parametrize("kind", KINDS)
def test_run_matches_rows_equal_run_match_per_seed(kind):
    # several learners, led by `kind`, on matches that mix schedules: each
    # transcript is the one run_match plays for its learner and match alone
    T = 300  # not a multiple of the SAOL time block
    order = KINDS[KINDS.index(kind):] + KINDS[: KINDS.index(kind)]
    em, sdg30 = eq.extended_majority(3, 2), eq.sdg(30)
    cases = [
        # a second SAOL with its own eta and horizon gets its own strategies
        (em, [*(LearnerSpec(k, horizon=T) for k in order), LearnerSpec("saol", eta=0.5, horizon=2 * T)],
         (BiasedCoinSchedule(8.0, T), PureSwapSchedule(32.0, T))),
        (sdg30, [LearnerSpec(k, eta=2.0) for k in order], (FixedSchedule((0.399, 0.6, 0.001)),)),
    ]
    for game, specs, schedules in cases:
        for seeds in ([4], [4, 17], [9, 0, 4, 31, 2]):
            matches = [(schedule, seed) for seed in seeds for schedule in schedules]
            rows = list(run_matches(game, specs, matches, T))
            assert len(rows) == len(matches)
            for (schedule, seed), transcripts in zip(matches, rows):
                assert len(transcripts) == len(specs)
                for spec, tr in zip(specs, transcripts):
                    _assert_same_transcript(tr, run_match(game, spec, schedule, T, seed), (spec, schedule, seeds, seed))


def test_run_matches_row_does_not_depend_on_its_batch():
    g, T = eq.extended_majority(3, 2), 300
    spec, schedule = LearnerSpec("saol", horizon=T), BiasedCoinSchedule(8.0, T)
    alone = run_match(g, spec, schedule, T, 7)
    for seeds in ([7, 1, 2], [3, 7], [5, 6, 8, 9, 7], [7, 7]):
        rows = list(run_matches(g, [spec], [(schedule, seed) for seed in seeds], T))
        _assert_same_transcript(rows[seeds.index(7)][0], alone, seeds)
    assert list(run_matches(g, [spec], [], T)) == []


def test_run_matches_refuses_no_learners_before_any_draw(monkeypatch):
    from equalshare import arena

    draws = []
    draw_match = arena._draw_match
    monkeypatch.setattr(arena, "_draw_match", lambda *args: draws.append(args[-1]) or draw_match(*args))
    g, T = eq.extended_majority(3, 2), 64
    matches = [(BiasedCoinSchedule(8.0, T), seed) for seed in range(3)]
    with pytest.raises(ValueError, match="at least one learner"):
        list(run_matches(g, [], matches, T))
    assert draws == []
    list(run_matches(g, [LearnerSpec("clone")], matches, T))
    assert draws == [0, 1, 2]  # the spy sees the draws of a match that is played


@pytest.mark.parametrize("n, A", [(5, 2), (3, 4)], ids=["opponents-widest", "actions-widest"])
def test_run_matches_refuses_a_match_past_the_size_cap_before_any_draw(n, A, monkeypatch):
    # a match holds (T, A) strategies and (T, n-1) opponent draws
    from equalshare import arena

    draws = []
    draw_match = arena._draw_match
    monkeypatch.setattr(arena, "_draw_match", lambda *args: draws.append(args[-1]) or draw_match(*args))
    g, T = eq.extended_majority(n, A), 64
    matches = [(FixedSchedule(tuple(np.full(A, 1.0 / A))), seed) for seed in range(2)]
    monkeypatch.setattr(arena, "MAX_ARRAY_ENTRIES", T * max(A, n - 1) - 1)
    with pytest.raises(SizeCapExceeded, match=f"{T} rounds"):
        next(run_matches(g, [LearnerSpec("hedge")], matches, T))
    assert draws == []
    monkeypatch.setattr(arena, "MAX_ARRAY_ENTRIES", T * max(A, n - 1))
    next(run_matches(g, [LearnerSpec("hedge")], matches, T))
    assert draws == [0]


def test_run_matches_plays_saol_in_batches_bounded_by_the_entry_budget(monkeypatch):
    from equalshare import arena

    g, T = eq.extended_majority(3, 2), 300
    specs = [LearnerSpec(kind, horizon=T) for kind in KINDS]
    coin, swap = BiasedCoinSchedule(8.0, T), PureSwapSchedule(32.0, T)
    matches = [(coin, 9), (swap, 0), (coin, 4), (swap, 31), (coin, 2)]
    whole = list(run_matches(g, specs, matches, T))
    batch_sizes, draws = [], []

    def spy(gains, horizon, eta):
        batch_sizes.append(gains.shape[0])
        return saol_strategies(gains, horizon, eta)

    def drawn(seed):
        draws.append(seed)
        return role_rngs(seed)

    monkeypatch.setattr(arena, "saol_strategies", spy)
    monkeypatch.setattr(arena, "role_rngs", drawn)
    monkeypatch.setattr(arena, "CHUNK_ENTRIES", 2 * T * g.A + 1)
    split = list(run_matches(g, specs, matches, T))
    assert batch_sizes == [2, 2, 1]
    assert draws == [seed for _, seed in matches]  # each match drawn once, for all three learners
    for got, want in zip(split, whole, strict=True):
        for a, b in zip(got, want, strict=True):
            _assert_same_transcript(a, b, a.seed)
    # a batch is drawn before its first transcript; without SAOL it is one match
    for learners, size in ((specs, 2), (specs[::2], 1)):
        draws.clear()
        next(run_matches(g, learners, matches, T))
        assert draws == [seed for _, seed in matches[:size]], learners


def test_run_match_rejects_non_arena_learners_and_short_saol_horizons():
    g = eq.majority3()
    # the self-play trainers are not learner kinds, so no such match can start
    with pytest.raises(ValueError, match="unknown learner kind"):
        run_match(g, LearnerSpec("sp_scratch"), FixedSchedule((0.5, 0.5)), 10, seed=0)
    with pytest.raises(ValueError, match="beyond horizon"):
        run_match(g, LearnerSpec("saol", horizon=5), FixedSchedule((0.5, 0.5)), 10, seed=0)


def test_transcript_consistency_and_csv():
    g = eq.majority3()
    tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 50, seed=1)
    u = np.array([eq.payoff_vector(g, y) for y in tr.y_seq])
    assert np.abs(u - tr.u_vectors).max() <= 1e-9 * g.scale
    assert np.abs(np.vecdot(tr.strategies, u) - tr.expected).max() <= 1e-9 * g.scale
    csv_text = tr.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,x0,x1,action,realized_payoff,expected_payoff,oracle_payoff"
    assert len(lines) == 51


def csv_writer_reference(tr):
    """Transcript.to_csv as one csv.writer call per round."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    A = tr.strategies.shape[1]
    writer.writerow(["t"] + [f"x{a}" for a in range(A)] + ["action", "realized_payoff", "expected_payoff", "oracle_payoff"])
    oracle = tr.u_vectors.max(axis=1)
    for t in range(tr.T):
        writer.writerow(
            [t + 1]
            + [repr(float(v)) for v in tr.strategies[t]]
            + [int(tr.actions[t]), repr(float(tr.realized[t])), repr(float(tr.expected[t])), repr(float(oracle[t]))]
        )
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["hedge", "saol", "clone"])
def test_to_csv_equals_the_csv_writer_reference(kind):
    em = eq.extended_majority(3, 2)
    cases = [
        (em, BiasedCoinSchedule(8.0, 2048), 2048),
        (eq.sdg(30), FixedSchedule((0.399, 0.6, 0.001)), 200),
        (em, PureSwapSchedule(4.0, 64), 64),
        (em, FixedSchedule((0.5, 0.5)), 0),
    ]
    for game, schedule, T in cases:
        tr = run_match(game, LearnerSpec(kind, horizon=max(T, 1)), schedule, T, seed=3)
        assert tr.to_csv() == csv_writer_reference(tr)


@pytest.mark.parametrize("schedule", [
    pytest.param(FixedSchedule((0.49, 0.51)), id="fixed(0.49,0.51)"),
    pytest.param(SequenceSchedule(tuple((0.1 * (t % 10), 1.0 - 0.1 * (t % 10)) for t in range(64))), id="sequence(len=64)"),
    pytest.param(BiasedCoinSchedule(8.0, 64), id="biased_coin(V=8,T=64)"),
    pytest.param(PureSwapSchedule(8.0, 64), id="pure_swap(V=8,T=64)"),
])
def test_opponents_do_not_depend_on_the_learner(schedule):
    # the schedule and the opponents draw from their own streams, so a
    # config and a seed fix them for every learner kind: a later match
    # faces the same opponents by reusing the seed
    g = eq.extended_majority(3, 2)
    for seed in (9, 1234):
        first = run_match(g, LearnerSpec("hedge"), schedule, 64, seed)
        for kind in ("saol", "clone"):
            tr = run_match(g, LearnerSpec(kind), schedule, 64, seed)
            for name in ("y_seq", "opponent_actions", "u_vectors"):
                assert getattr(tr, name).tobytes() == getattr(first, name).tobytes(), (name, kind, seed)


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
        compute_metrics(run_match(g, LearnerSpec("clone"), FixedSchedule((0.49, 0.51)), 200, seed=s)).u_avg
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
        0,
        strategies, np.zeros(T, dtype=np.int64), np.zeros((T, 2), dtype=np.int64),
        np.zeros(T), np.tile(np.ones(A) / A, (T, 1)), u_vectors,
        np.einsum("ta,ta->t", strategies, u_vectors),
    )


def test_static_regret_constant_vectors():
    T = 100
    u = np.tile(np.array([0.0098, -0.0102]), (T, 1))
    x = np.tile(np.array([0.0, 1.0]), (T, 1))  # always play the worse action
    tr = _synthetic_transcript(u, x)
    assert compute_metrics(tr).static_regret == pytest.approx(T * 0.02)
    best = np.tile(np.array([1.0, 0.0]), (T, 1))
    assert compute_metrics(_synthetic_transcript(u, best)).static_regret == pytest.approx(0.0, abs=1e-12)


def test_dynamic_equals_static_on_fixed_schedules():
    g = eq.majority3()
    m = compute_metrics(run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 300, seed=0))
    assert m.dynamic_regret == pytest.approx(m.static_regret, abs=1e-12)


def test_dynamic_regret_dominates_static():
    g = eq.extended_majority(3, 2)
    for kind in ("hedge", "clone"):
        m = compute_metrics(run_match(g, LearnerSpec(kind), PureSwapSchedule(16.0, 256), 256, seed=11))
        assert m.dynamic_regret >= m.static_regret - 1e-12


def test_dynamic_oracle_non_negative_and_eps_formula():
    g = eq.extended_majority(3, 2)
    sched = BiasedCoinSchedule(8.0, 512)
    tr = run_match(g, LearnerSpec("hedge"), sched, 512, seed=2)
    eps = sched.epsilon()
    # per-round best action earns exactly eps - 2 eps^2 on this schedule
    assert compute_metrics(tr).dynamic_oracle == pytest.approx(eps - 2 * eps**2, abs=1e-12)
    oracle_rounds = tr.u_vectors.max(axis=1)
    assert np.all(oracle_rounds >= -1e-12)


def test_dynamic_oracle_zero_on_pure_swaps():
    g = eq.extended_majority(3, 2)
    tr = run_match(g, LearnerSpec("clone"), PureSwapSchedule(8.0, 128), 128, seed=2)
    assert compute_metrics(tr).dynamic_oracle == pytest.approx(0.0, abs=1e-12)


def test_variation_budget_values():
    g = eq.majority3()
    fixed = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), 100, seed=0)
    assert compute_metrics(fixed).variation == 0.0

    # one switch between the two pure meta-strategies moves the payoff of
    # some action by exactly 1
    seq = SequenceSchedule(tuple([(1.0, 0.0)] * 5 + [(0.0, 1.0)] * 5))
    tr = run_match(g, LearnerSpec("hedge"), seq, 10, seed=0)
    assert compute_metrics(tr).variation == pytest.approx(1.0)


def test_variation_budget_bounds_on_hard_schedules():
    g = eq.extended_majority(3, 2)
    for v in (4.0, 16.0, 64.0):
        tr = run_match(g, LearnerSpec("clone"), BiasedCoinSchedule(v, 1024), 1024, seed=3)
        assert compute_metrics(tr).variation <= 2.0 * v + 1e-12
        tr5 = run_match(g, LearnerSpec("clone"), PureSwapSchedule(v, 1024), 1024, seed=3)
        sched = PureSwapSchedule(v, 1024)
        boundaries = int(np.ceil(1024 / sched.batch_length())) - 1
        assert compute_metrics(tr5).variation <= 2.0 * g.scale * boundaries + 1e-12


def test_realized_average_concentrates_on_expected():
    # the realized-minus-expected gap is a bounded martingale average
    g = eq.majority3()
    T, seeds = 400, 50
    diffs = []
    for s in range(seeds):
        tr = run_match(g, LearnerSpec("hedge"), FixedSchedule((0.49, 0.51)), T, seed=s)
        diffs.append(float(tr.realized.mean()) - compute_metrics(tr).u_avg)
    assert abs(np.mean(diffs)) <= 3.0 * g.scale / np.sqrt(seeds * T)


def test_metrics_bundle_consistency():
    g = eq.extended_majority(3, 2)
    tr = run_match(g, LearnerSpec("saol", horizon=128), BiasedCoinSchedule(4.0, 128), 128, seed=5)
    m = compute_metrics(tr)
    assert m.dynamic_regret >= m.static_regret - 1e-12
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
        compute_metrics(run_match(g, LearnerSpec("hedge", eta=1.0), FixedSchedule((0.49, 0.51)), 10_000, s)).u_avg
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
