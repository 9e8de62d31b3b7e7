"""Learners: exponential weights, the interval meta-learner, cloning,
the batched self-play and exploiter trainers, and the single exploiter
step."""

import dataclasses
import math

import numpy as np
import pytest

import equalshare as eq
from equalshare.config import ConfigError, parse_config
from equalshare.learners import (
    CloneState,
    ExploiterState,
    HedgeState,
    LearnerSpec,
    RateSchedule,
    SAOLState,
    batch_exploiter,
    batch_self_play,
    clone_observe,
    clone_strategy,
    cover_slots,
    exploiter_current,
    exploiter_step,
    hedge_act,
    hedge_observe,
    saol_act,
    saol_observe,
    saol_strategies,
    self_play_roster,
    train_roster,
)
from equalshare import learners


# ---------------------------------------------------------------------------
# Rate schedules and the basic exponential-weights step.
# ---------------------------------------------------------------------------

def test_rate_schedule():
    fixed = RateSchedule(0.3, "fixed", 2)
    assert fixed.rates(1) == fixed.rates(999) == 0.3
    decay = RateSchedule(2.0, "sqrt_decay", 3)
    assert decay.rates(4) == pytest.approx(2.0 * math.sqrt(math.log(3) / 4))
    with pytest.raises(ValueError):
        RateSchedule(-1.0)
    with pytest.raises(ValueError):
        RateSchedule(1.0, "linear")


def test_rate_schedule_array_form_is_bitwise_the_scalar_formula():
    t = np.arange(1, 5000)
    for eta, A in ((1.0, 2), (2.0, 3), (0.7, 5), (3, 4)):
        want = [eta * math.sqrt(math.log(A) / int(k)) for k in t]
        np.testing.assert_array_equal(RateSchedule(eta, "sqrt_decay", A).rates(t), want)
    np.testing.assert_array_equal(RateSchedule(0.3, "fixed", 2).rates(t), np.full(len(t), 0.3))


def test_hedge_state_fresh_is_uniform_and_updates_compose():
    state = HedgeState.fresh(2, eta=0.4, rule="fixed")
    np.testing.assert_allclose(hedge_act(state), [0.5, 0.5])
    g1, g2 = np.array([1.0, -0.5]), np.array([-0.2, 0.8])
    two_steps = hedge_observe(hedge_observe(state, g1), g2)
    one_step = hedge_observe(state, g1 + g2)
    # with a fixed rate, exponentials compose
    np.testing.assert_allclose(hedge_act(two_steps), hedge_act(one_step), atol=1e-15)


def test_hedge_trajectory_determinism():
    # identical gains produce bit-identical states
    a = HedgeState.fresh(3, eta=1.0)
    b = HedgeState.fresh(3, eta=1.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = rng.normal(size=3)
        a = hedge_observe(a, g)
        b = hedge_observe(b, g)
    np.testing.assert_array_equal(a.log_weights, b.log_weights)


def test_hedge_static_regret_envelope():
    # Adversarial gain sequences in [-1, 1]^A; the anytime rate keeps the
    # gap to the best fixed action within 2 sqrt(T log A) + 2.
    T = 2000

    def run(seq_fn, A):
        state = HedgeState.fresh(A, eta=1.0)
        total = np.zeros(A)
        earned = 0.0
        for t in range(1, T + 1):
            x = hedge_act(state)
            g = seq_fn(t, x)
            total += g
            earned += float(x @ g)
            state = hedge_observe(state, g)
        return float(total.max()) - earned

    rng = np.random.default_rng(123)
    sequences = [
        (lambda t, x: np.array([1.0, -1.0]) * (-1) ** t, 2),  # alternating
        (lambda t, x: rng.choice([-1.0, 1.0], size=2), 2),  # i.i.d. signs
        # adaptive: reward the action the learner currently likes least
        (lambda t, x: np.where(x == x.min(), 1.0, -1.0), 3),
    ]
    for fn, A in sequences:
        reg = run(fn, A)
        assert reg <= 2.0 * math.sqrt(T * math.log(A)) + 2.0


# ---------------------------------------------------------------------------
# The strongly adaptive meta-learner.
# ---------------------------------------------------------------------------

def cover_intervals_starting_at(s, horizon):
    """Reference for cover_slots: the intervals [q*2^k, (q+1)*2^k - 1] of
    the dyadic cover that start at s, truncated to the horizon, with the
    duplicates that truncation makes near the horizon dropped."""
    out = []
    length = 1
    while s % length == 0 and length <= s:
        end = min(s + length - 1, horizon)
        if end >= s and (not out or out[-1][1] != end):
            out.append((s, end))
        length *= 2
    return out


def _born_at(s, horizon):
    starts, ends = cover_slots(s, horizon)
    return [(int(a), int(e)) for a, e in zip(starts, ends) if a == s]


def test_interval_cover():
    for born in (cover_intervals_starting_at, _born_at):
        assert born(1, 100) == [(1, 1)]
        assert born(2, 100) == [(2, 2), (2, 3)]
        assert born(4, 100) == [(4, 4), (4, 5), (4, 7)]
        # truncation near the horizon merges coinciding intervals
        assert born(8, 10) == [(8, 8), (8, 9), (8, 10)]
        assert born(6, 100) == [(6, 6), (6, 7)]


def _live_intervals(starts, ends):
    return sorted((int(s), int(e)) for s, e in zip(starts, ends) if e > 0)


@pytest.mark.parametrize("beyond", [0, 1, 37])
def test_cover_slots_equal_the_union_of_cover_intervals(beyond):
    # horizons 1..130 at T = horizon, and horizons beyond T; every interval
    # is live at its start, so per-round equality covers the whole union
    for T in range(1, 131):
        horizon = T + beyond
        starts, ends = cover_slots(np.arange(T + 1), horizon)
        assert starts.shape == (T + 1, math.floor(math.log2(horizon)) + 1)
        union = {iv for s in range(1, T + 1) for iv in cover_intervals_starting_at(s, horizon)}
        for t in range(T + 1):
            assert _live_intervals(starts[t], ends[t]) == sorted((s, e) for s, e in union if s <= t <= e)
            for k in np.flatnonzero(ends[t]):  # level k: a dyadic start, nominal length 2^k
                s, e = starts[t, k], ends[t, k]
                assert s % (1 << k) == 0 and (e - s + 1 == 1 << k or e == horizon)
        assert not cover_slots(horizon + 1, horizon)[1].any()


def test_saol_state_rows_are_the_live_level_slots_in_order():
    for horizon in (64, 100):
        state = SAOLState.fresh(horizon, 2)
        rng = np.random.default_rng(horizon)
        for t in range(1, horizon + 1):
            starts, ends = cover_slots(t, horizon)
            live = ends > 0
            assert state.starts.tobytes() == starts[live].tobytes()
            assert state.ends.tobytes() == ends[live].tobytes()
            state = saol_observe(state, rng.uniform(-1, 1, size=2))


def _saol_reference(gains, horizon):
    state = SAOLState.fresh(horizon, gains.shape[1])
    rows = []
    for g in gains:
        rows.append(saol_act(state))
        state = saol_observe(state, g)
    return np.array(rows)


def test_saol_strategies_equal_the_single_step_loop_per_run():
    rng = np.random.default_rng(12)
    for T, horizon, A in ((1, 1, 2), (130, 130, 3), (300, 1000, 2), (513, 513, 4)):
        gains = rng.uniform(-1, 1, size=(3, T, A))
        batch = saol_strategies(gains, horizon)
        for r in range(3):
            assert batch[r].tobytes() == _saol_reference(gains[r], horizon).tobytes()
            assert batch[r].tobytes() == saol_strategies(gains[r : r + 1], horizon)[0].tobytes()


@pytest.mark.parametrize("block", [1, 2, 8, 64, 512])
def test_saol_strategies_bytes_do_not_depend_on_the_time_block(block, monkeypatch):
    # T = 300 is not a multiple of any block but 1 and 2
    gains = np.random.default_rng(3).uniform(-1, 1, size=(3, 300, 2))
    want = saol_strategies(gains, 1000)
    monkeypatch.setattr(learners, "SAOL_BLOCK", block)
    assert saol_strategies(gains, 1000).tobytes() == want.tobytes()
    # a shorter match against the same horizon plays the same prefix
    assert saol_strategies(gains[:, :257], 1000).tobytes() == want[:, :257].tobytes()


def test_saol_strategies_memory_is_bounded_by_the_time_block():
    import tracemalloc

    gains = np.random.default_rng(5).uniform(-1, 1, size=(20, 16_384, 2))
    tracemalloc.start()
    try:
        out = saol_strategies(gains, 16_384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == gains.shape
    # the output is 5 MB; the expert tracks of one block add a few more
    assert peak < 32 * 2**20


def test_saol_strategies_rejects_matches_beyond_the_horizon():
    with pytest.raises(ValueError, match="round 9 beyond horizon 8"):
        saol_strategies(np.zeros((2, 9, 2)), 8)


def test_saol_active_interval_count():
    # far from the horizon the dyadic cover gives exactly floor(log2 t) + 1
    # active intervals; truncation near the horizon can only merge them
    state = SAOLState.fresh(1 << 20, 2)
    for t in range(1, 65):
        assert len(state.experts) == math.floor(math.log2(t)) + 1
        for s, e in zip(state.starts, state.ends):
            assert s <= t <= e
        state = saol_observe(state, np.array([0.1, -0.1]))
    tail = SAOLState.fresh(64, 2)
    for t in range(1, 65):
        assert 1 <= len(tail.experts) <= math.floor(math.log2(t)) + 1
        tail = saol_observe(tail, np.array([0.1, -0.1]))


def test_saol_single_round_is_uniform():
    state = SAOLState.fresh(1, 3)
    np.testing.assert_allclose(saol_act(state), np.ones(3) / 3)


def test_saol_mixture_of_identical_experts_is_the_expert():
    # all experts see the same gains from their (different) start dates;
    # with constant gains every expert plays the same strategy at small t
    state = SAOLState.fresh(8, 2)
    g = np.array([0.5, -0.5])
    state = saol_observe(state, g)
    # round 2: experts [2,2] and [2,3] are fresh, [1,?] retired at t=1 end
    plays = [hedge_act(HedgeState(lw, 0, state.expert_rates)) for lw in state.experts]
    fresh = [p for s, p in zip(state.starts, plays) if s == 2]
    assert len(fresh) == 2
    for p in fresh:
        np.testing.assert_allclose(p, [0.5, 0.5])


def test_saol_weights_stay_positive_under_adversarial_gains():
    state = SAOLState.fresh(256, 2)
    rng = np.random.default_rng(4)
    for _ in range(256):
        g = rng.choice([-1.0, 1.0], size=2)
        state = saol_observe(state, g)  # raises FloatingPointError on a zero weight
        assert np.all(state.weights > 0)


def test_saol_raises_when_a_meta_weight_underflows():
    # two opposed experts, one with a meta weight at the bottom of the
    # subnormal range: its clipped factor (about 1e-9) rounds it to zero
    state = saol_observe(SAOLState.fresh(8, 2), np.zeros(2))
    assert len(state.experts) == 2
    state = dataclasses.replace(
        state,
        experts=np.array([[0.0, -50.0], [-50.0, 0.0]]),
        weights=np.array([1.0, 5e-324]),
    )
    with pytest.raises(FloatingPointError):
        saol_observe(state, np.array([1.0, -1.0]))


def test_saol_rejects_rounds_beyond_horizon():
    state = SAOLState.fresh(2, 2)
    state = saol_observe(state, np.zeros(2))
    state = saol_observe(state, np.zeros(2))
    with pytest.raises(ValueError):
        saol_observe(state, np.zeros(2))


def test_saol_act_is_valid_strategy():
    state = SAOLState.fresh(128, 4)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = saol_act(state)
        assert np.all(x >= 0) and abs(x.sum() - 1.0) < 1e-9
        state = saol_observe(state, rng.uniform(-1, 1, size=4))


# ---------------------------------------------------------------------------
# Behavior cloning.
# ---------------------------------------------------------------------------

def test_clone_follows_second_player():
    state = CloneState(3)
    np.testing.assert_allclose(clone_strategy(state), np.ones(3) / 3)
    for a in [1, 0, 2]:
        state = clone_observe(state, a)
        assert clone_strategy(state)[a] == 1.0


# ---------------------------------------------------------------------------
# Self-play variants (the batched trainer; runs=1 is the sequential case).
# ---------------------------------------------------------------------------

def test_self_play_pure_state_is_absorbing():
    g = eq.majority3()
    # start pure on action 0 up to a mass of 1e-300 on action 1 (bc_init
    # needs a positive meta-strategy); that mass never grows
    x = batch_self_play(g, 20, 4, 1.0, np.random.default_rng(0), mode="bc_init", y_meta=np.array([1.0, 1e-300]))
    assert np.all(x[:, 0] == 1.0) and np.all(x[:, 1] <= 1e-300)


def test_self_play_reg_lambda_zero_matches_plain():
    g = eq.majority3()
    y = np.array([0.49, 0.51])
    # a run of T steps is the first T steps of a longer run, so this compares
    # the two trajectories round by round
    for T in range(1, 201):
        plain = batch_self_play(g, T, 1, 1.0, np.random.default_rng(33), mode="bc_init", y_meta=y)
        reg = batch_self_play(g, T, 1, 1.0, np.random.default_rng(33), mode="regularized", lam=0.0, y_meta=y)
        assert plain.tobytes() == reg.tobytes(), T


def test_self_play_reg_lambda_huge_pins_to_meta_strategy():
    g = eq.majority3()
    y = np.array([0.3, 0.7])
    x = batch_self_play(g, 50, 1, 1.0, np.random.default_rng(1), mode="regularized", lam=1e9, y_meta=y)
    np.testing.assert_allclose(x[0], y, atol=1e-6)


def test_self_play_reg_requires_positive_meta():
    g = eq.majority3()
    with pytest.raises(ValueError, match="positive"):
        batch_self_play(g, 10, 1, 1.0, np.random.default_rng(0), mode="regularized", lam=0.1, y_meta=np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="bogus", y_meta=[0.5, 0.5]),
        dict(mode="bc_init"),
        dict(mode="regularized", lam=0.1),
        dict(mode="bc_init", y_meta=[1.0, 0.0]),
        dict(mode="regularized", lam=0.1, y_meta=[0.5, -0.5]),
        dict(mode="regularized", lam=-1.0, y_meta=[0.5, 0.5]),
        dict(mode="scratch", lam=-1.0),
    ],
    ids=["unknown-mode", "bc-no-meta", "reg-no-meta", "bc-zero-meta", "reg-negative-meta", "reg-negative-lam", "scratch-negative-lam"],
)
def test_batch_self_play_rejects_bad_arguments_before_any_draw(kwargs):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        batch_self_play(eq.majority3(), 10, 2, 1.0, rng, **kwargs)
    assert rng.bit_generator.state == before


def test_self_play_determinism():
    g = eq.sdg(5)
    x1 = batch_self_play(g, 100, 4, 2.0, np.random.default_rng(77))
    x2 = batch_self_play(g, 100, 4, 2.0, np.random.default_rng(77))
    assert x1.tobytes() == x2.tobytes()


def test_self_play_sdg_bc_init_converges_to_last_action():
    g = eq.sdg(30)
    rng = np.random.default_rng(5)
    x = batch_self_play(g, 3000, 1, 2.0, rng, mode="bc_init", y_meta=np.array([0.399, 0.6, 0.001]))
    assert x[0, 2] >= 0.99


ROSTER_ROWS = [("scratch", 0.0), ("bc_init", 0.0), ("regularized", 1e-4), ("regularized", 1e-2),
               ("regularized", 0.0), ("bc_init", 0.5), ("regularized", 3.0)]


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize(
    "game, y_meta, eta",
    [(eq.majority3(), [0.49, 0.51], 1.0), (eq.sdg(30), [0.399, 0.6, 0.001], 2.0)],
    ids=["majority3", "sdg30"],
)
def test_roster_rows_are_their_one_row_calls(game, y_meta, eta, order):
    # each row, trained in the stacked loop, has the finals and leaves its
    # generator where batch_self_play on that row alone does
    T, runs = 120, 5
    rows = [(mode, lam, 40 + i) for i, (mode, lam) in enumerate(ROSTER_ROWS)]
    if order == "reversed":
        rows = rows[::-1]
    rngs = [np.random.default_rng(seed) for _, _, seed in rows]
    finals = self_play_roster(game, T, runs, eta, [(m, lam, rng) for (m, lam, _), rng in zip(rows, rngs)], y_meta)
    assert len(finals) == len(rows)
    for (mode, lam, seed), got, rng in zip(rows, finals, rngs):
        alone = np.random.default_rng(seed)
        want = batch_self_play(game, T, runs, eta, alone, mode=mode, lam=lam, y_meta=np.array(y_meta))
        assert got.shape == (runs, game.A)
        assert got.tobytes() == want.tobytes(), (mode, lam)
        assert rng.random(4).tobytes() == alone.random(4).tobytes(), (mode, lam)


@pytest.mark.parametrize(
    "bad, y_meta",
    [(("bogus", 0.0), [0.5, 0.5]), (("regularized", -1.0), [0.5, 0.5]), (("scratch", -1.0), [0.5, 0.5]),
     (("bc_init", 0.0), [1.0, 0.0]), (("regularized", 0.1), None)],
    ids=["unknown-mode", "negative-lam", "scratch-negative-lam", "zero-meta", "no-meta"],
)
def test_a_bad_roster_row_is_refused_before_any_row_draws(bad, y_meta):
    # the bad row comes last, so the rows before it would have drawn first
    rngs = [np.random.default_rng(i) for i in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    rows = [("scratch", 0.0, rngs[0]), ("scratch", 0.0, rngs[1]), (*bad, rngs[2])]
    with pytest.raises(ValueError):
        self_play_roster(eq.majority3(), 10, 2, 1.0, rows, y_meta)
    assert [rng.bit_generator.state for rng in rngs] == before


EXPLOITER_TARGETS = {
    "majority3": [[0.3, 0.7], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.9, 0.1]],
    "sdg30": [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3], [0.399, 0.6, 0.001], [0.0, 0.0, 1.0]],
    "em64": [[0.5, 0.5, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 1.0]],
}


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize(
    "name, game, eta",
    [("majority3", eq.majority3(), 1.0), ("sdg30", eq.sdg(30), 2.0), ("em64", eq.extended_majority(6, 4), 1.0)],
    ids=["majority3", "sdg30", "em64"],
)
def test_exploiter_rows_are_their_one_row_calls(name, game, eta, order):
    # exploiter rows trained together have the finals, and leave each
    # generator where batch_exploiter against that target alone does
    T, runs = 120, 5
    rows = [(target, 60 + i) for i, target in enumerate(EXPLOITER_TARGETS[name])]
    if order == "reversed":
        rows = rows[::-1]
    rngs = [np.random.default_rng(seed) for _, seed in rows]
    finals = train_roster(game, T, runs, eta, [(0.0, 0.0, rng, np.array(target)) for (target, _), rng in zip(rows, rngs)])
    assert len(finals) == len(rows)
    for (target, seed), got, rng in zip(rows, finals, rngs):
        alone = np.random.default_rng(seed)
        want = batch_exploiter(game, np.array(target), T, runs, eta, alone)
        assert got.shape == (runs, game.A)
        assert got.tobytes() == want.tobytes(), target
        assert rng.random(4).tobytes() == alone.random(4).tobytes(), target


def test_a_roster_of_self_play_and_exploiter_rows_is_refused_before_any_draw():
    rngs = [np.random.default_rng(i) for i in range(2)]
    before = [rng.bit_generator.state for rng in rngs]
    rows = [(0.0, 0.0, rngs[0], None), (0.0, 0.0, rngs[1], np.array([0.5, 0.5]))]
    for mixed in (rows, rows[::-1]):
        with pytest.raises(ValueError, match="not both"):
            train_roster(eq.majority3(), 10, 2, 1.0, mixed)
    assert [rng.bit_generator.state for rng in rngs] == before


@pytest.mark.parametrize(
    "target",
    [[0.2, 0.2], [math.nan, 1.0], [0.2, 0.3, 0.5], [1.5, -0.5]],
    ids=["short-sum", "nan", "three-entries", "negative"],
)
def test_a_bad_exploiter_target_is_refused_before_any_row_draws(target):
    # the bad target comes last, so the rows before it would have drawn
    # first; batch_exploiter, its one-row call, refuses it too
    rngs = [np.random.default_rng(i) for i in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    rows = [(0.0, 0.0, rngs[0], np.array([0.5, 0.5])), (0.0, 0.0, rngs[1], np.array([1.0, 0.0])),
            (0.0, 0.0, rngs[2], np.array(target))]
    with pytest.raises(ValueError):
        train_roster(eq.majority3(), 10, 2, 1.0, rows)
    with pytest.raises(ValueError):
        batch_exploiter(eq.majority3(), np.array(target), 10, 2, 1.0, rngs[0])
    assert [rng.bit_generator.state for rng in rngs] == before


# ---------------------------------------------------------------------------
# Exploiter.
# ---------------------------------------------------------------------------

def test_exploiter_drives_majority_target_to_minus_one():
    g = eq.majority3()
    y = batch_exploiter(g, np.array([0.0, 1.0]), 4000, 1, 1.0, np.random.default_rng(3))[0]
    assert y[0] >= 0.99
    assert eq.expected_payoff_mixed(g, [0, 1], y) == pytest.approx(-1.0, abs=0.02)


def test_exploiter_symmetric_target_stays_symmetric_in_distribution():
    # against the uniform target in the minority game, both pure meta
    # strategies hurt the target equally, so neither side is favored
    g = eq.minority3()
    target = np.array([0.5, 0.5])
    v0 = eq.expected_payoff_mixed(g, target, [1.0, 0.0])
    v1 = eq.expected_payoff_mixed(g, target, [0.0, 1.0])
    assert v0 == pytest.approx(v1)
    ys = batch_exploiter(g, target, 300, 40, 1.0, np.random.default_rng(0))
    # average inclination across runs stays near 1/2
    assert abs(np.mean(ys[:, 0]) - 0.5) < 0.2


@pytest.mark.parametrize(
    "game, target, eta",
    [(eq.sdg(5), [0.2, 0.5, 0.3], 2.0), (eq.majority3(), [0.3, 0.7], 1.0), (eq.extended_majority(6, 4), [0.5, 0.5, 0.0, 0.0], 1.0)],
    ids=["sdg5", "majority3", "em64"],
)
def test_exploiter_steps_are_the_batched_rule_with_one_run(game, target, eta):
    T = 60
    state = ExploiterState.fresh(game, np.array(target), eta=eta)
    rng = np.random.default_rng(11)
    for _ in range(T):
        state, y = exploiter_step(state, game, rng)
    want = batch_exploiter(game, np.array(target), T, 1, eta, np.random.default_rng(11))
    assert y[None].tobytes() == want.tobytes()
    assert exploiter_current(state).tobytes() == y.tobytes()


def test_all_acts_return_valid_strategies():
    g = eq.sdg(5)
    target = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(0)
    ex = ExploiterState.fresh(g, target, eta=2.0)
    for T in range(1, 51):
        ex, xe = exploiter_step(ex, g, rng)
        xs = batch_self_play(g, T, 3, 2.0, rng)
        xb = batch_exploiter(g, target, T, 3, 2.0, rng)
        for x in (xe[None], exploiter_current(ex)[None], xs, xb):
            assert np.all(x >= 0)
            np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)


def test_learner_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec("bogus")
    # the self-play and exploiter trainers are reproduce roster rows, not
    # config learner kinds; lam is not a learner field
    base = {"game": {"name": "majority3"}, "T": 10, "seeds": [0]}
    with pytest.raises(ConfigError) as err:
        parse_config({**base, "learner": {"kind": "sp_bc_reg"}})
    problems = " ".join(err.value.problems)
    assert "unknown learner kind 'sp_bc_reg'" in problems and "missing 'schedule'" in problems
    with pytest.raises(ConfigError, match="unknown fields"):
        parse_config({**base, "learner": {"kind": "hedge", "lam": 1e-3},
                      "schedule": {"kind": "fixed", "y": [0.5, 0.5]}})
