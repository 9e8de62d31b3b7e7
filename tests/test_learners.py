"""Learners: exponential weights, the interval meta-learner, cloning,
self-play variants, and the exploiter."""

import dataclasses
import math

import numpy as np
import pytest

import equalshare as eq
from equalshare.learners import (
    CloneState,
    ExploiterState,
    HedgeState,
    LearnerSpec,
    RateSchedule,
    SAOLState,
    SelfPlayState,
    clone_act,
    clone_observe,
    clone_strategy,
    cover_intervals_starting_at,
    exploiter_current,
    exploiter_step,
    hedge_act,
    hedge_observe,
    hedge_update,
    saol_act,
    saol_observe,
    self_play_current,
    self_play_reg_step,
    self_play_step,
)


# ---------------------------------------------------------------------------
# Rate schedules and the basic exponential-weights step.
# ---------------------------------------------------------------------------

def test_rate_schedule():
    fixed = RateSchedule(0.3, "fixed", 2)
    assert fixed.rate(1) == fixed.rate(999) == 0.3
    decay = RateSchedule(2.0, "sqrt_decay", 3)
    assert decay.rate(4) == pytest.approx(2.0 * math.sqrt(math.log(3) / 4))
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


def test_hedge_update_uniform_gains_are_identity():
    for c in (-3.0, 0.0, 7.5):
        np.testing.assert_allclose(hedge_update([0.5, 0.5], [c, c], 1.0), [0.5, 0.5])


def test_hedge_update_closed_form():
    out = hedge_update([0.5, 0.5], [1.0, 0.0], math.log(2.0))
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_hedge_update_zero_mass_never_revives():
    out = hedge_update([1.0, 0.0], [-5.0, 100.0], 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0])
    with pytest.raises(ValueError):
        hedge_update([0.0, 0.0], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        hedge_update([0.5, 0.5], [np.inf, 0.0], 1.0)


def test_hedge_update_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.dirichlet(np.ones(4))
        g = rng.normal(size=4)
        c = rng.normal()
        # invariant up to the rounding of g + c itself
        np.testing.assert_allclose(
            hedge_update(x, g, 0.7), hedge_update(x, g + c, 0.7), rtol=1e-12, atol=1e-15
        )


def test_hedge_update_argmax_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.dirichlet(np.ones(3))
        g = rng.normal(size=3)
        out = hedge_update(x, g, 0.5)
        for a in range(3):
            for b in range(3):
                if g[a] >= g[b] and x[a] >= x[b]:
                    assert out[a] >= out[b] - 1e-15


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

def test_interval_cover():
    assert cover_intervals_starting_at(1, 100) == [(1, 1)]
    assert cover_intervals_starting_at(2, 100) == [(2, 2), (2, 3)]
    assert cover_intervals_starting_at(4, 100) == [(4, 4), (4, 5), (4, 7)]
    # truncation near the horizon merges coinciding intervals
    assert cover_intervals_starting_at(8, 10) == [(8, 8), (8, 9), (8, 10)]
    assert cover_intervals_starting_at(6, 100) == [(6, 6), (6, 7)]


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
        assert clone_act(state, np.random.default_rng(0)) == a
        assert clone_strategy(state)[a] == 1.0


def test_clone_first_round_uniform_sampling():
    state = CloneState(4)
    rng = np.random.default_rng(0)
    draws = [clone_act(state, rng) for _ in range(4000)]
    freqs = np.bincount(draws, minlength=4) / 4000
    assert np.all(np.abs(freqs - 0.25) < 0.03)


# ---------------------------------------------------------------------------
# Self-play variants.
# ---------------------------------------------------------------------------

def test_self_play_pure_state_is_absorbing():
    g = eq.majority3()
    state = SelfPlayState.fresh(g, "scratch", eta=1.0)
    # force a pure strategy by a big gain gap
    state = dataclasses.replace(state, cum_gain=np.array([1000.0, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        state, x = self_play_step(state, g, rng)
    np.testing.assert_allclose(x, [1.0, 0.0])


def test_self_play_reg_lambda_zero_matches_plain():
    g = eq.majority3()
    y = np.array([0.49, 0.51])
    plain = SelfPlayState.fresh(g, "bc_init", eta=1.0, y_meta=y)
    reg = SelfPlayState.fresh(g, "regularized", eta=1.0, lam=0.0, y_meta=y)
    r1, r2 = np.random.default_rng(33), np.random.default_rng(33)
    for _ in range(200):
        plain, xp = self_play_step(plain, g, r1)
        reg, xr = self_play_reg_step(reg, g, r2)
        np.testing.assert_array_equal(xp, xr)


def test_self_play_reg_lambda_huge_pins_to_meta_strategy():
    g = eq.majority3()
    y = np.array([0.3, 0.7])
    state = SelfPlayState.fresh(g, "regularized", eta=1.0, lam=1e9, y_meta=y)
    rng = np.random.default_rng(1)
    for _ in range(50):
        state, x = self_play_reg_step(state, g, rng)
    np.testing.assert_allclose(x, y, atol=1e-6)


def test_self_play_reg_requires_positive_meta():
    g = eq.majority3()
    with pytest.raises(ValueError):
        SelfPlayState.fresh(g, "regularized", lam=0.1, y_meta=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        self_play_reg_step(SelfPlayState.fresh(g, "scratch"), g, np.random.default_rng(0))


def test_self_play_determinism():
    g = eq.sdg(5)
    s1 = SelfPlayState.fresh(g, "scratch", eta=2.0)
    s2 = SelfPlayState.fresh(g, "scratch", eta=2.0)
    r1, r2 = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(100):
        s1, x1 = self_play_step(s1, g, r1)
        s2, x2 = self_play_step(s2, g, r2)
        np.testing.assert_array_equal(x1, x2)


def test_self_play_sdg_bc_init_converges_to_last_action():
    g = eq.sdg(30)
    rng = np.random.default_rng(5)
    state = SelfPlayState.fresh(g, "bc_init", eta=2.0, y_meta=np.array([0.399, 0.6, 0.001]))
    for _ in range(3000):
        state, x = self_play_step(state, g, rng)
    assert x[2] >= 0.99


# ---------------------------------------------------------------------------
# Exploiter.
# ---------------------------------------------------------------------------

def test_exploiter_drives_majority_target_to_minus_one():
    g = eq.majority3()
    state = ExploiterState.fresh(g, np.array([0.0, 1.0]), eta=1.0)
    rng = np.random.default_rng(3)
    for _ in range(4000):
        state, y = exploiter_step(state, g, rng)
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
    firsts = []
    for seed in range(40):
        state = ExploiterState.fresh(g, target, eta=1.0)
        rng = np.random.default_rng(seed)
        for _ in range(300):
            state, y = exploiter_step(state, g, rng)
        firsts.append(y[0])
    # average inclination across seeds stays near 1/2
    assert abs(np.mean(firsts) - 0.5) < 0.2


def test_all_acts_return_valid_strategies():
    g = eq.sdg(5)
    rng = np.random.default_rng(0)
    sp = SelfPlayState.fresh(g, "scratch", eta=2.0)
    ex = ExploiterState.fresh(g, np.array([0.2, 0.5, 0.3]), eta=2.0)
    for _ in range(50):
        sp, xs = self_play_step(sp, g, rng)
        ex, xe = exploiter_step(ex, g, rng)
        for x in (xs, xe, self_play_current(sp), exploiter_current(ex)):
            assert np.all(x >= 0)
            assert abs(x.sum() - 1.0) < 1e-9


def test_learner_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec("bogus")
    spec = LearnerSpec("sp_bc_reg", lam=1e-3)
    assert "lam=0.001" in spec.describe()
