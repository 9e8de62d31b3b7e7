"""Batch trainers and table experiments.

The batch trainers advance many runs in lockstep; these tests pin them to
the functional single-run semantics by replaying the same generator draws.
"""

import zlib

import numpy as np
import pytest

import equalshare as eq
from equalshare import learners
from equalshare.analysis import exploiter_protocol, monte_carlo_utility
from equalshare.arena import BiasedCoinSchedule, PureSwapSchedule, compute_metrics, run_matches
from equalshare.games import SizeCapExceeded, expected_payoff_mixed, num_compositions, realized_payoff_vector
from equalshare.learners import (
    LearnerSpec,
    RateSchedule,
    batch_exploiter,
    batch_hedge_vs_fixed,
    batch_self_play,
    exploiter_gain_table,
)
from equalshare.reproduce import (
    SCALING_HORIZONS,
    SCALING_V_BUDGET,
    SweepRow,
    classify,
    fit_scaling_exponent,
    lowerbound_sweep,
    mv_table,
    sdg_table,
)
from equalshare.sampling import role_rngs

MV = eq.majority3()
Y_MV = np.array([0.49, 0.51])


def test_batch_hedge_matches_manual_replay():
    T, eta = 500, 1.0
    rng = np.random.default_rng(100)
    finals = batch_hedge_vs_fixed(MV, Y_MV, T, 1, eta, rng)

    table = MV.count_table()
    weights = table.weights(Y_MV)
    cdf = np.minimum(np.cumsum(weights), 1.0)
    cdf[-1] = 1.0
    rng2 = np.random.default_rng(100)
    idx = np.searchsorted(cdf, rng2.random((T, 1)), side="right").clip(0, len(weights) - 1)[:, 0]
    sched = RateSchedule(eta, "sqrt_decay", 2)
    lw = np.zeros(2)
    for t, k in enumerate(idx, start=1):
        lw += float(sched.rates(t)) * MV.payoff_matrix()[:, k] / MV.scale
    manual = np.exp(lw - lw.max())
    manual /= manual.sum()
    np.testing.assert_allclose(finals[0], manual, rtol=1e-10, atol=1e-12)


def test_batch_self_play_matches_manual_replay():
    T, eta = 200, 1.0
    rng = np.random.default_rng(200)
    finals = batch_self_play(MV, T, 1, eta, rng, mode="bc_init", y_meta=Y_MV)

    rng2 = np.random.default_rng(200)
    sched = RateSchedule(eta, "sqrt_decay", 2)
    log_x0 = np.log(Y_MV)
    cum = np.zeros(2)
    for t in range(1, T + 1):
        score = log_x0 + cum
        x = np.exp(score - score.max())
        x /= x.sum()
        counts = rng2.multinomial(2, x[None, :])[0]
        cum += float(sched.rates(t)) * realized_payoff_vector(MV, counts)
    score = log_x0 + cum
    manual = np.exp(score - score.max())
    manual /= manual.sum()
    np.testing.assert_allclose(finals[0], manual, rtol=1e-10, atol=1e-12)


def test_batch_regularized_matches_manual_replay():
    T, eta, lam = 150, 1.0, 1e-3
    rng = np.random.default_rng(300)
    finals = batch_self_play(MV, T, 1, eta, rng, mode="regularized", lam=lam, y_meta=Y_MV)

    rng2 = np.random.default_rng(300)
    sched = RateSchedule(eta, "sqrt_decay", 2)
    log_y = np.log(Y_MV)
    cum, cum_eta = np.zeros(2), 0.0

    def readout():
        score = (log_y + cum + lam * cum_eta * log_y) / (1.0 + lam * cum_eta)
        x = np.exp(score - score.max())
        return x / x.sum()

    for t in range(1, T + 1):
        x = readout()
        counts = rng2.multinomial(2, x[None, :])[0]
        cum += float(sched.rates(t)) * realized_payoff_vector(MV, counts)
        cum_eta += float(sched.rates(t))
    np.testing.assert_allclose(finals[0], readout(), rtol=1e-10, atol=1e-12)


def _insertion_average_gains(game, a1, counts):
    """The exploiter's gain of each action against target action a1 and
    opponent counts: the negated average, over the opponent seats, of the
    target's payoff when that seat switches to the action."""
    gains = np.zeros(game.A)
    for a in range(game.A):
        total = 0.0
        for b in range(game.A):
            if counts[b] == 0:
                continue
            swapped = counts.copy()
            swapped[b] -= 1
            swapped[a] += 1
            total += counts[b] * realized_payoff_vector(game, swapped)[a1]
        gains[a] = -total / (game.n - 1)
    return gains


def test_batch_exploiter_matches_functional_gain_rule():
    # one step from uniform: the batch gain computation must equal the
    # insertion-average rule evaluated directly
    g = eq.sdg(5)
    target = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(400)
    final = batch_exploiter(g, target, 1, 1, 2.0, rng)

    rng2 = np.random.default_rng(400)
    tcdf = np.minimum(np.cumsum(target), 1.0)
    tcdf[-1] = 1.0
    a1 = int(np.searchsorted(tcdf, rng2.random(1), side="right").clip(0, 2)[0])
    counts = rng2.multinomial(4, np.ones((1, 3)) / 3)[0]
    gains = _insertion_average_gains(g, a1, counts)
    sched = RateSchedule(2.0, "sqrt_decay", 3)
    lw = float(sched.rates(1)) * gains
    manual = np.exp(lw - lw.max())
    manual /= manual.sum()
    np.testing.assert_allclose(final[0], manual, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "game", [eq.majority3(), eq.minority3(), eq.sdg(5), eq.extended_majority(4, 3)],
    ids=["majority3", "minority3", "sdg5", "em43"],
)
def test_exploiter_gain_table_entries_are_the_insertion_average_rule(game):
    gains = exploiter_gain_table(game)
    counts = game.count_table().counts
    assert gains.shape == (game.A, len(counts), game.A)
    for a1 in range(game.A):
        for k, c in enumerate(counts):
            np.testing.assert_array_equal(gains[a1, k], _insertion_average_gains(game, a1, c))


def test_exploiter_gain_table_is_refused_before_it_is_built(monkeypatch):
    game = eq.sdg(5)
    size = game.A**2 * num_compositions(game.n - 1, game.A)
    monkeypatch.setattr(learners, "MAX_ARRAY_ENTRIES", size - 1)
    with pytest.raises(SizeCapExceeded, match=f"table of {size} entries"):
        exploiter_gain_table(game)
    assert game._cache == {}  # neither the count table nor the payoff matrix was built
    monkeypatch.setattr(learners, "MAX_ARRAY_ENTRIES", size)
    assert exploiter_gain_table(game).size == size


def test_classify_threshold():
    finals = np.array([[0.995, 0.005], [0.98, 0.02], [0.002, 0.998]])
    np.testing.assert_array_equal(classify(finals), [0, -1, 1])


def test_batch_hedge_converges_like_sequential():
    rng = np.random.default_rng(1)
    finals = batch_hedge_vs_fixed(MV, Y_MV, 200_000, 20, 1.0, rng)
    labels = classify(finals)
    assert np.all(labels == 1)


def test_mv_table_smoke_and_determinism():
    kwargs = dict(
        runs=10,
        hedge_horizon=5_000,
        sp_horizon=2_000,
        eval_games=20_000,
        eval_repeats=2,
        exploit_runs=4,
        exploit_steps=1_500,
    )
    r1 = mv_table(seed=3, **kwargs)
    r2 = mv_table(seed=3, **kwargs)
    assert r1.convergence_csv() == r2.convergence_csv()
    assert {row.label for row in r1.rows} == {
        "sp_scratch", "sp_bc", "sp_bc_reg(1e-05)", "sp_bc_reg(0.0001)",
        "sp_bc_reg(0.001)", "sp_bc_reg(0.01)", "hedge",
    }
    for row in r1.rows:
        assert abs(sum(row.limit_shares.values()) - 1.0) < 1e-12
        if row.exact_utility is not None:
            assert row.exploit_exact <= 1e-9  # never positive
    md = r1.to_markdown()
    assert "Convergence distribution" in md and "hedge" in md
    # different seed changes the sampled trajectories
    r3 = mv_table(seed=4, **kwargs)
    assert r3.convergence_csv() != r1.convergence_csv()


def test_sdg_table_small_smoke():
    report = sdg_table(
        seed=1, runs=6, hedge_horizon=4_000, sp_horizon=4_000,
        eval_games=10_000, eval_repeats=2, exploit_runs=2, exploit_steps=1_500,
    )
    by_label = {row.label: row for row in report.rows}
    assert np.all(by_label["hedge"].labels == 1)
    assert np.all(by_label["sp_scratch"].labels == 2)
    assert by_label["sp_scratch"].exact_utility == pytest.approx(-12.6695, abs=5e-4)
    # both learned strategies are floored at -(n-1) by a pure punishment
    assert by_label["sp_scratch"].exploit_exact == pytest.approx(-29.0, abs=1e-9)
    assert by_label["hedge"].exploit_exact == pytest.approx(-29.0, abs=1e-9)
    assert by_label["hedge"].exploit_protocol <= -28.5


@pytest.mark.parametrize("size, value", [("eval_repeats", 0), ("eval_repeats", 1), ("runs", 0), ("eval_games", 0),
                                         ("exploit_runs", 0), ("exploit_steps", 0)])
def test_a_table_with_a_size_below_its_floor_is_refused_before_training(size, value, monkeypatch):
    # one eval repeat has no std and none has no mean; no run, game,
    # exploiter run or exploiter step has nothing to report; each is
    # refused before any trainer runs
    from equalshare import reproduce

    def trained(*args, **kwargs):
        raise AssertionError("a trainer ran")

    monkeypatch.setattr(reproduce, "self_play_roster", trained)
    monkeypatch.setattr(reproduce, "batch_hedge_vs_fixed", trained)
    sizes = dict(runs=2, eval_games=10, eval_repeats=2, exploit_runs=2, exploit_steps=2)
    sizes[size] = value
    with pytest.raises(ValueError, match="at least two" if size == "eval_repeats" else f"{size} must be at least 1"):
        mv_table(seed=0, hedge_horizon=10, sp_horizon=10, **sizes)


def test_a_table_trains_each_kind_of_row_in_one_call(monkeypatch):
    # the self-play rows train in one roster call and the exploiters in one
    # more, one exploiter row per distinct worst limit; the certified
    # oracle also runs once per distinct worst action
    from equalshare import analysis, reproduce

    calls = {"roster": [], "certified": []}
    train_roster, certified = learners.train_roster, reproduce.certified_exploitability

    def spy_roster(game, T, runs, eta, rows):
        calls["roster"].append([None if target is None else list(target) for *_, target in rows])
        return train_roster(game, T, runs, eta, rows)

    def spy_certified(game, x):
        calls["certified"].append(list(x))
        return certified(game, x)

    monkeypatch.setattr(learners, "train_roster", spy_roster)
    monkeypatch.setattr(analysis, "train_roster", spy_roster)
    monkeypatch.setattr(reproduce, "certified_exploitability", spy_certified)
    report = mv_table(seed=0, runs=20, hedge_horizon=2_000, sp_horizon=1_000, eval_games=1_000, eval_repeats=2,
                      exploit_runs=2, exploit_steps=50)
    worst = [list(r.worst_limit) for r in report.rows if r.worst_limit is not None]
    distinct = sorted(list(w) for w in {tuple(w) for w in worst})
    assert len(worst) > len(distinct)  # some rows share a worst action
    self_play_call, exploiter_call = calls["roster"]
    assert self_play_call == [None] * 6
    assert sorted(exploiter_call) == distinct
    assert sorted(calls["certified"]) == distinct


def test_a_table_evaluates_each_distinct_worst_limit_once_on_its_action_seed(monkeypatch):
    # rows with the same worst limit share its Monte Carlo and exploiter
    # numbers, and each equals a direct call on the generators seeded by the
    # table seed and the action alone; Monte Carlo runs eval_repeats times
    # per distinct action.  The convergence CSV is pinned by test_golden.py.
    from equalshare import reproduce

    seed, repeats, games_, runs_, steps = 5, 3, 2_000, 3, 20  # 20 steps stay off the -29 floor
    mc_calls = []
    monte_carlo = reproduce.monte_carlo_utility

    def spy_monte_carlo(game, x, *args):
        mc_calls.append(int(np.argmax(x)))
        return monte_carlo(game, x, *args)

    monkeypatch.setattr(reproduce, "monte_carlo_utility", spy_monte_carlo)
    report = sdg_table(seed=seed, runs=6, hedge_horizon=4_000, sp_horizon=4_000, eval_games=games_,
                       eval_repeats=repeats, exploit_runs=runs_, exploit_steps=steps)
    by_action = {}
    for row in report.rows:
        if row.worst_limit is not None:
            by_action.setdefault(int(np.argmax(row.worst_limit)), []).append(row)
    assert sorted(by_action) == [1, 2] and len(by_action[2]) == 6  # hedge at B, every self-play row at C
    assert sorted(mc_calls) == sorted(a for a in by_action for _ in range(repeats))
    game, y_meta = eq.sdg(30), np.array([0.399, 0.6, 0.001])
    for a, rows in by_action.items():
        ss_eval, ss_exploit = np.random.SeedSequence((seed, zlib.crc32(f"pure_{a}".encode()))).spawn(2)
        x = np.eye(game.A)[a]
        rng = np.random.default_rng(ss_eval)
        estimates = [monte_carlo_utility(game, x, y_meta, games_, rng)[0] for _ in range(repeats)]
        want_mc = (float(np.mean(estimates)), float(np.std(estimates, ddof=1)))
        want_exploit = exploiter_protocol(game, [x], [ss_exploit], runs_, steps, 2.0)[0][0]
        for row in rows:
            assert row.mc_utility == want_mc, row.label
            assert row.exploit_protocol == want_exploit, row.label


def test_lowerbound_sweep_rows():
    g = eq.extended_majority(3, 2)
    rows = lowerbound_sweep(g, [("pure_swap", 16.0, 256)], range(5), kinds=("clone",))
    assert len(rows) == 1
    row = rows[0]
    assert row.kind == "clone" and row.T == 256
    assert row.u_avg_mean >= -(16.0 + 1) / 256 - 3 * row.u_avg_std


def _sweep_per_schedule(game, configs, kinds, seeds):
    """lowerbound_sweep as one run_matches call per configuration and kind."""
    rows = []
    for sched_kind, v, T in configs:
        sched = (BiasedCoinSchedule if sched_kind == "biased_coin" else PureSwapSchedule)(v, T)
        for kind in kinds:
            matches = [(sched, s) for s in seeds]
            metrics = [compute_metrics(tr) for (tr,) in run_matches(game, [LearnerSpec(kind)], matches, T)]
            uavg = [m.u_avg for m in metrics]
            dreg = [m.dynamic_regret for m in metrics]
            rows.append(SweepRow(sched_kind, kind, T, v, len(seeds), float(np.mean(uavg)), float(np.std(uavg, ddof=1)),
                                 float(np.mean(dreg)), float(np.std(dreg, ddof=1))))
    return rows


SWEEP_KINDS = ("hedge", "saol", "clone")


@pytest.mark.parametrize("configs", [
    [("pure_swap", 32.0, 300), ("pure_swap", 75.0, 300), ("biased_coin", 8.0, 300)],
    # two horizons, interleaved: rows keep the order of the configs
    [("biased_coin", 8.0, 256), ("pure_swap", 16.0, 300), ("pure_swap", 32.0, 256), ("biased_coin", 4.0, 300)],
], ids=["one_horizon", "two_horizons"])
def test_lowerbound_sweep_equals_the_per_schedule_loop(configs):
    g = eq.extended_majority(3, 2)
    seeds = [2 * 1_000_003 + s for s in range(4)]
    got = lowerbound_sweep(g, configs, seeds, kinds=SWEEP_KINDS)
    want = _sweep_per_schedule(g, configs, SWEEP_KINDS, seeds)
    assert [(r.schedule, r.kind, r.T) for r in got] == [(c[0], k, c[2]) for c in configs for k in SWEEP_KINDS]
    assert got == want  # float == on every field


def _spy_draws_and_saol(monkeypatch):
    """Record the seed of every match drawn, and the (matches, T) shape and
    horizon of every saol_strategies call."""
    from equalshare import arena

    draws, saol_calls = [], []

    def drawn(seed):
        draws.append(seed)
        return role_rngs(seed)

    def saol(gains, horizon, eta):
        saol_calls.append((gains.shape[:2], horizon))
        return learners.saol_strategies(gains, horizon, eta)

    monkeypatch.setattr(arena, "role_rngs", drawn)
    monkeypatch.setattr(arena, "saol_strategies", saol)
    return draws, saol_calls


def test_lowerbound_sweep_draws_each_match_once_and_plays_saol_once_per_horizon(monkeypatch):
    draws, saol_calls = _spy_draws_and_saol(monkeypatch)
    configs = [("biased_coin", 8.0, 256), ("pure_swap", 16.0, 300), ("pure_swap", 32.0, 256), ("biased_coin", 4.0, 300)]
    seeds = [1_000_003 + s for s in range(3)]
    lowerbound_sweep(eq.extended_majority(3, 2), configs, seeds, kinds=SWEEP_KINDS)
    assert draws == 4 * seeds  # one draw per (schedule, seed), whatever the number of kinds
    assert saol_calls == [((6, 256), 256), ((6, 300), 300)]


def test_reproduce_scaling_draws_each_match_once_and_plays_saol_once_per_horizon(monkeypatch, tmp_path):
    from equalshare import cli

    draws, saol_calls = _spy_draws_and_saol(monkeypatch)
    assert cli.main(["--seed", "1", "--out", str(tmp_path), "reproduce", "scaling", "--runs", "2"]) == cli.EXIT_OK
    seeds = [7_777_777, 7_777_778]
    assert draws == len(SCALING_HORIZONS) * seeds  # one draw per (horizon, seed), for SAOL and hedge both
    assert saol_calls == [((2, T), T) for T in SCALING_HORIZONS]


def test_lowerbound_sweep_memory_does_not_grow_with_the_seed_count():
    import tracemalloc

    # one transcript at T = 2^15 is about 2.9 MB, so holding every seed's
    # transcript at once would take about 70 MB at 24 seeds
    T = 1 << 15
    config = [("pure_swap", 32.0, T)]
    for kind in ("hedge", "clone"):
        peaks = []
        for seeds in (2, 24):
            tracemalloc.start()
            try:
                lowerbound_sweep(eq.extended_majority(3, 2), config, range(seeds), kinds=(kind,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, (kind, peaks)
        assert peaks[1] < 16 * 2**20, (kind, peaks)

def test_lowerbound_sweep_memory_with_every_kind_holds_one_batch(monkeypatch):
    import tracemalloc
    from equalshare import arena

    # batches of B = 8 matches at T = 2^12: holding every seed's transcripts
    # would take about 0.65 MB more per match, and drawing a batch while the
    # last one is still held, or a transcript that outlives its batch, more
    # than 1 MB more in all
    T, B = 1 << 12, 8
    monkeypatch.setattr(arena, "CHUNK_ENTRIES", B * T * 2)
    config = [("pure_swap", 32.0, T)]
    # a first call allocates once what later calls reuse
    lowerbound_sweep(eq.extended_majority(3, 2), config, range(B), kinds=SWEEP_KINDS)
    peaks = []
    for seeds in (B, 3 * B):
        tracemalloc.start()
        try:
            lowerbound_sweep(eq.extended_majority(3, 2), config, range(seeds), kinds=SWEEP_KINDS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20, peaks


def test_fit_scaling_exponent_smoke():
    g = eq.extended_majority(3, 2)
    configs = [("biased_coin", SCALING_V_BUDGET, T) for T in (256, 512, 1024)]
    rows = lowerbound_sweep(g, configs, range(3), kinds=("clone",))
    slope, means = fit_scaling_exponent(rows, "clone")
    assert len(means) == 3
    assert 0.2 <= slope <= 1.1  # eps-coin ceiling scaling
