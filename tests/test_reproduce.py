"""Batch trainers and table experiments.

The batch trainers advance many runs in lockstep; these tests pin them to
the functional single-run semantics by replaying the same generator draws.
"""

import numpy as np
import pytest

import equalshare as eq
from equalshare.games import expected_payoff_mixed, realized_payoff_vector
from equalshare.learners import RateSchedule, batch_exploiter, batch_hedge_vs_fixed, batch_self_play
from equalshare.reproduce import (
    classify,
    fit_scaling_exponent,
    lowerbound_sweep,
    mv_table,
    sdg_table,
)

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
        lw += sched.rate(t) * MV.payoff_matrix()[:, k] / MV.scale
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
        cum += sched.rate(t) * realized_payoff_vector(MV, counts)
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
        cum += sched.rate(t) * realized_payoff_vector(MV, counts)
        cum_eta += sched.rate(t)
    np.testing.assert_allclose(finals[0], readout(), rtol=1e-10, atol=1e-12)


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
    gains = np.zeros(3)
    for a in range(3):
        total = 0.0
        for b in range(3):
            if counts[b] == 0:
                continue
            swapped = counts.copy()
            swapped[b] -= 1
            swapped[a] += 1
            total += counts[b] * g.payoff(a1, tuple(int(v) for v in swapped))
        gains[a] = -total / 4
    sched = RateSchedule(2.0, "sqrt_decay", 3)
    lw = sched.rate(1) * gains
    manual = np.exp(lw - lw.max())
    manual /= manual.sum()
    np.testing.assert_allclose(final[0], manual, rtol=1e-10, atol=1e-12)


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


def test_lowerbound_sweep_rows():
    g = eq.extended_majority(3, 2)
    rows = lowerbound_sweep(g, [("pure_swap", 16.0, 256)], kinds=("clone",), seeds=5)
    assert len(rows) == 1
    row = rows[0]
    assert row.kind == "clone" and row.T == 256
    assert row.u_avg_mean >= -(16.0 + 1) / 256 - 3 * row.u_avg_std


def test_fit_scaling_exponent_smoke():
    g = eq.extended_majority(3, 2)
    slope, means = fit_scaling_exponent(g, "clone", horizons=(256, 512, 1024), seeds=3)
    assert len(means) == 3
    assert 0.2 <= slope <= 1.1  # eps-coin ceiling scaling
