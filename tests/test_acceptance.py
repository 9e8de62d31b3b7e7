"""Acceptance gate: end-to-end checks of the headline numbers.

Each criterion is one test (or a few clause tests) named test_c<N>_*; the
conftest summary prints one PASS/FAIL line per criterion.  Expected values
are frozen from exact enumeration, hand derivations, or the pre-build
pilot measurements quoted in the docstrings.

Two clauses are expected to fail and are left failing on purpose; their
docstrings carry the measured values and the argument for why the stated
targets are out of reach for the implemented update rules.  Everything
else must be green.
"""

import math

import numpy as np
import pytest

import equalshare as eq
from equalshare.analysis import (
    check_equilibrium,
    exploitability,
    minimax_identical,
    minimax_independent,
    monte_carlo_utility,
    pooling_check,
)
from equalshare.arena import FixedSchedule, compute_metrics, run_matches
from equalshare.games import expected_payoff_mixed, validate
from equalshare.learners import LearnerSpec, self_play_roster
from equalshare.reproduce import (
    batch_hedge_vs_fixed,
    batch_self_play,
    classify,
    fit_scaling_exponent,
    lowerbound_sweep,
    mv_table,
)

from test_analysis import enumerated_pooling_gap  # the pooling recursion's reference
from test_games import dense_utilities, validate_dense  # validate's dense reference

MV = eq.majority3()
Y_MV = np.array([0.49, 0.51])
SDG = eq.sdg(30)
Y_SDG = np.array([0.399, 0.6, 0.001])
EM2 = eq.extended_majority(3, 2)
# the self-play rows of c2 and c3: (mode, lam)
SP_VARIANTS = [("scratch", 0.0), ("bc_init", 0.0), ("regularized", 1e-5),
               ("regularized", 1e-4), ("regularized", 1e-3), ("regularized", 1e-2)]


# ---------------------------------------------------------------------------
# Criterion 1: MV utility (runtime: seconds).
# ---------------------------------------------------------------------------

def test_c1_mv_exact_and_monte_carlo_utilities():
    u = eq.payoff_vector(MV, Y_MV)
    np.testing.assert_allclose(u, [-0.0102, 0.0098], atol=1e-12)

    # the hedge learner's converged strategy, evaluated by Monte Carlo
    rng = np.random.default_rng(np.random.SeedSequence(101))
    final = batch_hedge_vs_fixed(MV, Y_MV, 200_000, 1, 1.0, rng)[0]
    assert final[1] >= 0.99
    mean, se = monte_carlo_utility(MV, final, Y_MV, 300_000, rng=11)
    assert abs(mean - 0.0098) <= 3 * se

    # the worse of the two self-play limits sits at the exact -0.0102
    rng = np.random.default_rng(np.random.SeedSequence(102))
    finals = batch_self_play(MV, 10_000, 30, 1.0, rng)
    labels = set(classify(finals).tolist())
    assert labels == {0, 1}  # both pure limits observed
    mean, se = monte_carlo_utility(MV, [1.0, 0.0], Y_MV, 300_000, rng=12)
    assert abs(mean - (-0.0102)) <= 3 * se


# ---------------------------------------------------------------------------
# Criterion 2: MV convergence distribution (runtime < 2 min).
# ---------------------------------------------------------------------------

def test_c2_mv_convergence_distribution():
    hedge_rng = np.random.default_rng(np.random.SeedSequence(201))
    hedge_finals = batch_hedge_vs_fixed(MV, Y_MV, 200_000, 100, 1.0, hedge_rng)
    hedge_labels = classify(hedge_finals)
    assert np.all(hedge_labels == 1), "hedge must reach the good pure strategy in 100/100 runs"

    # the six self-play rows train in one roster call, each on its own seed
    rows = [(mode, lam, np.random.default_rng(np.random.SeedSequence(210 + i))) for i, (mode, lam) in enumerate(SP_VARIANTS)]
    for (mode, lam), finals in zip(SP_VARIANTS, self_play_roster(MV, 20_000, 100, 1.0, rows, Y_MV)):
        labels = classify(finals)
        share_bad = float(np.mean(labels == 0))
        assert np.all(labels >= 0), f"{mode}({lam}) left unconverged runs"
        assert 0.30 <= share_bad <= 0.70, f"{mode}({lam}) split {share_bad}"


# ---------------------------------------------------------------------------
# Criterion 3: SDG table (runtime < 5 min).
# ---------------------------------------------------------------------------

def test_c3_sdg_convergence_utilities_exploitability():
    # exact evaluation is a 465-term multinomial sum
    assert SDG.count_table().counts.shape[0] == 465
    u = eq.payoff_vector(SDG, Y_SDG)
    assert 0.95 <= u[1] <= 1.0
    assert abs(u[2] - (-12.67)) <= 0.05

    rng = np.random.default_rng(np.random.SeedSequence(301))
    hedge_finals = batch_hedge_vs_fixed(SDG, Y_SDG, 20_000, 100, 2.0, rng)
    assert np.all(classify(hedge_finals) == 1), "hedge must converge to the middle action"

    rows = [(mode, lam, np.random.default_rng(np.random.SeedSequence(310 + i))) for i, (mode, lam) in enumerate(SP_VARIANTS)]
    for (mode, lam), finals in zip(SP_VARIANTS, self_play_roster(SDG, 20_000, 100, 2.0, rows, Y_SDG)):
        assert np.all(classify(finals) == 2), f"{mode}({lam}) must converge to the last action"

    # exploitability of both limits is exactly -29 at a pure punishment:
    # pure C floors the middle action, pure A floors the all-C strategy
    val_b, worst_b = exploitability(SDG, [0, 1, 0], method="grid")
    assert val_b == pytest.approx(-29.0, abs=1e-9)
    np.testing.assert_allclose(worst_b, [0.0, 0.0, 1.0])
    val_c, worst_c = exploitability(SDG, [0, 0, 1], method="grid")
    assert val_c == pytest.approx(-29.0, abs=1e-9)
    np.testing.assert_allclose(worst_c, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Criterion 4: minimax quantities (runtime: seconds).
# ---------------------------------------------------------------------------

def test_c4_minimax_values():
    assert minimax_identical(MV, "minmax")[0] == pytest.approx(0.0, abs=0.01)
    assert minimax_identical(MV, "maxmin")[0] == pytest.approx(-0.5, abs=0.02)
    independent = minimax_independent(MV)
    assert independent["maxmin"][0] == pytest.approx(-0.5, abs=0.02)
    minority_independent = minimax_independent(eq.minority3())
    assert minority_independent["minmax"][0] == pytest.approx(-0.5, abs=0.02)


# ---------------------------------------------------------------------------
# Criterion 5: stationary-opponent rate (runtime < 1 min).
# ---------------------------------------------------------------------------

U_STAR = 0.0098


def _c5_gaps():
    gaps = {}
    for T in (1_000, 10_000):
        matches = [(FixedSchedule((0.49, 0.51)), seed) for seed in range(500_000, 500_020)]
        runs = run_matches(MV, [LearnerSpec("hedge", eta=1.0)], matches, T)
        gaps[T] = U_STAR - float(np.mean([compute_metrics(tr).u_avg for (tr,) in runs]))
    return gaps


@pytest.fixture(scope="module")
def c5_gaps():
    return _c5_gaps()


def test_c5_rate_bound(c5_gaps):
    for T, gap in c5_gaps.items():
        assert gap <= 5.0 * math.sqrt(math.log(2) / T)


def test_c5_decade_ratio(c5_gaps):
    """EXPECTED FAILURE: the decade ratio for the sampled-feedback hedge.

    The per-round shortfall is 0.02 * (mass still on the bad action).  With
    the decaying rate eta_t = sqrt(log2/t) the log-odds after t rounds are
    roughly N(0.033*sqrt(t), 0.35*ln t): the crossover to purity happens
    around t ~ 8000, in the middle of the tested decade, and the noise term
    keeps trailing mass alive at T = 1e4.  Measured over disjoint 20-seed
    sets the ratio gap(1e3)/gap(1e4) lands at 1.75-2.29 (five pilot
    replications), never reaching 2.5.  The sqrt(10) = 3.16 prediction
    applies to the regret envelope, not to this transient; a noise-free
    (expected-feedback) idealization of the same recursion gives 2.9, which
    is inside the asserted band, but that is not the algorithm under test.
    """
    ratio = c5_gaps[1_000] / c5_gaps[10_000]
    assert 2.5 <= ratio <= 4.0


# ---------------------------------------------------------------------------
# Criterion 6: cloning bound, and the fast-switching floor (runtime < 2 min).
# ---------------------------------------------------------------------------

def test_c6_cloning_tracks_slow_budgets():
    configs = [("pure_swap", 32.0, 1_024), ("pure_swap", 128.0, 4_096)]
    for row in lowerbound_sweep(EM2, configs, range(600_000, 600_050), kinds=("clone",)):
        sigma = row.u_avg_std / math.sqrt(row.seeds)
        assert row.u_avg_mean >= -(row.v_budget + 1) / row.T - 3 * sigma


def test_c6_no_learner_survives_quarter_budget():
    # V = T/4 means batches of 4 rounds; the floor constant 0.05 comes from
    # the pilot (measured: hedge -0.49, adaptive mixture -0.52, clone -0.12)
    T = 1_024
    v_budget = T / 4.0
    for row in lowerbound_sweep(EM2, [("pure_swap", v_budget, T)], range(610_000, 610_020),
                                kinds=("hedge", "saol", "clone")):
        assert row.u_avg_mean <= -0.05 * v_budget / T, row.kind


# ---------------------------------------------------------------------------
# Criterion 7: scaling on the +/-eps coin schedule (runtime < 10 min).
# ---------------------------------------------------------------------------

C7_HORIZONS = (1_024, 2_048, 4_096, 8_192, 16_384)
C7_V = 8.0
C7_SEEDS = 20


@pytest.fixture(scope="module")
def c7_sweep():
    # every kind plays the same matches, in one call per horizon
    kinds = ("saol", "hedge", "clone")
    rows = lowerbound_sweep(EM2, [("biased_coin", C7_V, T) for T in C7_HORIZONS], range(700_000, 700_000 + C7_SEEDS),
                            kinds=kinds)
    out = {}
    for kind in kinds:
        slope, means = fit_scaling_exponent(rows, kind)
        out[kind] = {"dreg": [m for _, m in means], "uavg": [r.u_avg_mean for r in rows if r.kind == kind], "slope": slope}
    return out


def test_c7_saol_dynamic_regret_scaling(c7_sweep):
    saol = c7_sweep["saol"]
    per_round = np.array(saol["dreg"]) / np.array(C7_HORIZONS)
    assert np.all(np.diff(per_round) < 0), "D-Reg/T must decrease toward zero"
    assert 0.55 <= saol["slope"] <= 0.80


def test_c7_hedge_dynamic_regret_slope(c7_sweep):
    """EXPECTED FAILURE: the decaying-rate hedge cannot scale worse than
    ~T^(2/3) on this schedule family.

    The schedule's coin makes the two binary actions worth +/-eps - 2eps^2
    with eps = T^(-1/3)/4, and the coin is independent of everything the
    learner saw in earlier batches.  Any strategy process that ignores the
    current batch therefore earns exactly -2eps^2 per round, capping its
    dynamic regret at eps*T = T^(2/3)/4, and within-batch adaptation only
    lowers that.  Measured means (20 seeds) track the cap: D-Reg ~ 25, 40,
    62, 100, 159 against eps*T = 25.6, 40.5, 64.0, 101.4, 161.4, fitted
    slope 0.66.  A 0.9 exponent is achievable on the pure-swap schedule
    family, where the optimum moves by a full payoff unit per batch (see
    test_separation.py), but not on this one.
    """
    assert c7_sweep["hedge"]["slope"] >= 0.9


def test_c7_cloning_floor(c7_sweep):
    for T, uavg in zip(C7_HORIZONS, c7_sweep["clone"]["uavg"]):
        assert uavg >= -2.0 * (C7_V + 1.0) / T


# ---------------------------------------------------------------------------
# Criterion 8: pooling bound property suite (runtime < 1 min).
# ---------------------------------------------------------------------------

def c8_pooling_cases():
    """The 1,000 (game, population, z) cases of criterion 8."""
    games = [MV, eq.minority3(), eq.extended_majority(3, 2), eq.extended_majority(3, 3), eq.sdg(3)]
    rng = np.random.default_rng(808)
    for game in games:
        for _ in range(200):
            n_pop = int(rng.integers(2, 8))
            population = rng.dirichlet(np.ones(game.A), size=n_pop)
            z = rng.dirichlet(np.ones(game.A))
            yield game, population, z


def test_c8_pooling_property_suite(record_property):
    reports = [(game, pooling_check(game, population, z)) for game, population, z in c8_pooling_cases()]
    record_property("max gap/bound", max(report.lhs / report.bound for _, report in reports))
    for game, report in reports:
        assert report.lhs <= report.bound + 1e-9 * game.scale, (game.name, report)


def test_pooling_recursion_equals_the_enumeration_on_the_c8_cases():
    for game, population, z in c8_pooling_cases():
        want = enumerated_pooling_gap(game, population, z)
        assert abs(pooling_check(game, population, z).lhs - want) <= 1e-12 * game.scale, game.name


def test_pooling_bound_at_large_n():
    """The lemma bites at large n, which criterion 8's 3-player games never
    reach: n = 5, 10 and 30 with up to 200 members, mixed or pure.  Where
    the ordered-tuple enumeration fits (at most 200,000 tuple-action
    pairs), the recursion equals it."""
    cases = [
        (eq.sdg(5), (4, 8, 60)),
        (eq.extended_majority(5, 2), (4, 12, 200)),
        (eq.sdg(10), (9, 40, 200)),
        (eq.extended_majority(10, 3), (50,)),
        (eq.sdg(30), (29, 200)),
        (eq.extended_majority(30, 2), (200,)),
    ]
    rng = np.random.default_rng(1616)
    compared = 0
    for game, sizes in cases:
        for size in sizes:
            pure = np.eye(game.A)[rng.integers(game.A, size=size)]
            for population in (rng.dirichlet(np.ones(game.A), size=size), pure):
                z = rng.dirichlet(np.ones(game.A))
                report = pooling_check(game, population, z)
                assert report.lhs <= report.bound + 1e-9 * game.scale, (game.name, size, report)
                if math.perm(size, game.n - 1) * game.A ** (game.n - 1) <= 200_000:
                    want = enumerated_pooling_gap(game, population, z)
                    assert abs(report.lhs - want) <= 1e-12 * game.scale, (game.name, size)
                    compared += 1
    assert compared == 8


# ---------------------------------------------------------------------------
# Criterion 9: structural invariants (runtime: seconds).
# ---------------------------------------------------------------------------

def test_c9_structural_invariants():
    games = [MV, eq.minority3(), SDG, eq.extended_majority(3, 3)]
    for game in games:
        assert validate(game).passed, game.name
        if game.n <= 4:  # the dense reference runs over A^n joints and n! seat orders
            assert validate_dense(dense_utilities(game)).passed, game.name

    rng = np.random.default_rng(909)
    for game in games:
        ys = rng.dirichlet(np.ones(game.A), size=1_000)
        vals = np.einsum("ya,ya->y", ys, eq.payoff_vectors_batch(game, ys))
        assert np.max(np.abs(vals)) <= 1e-9 * game.scale, game.name

    for profile in ([[1, 0]] * 3, [[0, 1]] * 3, [[0.5, 0.5]] * 3):
        report = check_equilibrium(MV, profile, "ne")
        assert report.epsilon <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical reproduction (runtime: seconds).
# ---------------------------------------------------------------------------

def test_c10_reproduce_determinism(tmp_path):
    from equalshare.cli import EXIT_OK, main

    kwargs = dict(
        runs=8, hedge_horizon=4_000, sp_horizon=1_500,
        eval_games=10_000, exploit_runs=3, exploit_steps=1_000,
    )
    r1 = mv_table(seed=77, **kwargs)
    r2 = mv_table(seed=77, **kwargs)
    assert r1.convergence_csv().encode() == r2.convergence_csv().encode()

    for sub in ("x", "y"):
        rc = main([
            "--out", str(tmp_path / sub), "--seed", "9",
            "reproduce", "lowerbound", "--runs", "3", "--horizon", "256",
        ])
        assert rc == EXIT_OK
    a = (tmp_path / "x" / "lowerbound.csv").read_bytes()
    b = (tmp_path / "y" / "lowerbound.csv").read_bytes()
    assert a == b
