"""Analysis oracles: minimax grids, equilibrium checks, exploitability,
population pooling, Monte Carlo estimation."""

import itertools
import time

import numpy as np
import pytest

import equalshare as eq
from equalshare.analysis import (
    SimplexGrid,
    _pair_payoff_tensor,
    _refine_near,
    best_response_set,
    check_equilibrium,
    default_resolution,
    exploitability,
    minimax_identical,
    minimax_independent,
    monte_carlo_utility,
    pooling_check,
)
from equalshare.games import (
    SizeCapExceeded,
    SymmetricGame,
    compositions,
    dense_from_symmetric,
    expected_payoff_mixed,
    game_to_json,
    validate,
)

MV = eq.majority3()
MINORITY = eq.minority3()
SDG30 = eq.sdg(30)


def test_simplex_grid_enumeration():
    grid = SimplexGrid(3, 4)
    pts = grid.points()
    assert pts.shape == (len(grid), 3) == (15, 3)
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert default_resolution(2) == 200 and default_resolution(3) == 60


@pytest.mark.parametrize("A, m", [(2, 200), (3, 60), (4, 8), (4, 15)])
def test_refine_near_equals_the_full_fine_grid_filter(A, m):
    # the whole 10x grid, filtered by the same float test, is the reference
    fine = compositions(10 * m, A) / (10 * m)
    pts = SimplexGrid(A, m).points()
    vertices = pts[np.max(pts, axis=1) == 1.0]
    edges = pts[np.count_nonzero(pts, axis=1) == 2]
    interior = pts[np.all(pts > 0, axis=1)]
    rng = np.random.default_rng(A * 1000 + m)
    for group in (vertices, edges, interior):
        for point in group[rng.permutation(len(group))[:12]]:
            got = _refine_near(point, m)
            ref = fine[np.max(np.abs(fine - point[None, :]), axis=1) <= 1.0 / m + 1e-12]
            assert len(got) > 0 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Minimax quantities.
# ---------------------------------------------------------------------------

def test_minmax_identical_is_zero_on_builtins():
    # a symmetric zero-sum game always concedes an equal share to a
    # best-responding learner when opponents share one strategy
    for game in (MV, MINORITY, eq.extended_majority(3, 3), SDG30):
        value, arg = minimax_identical(game, "minmax")
        assert abs(value) <= 0.01 * game.scale
        assert np.all(arg["meta_strategy"] >= 0)


def test_maxmin_identical_majority():
    value, arg = minimax_identical(MV, "maxmin")
    assert value == pytest.approx(-0.5, abs=0.02)
    # achieved by hedging evenly between the two actions
    assert arg["learner_strategy"][0] == pytest.approx(0.5, abs=0.02)


def test_maxmin_below_minmax_sandwich():
    for game in (MV, MINORITY, eq.extended_majority(3, 3)):
        gap = 2.0 * (game.n - 1) * game.scale / default_resolution(game.A)
        lo, _ = minimax_identical(game, "maxmin")
        hi, _ = minimax_identical(game, "minmax")
        assert lo <= hi + 2 * gap


def test_minimax_independent_majority_and_minority():
    both = minimax_independent(MV)
    assert both["maxmin"][0] == pytest.approx(-0.5, abs=0.02)
    assert both["minmax"][0] == pytest.approx(0.0, abs=0.01)
    both_minority = minimax_independent(MINORITY)
    # opponents splitting across the two actions pin the learner at -1/2
    assert both_minority["minmax"][0] == pytest.approx(-0.5, abs=0.02)


def test_minimax_independent_rejects_large_games():
    with pytest.raises(SizeCapExceeded):
        minimax_independent(SDG30)


def test_minimax_independent_refuses_oversized_grids_before_allocating():
    # extended_majority(3,3) at m=60: 1,891 points, 6.8e9 values (50 GiB)
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        minimax_independent(eq.extended_majority(3, 3))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SizeCapExceeded):
        minimax_independent(MV, SimplexGrid(2, 400))
    # majority3 at the default m=200 needs 201^3 = 8.1 M values and runs
    minimax_independent(eq.extended_majority(3, 2))


def test_payoff_matrix_is_the_only_reader_of_the_payoff_function():
    """The oracles read payoffs through payoff_matrix: on a fresh game they
    make K*A payoff calls between them, one per (action, count vector)."""
    for base in (eq.majority3(), eq.sdg(5), eq.extended_majority(3, 3)):
        calls = 0

        def counting(a, counts, inner=base.payoff):
            nonlocal calls
            calls += 1
            return inner(a, counts)

        game = SymmetricGame(base.name, base.n, base.A, counting, base.scale)
        validate(game)
        if game.n <= 4:
            dense_from_symmetric(game)
        try:
            minimax_independent(game)
        except SizeCapExceeded:
            pass  # sdg(5) has 5 players; extended_majority(3,3) is over the cap
        population = [np.full(game.A, 1.0 / game.A)] * game.n
        pooling_check(game, population, np.eye(game.A)[0])
        assert len(game_to_json(game)["custom"]["payoff_table"]) == calls
        assert calls == game.A * len(game.count_table().counts)


def test_pair_payoff_tensor_equals_the_payoff_loop():
    for game in (MV, MINORITY, eq.extended_majority(3, 3), eq.extended_majority(3, 5)):
        want = np.empty((game.A,) * 3)
        for a, b, c in np.ndindex(*want.shape):
            counts = np.bincount([b, c], minlength=game.A)
            want[a, b, c] = game.payoff(a, tuple(int(v) for v in counts))
        assert _pair_payoff_tensor(game).tobytes() == want.tobytes()


def test_minimax_identical_bad_which():
    with pytest.raises(ValueError):
        minimax_identical(MV, "neither")


# ---------------------------------------------------------------------------
# Best responses.
# ---------------------------------------------------------------------------

def test_best_response_sets():
    assert best_response_set(MV, [0.49, 0.51]) == [1]
    assert best_response_set(MV, [0.5, 0.5]) == [0, 1]
    assert best_response_set(SDG30, [0.399, 0.6, 0.001]) == [1]


# ---------------------------------------------------------------------------
# Equilibrium verification.
# ---------------------------------------------------------------------------

def test_nash_verification_on_majority():
    dense = dense_from_symmetric(MV)
    for profile in ([[1, 0]] * 3, [[0, 1]] * 3, [[0.5, 0.5]] * 3):
        report = check_equilibrium(dense, profile, "ne")
        assert report.verdict and report.epsilon <= 1e-12
    # mixed-but-not-uniform is not an equilibrium
    report = check_equilibrium(dense, [[0.9, 0.1]] * 3, "ne")
    assert not report.verdict


def test_nash_rejects_joint_distribution_input():
    dense = dense_from_symmetric(MV)
    joint = np.full((2, 2, 2), 1 / 8)
    with pytest.raises(ValueError):
        check_equilibrium(dense, joint, "ne")


def test_correlated_two_atom_distribution():
    dense = dense_from_symmetric(MV)
    joint = np.zeros((2, 2, 2))
    joint[0, 0, 0] = joint[1, 1, 1] = 0.5
    assert check_equilibrium(dense, joint, "cce").verdict
    assert check_equilibrium(dense, joint, "ce").verdict
    # playing a fixed action against that correlated play is strictly bad,
    # which is what the coarse inequality encodes
    dev = 0.5 * dense.utilities[0][0, 0, 0] + 0.5 * dense.utilities[0][0, 1, 1]
    assert dev == pytest.approx(-0.5)


def test_ce_epsilon_dominates_cce_epsilon():
    dense = dense_from_symmetric(MV)
    rng = np.random.default_rng(12)
    for _ in range(50):
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        ce = check_equilibrium(dense, joint, "ce")
        cce = check_equilibrium(dense, joint, "cce")
        assert cce.epsilon <= ce.epsilon + 1e-12


def test_product_joint_ce_cce_match_ne():
    dense = dense_from_symmetric(MV)
    rng = np.random.default_rng(21)
    for _ in range(20):
        strategies = [rng.dirichlet(np.ones(2)) for _ in range(3)]
        joint = np.einsum("a,b,c->abc", *strategies)
        ne = check_equilibrium(dense, strategies, "ne")
        cce = check_equilibrium(dense, joint, "cce")
        assert cce.epsilon == pytest.approx(ne.epsilon, abs=1e-12)


def test_ce_skips_zero_probability_recommendations():
    dense = dense_from_symmetric(MV)
    joint = np.zeros((2, 2, 2))
    joint[1, 1, 1] = 1.0  # action 0 never recommended
    report = check_equilibrium(dense, joint, "ce")
    assert report.verdict


# ---------------------------------------------------------------------------
# Exploitability.
# ---------------------------------------------------------------------------

def test_exploitability_grid_values():
    value, worst = exploitability(MV, [0, 1], method="grid")
    assert value == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(worst, [1.0, 0.0])
    value, _ = exploitability(MV, [0.5, 0.5], method="grid")
    assert value == pytest.approx(-0.5, abs=0.01)
    value, _ = exploitability(SDG30, [0, 1, 0])
    assert value == pytest.approx(-29.0, abs=1e-9)


def test_exploitability_never_positive():
    rng = np.random.default_rng(6)
    for game in (MV, MINORITY, eq.extended_majority(3, 3)):
        for _ in range(10):
            x = rng.dirichlet(np.ones(game.A))
            value, _ = exploitability(game, x, method="grid")
            assert value <= 1e-9 * game.scale


def test_exploitability_exploiter_protocol_on_majority():
    value, worst = exploitability(MV, [0, 1], method="exploiter", runs=8, steps=2500, seed=0)
    assert value == pytest.approx(-1.0, abs=0.03)
    # the trained exploiter is nearly pure on the punishing action
    assert worst[0] >= 0.95


def test_exploiter_value_never_beats_grid():
    value_grid, _ = exploitability(MV, [0.3, 0.7], method="grid")
    value_exp, _ = exploitability(MV, [0.3, 0.7], method="exploiter", runs=4, steps=1500, seed=1)
    assert value_grid <= value_exp + 1e-9


def test_exploiter_value_is_never_positive_on_a_flat_start():
    # on sdg(200) against x = B the uniform exploiter's sampled gains are all
    # -1, so it never moves; the candidate y = x still bounds the value by 0
    value, worst = exploitability(eq.sdg(200), [0, 1, 0], method="exploiter", runs=2, steps=300, seed=0)
    assert value <= 0.0
    assert worst.shape == (3,) and abs(worst.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Population pooling bound.
# ---------------------------------------------------------------------------

def test_pooling_identical_population_has_zero_gap():
    pop = [[0.3, 0.7]] * 5
    report = pooling_check(MV, pop, [0.5, 0.5])
    assert report.lhs <= 1e-12
    assert report.passed


def test_pooling_two_player_game_gap_is_zero():
    # with a single opponent, drawing without replacement averages the
    # population exactly like the pooled mixture does
    def advantage(a, counts):
        other = 0 if counts[0] == 1 else 1
        return float(np.sign(other - a)) if a != other else 0.0

    duel = SymmetricGame("duel", 2, 2, advantage, 1.0)
    assert eq.validate(duel).passed
    report = pooling_check(duel, [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], [1, 0])
    assert report.bound == 0.0
    assert report.lhs <= 1e-12
    assert report.passed


def test_pooling_mixed_population_example():
    # N = 4 split evenly between the two pure strategies: enumerate the 12
    # ordered pairs without replacement by hand as the oracle
    pop = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    z = np.array([1.0, 0.0])
    vals = []
    for i, j in itertools.permutations(range(4), 2):
        counts = np.zeros(2, dtype=int)
        counts[int(pop[i][1])] += 1
        counts[int(pop[j][1])] += 1
        vals.append(MV.payoff(0, tuple(counts)))
    oracle_wo = np.mean(vals)
    pooled = expected_payoff_mixed(MV, z, [0.5, 0.5])
    report = pooling_check(MV, pop, z)
    assert report.lhs == pytest.approx(abs(oracle_wo - pooled), abs=1e-12)
    assert report.bound == pytest.approx(0.5)
    assert report.passed


def test_pooling_requires_enough_strategies():
    with pytest.raises(ValueError):
        pooling_check(MV, [[1, 0]], [1, 0])


def test_pooling_size_cap():
    pop = [[0.5, 0.5]] * 10
    with pytest.raises(SizeCapExceeded):
        pooling_check(MV, pop, [1, 0], max_tuples=10)


# ---------------------------------------------------------------------------
# Monte Carlo utilities.
# ---------------------------------------------------------------------------

def test_monte_carlo_matches_exact_value():
    mean, se = monte_carlo_utility(MV, [0, 1], [0.49, 0.51], 300_000, rng=7)
    assert abs(mean - 0.0098) <= 3 * se
    mean, se = monte_carlo_utility(SDG30, [0, 0, 1], [0.399, 0.6, 0.001], 200_000, rng=7)
    exact = expected_payoff_mixed(SDG30, [0, 0, 1], [0.399, 0.6, 0.001])
    assert abs(mean - exact) <= 3 * se
    mean, se = monte_carlo_utility(SDG30, [0, 1, 0], [0.399, 0.6, 0.001], 200_000, rng=8)
    assert abs(mean - 1.0) <= 3 * se + 5e-4  # exact value is 0.99997


def test_monte_carlo_unbiased_across_seeds():
    exact = expected_payoff_mixed(MV, [0.3, 0.7], [0.49, 0.51])
    means, ses = [], []
    for seed in range(30):
        m, s = monte_carlo_utility(MV, [0.3, 0.7], [0.49, 0.51], 4000, rng=seed)
        means.append(m)
        ses.append(s)
    pooled_se = np.sqrt(np.mean(np.square(ses)) / len(means))
    assert abs(np.mean(means) - exact) <= 3 * pooled_se


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_utility(MV, [0, 1], [0.49, 0.51], 0)
