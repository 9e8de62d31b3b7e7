"""Game-core: exact payoff evaluation, validators, built-in games."""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import equalshare as eq
from equalshare import games
from equalshare.analysis import check_equilibrium
from equalshare.games import (
    CountTable,
    DimensionError,
    InvalidStrategyError,
    SizeCapExceeded,
    SymmetricGame,
    as_strategy,
    compositions,
    game_from_json,
    game_to_json,
    load_game,
    num_compositions,
    payoff_vectors_batch,
    realized_payoff_vector,
    realized_payoff_vectors,
    validate,
)
from equalshare.sampling import counts_from_actions

ALL_BUILTINS = [
    eq.majority3(),
    eq.minority3(),
    eq.sdg(30),
    eq.extended_majority(3, 2),
    eq.extended_majority(3, 3),
    eq.extended_majority(5, 4),
]


# ---------------------------------------------------------------------------
# Strategies and count vectors.
# ---------------------------------------------------------------------------

def test_strategy_validation():
    x = as_strategy([0.25, 0.75])
    assert x.dtype == float
    with pytest.raises(InvalidStrategyError):
        as_strategy([0.5, 0.6])
    with pytest.raises(InvalidStrategyError):
        as_strategy([-0.1, 1.1])
    with pytest.raises(DimensionError):
        as_strategy([0.5, 0.5], num_actions=3)
    # sum within the 1e-9 band is accepted
    as_strategy([0.5, 0.5 - 5e-10])


def test_compositions_count_and_order():
    c = compositions(2, 2)
    assert c.tolist() == [[0, 2], [1, 1], [2, 0]]
    assert len(compositions(29, 3)) == num_compositions(29, 3) == 465


def recursive_compositions(total, parts):
    """The recursive enumeration `compositions` replaced, kept as the reference."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        rest = recursive_compositions(total - first, parts - 1)
        block = np.empty((rest.shape[0], parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.concatenate(rows, axis=0)


@pytest.mark.parametrize("parts", range(1, 6))
def test_compositions_equal_the_recursive_enumeration(parts):
    for total in range(31):
        got, ref = compositions(total, parts), recursive_compositions(total, parts)
        assert got.dtype == ref.dtype == np.int64
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_compositions_large_total_equals_the_recursive_enumeration():
    got, ref = compositions(600, 3), recursive_compositions(600, 3)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_bounded_compositions_are_the_filtered_unbounded_ones():
    rng = np.random.default_rng(0)
    for _ in range(300):
        parts = int(rng.integers(1, 6))
        total = int(rng.integers(0, 16))
        lo = rng.integers(-2, total + 2, parts)
        hi = rng.integers(-2, total + 3, parts)
        full = compositions(total, parts)
        ref = full[np.all((full >= lo) & (full <= hi), axis=1)]
        got = compositions(total, parts, lo, hi)
        assert got.dtype == np.int64
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    # an empty box still has `parts` columns
    assert compositions(5, 3, [3, 3, 0], [5, 5, 5]).shape == (0, 3)
    with pytest.raises(ValueError):
        compositions(-1, 3)
    with pytest.raises(ValueError):
        compositions(3, 0)


def test_count_table_roundtrip():
    table = CountTable.build(29, 3)
    for k, row in enumerate(table.counts[::37]):
        assert table.index(tuple(int(v) for v in row)) == 37 * k
    for bad in ((29, 1, 0), (28, 0, 0), (-1, 30, 0), (30, -1, 0)):  # wrong total, negative count
        with pytest.raises(ValueError):
            table.index(bad)
    with pytest.raises(DimensionError):
        table.index((29, 0))
    w = table.weights(np.array([0.399, 0.6, 0.001]))
    assert w.shape == (465,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("total, parts", [(0, 2), (1, 2), (7, 2), (0, 3), (1, 3), (6, 3), (1, 4), (4, 5)])
def test_count_table_rows_and_switch_rows(total, parts):
    table = CountTable.build(total, parts)
    K = len(table.counts)
    np.testing.assert_array_equal(table.rows(table.counts), np.arange(K))
    # leading axes pass through
    np.testing.assert_array_equal(table.rows(table.counts[::-1].reshape(1, K, parts))[0], np.arange(K)[::-1])


def _random_game(n, A, seed):
    """A custom game with i.i.d. normal payoffs: not zero-sum, no symmetry
    in the table, so every lookup has to land on its own entry.  The payoff
    looks each count row up by its tuple."""
    rng = np.random.default_rng(seed)
    table = {(a, tuple(int(v) for v in c)): float(rng.normal())
             for a in range(A) for c in compositions(n - 1, A)}

    def payoff(a, counts):
        values = [table[(a, tuple(row))] for row in counts.reshape(-1, A).tolist()]
        return np.array(values).reshape(counts.shape[:-1])

    return SymmetricGame("random", n, A, payoff, 3.0)


@pytest.mark.parametrize("n, A", [(2, 2), (3, 2), (3, 3), (4, 3), (3, 5), (5, 2)])
def test_payoff_matrix_readers_equal_loops_over_the_payoff_function(n, A):
    game = _random_game(n, A, seed=n * 10 + A)
    # validate: the per-profile zero-sum sum, in the order of the actions
    worst, worst_profile = 0.0, None
    for c in compositions(n, A):
        total = 0.0
        for a in range(A):
            if c[a] > 0:
                others = c.copy()
                others[a] -= 1
                total += c[a] * realized_payoff_vector(game, others)[a]
        if abs(total) > worst:
            worst, worst_profile = abs(total), tuple(int(v) for v in c)
    report = validate(game)
    assert (report.worst_violation, report.worst_profile) == (worst, worst_profile)
    assert not report.passed
    # joint_rows: the first player's payoff at each joint action, its own action first
    joint = game.payoff_matrix()[:, game.count_table().joint_rows()]
    assert joint.tobytes() == dense_utilities(game)[0].reshape(A, -1).tobytes()
    # game_to_json: the payoff table keyed by action and counts
    want = {f"{a}|{','.join(map(str, c))}": realized_payoff_vector(game, c)[a]
            for a in range(A) for c in compositions(n - 1, A)}
    assert game_to_json(game)["custom"]["payoff_table"] == want


def dense_utilities(game) -> np.ndarray:
    """U[i][joint]: each player's payoff at each joint action, one
    game.payoff call on one count row per entry; shape (n, A, ..., A).  The dense reference
    of the count-form oracles."""
    n, A = game.n, game.A
    util = np.empty((n,) + (A,) * n)
    for joint in np.ndindex(*(A,) * n):
        for i in range(n):
            others = np.bincount(np.delete(joint, i), minlength=A)
            util[(i,) + joint] = game.payoff(joint[i], others)
    return util


def _payoff_matrix_per_entry(game):
    """payoff_matrix as one payoff call on one count row per entry: the
    reference, which no other row of the call can affect."""
    counts = game.count_table().counts
    mat = np.empty((game.A, counts.shape[0]))
    for a in range(game.A):
        for k, row in enumerate(counts):
            mat[a, k] = game.payoff(a, row)
    return mat


def _log_coeffs_per_entry(total, A):
    """CountTable's log multinomial coefficients with lgamma per entry: the reference."""
    counts = compositions(total, A)
    return math.lgamma(total + 1) - np.sum(np.vectorize(math.lgamma)(counts + 1.0), axis=1)


TABULATED_GAMES = [
    *(eq.sdg(n) for n in (2, 3, 5, 6, 10, 29, 30, 31, 100, 200)),
    eq.majority3(),
    eq.minority3(),
    *(eq.extended_majority(n, A) for n in (3, 4, 6, 9) for A in (2, 3, 4, 6)),
    game_from_json(game_to_json(_random_game(4, 3, seed=1))),
]


@pytest.mark.parametrize("game", TABULATED_GAMES, ids=lambda g: g.name)
def test_tabulated_payoffs_and_coefficients_equal_per_entry_evaluation(game):
    assert game.payoff_matrix().tobytes() == _payoff_matrix_per_entry(game).tobytes()
    assert game.count_table().log_coeffs.tobytes() == _log_coeffs_per_entry(game.n - 1, game.A).tobytes()


# The built-in payoffs in their scalar form, one count tuple per call, with
# the operation order the array forms keep: their references.

def _majority_scalar(a, counts):
    allies = counts[a] + 1
    if allies == 3:
        return 0.0
    return 0.5 if allies == 2 else -1.0


def _minority_scalar(a, counts):
    allies = counts[a] + 1
    if allies == 3:
        return 0.0
    return -0.5 if allies == 2 else 1.0


def _sdg_scalar(n):
    def pay(a, counts):
        full = [counts[0], counts[1], counts[2]]
        full[a] += 1
        order = (1, 0, 2) if 5 * full[0] > n else (2, 1, 0)  # B > A > C, else C > B > A
        ni, nj, nk = full[order[0]], full[order[1]], full[order[2]]
        if a == order[0]:
            return 1.0 if nj + nk > 0 else 0.0
        if a == order[1]:
            r = 1.0 if nk > 0 else 0.0
            if nj + nk > 0:
                r -= ni / (nj + nk)
            return r
        r = 0.0
        if nj + nk > 0:
            r -= ni / (nj + nk)
        if nk > 0:
            r -= nj / nk
        return r

    return pay


def _extended_majority_scalar(n):
    scale = 1.0 / ((n - 1) * (n - 2))

    def pay(a, counts):
        total = 0.0
        for b, cb in enumerate(counts):
            if cb == 0:
                continue
            for c, cc in enumerate(counts):
                if cc == 0:
                    continue
                mult = cb * (cc - 1) if b == c else cb * cc
                if mult:
                    total += mult * games._majority_symbol_payoff(a, b, c)
        return total * scale

    return pay


SCALAR_REFERENCES = [
    (eq.majority3(), _majority_scalar),
    (eq.minority3(), _minority_scalar),
    # every n up to 40 puts the 5 * count > n flip at each residue of n mod 5
    *((eq.sdg(n), _sdg_scalar(n)) for n in (*range(2, 41), 200)),
    *((eq.extended_majority(n, A), _extended_majority_scalar(n))
      for n, A in ((3, 2), (3, 3), (5, 2), (6, 4), (3, 7), (10, 5))),
]


@pytest.mark.parametrize("game, reference", SCALAR_REFERENCES, ids=[g.name for g, _ in SCALAR_REFERENCES])
def test_builtin_payoff_matrix_is_byte_equal_to_its_scalar_reference(game, reference):
    rows = game.count_table().counts.tolist()
    want = np.array([[reference(a, tuple(row)) for row in rows] for a in range(game.A)])
    assert game.payoff_matrix().tobytes() == want.tobytes()


def test_payoff_matrix_refuses_a_payoff_without_one_value_per_count_row():
    # a payoff written for one count vector, returning a scalar, would broadcast
    for payoff in (lambda a, counts: 0.0, lambda a, counts: np.zeros(2)):
        with pytest.raises(DimensionError):
            SymmetricGame("scalar", 3, 2, payoff, 1.0).payoff_matrix()


def test_count_table_index_is_keyed_by_all_but_the_last_count():
    # (total+1)^(A-1) entries: sdg(200) needs 40,000, extended_majority(30,6) 30^5
    assert CountTable.build(199, 3)._index.shape == (200**2,)
    assert CountTable.build(5, 4)._index.shape == (6**3,)


def test_count_table_refuses_an_oversized_index_before_building_it():
    # extended_majority(20, 8): 20^7 = 1.28e9 index entries
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        CountTable.build(19, 8)
    with pytest.raises(SizeCapExceeded):
        CountTable.build(2, 10**7)  # 3^(10^7 - 1) entries, a number never formed
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SizeCapExceeded):
        eq.extended_majority(20, 8).payoff_matrix()


def test_multinomial_weights_handle_zero_probabilities_exactly():
    table = CountTable.build(29, 3)
    w = table.weights(np.array([0.0, 0.0, 1.0]))
    assert w[table.index((0, 0, 29))] == 1.0
    assert w.sum() == 1.0
    assert np.count_nonzero(w) == 1


# ---------------------------------------------------------------------------
# Exact expectations on the majority game.
# ---------------------------------------------------------------------------

def test_payoff_vector_majority_hand_enumeration():
    # Opponent pairs (0,0), (0,1)/(1,0), (1,1) under y = [0.49, 0.51].
    g = eq.majority3()
    p00, pmix, p11 = 0.49**2, 2 * 0.49 * 0.51, 0.51**2
    exp_a1 = p00 * (-1.0) + pmix * 0.5 + p11 * 0.0
    exp_a0 = p00 * 0.0 + pmix * 0.5 + p11 * (-1.0)
    assert eq.payoff_vector(g, [0.49, 0.51])[1] == pytest.approx(exp_a1, abs=1e-15)
    assert eq.payoff_vector(g, [0.49, 0.51])[0] == pytest.approx(exp_a0, abs=1e-15)
    assert exp_a1 == pytest.approx(0.0098, abs=1e-12)
    assert exp_a0 == pytest.approx(-0.0102, abs=1e-12)


def test_expected_payoff_point_mass_is_unanimity_payoff():
    g = eq.majority3()
    assert eq.payoff_vector(g, [1.0, 0.0])[0] == 0.0
    assert np.allclose(eq.payoff_vector(g, [1.0, 0.0]), [0.0, -1.0])


def test_payoff_vector_examples():
    g = eq.majority3()
    assert np.allclose(eq.payoff_vector(g, [0.49, 0.51]), [-0.0102, 0.0098])
    assert np.allclose(eq.payoff_vector(eq.minority3(), [0.5, 0.5]), [0.0, 0.0], atol=1e-15)


def test_expected_payoff_mixed():
    g = eq.majority3()
    assert eq.expected_payoff_mixed(g, [0, 1], [0.49, 0.51]) == pytest.approx(0.0098)
    assert eq.expected_payoff_mixed(eq.minority3(), [1, 0], [0, 1]) == 1.0
    with pytest.raises(DimensionError):
        eq.expected_payoff_mixed(g, [1, 0, 0], [0.5, 0.5])


@pytest.mark.parametrize("game", ALL_BUILTINS, ids=lambda g: g.name)
def test_identical_players_earn_zero(game):
    # Every player using the same strategy splits a zero total evenly.
    rng = np.random.default_rng(5)
    for _ in range(50):
        y = rng.dirichlet(np.ones(game.A))
        assert abs(eq.expected_payoff_mixed(game, y, y)) <= 1e-9 * game.scale


@pytest.mark.parametrize(
    "game,a,y",
    [
        (eq.majority3(), 1, [0.49, 0.51]),
        (eq.minority3(), 0, [0.2, 0.8]),
        (eq.sdg(30), 2, [0.399, 0.6, 0.001]),
        (eq.extended_majority(3, 3), 2, [0.4, 0.5, 0.1]),
    ],
    ids=["mv", "minority", "sdg", "extmaj"],
)
def test_monte_carlo_agreement(game, a, y):
    # Independent sampling oracle for the exact multinomial expectation.
    rng = np.random.default_rng(11)
    samples = rng.multinomial(game.n - 1, y, size=100_000)
    vals = game.payoff(a, samples)
    exact = eq.payoff_vector(game, y)[a]
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * max(se, 1e-12)


def test_payoff_vector_permutation_consistency():
    # Relabeling actions commutes with evaluation.
    rng = np.random.default_rng(3)
    for game in (eq.majority3(), eq.sdg(30)):
        perm = rng.permutation(game.A)

        def relabeled_payoff(a, counts, _g=game, _p=perm):
            old_counts = np.empty_like(counts)
            old_counts[..., _p] = counts
            return _g.payoff(int(_p[a]), old_counts)

        relabeled = SymmetricGame("relabel", game.n, game.A, relabeled_payoff, game.scale)
        y_old = rng.dirichlet(np.ones(game.A))
        y_new = y_old[perm]
        np.testing.assert_allclose(
            eq.payoff_vector(relabeled, y_new),
            eq.payoff_vector(game, y_old)[perm],
            atol=1e-12 * game.scale,
        )


def test_realized_payoff_vector_lookup():
    g = eq.sdg(30)
    counts = (0, 0, 29)
    vec = realized_payoff_vector(g, counts)
    assert vec[1] == -29.0
    assert vec[2] == 0.0


def test_counts_from_actions_rows_and_realized_lookups():
    rng = np.random.default_rng(3)
    for game in (eq.majority3(), eq.sdg(5), eq.extended_majority(4, 3)):
        actions = rng.integers(0, game.A, size=(2, 25, game.n - 1))
        counts = counts_from_actions(actions, game.A)
        assert counts.shape == (2, 25, game.A)
        for idx in np.ndindex(2, 25):
            np.testing.assert_array_equal(counts[idx], np.bincount(actions[idx], minlength=game.A))
        # a single row of actions gives one count vector
        np.testing.assert_array_equal(counts_from_actions(actions[1, 3], game.A), counts[1, 3])
        flat = actions.reshape(-1, game.n - 1)
        want = np.stack([realized_payoff_vector(game, counts_from_actions(row, game.A)) for row in flat])
        assert realized_payoff_vectors(game, flat).tobytes() == want.tobytes()


def test_payoff_vectors_batch_matches_single():
    g = eq.sdg(30)
    rng = np.random.default_rng(0)
    ys = rng.dirichlet(np.ones(3), size=20)
    batch = payoff_vectors_batch(g, ys)
    for row, y in zip(batch, ys):
        np.testing.assert_allclose(row, eq.payoff_vector(g, y), atol=1e-12 * g.scale)


# ---------------------------------------------------------------------------
# Payoff tables and the switch dominance game.
# ---------------------------------------------------------------------------

def test_majority_payoff_table():
    g = eq.majority3()
    assert realized_payoff_vector(g, [0, 2])[0] == -1.0
    assert realized_payoff_vector(g, [1, 1])[1] == 0.5
    with pytest.raises(ValueError):
        realized_payoff_vector(g, [1, 2])  # wrong total
    with pytest.raises(DimensionError):
        realized_payoff_vector(g, [1, 1, 0])


def test_sdg_printed_formula_cases():
    g = eq.sdg(30)
    # no A players: C > B > A, so a B player against 29 C loses their ratio
    assert realized_payoff_vector(g, [0, 0, 29])[1] == -29.0
    # enough A players: B > A > C, top action earns the indicator
    assert realized_payoff_vector(g, [12, 17, 0])[1] == 1.0
    # middle action pays the guarded ratio
    assert realized_payoff_vector(g, [6, 23, 0])[0] == pytest.approx(-23.0 / 7.0)


def test_sdg_dominance_threshold_is_exact():
    # The flip happens strictly above n/5: with n = 30 a total count of 6 on
    # the first action keeps C > B > A, 7 flips to B > A > C.
    g = eq.sdg(30)
    # the learner's own action counts toward the threshold
    assert realized_payoff_vector(g, [5, 24, 0])[0] == pytest.approx(-24.0 / 6.0)  # n_A = 6, bottom rank
    assert realized_payoff_vector(g, [6, 23, 0])[0] == pytest.approx(-23.0 / 7.0)  # n_A = 7, middle rank
    assert realized_payoff_vector(g, [6, 23, 0])[2] == 1.0  # n_A = 6: C still dominates
    assert realized_payoff_vector(g, [7, 22, 0])[2] == pytest.approx(-22.0 / 8.0 - 7.0)  # n_A = 7: C collapses


def test_sdg_scale_is_field_size_minus_one():
    for n in (3, 5, 12, 30):
        g = eq.sdg(n)
        assert g.scale == n - 1
        assert float(np.max(np.abs(g.payoff_matrix()))) == pytest.approx(n - 1)


def test_sdg_exact_utilities_against_meta_strategy():
    # 465-term exact evaluation; the Monte Carlo estimates reported for this
    # configuration are 1.00 for the middle action and -12.67 for the last.
    g = eq.sdg(30)
    u = eq.payoff_vector(g, [0.399, 0.6, 0.001])
    assert 0.95 <= u[1] <= 1.0
    assert u[2] == pytest.approx(-12.6695, abs=5e-4)


# ---------------------------------------------------------------------------
# Extended majority and its dummy-action completion.
# ---------------------------------------------------------------------------

def test_extended_majority_reduces_to_majority3():
    em = eq.extended_majority(3, 2)
    g = eq.majority3()
    rows = compositions(2, 2)
    for a in range(2):
        np.testing.assert_array_equal(em.payoff(a, rows), g.payoff(a, rows))


def test_dummy_action_penalty_against_binary_opponents():
    em = eq.extended_majority(3, 3)
    assert realized_payoff_vector(em, [2, 0, 0])[2] == -1.0
    assert realized_payoff_vector(em, [1, 1, 0])[2] == -1.0
    assert realized_payoff_vector(em, [0, 2, 0])[2] == -1.0


def test_dummy_completion_is_symbol_majority():
    em = eq.extended_majority(3, 4)
    # two interchangeable dummies outvote a lone binary player
    assert realized_payoff_vector(em, [0, 0, 1, 1])[0] == -1.0
    assert realized_payoff_vector(em, [1, 0, 0, 1])[2] == 0.5
    # all-dummy profiles are unanimous
    assert realized_payoff_vector(em, [0, 0, 0, 2])[2] == 0.0
    assert realized_payoff_vector(em, [0, 0, 2, 0])[3] == 0.0


def test_extended_majority_pairwise_average_brute_force():
    # Independent oracle: expand counts to an opponent list and average the
    # 3-player majority payoff over ordered pairs of distinct opponents.
    def majority_u3(a, b, c):
        trio = [a, b, c]
        canon = [v if v < 2 else 2 for v in trio]
        mine = canon.count(canon[0])
        if mine == 3:
            return 0.0
        if mine == 2:
            return 0.5
        if canon[1] == canon[2]:
            return -1.0
        return -1.0 if canon[0] == 2 else 0.5

    rng = np.random.default_rng(17)
    for n, A in ((4, 2), (5, 3), (6, 4)):
        em = eq.extended_majority(n, A)
        table = em.count_table()
        picks = rng.choice(len(table.counts), size=min(12, len(table.counts)), replace=False)
        for row in table.counts[picks]:
            opponents = [a for a in range(A) for _ in range(int(row[a]))]
            for a in range(A):
                total = sum(
                    majority_u3(a, opponents[i], opponents[j])
                    for i in range(n - 1)
                    for j in range(n - 1)
                    if i != j
                )
                expected = total / ((n - 1) * (n - 2))
                assert float(em.payoff(a, row)) == pytest.approx(expected, abs=1e-12)


def test_builtin_game_dispatch_and_errors():
    assert eq.builtin_game("majority3").name == "majority3"
    assert eq.builtin_game("sdg", n=5).n == 5
    with pytest.raises(ValueError):
        eq.builtin_game("nonesuch")
    with pytest.raises(ValueError):
        eq.builtin_game("extended_majority", n=2)
    with pytest.raises(ValueError):
        eq.builtin_game("sdg", n=1)


# ---------------------------------------------------------------------------
# Validators.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("game", ALL_BUILTINS, ids=lambda g: g.name)
def test_zero_sum_identity_on_builtins(game):
    report = validate(game)
    assert report.passed
    assert report.worst_violation <= 1e-9 * game.scale


def test_validator_catches_tampering():
    g = eq.majority3()

    def tampered(a, counts):
        return np.where((a == 0) & np.all(counts == (0, 2), axis=-1), -0.9, g.payoff(a, counts))

    bad = SymmetricGame("bad", 3, 2, tampered, 1.0)
    report = validate(bad)
    assert not report.passed
    assert report.worst_violation == pytest.approx(0.1)
    assert report.worst_profile == (1, 2)  # one player on 0, two on 1


def test_validator_refuses_oversized_enumerations(monkeypatch):
    monkeypatch.setattr(games, "MAX_PROFILES", 100)
    with pytest.raises(SizeCapExceeded):
        validate(eq.sdg(30))


@dataclass(frozen=True)
class DenseValidationReport:
    zero_sum: bool
    symmetric: bool
    worst_zero_sum: float
    worst_symmetry: float

    @property
    def passed(self) -> bool:
        return self.zero_sum and self.symmetric


def validate_dense(util: np.ndarray, tol: float = 1e-9) -> DenseValidationReport:
    """The zero-sum and permutation-symmetry conditions on dense payoff
    tensors (dense_utilities): validate's reference.  dense_utilities reads
    every payoff from the player's own action and the others' counts, so
    its tensors are symmetric by construction, and their zero-sum sums add
    validate's terms in another order."""
    total = util.sum(axis=0)
    worst_zs = float(np.max(np.abs(total)))

    worst_sym = 0.0
    n = util.shape[0]
    for sigma in itertools.permutations(range(n)):
        # A symmetric game satisfies U_i(a_1..a_n) = U_{sigma^-1(i)}(a_sigma(1)..a_sigma(n)).
        # With numpy's transpose convention, composing indices with sigma
        # means passing the inverse permutation as axes.
        inv = [0] * n
        for pos, p in enumerate(sigma):
            inv[p] = pos
        for i in range(n):
            permuted = np.transpose(util[inv[i]], axes=inv)
            diff = float(np.max(np.abs(util[i] - permuted)))
            worst_sym = max(worst_sym, diff)
    scale = float(np.max(np.abs(util))) or 1.0
    return DenseValidationReport(
        worst_zs <= tol * scale, worst_sym <= tol * scale, worst_zs, worst_sym
    )


def _zero_sum_table(rng, n, A) -> dict:
    """A random zero-sum payoff table in game_to_json's keys: each player's
    payoff is a random value of its action at the full profile, less the
    profile's mean of those values over the players."""
    value = {}
    table = {}
    for c in compositions(n - 1, A):
        for a in range(A):
            full = c.copy()
            full[a] += 1
            key = tuple(int(v) for v in full)
            if key not in value:
                value[key] = rng.normal(size=A)
            mean = float(full @ value[key]) / n
            table[f"{a}|{','.join(map(str, c))}"] = float(value[key][a] - mean)
    return table


def test_validate_and_the_dense_reference_agree_on_custom_tables():
    # random tables (almost never zero-sum), random zero-sum tables, and the
    # zero-sum tables with one entry shifted far above or far below the
    # 1e-9 * scale tolerance
    rng = np.random.default_rng(2024)
    verdicts = []
    for n, A in itertools.product((2, 3, 4), (2, 3, 4)):
        keys = list(_zero_sum_table(rng, n, A))
        tables = [dict(zip(keys, rng.normal(size=len(keys)).tolist()))]
        for shift in (0.0, 1e-3, 1e-6, 1e-12):
            table = _zero_sum_table(rng, n, A)
            key = keys[rng.integers(len(keys))]
            table[key] += shift
            tables.append(table)
        for table in tables:
            game = game_from_json({"custom": {"n": n, "A": A, "payoff_table": table}})
            report, reference = validate(game), validate_dense(dense_utilities(game))
            assert reference.worst_symmetry == 0.0
            assert report.passed == reference.passed, (n, A, report, reference)
            assert abs(report.worst_violation - reference.worst_zero_sum) <= 1e-14 * game.scale
            verdicts.append(report.passed)
    assert verdicts.count(True) == 2 * 9 and verdicts.count(False) == 3 * 9


def test_dense_majority_tensor_entry_by_entry():
    # the full 2x2x2 payoff table of the majority vote
    d = dense_utilities(eq.majority3())
    expected = {
        (0, 0, 0): 0.0, (1, 1, 1): 0.0,
        (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.5, (1, 0, 1): 0.5,
        (0, 1, 1): -1.0, (1, 0, 0): -1.0,
    }
    for joint, value in expected.items():
        assert d[0][joint] == value


def test_dense_round_trip_and_symmetry():
    for game in (eq.majority3(), eq.minority3(), eq.extended_majority(3, 3)):
        report = validate_dense(dense_utilities(game))
        assert report.zero_sum and report.symmetric
    d = dense_utilities(eq.minority3())
    assert d[0, 1, 0, 0] == 1.0
    # player symmetry: U_1(a,b,c) == U_2(b,a,c)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b, c = rng.integers(0, 2, size=3)
        assert d[0, a, b, c] == d[1, b, a, c]


def test_dense_symmetry_violation_detected():
    util = dense_utilities(eq.majority3())
    util[0, 0, 1, 0] += 0.25
    report = validate_dense(util)
    assert not report.symmetric


def test_dense_caps():
    # 3^30 joint actions: refused before the count table or payoff matrix is built
    game = eq.sdg(30)
    with pytest.raises(SizeCapExceeded, match="joint-action table of 3\\^30 entries"):
        check_equilibrium(game, np.ones(1), "ce")
    assert game._cache == {}


# ---------------------------------------------------------------------------
# JSON documents.
# ---------------------------------------------------------------------------

def test_game_json_roundtrip_builtin():
    doc = game_to_json(eq.sdg(30))
    g = game_from_json(doc)
    assert g.n == 30 and g.kind == "sdg"


def test_game_json_roundtrip_custom(tmp_path):
    g = eq.majority3()
    table = {}
    for a in range(2):
        for c0 in range(3):
            table[f"{a}|{c0},{2 - c0}"] = realized_payoff_vector(g, (c0, 2 - c0))[a]
    doc = {"custom": {"n": 3, "A": 2, "payoff_table": table}}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    loaded = load_game(f"file:{path}")
    rows = compositions(2, 2)[::-1]
    for a in range(2):
        np.testing.assert_array_equal(loaded.payoff(a, rows), g.payoff(a, rows))
    assert validate(loaded).passed


def test_game_json_bad_documents():
    with pytest.raises(ValueError):
        game_from_json({"custom": {"n": 3, "A": 2, "payoff_table": {"0|3,0": 1.0}}})
    with pytest.raises(ValueError):
        game_from_json({"neither": 1})
