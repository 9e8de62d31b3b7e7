"""Game-core: exact payoff evaluation, validators, built-in games."""

import json
import time

import numpy as np
import pytest

import equalshare as eq
from equalshare.games import (
    CountTable,
    DimensionError,
    InvalidStrategyError,
    SizeCapExceeded,
    SymmetricGame,
    as_strategy,
    compositions,
    dense_from_symmetric,
    game_from_json,
    game_to_json,
    load_game,
    num_compositions,
    payoff_vectors_batch,
    realized_payoff_vector,
    realized_payoff_vectors,
    validate,
    validate_dense,
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
    switched = table.switch_rows(table.counts)
    assert switched.shape == (K, parts, parts)
    eye = np.eye(parts, dtype=np.int64)
    for k, c in enumerate(table.counts):
        for b in range(parts):
            if c[b] == 0:
                continue  # no such vector; the caller masks the entry
            for a in range(parts):
                assert switched[k, b, a] == table.index(c - eye[b] + eye[a])
    assert np.all((switched >= 0) & (switched < K))


def _random_game(n, A, seed):
    """A custom game with i.i.d. normal payoffs: not zero-sum, no symmetry
    in the table, so every lookup has to land on its own entry."""
    rng = np.random.default_rng(seed)
    table = {(a, tuple(int(v) for v in c)): float(rng.normal())
             for a in range(A) for c in compositions(n - 1, A)}
    return SymmetricGame("random", n, A, lambda a, c: table[(a, c)], 3.0)


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
                total += c[a] * game.payoff(a, tuple(int(v) for v in others))
        if abs(total) > worst:
            worst, worst_profile = abs(total), tuple(int(v) for v in c)
    report = validate(game)
    assert (report.worst_violation, report.worst_profile) == (worst, worst_profile)
    assert not report.passed
    # dense_from_symmetric: each player's payoff at each joint action
    if n <= 4:
        util = np.empty((n,) + (A,) * n)
        for joint in np.ndindex(*(A,) * n):
            for i in range(n):
                others = np.bincount(np.delete(joint, i), minlength=A)
                util[(i,) + joint] = game.payoff(joint[i], tuple(int(v) for v in others))
        assert dense_from_symmetric(game).utilities.tobytes() == util.tobytes()
    # game_to_json: the payoff table keyed by action and counts
    want = {f"{a}|{','.join(map(str, c))}": game.payoff(a, tuple(int(v) for v in c))
            for a in range(A) for c in compositions(n - 1, A)}
    assert game_to_json(game)["custom"]["payoff_table"] == want


def test_count_table_index_is_keyed_by_all_but_the_last_count():
    # (total+1)^(A-1) entries: sdg(200) needs 40,000, extended_majority(30,6) 30^5
    assert CountTable.build(199, 3)._index.shape == (200**2,)
    assert CountTable.build(5, 4)._index.shape == (6**3,)


def test_count_table_refuses_an_oversized_index_before_building_it():
    # extended_majority(20, 8): 20^7 = 1.28e9 index entries
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded):
        CountTable.build(19, 8)
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

def test_expected_payoff_iid_majority_hand_enumeration():
    # Opponent pairs (0,0), (0,1)/(1,0), (1,1) under y = [0.49, 0.51].
    g = eq.majority3()
    p00, pmix, p11 = 0.49**2, 2 * 0.49 * 0.51, 0.51**2
    exp_a1 = p00 * (-1.0) + pmix * 0.5 + p11 * 0.0
    exp_a0 = p00 * 0.0 + pmix * 0.5 + p11 * (-1.0)
    assert eq.expected_payoff_iid(g, 1, [0.49, 0.51]) == pytest.approx(exp_a1, abs=1e-15)
    assert eq.expected_payoff_iid(g, 0, [0.49, 0.51]) == pytest.approx(exp_a0, abs=1e-15)
    assert exp_a1 == pytest.approx(0.0098, abs=1e-12)
    assert exp_a0 == pytest.approx(-0.0102, abs=1e-12)


def test_expected_payoff_point_mass_is_unanimity_payoff():
    g = eq.majority3()
    assert eq.expected_payoff_iid(g, 0, [1.0, 0.0]) == 0.0
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
    vals = np.array([game.payoff(a, tuple(int(v) for v in c)) for c in samples])
    exact = eq.expected_payoff_iid(game, a, y)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * max(se, 1e-12)


def test_payoff_vector_permutation_consistency():
    # Relabeling actions commutes with evaluation.
    rng = np.random.default_rng(3)
    for game in (eq.majority3(), eq.sdg(30)):
        perm = rng.permutation(game.A)

        def relabeled_payoff(a, counts, _g=game, _p=perm):
            old_counts = [0] * _g.A
            for new_idx, c in enumerate(counts):
                old_counts[_p[new_idx]] = c
            return _g.payoff(int(_p[a]), tuple(old_counts))

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
# profile_payoff and the switch dominance game.
# ---------------------------------------------------------------------------

def test_profile_payoff_majority_table():
    g = eq.majority3()
    assert eq.profile_payoff(g, 0, [0, 2]) == -1.0
    assert eq.profile_payoff(g, 1, [1, 1]) == 0.5
    with pytest.raises(ValueError):
        eq.profile_payoff(g, 0, [1, 2])  # wrong total
    with pytest.raises(DimensionError):
        eq.profile_payoff(g, 0, [1, 1, 0])


def test_sdg_printed_formula_cases():
    g = eq.sdg(30)
    # no A players: C > B > A, so a B player against 29 C loses their ratio
    assert eq.profile_payoff(g, 1, [0, 0, 29]) == -29.0
    # enough A players: B > A > C, top action earns the indicator
    assert eq.profile_payoff(g, 1, [12, 17, 0]) == 1.0
    # middle action pays the guarded ratio
    assert eq.profile_payoff(g, 0, [6, 23, 0]) == pytest.approx(-23.0 / 7.0)


def test_sdg_dominance_threshold_is_exact():
    # The flip happens strictly above n/5: with n = 30 a total count of 6 on
    # the first action keeps C > B > A, 7 flips to B > A > C.
    g = eq.sdg(30)
    # the learner's own action counts toward the threshold
    assert eq.profile_payoff(g, 0, [5, 24, 0]) == pytest.approx(-24.0 / 6.0)  # n_A = 6, bottom rank
    assert eq.profile_payoff(g, 0, [6, 23, 0]) == pytest.approx(-23.0 / 7.0)  # n_A = 7, middle rank
    assert eq.profile_payoff(g, 2, [6, 23, 0]) == 1.0  # n_A = 6: C still dominates
    assert eq.profile_payoff(g, 2, [7, 22, 0]) == pytest.approx(-22.0 / 8.0 - 7.0)  # n_A = 7: C collapses


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
    for a in range(2):
        for c0 in range(3):
            counts = (c0, 2 - c0)
            assert em.payoff(a, counts) == g.payoff(a, counts)


def test_dummy_action_penalty_against_binary_opponents():
    em = eq.extended_majority(3, 3)
    assert eq.profile_payoff(em, 2, [2, 0, 0]) == -1.0
    assert eq.profile_payoff(em, 2, [1, 1, 0]) == -1.0
    assert eq.profile_payoff(em, 2, [0, 2, 0]) == -1.0


def test_dummy_completion_is_symbol_majority():
    em = eq.extended_majority(3, 4)
    # two interchangeable dummies outvote a lone binary player
    assert eq.profile_payoff(em, 0, [0, 0, 1, 1]) == -1.0
    assert eq.profile_payoff(em, 2, [1, 0, 0, 1]) == 0.5
    # all-dummy profiles are unanimous
    assert eq.profile_payoff(em, 2, [0, 0, 0, 2]) == 0.0
    assert eq.profile_payoff(em, 3, [0, 0, 2, 0]) == 0.0


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
                assert em.payoff(a, tuple(int(v) for v in row)) == pytest.approx(expected, abs=1e-12)


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
        if a == 0 and counts == (0, 2):
            return -0.9
        return g.payoff(a, counts)

    bad = SymmetricGame("bad", 3, 2, tampered, 1.0)
    report = validate(bad)
    assert not report.passed
    assert report.worst_violation == pytest.approx(0.1)
    assert report.worst_profile == (1, 2)  # one player on 0, two on 1


def test_validator_refuses_oversized_enumerations():
    with pytest.raises(SizeCapExceeded):
        validate(eq.sdg(30), max_profiles=100)


def test_dense_majority_tensor_entry_by_entry():
    # the full 2x2x2 payoff table of the majority vote
    d = dense_from_symmetric(eq.majority3())
    expected = {
        (0, 0, 0): 0.0, (1, 1, 1): 0.0,
        (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.5, (1, 0, 1): 0.5,
        (0, 1, 1): -1.0, (1, 0, 0): -1.0,
    }
    for joint, value in expected.items():
        assert d.utilities[0][joint] == value


def test_dense_round_trip_and_symmetry():
    for game in (eq.majority3(), eq.minority3(), eq.extended_majority(3, 3)):
        dense = dense_from_symmetric(game)
        report = validate_dense(dense)
        assert report.zero_sum and report.symmetric
    d = dense_from_symmetric(eq.minority3())
    assert d.utilities[0, 1, 0, 0] == 1.0
    # player symmetry: U_1(a,b,c) == U_2(b,a,c)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b, c = rng.integers(0, 2, size=3)
        assert d.utilities[0, a, b, c] == d.utilities[1, b, a, c]


def test_dense_symmetry_violation_detected():
    dense = dense_from_symmetric(eq.majority3())
    dense.utilities[0, 0, 1, 0] += 0.25
    report = validate_dense(dense)
    assert not report.symmetric


def test_dense_caps():
    with pytest.raises(SizeCapExceeded):
        dense_from_symmetric(eq.sdg(30))


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
            table[f"{a}|{c0},{2 - c0}"] = g.payoff(a, (c0, 2 - c0))
    doc = {"custom": {"n": 3, "A": 2, "payoff_table": table}}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    loaded = load_game(f"file:{path}")
    for a in range(2):
        for c0 in range(3):
            assert loaded.payoff(a, (c0, 2 - c0)) == g.payoff(a, (c0, 2 - c0))
    assert validate(loaded).passed


def test_game_json_bad_documents():
    with pytest.raises(ValueError):
        game_from_json({"custom": {"n": 3, "A": 2, "payoff_table": {"0|3,0": 1.0}}})
    with pytest.raises(ValueError):
        game_from_json({"neither": 1})
