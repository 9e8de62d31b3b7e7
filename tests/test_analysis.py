"""Analysis oracles: minimax grids, equilibrium checks, exploitability,
population pooling, Monte Carlo estimation."""

import itertools
import math

import numpy as np
import pytest

import equalshare as eq
from equalshare import analysis, games
from equalshare.analysis import (
    SimplexGrid,
    _refine_near,
    certified_exploitability,
    check_equilibrium,
    default_resolution,
    exploitability,
    exploiter_protocol,
    minimax_identical,
    minimax_independent,
    monte_carlo_utility,
    pooling_check,
)
from equalshare.games import (
    SizeCapExceeded,
    SymmetricGame,
    compositions,
    expected_payoff_mixed,
    game_from_json,
    game_to_json,
    payoff_vectors_batch,
    realized_payoff_vector,
    validate,
)
from equalshare.sampling import counts_from_actions, sample_actions

from test_games import _zero_sum_table, dense_utilities  # dense_utilities: the dense reference, one payoff call per entry

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


def test_refine_near_is_refused_before_its_box_is_built(monkeypatch):
    point = np.array([1 / 8] * 4 + [1 / 2])
    assert len(_refine_near(point, 8)) == 116_601
    monkeypatch.setattr(games, "MAX_ARRAY_ENTRIES", 10**5)
    with pytest.raises(SizeCapExceeded, match="compositions of 80 into 5 parts"):
        _refine_near(point, 8)


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


# sdg(30)'s default grid holds 1,891 points x 3 actions = 5,673 entries and
# majority3's 201 x 2 = 402; each cap lies between the grid and the game's
# count table, so only the grid can be refused
SDG30_GRID_REFUSED = "simplex grid of 1891 points x 3 actions exceeds the cap of 5000 entries"
GRID_ORACLE_CALLS = {
    "minimax_identical-minmax": (SDG30, 5_000, SDG30_GRID_REFUSED, lambda: minimax_identical(SDG30, "minmax")),
    "minimax_identical-maxmin": (SDG30, 5_000, SDG30_GRID_REFUSED, lambda: minimax_identical(SDG30, "maxmin")),
    "exploitability-grid": (SDG30, 5_000, SDG30_GRID_REFUSED,
                            lambda: exploitability(SDG30, [0, 1, 0], method="grid")),
    "minimax_independent": (MV, 400, "simplex grid of 201 points x 2 actions exceeds the cap of 400 entries",
                            lambda: minimax_independent(MV)),
}


def _spy_on_grid_points(monkeypatch):
    """The grids whose points are built from here on."""
    built = []
    points = SimplexGrid.points
    monkeypatch.setattr(SimplexGrid, "points", lambda grid: built.append(grid) or points(grid))
    return built


@pytest.mark.parametrize("name", list(GRID_ORACLE_CALLS))
def test_grid_oracles_refuse_a_grid_past_the_cap_before_building_it(name, monkeypatch):
    game, cap, refused, call = GRID_ORACLE_CALLS[name]
    assert game.count_table().counts.size < cap
    built = _spy_on_grid_points(monkeypatch)
    monkeypatch.setattr(analysis, "MAX_ARRAY_ENTRIES", cap)
    with pytest.raises(SizeCapExceeded, match=refused):
        call()
    assert built == []


def test_analyze_minimax_exits_4_on_a_grid_past_the_cap(monkeypatch, tmp_path):
    from equalshare import cli

    assert SDG30.count_table().counts.size == 1_395
    built = _spy_on_grid_points(monkeypatch)
    monkeypatch.setattr(analysis, "MAX_ARRAY_ENTRIES", 5_000)
    argv = ["--out", str(tmp_path), "analyze", "minimax", "--which", "minmax-identical", "--game", "sdg", "--n", "30"]
    assert cli.main(argv) == cli.EXIT_SIZE_CAP
    assert built == []


@pytest.mark.parametrize("make", [eq.majority3, eq.minority3, lambda: eq.extended_majority(3, 2),
                                  lambda: eq.extended_majority(3, 3),
                                  lambda: game_from_json({"custom": {"n": 3, "A": 2, "payoff_table": _zero_sum_table(
                                      np.random.default_rng(31), 3, 2)}}),
                                  lambda: game_from_json({"custom": {"n": 3, "A": 3, "payoff_table": _zero_sum_table(
                                      np.random.default_rng(32), 3, 3)}})],
                         ids=["majority3", "minority3", "extended_majority3_2", "extended_majority3_3",
                              "random3_2", "random3_3"])
def test_independent_maxmin_is_exact_over_the_opponents(make):
    # x1's payoff is multilinear in the opponents' strategies, so its minimum
    # over independent (y2, y3) is the minimum over the A^2 pure joints
    game = make()
    value, arg = minimax_independent(game)["maxmin"]
    x1 = arg["learner_strategy"]
    U = dense_utilities(game)[0]
    tol = 1e-12 * game.scale
    assert abs(value - np.einsum("a,abc->bc", x1, U).min()) <= tol
    rng = np.random.default_rng(game.A)
    for y2, y3 in zip(rng.dirichlet(np.ones(game.A), 200), rng.dirichlet(np.ones(game.A), 200)):
        assert np.einsum("a,abc,b,c->", x1, U, y2, y3) >= value - tol


def test_payoff_matrix_is_the_only_reader_of_the_payoff_function():
    """The oracles read payoffs through payoff_matrix: on a fresh game they
    make A payoff calls between them, one per action on all K count rows."""
    for base in (eq.majority3(), eq.sdg(5), eq.extended_majority(3, 3)):
        calls = 0

        def counting(a, counts, inner=base.payoff):
            nonlocal calls
            calls += 1
            return inner(a, counts)

        game = SymmetricGame(base.name, base.n, base.A, counting, base.scale)
        validate(game)
        check_equilibrium(game, [np.full(game.A, 1.0 / game.A)] * game.n, "ne")
        check_equilibrium(game, np.full((game.A,) * game.n, float(game.A) ** -game.n), "cce")
        try:
            minimax_independent(game)
        except SizeCapExceeded:
            pass  # sdg(5) has 5 players
        population = [np.full(game.A, 1.0 / game.A)] * game.n
        pooling_check(game, population, np.eye(game.A)[0])
        assert len(game_to_json(game)["custom"]["payoff_table"]) == game.A * len(game.count_table().counts)
        assert calls == game.A


@pytest.mark.parametrize("make", [eq.majority3, eq.minority3, lambda: eq.extended_majority(3, 3),
                                  lambda: eq.extended_majority(3, 5), lambda: eq.sdg(4),
                                  lambda: eq.extended_majority(5, 2)],
                         ids=["majority3", "minority3", "extended_majority3_3", "extended_majority3_5", "sdg4",
                              "extended_majority5_2"])
def test_joint_rows_read_the_payoff_loop(make):
    game = make()
    n, A = game.n, game.A
    want = np.empty((A,) * n)
    for a, *others in np.ndindex(*want.shape):
        counts = np.bincount(others, minlength=A)
        want[(a, *others)] = realized_payoff_vector(game, counts)[a]
    table = game.count_table()
    got = game.payoff_matrix()[:, table.joint_rows()]
    assert got.tobytes() == want.reshape(A, -1).tobytes() == dense_utilities(game)[0].reshape(A, -1).tobytes()
    # the joints of the n-1 others, in C order, and their count vectors
    joints = np.indices((A,) * (n - 1)).reshape(n - 1, -1).T
    counts = (joints[:, :, None] == np.arange(A)).sum(axis=1)
    np.testing.assert_array_equal(table.joint_rows(), table.rows(counts))


def test_joint_rows_are_refused_before_they_are_built(monkeypatch):
    table = eq.sdg(12).count_table()
    assert len(table.joint_rows()) == 3**11
    monkeypatch.setattr(games, "MAX_ARRAY_ENTRIES", 3**11 - 1)
    with pytest.raises(SizeCapExceeded, match="3\\^11 joint actions"):
        table.joint_rows()


def test_minimax_identical_bad_which():
    with pytest.raises(ValueError):
        minimax_identical(MV, "neither")


def _per_oracle_searches(game, grid, xs, independent):
    """Each grid oracle's own coarse-then-refine search, written out: the
    reference for the shared search.  Returns {oracle: (value, *arguments)}."""
    pts = grid.points()
    out = {}

    def best(score, ys):
        vals = score(ys)
        k = int(np.argmin(vals))
        return float(vals[k]), ys[k]

    def minmax(ys):
        return payoff_vectors_batch(game, ys).max(axis=1)

    value, y = best(minmax, pts)
    out["minmax"] = best(minmax, _refine_near(y, grid.resolution))
    for i, x in enumerate(xs):
        def against(ys, x=x):
            return payoff_vectors_batch(game, ys) @ x

        value, y = best(against, pts)
        out[f"exploit{i}"] = best(against, _refine_near(y, grid.resolution))

    pv = payoff_vectors_batch(game, pts)

    def best_x1(x1s):
        vals = x1s @ pv.T
        mins = vals.min(axis=1)
        k = int(np.argmax(mins))
        return float(mins[k]), x1s[k], pts[int(np.argmin(vals[k]))]

    value, x1, _ = best_x1(pts)
    out["maxmin"] = best_x1(_refine_near(x1, grid.resolution))
    if not independent:
        return out

    M = dense_utilities(game)[0]

    def pure_vals(y2s, y3s):
        return np.einsum("abc,ib,jc->aij", M, y2s, y3s, optimize=True)

    V = pure_vals(pts, pts)
    i, j = np.unravel_index(np.argmin(V.max(axis=0)), (len(pts), len(pts)))
    pairs2, pairs3 = _refine_near(pts[i], grid.resolution), _refine_near(pts[j], grid.resolution)
    Vr = pure_vals(pairs2, pairs3).max(axis=0)
    ri, rj = np.unravel_index(np.argmin(Vr), Vr.shape)
    out["minmax_independent"] = (float(Vr[ri, rj]), pairs2[ri], pairs3[rj])
    pure = M.reshape(game.A, -1)  # the opponents' minimum is reached at a pure joint

    def best_pure(x1s):
        mins = (x1s @ pure).min(axis=1)
        k = int(np.argmax(mins))
        return float(mins[k]), x1s[k]

    value, x1 = best_pure(pts)
    out["maxmin_independent"] = best_pure(_refine_near(x1, grid.resolution))
    return out


@pytest.mark.parametrize("make", [eq.majority3, eq.minority3, lambda: eq.sdg(5), lambda: eq.extended_majority(3, 3)])
def test_grid_oracles_equal_the_per_oracle_search(make, monkeypatch):
    # at coarse resolutions, so that the scans' first minima and their
    # refinements differ from the default grid's
    game = make()
    xs = list(np.eye(game.A)) + list(np.random.default_rng(game.A).dirichlet(np.ones(game.A), 3))
    independent = game.name in ("majority3", "minority3")
    for m in (7, 13):
        monkeypatch.setattr(analysis, "default_resolution", lambda A: m)
        grid = SimplexGrid(game.A, m)
        got = {
            "minmax": minimax_identical(game, "minmax"),
            "maxmin": minimax_identical(game, "maxmin"),
        }
        got.update({f"exploit{i}": exploitability(game, x, "grid") for i, x in enumerate(xs)})
        if independent:
            both = minimax_independent(game)
            got["minmax_independent"] = both["minmax"]
            got["maxmin_independent"] = both["maxmin"]
        want = _per_oracle_searches(game, grid, xs, independent)
        assert sorted(got) == sorted(want)
        for key, (value, arg) in got.items():
            args = list(arg.values()) if isinstance(arg, dict) else [arg]
            ref = want[key]
            assert np.float64(value).tobytes() == np.float64(ref[0]).tobytes(), (game.name, m, key)
            assert [a.tobytes() for a in args] == [r.tobytes() for r in ref[1:]], (game.name, m, key)


# ---------------------------------------------------------------------------
# Equilibrium verification.
# ---------------------------------------------------------------------------

def test_nash_verification_on_majority():
    for profile in ([[1, 0]] * 3, [[0, 1]] * 3, [[0.5, 0.5]] * 3):
        report = check_equilibrium(MV, profile, "ne")
        assert report.verdict and report.epsilon <= 1e-12
    # mixed-but-not-uniform is not an equilibrium
    report = check_equilibrium(MV, [[0.9, 0.1]] * 3, "ne")
    assert not report.verdict


def test_nash_rejects_joint_distribution_input():
    joint = np.full((2, 2, 2), 1 / 8)
    with pytest.raises(ValueError, match=r"shape \(3, 2\); got \(2, 2, 2\)"):
        check_equilibrium(MV, joint, "ne")


def test_two_player_nash_takes_an_array_profile():
    # with n = 2 an (n, A) array has as many axes as a joint: it is still a profile
    game = eq.sdg(2)
    profile = np.full((2, 3), 1 / 3)
    report = check_equilibrium(game, profile, "ne")
    assert report.epsilon == check_equilibrium(game, profile.tolist(), "ne").epsilon
    u = eq.payoff_vector(game, profile[1])
    assert report.epsilon == pytest.approx(u.max() - profile[0] @ u, abs=1e-15)
    with pytest.raises(ValueError, match=r"shape \(2, 3\); got \(3, 3\)"):
        check_equilibrium(game, np.full((3, 3), 1 / 3), "ne")


@pytest.mark.parametrize("make", [lambda: eq.sdg(30), lambda: eq.extended_majority(30, 2),
                                  lambda: eq.extended_majority(7, 4), lambda: eq.sdg(9)],
                         ids=["sdg30", "extended_majority30_2", "extended_majority7_4", "sdg9"])
def test_nash_at_any_n_equals_the_payoff_vector_on_identical_profiles(make):
    # every player on y: each faces n-1 i.i.d. opponents, whose payoff
    # vector payoff_vector gives directly
    game = make()
    rng = np.random.default_rng(game.n * 10 + game.A)
    for y in [*rng.dirichlet(np.ones(game.A), size=5), np.eye(game.A)[0]]:
        u = eq.payoff_vector(game, y)
        got = check_equilibrium(game, [y] * game.n, "ne").epsilon
        assert abs(got - max(0.0, u.max() - y @ u)) <= 1e-12 * game.scale, (game.name, y)


@pytest.mark.parametrize("make", [lambda: eq.sdg(30), lambda: eq.extended_majority(7, 4), lambda: eq.sdg(9)],
                         ids=["sdg30", "extended_majority7_4", "sdg9"])
def test_nash_on_pure_profiles_equals_the_payoff_matrix_lookups(make):
    game = make()
    mat, table = game.payoff_matrix(), game.count_table()
    rng = np.random.default_rng(game.n + game.A)
    for _ in range(10):
        actions = rng.integers(game.A, size=game.n)
        want = 0.0
        for i in range(game.n):
            u = mat[:, table.index(np.bincount(np.delete(actions, i), minlength=game.A))]
            want = max(want, float(u.max() - u[actions[i]]))
        got = check_equilibrium(game, np.eye(game.A)[actions], "ne").epsilon
        assert got == want, (game.name, actions)
    # everyone on C, with no A in play, is a pure equilibrium of sdg
    if game.kind == "sdg":
        assert check_equilibrium(game, [[0, 0, 1]] * game.n, "ne").epsilon == 0.0


def test_correlated_two_atom_distribution():
    util = dense_utilities(MV)
    joint = np.zeros((2, 2, 2))
    joint[0, 0, 0] = joint[1, 1, 1] = 0.5
    assert check_equilibrium(MV, joint, "cce").verdict
    assert check_equilibrium(MV, joint, "ce").verdict
    # playing a fixed action against that correlated play is strictly bad,
    # which is what the coarse inequality encodes
    dev = 0.5 * util[0][0, 0, 0] + 0.5 * util[0][0, 1, 1]
    assert dev == pytest.approx(-0.5)


def test_ce_epsilon_dominates_cce_epsilon():
    rng = np.random.default_rng(12)
    for _ in range(50):
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        ce = check_equilibrium(MV, joint, "ce")
        cce = check_equilibrium(MV, joint, "cce")
        assert cce.epsilon <= ce.epsilon + 1e-12


def test_product_joint_ce_cce_match_ne():
    rng = np.random.default_rng(21)
    for _ in range(20):
        strategies = [rng.dirichlet(np.ones(2)) for _ in range(3)]
        joint = np.einsum("a,b,c->abc", *strategies)
        ne = check_equilibrium(MV, strategies, "ne")
        cce = check_equilibrium(MV, joint, "cce")
        assert cce.epsilon == pytest.approx(ne.epsilon, abs=1e-12)


def test_ce_skips_zero_probability_recommendations():
    joint = np.zeros((2, 2, 2))
    joint[1, 1, 1] = 1.0  # action 0 never recommended
    report = check_equilibrium(MV, joint, "ce")
    assert report.verdict


def looped_equilibrium_epsilon(util, dist, concept: str) -> float:
    """check_equilibrium's epsilon by one loop per concept over players and
    actions on the dense payoff tensors (dense_utilities): the reference of
    NE's count form and of CE's and CCE's deviation table."""
    n, A = util.shape[0], util.shape[1]
    eps = 0.0
    if concept == "ne":
        strategies = [np.asarray(x, dtype=float) for x in dist]
        for i in range(n):
            # contract every axis except player i's own action
            dev = util[i]
            for j in reversed(range(n)):
                if j != i:
                    dev = np.tensordot(dev, strategies[j], axes=([j], [0]))
            eps = max(eps, float(dev.max()) - float(strategies[i] @ dev))
        return eps
    joint = np.asarray(dist, dtype=float)
    for i in range(n):
        if concept == "cce":
            current = float((joint * util[i]).sum())
            marg_others = joint.sum(axis=i)
            for a_prime in range(A):
                u_slice = np.take(util[i], a_prime, axis=i)
                eps = max(eps, float((marg_others * u_slice).sum()) - current)
            continue
        for a_i in range(A):
            cond = np.take(joint, a_i, axis=i)
            p = float(cond.sum())
            if p <= 0.0:
                continue  # conditional expectation undefined
            current = float((cond * np.take(util[i], a_i, axis=i)).sum()) / p
            for a_prime in range(A):
                dev = float((cond * np.take(util[i], a_prime, axis=i)).sum()) / p
                eps = max(eps, dev - current)
    return eps


@pytest.mark.parametrize("make", [eq.majority3, eq.minority3, lambda: eq.extended_majority(3, 3),
                                  lambda: eq.extended_majority(4, 2), lambda: eq.sdg(4), lambda: eq.sdg(5),
                                  lambda: eq.extended_majority(6, 2)],
                         ids=["majority3", "minority3", "extended_majority3_3", "extended_majority4_2", "sdg4",
                              "sdg5", "extended_majority6_2"])
def test_deviation_table_equals_the_per_concept_loops(make):
    game = make()
    util = dense_utilities(game)
    rng = np.random.default_rng(game.n * 10 + game.A)
    size = game.A ** game.n
    for trial in range(200):
        strategies = list(rng.dirichlet(np.ones(game.A), game.n))
        if trial % 4 == 0:
            strategies[0] = np.eye(game.A)[trial % game.A]  # a pure player
        joint = rng.dirichlet(np.ones(size))
        if trial % 2:
            joint[rng.random(size) < 0.7] = 0.0  # zero-probability recommendations
            joint[trial % size] += 1.0 - joint.sum()
        joint = joint.reshape((game.A,) * game.n)
        for concept, dist in (("ne", strategies), ("ce", joint), ("cce", joint)):
            got = check_equilibrium(game, dist, concept).epsilon
            want = looped_equilibrium_epsilon(util, dist, concept)
            assert abs(got - want) <= 1e-12 * game.scale, (game.name, trial, concept, got, want)


# ---------------------------------------------------------------------------
# Exploitability.
# ---------------------------------------------------------------------------

def test_exploitability_grid_values():
    value, worst = exploitability(MV, [0, 1], method="grid")
    assert value == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(worst, [1.0, 0.0])
    value, _ = exploitability(MV, [0.5, 0.5], method="grid")
    assert value == pytest.approx(-0.5, abs=0.01)
    value, _ = certified_exploitability(SDG30, [0, 1, 0])[1:]
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


def _certified_cases():
    """200 seeded (game, x) pairs: random strategies on the built-in games,
    and random and pure strategies on random zero-sum custom tables."""
    rng = np.random.default_rng(25)
    builtins = [MV, MINORITY, eq.sdg(5), SDG30, eq.extended_majority(3, 3), eq.extended_majority(6, 4),
                eq.extended_majority(4, 2), eq.extended_majority(3, 5), eq.extended_majority(3, 7),
                eq.extended_majority(4, 5)]
    cases = [(game, rng.dirichlet(np.ones(game.A))) for game in builtins for _ in range(14)]
    for n, A in itertools.product((2, 3, 4, 6), (2, 3, 4)):
        for _ in range(2):
            game = game_from_json({"custom": {"n": n, "A": A, "payoff_table": _zero_sum_table(rng, n, A)}})
            cases += [(game, rng.dirichlet(np.ones(A))) for _ in range(2)] + [(game, np.eye(A)[rng.integers(A)])]
    return cases, rng


def test_certified_exploitability_brackets_the_minimum():
    # lower is below the grid value and the payoff at 2,000 random y; the
    # bracket is within the default tolerance; upper is the payoff at y
    cases, rng = _certified_cases()
    assert len(cases) >= 200
    for game, x in cases:
        lower, upper, y = certified_exploitability(game, x)
        assert lower <= upper <= lower + analysis.CERTIFIED_TOL * game.scale, (game.name, x, lower, upper)
        assert abs(upper - expected_payoff_mixed(game, x, y)) <= 1e-12 * game.scale, (game.name, x)
        assert lower <= (payoff_vectors_batch(game, rng.dirichlet(np.ones(game.A), 2_000)) @ x).min(), (game.name, x)
        if game.A <= 3:
            assert lower <= exploitability(game, x, method="grid")[0], (game.name, x)


@pytest.mark.parametrize("game, actions", [
    (MV, range(2)), (SDG30, range(3)), (eq.extended_majority(3, 3), range(3)), (eq.sdg(200), [1])])
def test_certified_exploitability_equals_the_grid_on_pure_strategies(game, actions):
    # each minimum is at a vertex, which the grid scans exactly: the same
    # value and y, byte for byte, closed at the first cell
    for a in actions:
        x = np.eye(game.A)[a]
        value, y = certified_exploitability(game, x)[1:]
        grid_value, grid_y = exploitability(game, x, method="grid")
        assert (np.float64(value).tobytes(), y.tobytes()) == (np.float64(grid_value).tobytes(), grid_y.tobytes())
        assert certified_exploitability(game, x)[:2] == (value, value)


def test_certified_exploitability_refuses_past_its_cell_budget(monkeypatch):
    # minority3 against (0.3, 0.7) closes after a few splits; past the split
    # budget, or the cells' coefficients cap, it is refused before the split
    # that would exceed it, naming the bracket reached
    lower, upper, _ = certified_exploitability(MINORITY, [0.3, 0.7])
    assert upper - lower <= 1e-9
    monkeypatch.setattr(analysis, "MAX_SPLITS", 1)
    with pytest.raises(SizeCapExceeded, match=r"stopped at \[-0\.\d+, \S+\] after 1 splits"):
        certified_exploitability(MINORITY, [0.3, 0.7])
    monkeypatch.setattr(analysis, "MAX_SPLITS", 10_000)
    monkeypatch.setattr(analysis, "MAX_ARRAY_ENTRIES", 2 * 3)  # two cells of K = 3 coefficients
    with pytest.raises(SizeCapExceeded, match="after 1 splits: .* or 6 coefficients, holding 9"):
        certified_exploitability(MINORITY, [0.3, 0.7])


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


def test_exploiter_protocol_targets_are_their_one_target_calls():
    # several targets, each on its own seed, trained in one call, give each
    # target's exploitability(method="exploiter") value and strategy, at eta 1
    targets = [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    seeds = [3, np.random.SeedSequence(7), 5, 3]
    got = exploiter_protocol(SDG30, targets, seeds, 6, 200, 1.0)
    assert len(got) == len(targets)
    for (value, y), x, seed in zip(got, targets, seeds):
        want_value, want_y = exploitability(SDG30, x, method="exploiter", runs=6, steps=200, seed=seed)
        assert (value, y.tobytes()) == (want_value, want_y.tobytes()), x


def test_exploiter_protocol_needs_one_seed_per_target():
    with pytest.raises(ValueError):
        exploiter_protocol(MV, [[0.5, 0.5], [1.0, 0.0]], [0], 2, 10, 1.0)


@pytest.mark.parametrize("runs, steps", [(0, 10), (2, 0), (-1, 10)])
def test_exploiter_protocol_refuses_no_run_or_no_step_before_any_draw(runs, steps, monkeypatch):
    # no run would report y = x at exactly 0, and no step an untrained
    # uniform exploiter; both are refused before anything trains
    from equalshare import analysis

    def trained(*args, **kwargs):
        raise AssertionError("an exploiter trained")

    monkeypatch.setattr(analysis, "train_roster", trained)
    with pytest.raises(ValueError, match="at least one run and one step"):
        exploiter_protocol(MV, [[1.0, 0.0]], [0], runs, steps, 1.0)


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
        other = np.where(counts[..., 0] == 1, 0, 1)
        return np.sign(other - a).astype(float)

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
        vals.append(realized_payoff_vector(MV, counts)[0])
    oracle_wo = np.mean(vals)
    pooled = expected_payoff_mixed(MV, z, [0.5, 0.5])
    report = pooling_check(MV, pop, z)
    assert report.lhs == pytest.approx(abs(oracle_wo - pooled), abs=1e-12)
    assert report.bound == pytest.approx(0.5)
    assert report.passed


def test_pooling_requires_enough_strategies():
    with pytest.raises(ValueError):
        pooling_check(MV, [[1, 0]], [1, 0])


def test_pooling_size_cap(monkeypatch):
    # the levels hold the count vectors of 0, ..., n-1 opponents: C(n-1+A, A) entries
    game = eq.sdg(5)
    size = math.comb(game.n - 1 + game.A, game.A)
    population = [np.full(game.A, 1.0 / game.A)] * game.n
    monkeypatch.setattr(analysis, "MAX_ARRAY_ENTRIES", size - 1)
    with pytest.raises(SizeCapExceeded, match=f"levels of {size} entries"):
        pooling_check(game, population, [1, 0, 0])
    with pytest.raises(SizeCapExceeded, match=f"levels of {size} entries"):
        check_equilibrium(game, population, "ne")  # Nash verification seats through the same levels
    assert game._cache == {}  # neither the count table nor the payoff matrix was built
    monkeypatch.setattr(analysis, "MAX_ARRAY_ENTRIES", size)
    assert pooling_check(game, population, [1, 0, 0]).passed


def enumerated_pooling_gap(game: SymmetricGame, population, z) -> float:
    """pooling_check's gap by exact enumeration over ordered opponent
    tuples and their joint actions: the recursion's reference."""
    pop = [eq.as_strategy(p, game.A) for p in population]
    zv = eq.as_strategy(z, game.A)
    N, n = len(pop), game.n
    num_tuples = math.perm(N, n - 1)
    # z-contracted payoff of a joint opponent action tuple
    tuples = list(itertools.product(range(game.A), repeat=n - 1))
    rows = game.count_table().rows(counts_from_actions(np.array(tuples), game.A))
    mat = game.payoff_matrix()
    joint_payoff = {
        actions: float(sum(zv[a] * mat[a, k] for a in range(game.A) if zv[a] > 0))
        for actions, k in zip(tuples, rows)
    }

    total = 0.0
    for tup in itertools.permutations(range(N), n - 1):
        val = 0.0
        for actions in tuples:
            prob = 1.0
            for slot, a in enumerate(actions):
                prob *= pop[tup[slot]][a]
            if prob:
                val += prob * joint_payoff[actions]
        total += val
    lhs_mean = total / num_tuples
    pooled = np.mean(pop, axis=0)
    return abs(lhs_mean - expected_payoff_mixed(game, zv, pooled))


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


def _monte_carlo_from_actions(game, x, y, num_games, rng):
    """monte_carlo_utility through the full (num_games, n-1) opponent action
    array: the reference for the counts read from CDF comparisons."""
    a1 = sample_actions(rng, np.asarray(x, dtype=float), num_games)
    opp = sample_actions(rng, np.asarray(y, dtype=float), (num_games, game.n - 1))
    payoffs = game.payoff_matrix()[a1, game.count_table().rows(counts_from_actions(opp, game.A))]
    se = float(payoffs.std(ddof=1) / np.sqrt(num_games)) if num_games > 1 else float("inf")
    return float(payoffs.mean()), se


@pytest.mark.parametrize("game, x, y", [
    (MV, [0.3, 0.7], [0.49, 0.51]),
    (SDG30, [0, 0, 1], [0.399, 0.6, 0.001]),
    (SDG30, [0.2, 0.3, 0.5], [0.4, 0.0, 0.6]),  # an action no opponent plays
    (SDG30, [0, 1, 0], [0.3, 0.3, 0.4 - 5e-10]),  # the clamp lets the last action play
], ids=["mv", "sdg-pure-x", "sdg-zero-y", "sdg-short-y"])
@pytest.mark.parametrize("num_games", [1, 2, 350])
def test_monte_carlo_counts_equal_the_action_array_form(game, x, y, num_games, monkeypatch):
    # a bound of 100 games' uniforms per chunk: 350 games span four chunks, the last one partial
    monkeypatch.setattr(analysis, "CHUNK_ENTRIES", 100 * (game.n - 1) + game.n - 2)
    chunks = []
    rows_at_most = games.CountTable.rows_at_most

    def spy(table, at_most):
        rows = rows_at_most(table, at_most)
        chunks.append(len(rows))
        return rows

    monkeypatch.setattr(games.CountTable, "rows_at_most", spy)
    for seed in (0, 5):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert monte_carlo_utility(game, x, y, num_games, got_rng) == _monte_carlo_from_actions(game, x, y, num_games, ref_rng)
        assert got_rng.random() == ref_rng.random()
    assert chunks == 2 * ([100, 100, 100, 50] if num_games == 350 else [num_games])


@pytest.mark.parametrize("n, y", [(256, [1.0, 0.0]), (257, [1.0, 0.0]), (300, [0.4, 0.6])],
                         ids=["255-all-first", "256-all-first", "299-mixed"])
def test_monte_carlo_counts_of_many_opponents_equal_the_action_array_form(n, y):
    # 255 opponents still fit a byte count; from 256 on the counts are summed wider
    game = eq.extended_majority(n, 2)
    for num_games in (1, 1000):
        got_rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        got = monte_carlo_utility(game, [0.5, 0.5], y, num_games, got_rng)
        assert got == _monte_carlo_from_actions(game, [0.5, 0.5], y, num_games, ref_rng)
        assert got_rng.random() == ref_rng.random()


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_utility(MV, [0, 1], [0.49, 0.51], 0)
