"""Numerical oracles: minimax quantities, best responses, equilibrium
verification, exploitability, population pooling, Monte Carlo utilities.

Everything here is a verifier or a grid search, not a solver: candidate
strategies and small simplices are enumerated and measured.  Inner
maximizations over the learner's own strategy are always exact over pure
actions (the payoff is linear in it), so only opponent variables get
gridded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import (
    MAX_ARRAY_ENTRIES,
    DenseGame,
    SizeCapExceeded,
    SymmetricGame,
    as_strategy,
    compositions,
    expected_payoff_mixed,
    payoff_vector,
    payoff_vectors_batch,
)
from .learners import batch_exploiter
from .sampling import counts_from_actions, sample_actions


def default_resolution(num_actions: int) -> int:
    if num_actions == 2:
        return 200
    if num_actions == 3:
        return 60
    return max(8, int(round(200 ** (1.0 / (num_actions - 1)))))


@dataclass(frozen=True)
class SimplexGrid:
    """All probability vectors with coordinates in multiples of 1/m."""

    num_actions: int
    resolution: int

    def points(self) -> np.ndarray:
        return compositions(self.resolution, self.num_actions) / self.resolution

    def __len__(self) -> int:
        return math.comb(self.resolution + self.num_actions - 1, self.num_actions - 1)


def _default_grid(game: SymmetricGame, grid: SimplexGrid | None) -> SimplexGrid:
    if grid is None:
        grid = SimplexGrid(game.A, default_resolution(game.A))
    if len(grid) > 2_000_000:
        raise SizeCapExceeded(f"simplex grid with {len(grid)} points refused")
    return grid


def _refine_near(point: np.ndarray, resolution: int, factor: int = 10) -> np.ndarray:
    """Simplex points at `factor`-times finer resolution within one coarse
    step of `point` (always includes `point` itself).

    Only the integer box one fine step wider than that neighbourhood is
    enumerated; the float test then keeps the same rows, in the same order,
    as filtering the whole fine grid would."""
    fine_res = resolution * factor
    lo = np.floor((point - 1.0 / resolution) * fine_res).astype(np.int64) - 1
    hi = np.ceil((point + 1.0 / resolution) * fine_res).astype(np.int64) + 1
    fine = compositions(fine_res, point.shape[0], lo, hi) / fine_res
    mask = np.max(np.abs(fine - point[None, :]), axis=1) <= 1.0 / resolution + 1e-12
    return fine[mask]


def minimax_identical(
    game: SymmetricGame, which: str, grid: SimplexGrid | None = None
) -> tuple[float, dict]:
    """Grid search of the two minimax quantities with identical opponents.

    minmax: min over meta-strategies x of max_a u(a | x^(n-1)); the inner
    max is exact because a best response can be pure.
    maxmin: max over learner strategies x1 of min over meta-strategies x of
    the learner's payoff; both sides gridded.
    Each search does one local refinement pass at 10x resolution.
    """
    grid = _default_grid(game, grid)
    pts = grid.points()
    if which == "minmax":
        def best(ys):
            vals = payoff_vectors_batch(game, ys).max(axis=1)
            k = int(np.argmin(vals))
            return float(vals[k]), ys[k]

        value, y = best(pts)
        value, y = best(_refine_near(y, grid.resolution))
        return value, {"meta_strategy": y}
    if which == "maxmin":
        pv = payoff_vectors_batch(game, pts)  # (Ny, A): payoff of pure a vs each y

        def best_x1(x1s):
            vals = x1s @ pv.T  # (Nx, Ny)
            mins = vals.min(axis=1)
            k = int(np.argmax(mins))
            return float(mins[k]), x1s[k], pts[int(np.argmin(vals[k]))]

        value, x1, worst_y = best_x1(pts)
        value, x1, worst_y = best_x1(_refine_near(x1, grid.resolution))
        return value, {"learner_strategy": x1, "worst_meta_strategy": worst_y}
    raise ValueError(f"which must be 'minmax' or 'maxmin', got {which!r}")


def _pair_payoff_tensor(game: SymmetricGame) -> np.ndarray:
    """M[a, b, c] = payoff of a against the two opponents playing (b, c)."""
    if game.n != 3:
        raise SizeCapExceeded("independent-opponent search supports n = 3 only")
    A = game.A
    pairs = np.indices((A, A)).reshape(2, -1).T  # (b, c) in C order
    rows = game.count_table().rows(counts_from_actions(pairs, A))
    return game.payoff_matrix()[:, rows].reshape(A, A, A)


def minimax_independent(
    game: SymmetricGame, grid: SimplexGrid | None = None
) -> dict[str, tuple[float, dict]]:
    """The two minimax quantities when the opponents may use different
    (independent) strategies; 3-player games only.

    Returns {"maxmin": ..., "minmax": ...} where minmax's inner max over the
    learner is exact over pure actions.
    """
    grid = _default_grid(game, grid)
    if game.A > 3:
        raise SizeCapExceeded("independent-opponent grid limited to A <= 3")
    if len(grid) ** 3 > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(
            f"independent-opponent search over {len(grid)} grid points needs {len(grid) ** 3} "
            f"values, more than the cap of {MAX_ARRAY_ENTRIES}"
        )
    pts = grid.points()
    M = _pair_payoff_tensor(game)

    def pure_vals(y2s, y3s):
        # V[a, i, j] = payoff of pure a vs (y2s[i], y3s[j])
        return np.einsum("abc,ib,jc->aij", M, y2s, y3s, optimize=True)

    V = pure_vals(pts, pts)

    # minmax: min over (x2, x3) of max_a
    top = V.max(axis=0)
    i, j = np.unravel_index(np.argmin(top), top.shape)
    y2, y3 = pts[i], pts[j]
    pairs2 = _refine_near(y2, grid.resolution)
    pairs3 = _refine_near(y3, grid.resolution)
    Vr = pure_vals(pairs2, pairs3).max(axis=0)
    ri, rj = np.unravel_index(np.argmin(Vr), Vr.shape)
    minmax = (float(Vr[ri, rj]), {"y2": pairs2[ri], "y3": pairs3[rj]})

    # maxmin: max over x1 of min over (x2, x3)
    flat = V.reshape(game.A, -1)

    def best_x1(x1s, flat_vals):
        mins = (x1s @ flat_vals).min(axis=1)
        k = int(np.argmax(mins))
        return float(mins[k]), x1s[k]

    val, x1 = best_x1(pts, flat)
    x1s = _refine_near(x1, grid.resolution)
    val, x1 = best_x1(x1s, flat)
    maxmin = (val, {"learner_strategy": x1})
    return {"maxmin": maxmin, "minmax": minmax}


def best_response_set(game: SymmetricGame, y, tol: float = 1e-9) -> list[int]:
    """All actions whose payoff against y^(n-1) is within tol of the best."""
    u = payoff_vector(game, y)
    return [a for a in range(game.A) if u[a] >= u.max() - tol]


# ---------------------------------------------------------------------------
# Equilibrium verification on dense games.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumReport:
    concept: str
    epsilon: float
    tol: float

    @property
    def verdict(self) -> bool:
        return self.epsilon <= self.tol

    def __str__(self):
        return f"{self.concept}: epsilon={self.epsilon:.3g} -> {'pass' if self.verdict else 'FAIL'} at tol {self.tol:g}"


def _axes_except(n: int, i: int) -> tuple[int, ...]:
    return tuple(ax for ax in range(n) if ax != i)


def check_equilibrium(dense: DenseGame, dist, concept: str, tol: float = 1e-9) -> EquilibriumReport:
    """Verify a candidate equilibrium.

    concept "ne": dist must be a list of per-player strategies (product
    distribution); epsilon is the largest unilateral deviation gain.
    concept "ce" / "cce": dist is a joint array over A^n; "ce" conditions
    the deviation on the recommended action (skipping zero-probability
    recommendations), "cce" does not.
    """
    n, A = dense.n, dense.A
    concept = concept.lower()
    if concept == "ne":
        if isinstance(dist, np.ndarray) and dist.ndim == n:
            raise ValueError("Nash verification needs a product distribution (one strategy per player)")
        strategies = [as_strategy(x, A) for x in dist]
        if len(strategies) != n:
            raise ValueError(f"need {n} strategies, got {len(strategies)}")
        eps = 0.0
        for i in range(n):
            # contract every axis except player i's own action
            dev = dense.utilities[i]
            for j in reversed(range(n)):
                if j != i:
                    dev = np.tensordot(dev, strategies[j], axes=([j], [0]))
            current = float(strategies[i] @ dev)
            eps = max(eps, float(dev.max()) - current)
        return EquilibriumReport("ne", eps, tol)

    joint = np.asarray(dist, dtype=float)
    if joint.shape != (A,) * n:
        raise ValueError(f"joint distribution must have shape {(A,) * n}")
    if abs(joint.sum() - 1.0) > 1e-9 or np.any(joint < 0):
        raise ValueError("joint distribution must be a probability array")

    if concept == "cce":
        eps = 0.0
        for i in range(n):
            current = float((joint * dense.utilities[i]).sum())
            marg_others = joint.sum(axis=i)
            for a_prime in range(A):
                u_slice = np.take(dense.utilities[i], a_prime, axis=i)
                eps = max(eps, float((marg_others * u_slice).sum()) - current)
        return EquilibriumReport("cce", eps, tol)

    if concept == "ce":
        eps = 0.0
        for i in range(n):
            for a_i in range(A):
                cond = np.take(joint, a_i, axis=i)
                p = float(cond.sum())
                if p <= 0.0:
                    continue  # conditional expectation undefined
                current = float((cond * np.take(dense.utilities[i], a_i, axis=i)).sum()) / p
                for a_prime in range(A):
                    dev = float((cond * np.take(dense.utilities[i], a_prime, axis=i)).sum()) / p
                    eps = max(eps, dev - current)
        return EquilibriumReport("ce", eps, tol)
    raise ValueError(f"concept must be ne/ce/cce, got {concept!r}")


# ---------------------------------------------------------------------------
# Exploitability.
# ---------------------------------------------------------------------------

def exploitability(
    game: SymmetricGame,
    x,
    method: str = "auto",
    grid: SimplexGrid | None = None,
    runs: int = 100,
    steps: int = 10_000,
    eta: float = 1.0,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[float, np.ndarray]:
    """min over meta-strategies y of the payoff of x against y^(n-1).

    Method "grid" scans a simplex grid with one refinement pass (exact at
    pure strategies); "exploiter" is the exploiter protocol: one
    `learners.batch_exploiter` call of `runs` runs x `steps` steps against
    x, driven by `np.random.default_rng(seed)` (seed an int or a
    SeedSequence), keeping the most damaging final strategy; "auto" picks
    grid for A <= 3.  Always <= 0 in a symmetric zero-sum game since y = x
    recovers the all-identical expectation 0.  The exploiter is a local
    learner and can stall where its sampled gains are flat (on sdg(200)
    against x = B, every action gains -1 from the uniform start), so
    y = x, at exactly 0, is always a candidate.
    """
    xv = as_strategy(x, game.A)
    if method == "auto":
        method = "grid" if game.A <= 3 else "exploiter"
    if method == "grid":
        grid = _default_grid(game, grid)
        pts = grid.points()

        def best(ys):
            vals = payoff_vectors_batch(game, ys) @ xv
            k = int(np.argmin(vals))
            return float(vals[k]), ys[k]

        value, y = best(pts)
        value, y = best(_refine_near(y, grid.resolution))
        return value, y
    if method == "exploiter":
        best_val, best_y = 0.0, xv.copy()
        for y in batch_exploiter(game, xv, steps, runs, eta, np.random.default_rng(seed)):
            val = expected_payoff_mixed(game, xv, y)
            if val < best_val:
                best_val, best_y = val, y
        return float(best_val), best_y
    raise ValueError(f"method must be auto/grid/exploiter, got {method!r}")


# ---------------------------------------------------------------------------
# Population pooling bound.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolingReport:
    lhs: float
    bound: float
    passed: bool


def pooling_check(game: SymmetricGame, population, z, max_tuples: int = 200_000) -> PoolingReport:
    """Compare facing n-1 distinct strategies sampled without replacement
    from a population against facing the pooled average, exactly.

    The gap is bounded by 2(n-2)^2 / N.  Exact enumeration over ordered
    opponent tuples; refuses oversized enumerations.
    """
    pop = [as_strategy(p, game.A) for p in population]
    zv = as_strategy(z, game.A)
    N, n = len(pop), game.n
    if N < n - 1:
        raise ValueError(f"population of {N} cannot seat {n - 1} opponents without replacement")
    num_tuples = math.perm(N, n - 1)
    if num_tuples * game.A ** (n - 1) > max_tuples:
        raise SizeCapExceeded(
            f"{num_tuples} opponent tuples x {game.A ** (n - 1)} joint actions exceed the cap"
        )
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
    gap = abs(lhs_mean - expected_payoff_mixed(game, zv, pooled))
    bound = 2.0 * (n - 2) ** 2 / N
    return PoolingReport(gap, bound, gap <= bound + 1e-9 * game.scale)


# ---------------------------------------------------------------------------
# Monte Carlo utility estimation.
# ---------------------------------------------------------------------------

def monte_carlo_utility(
    game: SymmetricGame, x, y, num_games: int, rng: np.random.Generator | int = 0
) -> tuple[float, float]:
    """Sample-mean payoff of x against opponents i.i.d. from y, with the
    standard error of the mean."""
    if num_games < 1:
        raise ValueError("need at least one game")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    xv = as_strategy(x, game.A)
    yv = as_strategy(y, game.A)
    a1 = sample_actions(rng, xv, num_games)
    opp = sample_actions(rng, yv, (num_games, game.n - 1))
    payoffs = game.payoff_matrix()[a1, game.count_table().rows(counts_from_actions(opp, game.A))]
    mean = float(payoffs.mean())
    se = float(payoffs.std(ddof=1) / math.sqrt(num_games)) if num_games > 1 else float("inf")
    return mean, se
