"""Numerical oracles: minimax quantities, equilibrium verification,
exploitability, population pooling, Monte Carlo utilities.

Everything here is a verifier, a grid search or a certified bound, not a
solver: candidate strategies and simplex grids are measured, and
exploitability is bracketed by a branch and bound over the Bernstein
coefficients of the count form (`certified_exploitability`).  The pooling
check and Nash verification build the exact count-vector law of a set of
opponents by seating one opponent at a time (`_seater`), so both reach any
n.  Inner maximizations over the learner's own strategy are exact over pure
actions (the payoff is linear in it), as is independent maxmin's minimum
over the opponents' pure joints (it is multilinear in theirs).  The grid
oracles (minimax, grid exploitability) share one search, `_grid_search`: a
scan of one simplex grid, SimplexGrid(A, default_resolution(A)), then one
rescan at 10x resolution around its first minimum, each scored a row chunk
at a time.  That grid is refused (SizeCapExceeded) before it is built when
its points x A entries exceed MAX_ARRAY_ENTRIES.  Both maxmin quantities
run one search, `_maxmin`.  Every oracle reads its payoffs from
payoff_matrix(), by count, and Monte Carlo draws each game's count row from
its multinomial law, as the batched hedge trainer draws its rounds'.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .games import (
    MAX_ARRAY_ENTRIES,
    SizeCapExceeded,
    SymmetricGame,
    as_strategy,
    compositions,
    expected_payoff_mixed,
    num_compositions,
    payoff_vectors_batch,
    row_chunks,
)
from .learners import train_roster
from .sampling import sample_actions


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
        return num_compositions(self.resolution, self.num_actions)


def _default_grid(game: SymmetricGame) -> SimplexGrid:
    """The grid every grid oracle scans, refused (SizeCapExceeded) before
    its points are built when they hold more than MAX_ARRAY_ENTRIES values."""
    grid = SimplexGrid(game.A, default_resolution(game.A))
    if len(grid) * game.A > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(f"simplex grid of {len(grid)} points x {game.A} actions exceeds the cap of "
                              f"{MAX_ARRAY_ENTRIES} entries")
    return grid


REFINE_FACTOR = 10  # resolution of the refinement pass, in multiples of the grid's


def _refine_near(point: np.ndarray, resolution: int) -> np.ndarray:
    """Simplex points at REFINE_FACTOR-times finer resolution within one
    coarse step of `point` (always includes `point` itself).

    Only the integer box one fine step wider than that neighbourhood is
    enumerated; the float test then keeps the same rows, in the same order,
    as filtering the whole fine grid would."""
    fine_res = resolution * REFINE_FACTOR
    lo = np.floor((point - 1.0 / resolution) * fine_res).astype(np.int64) - 1
    hi = np.ceil((point + 1.0 / resolution) * fine_res).astype(np.int64) + 1
    fine = compositions(fine_res, point.shape[0], lo, hi) / fine_res
    mask = np.max(np.abs(fine - point[None, :]), axis=1) <= 1.0 / resolution + 1e-12
    return fine[mask]


def _grid_search(score, grid: SimplexGrid, row_entries: int, dims: int = 1) -> tuple[np.ndarray, list[np.ndarray]]:
    """Minimize score over dims-tuples of grid points, with one refinement.

    score takes dims (N_i, A) arrays of candidate points and returns their
    (N_1, ..., N_dims, C) rows: column 0 the score, the others what the
    caller reads at the minimum.  Each scan scores its first axis one
    row_chunks chunk at a time, a point costing row_entries entries per
    point of the other axes, and keeps the first minimum in C order.  The
    grid scan's is refined coordinate by coordinate (_refine_near) and
    rescanned; returns the refined minimum's row and its points."""

    def first_min(axes):
        best = None
        for chunk in row_chunks(axes[0], row_entries * math.prod(len(a) for a in axes[1:])):
            rows = score(chunk, *axes[1:])
            k = np.unravel_index(np.argmin(rows[..., 0]), rows.shape[:-1])
            if best is None or rows[k][0] < best[0][0]:  # strictly: a tie keeps the earlier chunk's
                best = rows[k].copy(), [a[i] for a, i in zip((chunk, *axes[1:]), k)]
        return best

    _, coarse = first_min((grid.points(),) * dims)
    return first_min([_refine_near(point, grid.resolution) for point in coarse])


def _maxmin(pure: np.ndarray, grid: SimplexGrid) -> tuple[float, np.ndarray, int]:
    """max over learner grid points x1 of min_j (x1 @ pure)[j], for pure an
    (A, M) array of pure-action payoffs: one _grid_search over rows [-min,
    column of the min].  Returns the value, x1 and the column of its
    minimum, read off the scored row (a one-row product x1 @ pure can round
    differently)."""

    def score(x1s):
        product = x1s @ pure
        col = product.argmin(axis=1)
        return np.stack([-product[np.arange(len(x1s)), col], col], axis=1)

    row, (x1,) = _grid_search(score, grid, pure.shape[1])
    return -float(row[0]), x1, int(row[1])


def minimax_identical(game: SymmetricGame, which: str) -> tuple[float, dict]:
    """Grid search of the two minimax quantities with identical opponents,
    over the default grid (_default_grid, refused past its cap).

    minmax: min over meta-strategies x of max_a u(a | x^(n-1)); the inner
    max is exact because a best response can be pure.
    maxmin: max over learner strategies x1 of min over meta-strategies x of
    the learner's payoff; both sides gridded, by the search (_maxmin) that
    minimax_independent's maxmin also runs.
    """
    grid = _default_grid(game)
    if which == "minmax":
        K = len(game.count_table().counts)
        row, (y,) = _grid_search(lambda ys: payoff_vectors_batch(game, ys).max(axis=1, keepdims=True), grid, K)
        return float(row[0]), {"meta_strategy": y}
    if which == "maxmin":
        pts = grid.points()
        value, x1, col = _maxmin(payoff_vectors_batch(game, pts).T, grid)
        return value, {"learner_strategy": x1, "worst_meta_strategy": pts[col]}
    raise ValueError(f"which must be 'minmax' or 'maxmin', got {which!r}")


def minimax_independent(game: SymmetricGame) -> dict[str, tuple[float, dict]]:
    """The two minimax quantities when the opponents may use different
    (independent) strategies, over the default grid (_default_grid, refused
    past its cap); 3-player games with A <= 3 only.

    Returns {"maxmin": ..., "minmax": ...}.  minmax's inner max over the
    learner is exact over pure actions, and maxmin's inner minimum is exact
    over the opponents' count vectors (payoff_matrix()'s columns): the
    payoff is multilinear in their strategies, so least at a pure joint.
    """
    if game.n != 3:
        raise SizeCapExceeded("independent-opponent search supports n = 3 only")
    grid = _default_grid(game)
    if game.A > 3:
        raise SizeCapExceeded("independent-opponent grid limited to A <= 3")
    # M[a, b, c] = payoff of a against the opponents' joint action (b, c)
    M = game.payoff_matrix()[:, game.count_table().joint_rows()].reshape(game.A, game.A, game.A)

    def max_over_pure(y2s, y3s):
        return np.einsum("abc,ib,jc->aij", M, y2s, y3s, optimize=True).max(axis=0)[..., None]

    row, (y2, y3) = _grid_search(max_over_pure, grid, game.A, dims=2)
    minmax = (float(row[0]), {"y2": y2, "y3": y3})
    value, x1, _ = _maxmin(game.payoff_matrix(), grid)
    return {"maxmin": (value, {"learner_strategy": x1}), "minmax": minmax}


# ---------------------------------------------------------------------------
# Count-vector laws of independent opponents.
# ---------------------------------------------------------------------------

def _seater(game: SymmetricGame):
    """seat(F, j, p): the count-vector law of j opponents, from F, the law of
    j-1 of them, and one more opponent playing p.

    A law of j opponents lives on count_table()'s last K_j rows (j
    opponents, n-1-j added to the first count), so one map seats an
    opponent at every level j <= n-1.  Refused (SizeCapExceeded) before
    anything is built when the levels' entries exceed MAX_ARRAY_ENTRIES."""
    n, A = game.n, game.A
    sizes = [num_compositions(j, A) for j in range(n)]
    if sum(sizes) > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(f"count-vector levels of {sum(sizes)} entries exceed the cap of {MAX_ARRAY_ENTRIES}")
    table = game.count_table()
    below = table.counts[len(table.counts) - sizes[n - 2]:]  # first count >= 1
    seat_map = table.rows(below[:, None, :] + np.eye(A, dtype=np.int64) - np.eye(A, dtype=np.int64)[0])

    def seat(law: np.ndarray, j: int, p: np.ndarray) -> np.ndarray:
        targets = seat_map[len(seat_map) - sizes[j - 1]:] - (sizes[-1] - sizes[j])
        return np.bincount(targets.ravel(), weights=(law[:, None] * p).ravel(), minlength=sizes[j])

    return seat


# ---------------------------------------------------------------------------
# Equilibrium verification.
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


def check_equilibrium(game: SymmetricGame, dist, concept: str, tol: float = 1e-9) -> EquilibriumReport:
    """Verify a candidate equilibrium.

    concept "ne": dist is one strategy per player, shape (n, A) (a product
    distribution); epsilon is the largest unilateral deviation gain.  It is
    computed in count form at any n: player i's payoff vector is
    payoff_matrix() @ F_i, F_i the count-vector law of the other n-1
    players, seated one at a time (O(n^2 K A) work).
    concept "ce" / "cce": dist is a joint array over A^n <= MAX_ARRAY_ENTRIES
    entries; "ce" conditions the deviation on the recommended action
    (skipping zero-probability recommendations), "cce" does not.  One
    deviation table per player i serves both: with q[a, k] the joint's mass
    on i playing a while the others' counts are count_table() row k, and P =
    payoff_matrix(), gain[a, b] = sum_k q[a, k] (P[b, k] - P[a, k]).  CCE
    takes its largest column sum, CE its largest entry over its row's mass.
    """
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    n, A = game.n, game.A
    concept = concept.lower()
    eps = 0.0
    if concept == "ne":
        if np.shape(dist) != (n, A):
            raise ValueError(f"Nash verification needs one strategy per player, shape {(n, A)}; got {np.shape(dist)}")
        strategies = [as_strategy(x, A) for x in dist]
        seat, mat = _seater(game), game.payoff_matrix()
        for i in range(n):
            law = np.ones(1)
            for j, p in enumerate(strategies[:i] + strategies[i + 1:], start=1):
                law = seat(law, j, p)
            u = mat @ law
            eps = max(eps, float(u.max() - strategies[i] @ u))
        return EquilibriumReport(concept, eps, tol)
    if concept not in ("ce", "cce"):
        raise ValueError(f"concept must be ne/ce/cce, got {concept!r}")
    if A**n > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(f"joint-action table of {A}^{n} entries exceeds the cap of {MAX_ARRAY_ENTRIES}")
    joint = np.asarray(dist, dtype=float)
    if joint.shape != (A,) * n:
        raise ValueError(f"joint distribution must have shape {(A,) * n}")
    if not (abs(joint.sum() - 1.0) <= 1e-9 and np.all(joint >= 0)):  # NaN fails both
        raise ValueError("joint distribution must be a probability array")
    P, rows = game.payoff_matrix(), game.count_table().joint_rows()
    for i in range(n):
        q = np.array([np.bincount(rows, np.take(joint, a, axis=i).reshape(-1), P.shape[1]) for a in range(A)])
        gain = q @ P.T - (q * P).sum(axis=1)[:, None]
        if concept == "ce":
            mass = q.sum(axis=1)
            live = mass > 0.0  # the conditional expectation is undefined elsewhere
            worst = (gain[live] / mass[live, None]).max()
        else:
            worst = gain.sum(axis=0).max()
        eps = max(eps, float(worst))
    return EquilibriumReport(concept, eps, tol)


# ---------------------------------------------------------------------------
# Exploitability.
# ---------------------------------------------------------------------------

# the most cells one certified_exploitability call may split, and the gap it
# closes to, in units of the game's scale
MAX_SPLITS = 10_000
CERTIFIED_TOL = 1e-9


def certified_exploitability(game: SymmetricGame, x) -> tuple[float, float, np.ndarray]:
    """min over meta-strategies y of the payoff of x against y^(n-1),
    bracketed: (lower, upper, y) with upper - lower <= CERTIFIED_TOL * scale
    and upper the payoff at y (ties: the first vertex in row order).

    The count form sum_k c_k Multinomial(n-1, y)_k, c = x @ payoff_matrix(),
    is the Bernstein form on the simplex: a cell's smallest coefficient
    bounds it below, each vertex coefficient is its value there (Garloff
    1986; Farouki 2012).  Best first, the cell of the smallest bound is
    halved at its longest edge by a 1-D de Casteljau run along it, c[k] <-
    (c[k] + c[k + e_keep - e_drop]) / 2 on the rows with k_drop >= level for
    levels 1..n-1, whose rounding widens the bound by levels x eps x max|c|
    per split.  Refused (SizeCapExceeded), naming the bracket reached, before
    a split past MAX_SPLITS or past MAX_ARRAY_ENTRIES live coefficients.
    """
    xv = as_strategy(x, game.A)
    A, N, table, eye = game.A, game.n - 1, game.count_table(), np.eye(game.A, dtype=np.int64)
    root = xv @ game.payoff_matrix()
    slack = N * float(np.finfo(float).eps) * float(np.abs(root).max())
    corners = table.rows(N * eye)
    best = min(np.argsort(corners), key=lambda a: root[corners[a]])
    upper, y = float(root[corners[best]]), np.eye(A)[best]
    cells = [(float(root.min()), 0, root, np.eye(A), 0)]  # (bound, order, coefficients, vertices, depth)
    splits, edges = 0, {}
    while cells:
        bound, _, c, vertices, depth = heapq.heappop(cells)
        lower = min(bound, upper)
        if upper - lower <= CERTIFIED_TOL * game.scale:
            return lower, upper, y
        live = (len(cells) + 2) * len(root)  # coefficients held after this split
        if splits >= MAX_SPLITS or live > MAX_ARRAY_ENTRIES:
            raise SizeCapExceeded(f"certified exploitability stopped at [{lower!r}, {upper!r}] after {splits} "
                                  f"splits: the next would pass the cap of {MAX_SPLITS} splits or "
                                  f"{MAX_ARRAY_ENTRIES} coefficients, holding {live}")
        splits += 1
        gaps = ((vertices[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2)
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # the first longest edge, i < j
        mid = (vertices[i] + vertices[j]) * 0.5
        for keep, drop in ((i, j), (j, i)):
            if (keep, drop) not in edges:  # the rows with k_drop >= 1, by k_drop: each level is a suffix
                k_drop = table.counts[:, drop]
                rows = np.argsort(k_drop, kind="stable")[np.count_nonzero(k_drop == 0):]
                edges[keep, drop] = (rows, table.rows(table.counts[rows] + eye[keep] - eye[drop]),
                                     np.searchsorted(k_drop[rows], np.arange(1, N + 1)))
            rows, shifted, starts = edges[keep, drop]
            half = c.copy()
            for start in starts:
                half[rows[start:]] = (half[rows[start:]] + half[shifted[start:]]) * 0.5
            if drop == j and half[corners[j]] < upper:  # the new vertex
                upper, y = float(half[corners[j]]), mid
            half_bound = float(half.min()) - (depth + 1) * slack
            if half_bound < upper:  # else the minimum lies elsewhere
                half_vertices = vertices.copy()
                half_vertices[drop] = mid
                heapq.heappush(cells, (half_bound, 2 * splits + (drop == i), half, half_vertices, depth + 1))
    return upper, upper, y


def exploitability(
    game: SymmetricGame,
    x,
    method: str,
    runs: int = 100,
    steps: int = 10_000,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[float, np.ndarray]:
    """min over meta-strategies y of the payoff of x against y^(n-1).

    Method "grid" scans the default grid (_default_grid, refused past its
    cap) with one refinement pass (exact at pure strategies); "exploiter" is
    exploiter_protocol against x alone at eta 1, `runs` runs x `steps` steps
    from seed (an int or a SeedSequence).
    Always <= 0 in a symmetric zero-sum game since y = x recovers the
    all-identical expectation 0.
    """
    xv = as_strategy(x, game.A)
    if method == "grid":
        K = len(game.count_table().counts)
        row, (y,) = _grid_search(lambda ys: (payoff_vectors_batch(game, ys) @ xv)[:, None], _default_grid(game), K)
        return float(row[0]), y
    if method == "exploiter":
        return exploiter_protocol(game, [xv], [seed], runs, steps, 1.0)[0]
    raise ValueError(f"method must be grid/exploiter, got {method!r}")


def exploiter_protocol(game: SymmetricGame, targets, seeds, runs: int, steps: int, eta: float) -> list[tuple]:
    """The exploiter protocol's (value, y) against each target: the most
    damaging final strategy of `runs` exploiter runs x `steps` steps, from
    np.random.default_rng(seeds[i]) against targets[i], all trained in one
    `learners.train_roster` call.  The exploiter can stall where its sampled
    gains are flat (on sdg(200) against x = B, every action gains -1 from
    the uniform start), so y = x, at exactly 0, is always a candidate.
    Fewer than one run or one step is refused before any draw."""
    if runs < 1 or steps < 1:
        raise ValueError(f"the exploiter protocol needs at least one run and one step, got runs={runs}, steps={steps}")
    xs = [as_strategy(x, game.A) for x in targets]
    rows = [(0.0, 0.0, np.random.default_rng(seed), x) for x, seed in zip(xs, seeds, strict=True)]
    results = []
    for xv, finals in zip(xs, train_roster(game, steps, runs, eta, rows)):
        vals = [0.0] + [expected_payoff_mixed(game, xv, y) for y in finals]
        best = int(np.argmin(vals))  # the first minimum, so a tie keeps y = x
        results.append((float(vals[best]), xv.copy() if best == 0 else finals[best - 1]))
    return results


# ---------------------------------------------------------------------------
# Population pooling bound.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolingReport:
    """`lhs` holds the gap, `bound` the lemma's 2(n-2)^2 / N, and `passed`
    whether the gap is within the bound up to 1e-9 * scale."""

    lhs: float
    bound: float
    passed: bool


def pooling_check(game: SymmetricGame, population, z) -> PoolingReport:
    """The gap between facing n-1 distinct members of a population, drawn
    without replacement, and facing their pooled average, exactly.

    The payoff depends only on the opponents' count vector, so the average
    is one over (n-1)-subsets.  F[j], the count-vector law of j opponents
    over the j-subsets of the first i members, steps per member as F[j] =
    ((i-j) F[j] + j seat(F[j-1], j, p_i)) / i: O(N n K A) work.  Refused
    (SizeCapExceeded) before anything is built when the levels' entries
    exceed MAX_ARRAY_ENTRIES.
    """
    pop = [as_strategy(p, game.A) for p in population]
    zv = as_strategy(z, game.A)
    N, n = len(pop), game.n
    if N < n - 1:
        raise ValueError(f"population of {N} cannot seat {n - 1} opponents without replacement")
    seat = _seater(game)
    levels = [np.ones(1)] + [0.0] * (n - 1)  # level j is an array once member j is seated
    for i, p in enumerate(pop, start=1):
        for j in range(min(i, n - 1), 0, -1):
            levels[j] = ((i - j) * levels[j] + j * seat(levels[j - 1], j, p)) / i
    lhs = float(zv @ game.payoff_matrix() @ levels[-1])
    gap = abs(lhs - expected_payoff_mixed(game, zv, np.mean(pop, axis=0)))
    bound = 2.0 * (n - 2) ** 2 / N
    return PoolingReport(gap, bound, gap <= bound + 1e-9 * game.scale)


# ---------------------------------------------------------------------------
# Monte Carlo utility estimation.
# ---------------------------------------------------------------------------

def monte_carlo_utility(
    game: SymmetricGame, x, y, num_games: int, rng: np.random.Generator | int = 0
) -> tuple[float, float]:
    """Sample-mean payoff of x against opponents i.i.d. from y, with the
    standard error of the mean.  Each game draws the learner's action from x,
    then the opponents' count row from its Multinomial(n-1, y) law,
    count_table().weights(y): the law payoff_vector sums over, one uniform
    per game.  More than MAX_ARRAY_ENTRIES games are refused
    (SizeCapExceeded) before any draw."""
    if num_games < 1:
        raise ValueError("need at least one game")
    if num_games > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(f"{num_games} Monte Carlo games exceed the cap of {MAX_ARRAY_ENTRIES}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    xv = as_strategy(x, game.A)
    yv = as_strategy(y, game.A)
    table = game.count_table()
    # each game's flat index a1 * K + row into payoff_matrix(), built in place
    cells = sample_actions(rng, xv, num_games)
    cells *= len(table.counts)
    cells += sample_actions(rng, table.weights(yv), num_games)
    payoffs = game.payoff_matrix().take(cells)
    mean = float(payoffs.mean())
    se = float(payoffs.std(ddof=1) / math.sqrt(num_games)) if num_games > 1 else float("inf")
    return mean, se
