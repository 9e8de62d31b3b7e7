"""Symmetric zero-sum games in opponent-count form.

A symmetric game is fully described by the payoff of a single player as a
function of (own action, multiset of opponent actions).  We encode the
multiset as a count vector over the shared action set, which makes exact
expectations against i.i.d. opponents a sum over C(n-2+A, A-1) multinomial
terms instead of A^(n-1) joint actions.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sampling import counts_from_actions

# Sentinel for log(0) in multinomial weights.  Finite (so 0 * LOG_ZERO == 0,
# never NaN) and large enough that exp(k * LOG_ZERO + anything_reasonable)
# underflows to exactly 0.0 for k >= 1.
LOG_ZERO = -1e9

PROB_TOL = 1e-9


class DimensionError(ValueError):
    """Strategy or count vector does not match the game's action count."""


class InvalidStrategyError(ValueError):
    """Probability vector fails non-negativity or normalization."""


class SizeCapExceeded(RuntimeError):
    """An enumeration was refused because it exceeds the configured cap."""


# The most entries a dense array may have: the count index, a composition
# enumeration, the exploiter's gain table, pooling_check's levels, the joint
# actions CE and CCE check (A^n) and the grid oracles' (Ny, A) simplex grid.
MAX_ARRAY_ENTRIES = 2**25

# The most full action profiles (count vectors of all n players) validate enumerates.
MAX_PROFILES = 250_000

# The most entries (8 MB of float64) one batched temporary may hold.  Grid
# scans take their rows in row_chunks: payoff_vectors_batch's (Ny, K)
# weights, the maxmin scans' (Nx, K) or (Nx, Ny) payoffs and independent
# minmax's (A, Ny2, Ny3) values; batch_hedge_vs_fixed gathers its
# (rounds, runs, A) gains and monte_carlo_utility its (games, n-1) uniforms
# a chunk at a time, and run_matches plays SAOL on (R, T, A) batches of matches.
CHUNK_ENTRIES = 2**20


def as_strategy(probs: Sequence[float], num_actions: int | None = None) -> np.ndarray:
    """Validate and return a mixed strategy as a float64 array.

    Entries must be non-negative and sum to 1 within 1e-9 (absolute); a NaN
    entry fails both checks.
    """
    x = np.asarray(probs, dtype=float)
    if x.ndim != 1:
        raise InvalidStrategyError(f"strategy must be a vector, got shape {x.shape}")
    if num_actions is not None and x.shape[0] != num_actions:
        raise DimensionError(f"strategy has {x.shape[0]} entries, expected {num_actions}")
    if not np.all(x >= 0):
        raise InvalidStrategyError(f"negative or NaN probability in {x}")
    s = float(x.sum())
    if not abs(s - 1.0) <= PROB_TOL:
        raise InvalidStrategyError(f"probabilities sum to {s}, not 1")
    return x


def compositions(
    total: int,
    parts: int,
    lo: Sequence[int] | None = None,
    hi: Sequence[int] | None = None,
) -> np.ndarray:
    """All non-negative integer vectors of length `parts` summing to `total`.

    Returned as an int array of shape (C(total+parts-1, parts-1), parts) in
    lexicographic order.  With per-coordinate bounds `lo`/`hi` (inclusive),
    only the vectors with lo <= c <= hi are returned, in the same order.
    Refused (SizeCapExceeded) before any prefix level of more than
    MAX_ARRAY_ENTRIES // parts rows is built: levels only grow.
    """
    if parts < 1 or total < 0:
        raise ValueError(f"need parts >= 1 and total >= 0, got {parts}, {total}")
    lo = np.maximum(np.zeros(parts, np.int64) if lo is None else np.asarray(lo, np.int64), 0)
    hi = np.minimum(np.full(parts, total, np.int64) if hi is None else np.asarray(hi, np.int64), total)
    if lo.shape != (parts,) or hi.shape != (parts,):
        raise DimensionError(f"bounds must have {parts} entries")
    # what the coordinates after i can absorb at least and at most; a value is
    # kept only if the rest can still reach the total, so every prefix completes
    lo_rest = lo.sum() - np.cumsum(lo)
    hi_rest = hi.sum() - np.cumsum(hi)
    prefix = np.empty((1, 0), dtype=np.int64)
    rem = np.array([total], dtype=np.int64)
    for i in range(parts):
        first = np.maximum(lo[i], rem - hi_rest[i])
        count = np.maximum(np.minimum(hi[i], rem - lo_rest[i]) - first + 1, 0)
        n = int(count.sum())
        if n * parts > MAX_ARRAY_ENTRIES:
            raise SizeCapExceeded(f"compositions of {total} into {parts} parts exceed the cap of {MAX_ARRAY_ENTRIES}")
        # offset of each new row within its prefix's block of values
        offset = np.arange(n, dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
        value = np.repeat(first, count) + offset
        prefix = np.concatenate([np.repeat(prefix, count, axis=0), value[:, None]], axis=1)
        rem = np.repeat(rem, count) - value
    return prefix


def num_compositions(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


@dataclass(frozen=True)
class CountTable:
    """Pre-enumerated count vectors of a fixed total, with multinomial data.

    counts      : (K, A) int array, all count vectors with the given total
    log_coeffs  : (K,) multinomial coefficients log(total! / prod c_a!)

    `rows` maps count vectors to their row numbers.  The last count is fixed
    by the total, so the lookup is keyed by the first A-1 counts in base
    total+1: a dense index of (total+1)^(A-1) entries.
    """

    total: int
    counts: np.ndarray
    log_coeffs: np.ndarray
    _index: np.ndarray = field(repr=False)
    _radix: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, total: int, num_actions: int) -> "CountTable":
        # past 26 actions the index exceeds the cap for any total >= 1, so the
        # exponent is clamped there: a huge A forms no huge integer power
        if (total + 1) ** min(num_actions - 1, 26) > MAX_ARRAY_ENTRIES:
            raise SizeCapExceeded(
                f"count index of {total + 1}^{num_actions - 1} entries for total {total}, {num_actions} actions "
                f"exceeds the cap of {MAX_ARRAY_ENTRIES}"
            )
        size = (total + 1) ** (num_actions - 1)
        counts = compositions(total, num_actions)
        # log c! for every count c a row can hold, looked up rather than evaluated per entry
        log_factorial = np.array([math.lgamma(c + 1.0) for c in range(total + 1)])
        log_coeffs = math.lgamma(total + 1) - np.sum(log_factorial[counts], axis=1)
        radix = np.zeros(num_actions, dtype=np.int64)
        radix[:-1] = (total + 1) ** np.arange(num_actions - 2, -1, -1, dtype=np.int64)
        index = np.zeros(size, dtype=np.int64)
        index[counts @ radix] = np.arange(counts.shape[0])
        return cls(total, counts, log_coeffs, index, radix)

    def rows(self, counts: np.ndarray) -> np.ndarray:
        """Row numbers of count vectors of this table's total: (..., A) -> (...)."""
        return self._index[counts @ self._radix]

    def rows_at_most(self, at_most) -> np.ndarray:
        """rows() of N count vectors given by their running sums, so no
        (N, A) count array is built: at_most[a], for a < A-1, is the (N,)
        array of counts[:, :a + 1].sum(axis=1)."""
        step = self._radix[:-1] - self._radix[1:]  # the last running sum is the total, keyed 0
        return self._index[sum(c * s for c, s in zip(at_most, step))]

    def joint_rows(self) -> np.ndarray:
        """Row number of each of the A^total joint actions of `total`
        players, in C order (the last player fastest): (A^total,).  Refused
        (SizeCapExceeded) before anything is built past MAX_ARRAY_ENTRIES."""
        A = len(self._radix)
        if A**self.total > MAX_ARRAY_ENTRIES:
            raise SizeCapExceeded(f"{A}^{self.total} joint actions exceed the cap of {MAX_ARRAY_ENTRIES}")
        key = np.zeros(1, dtype=np.int64)
        for _ in range(self.total):  # a seat adds its action's radix key
            key = (key[:, None] + self._radix).reshape(-1)
        return self._index[key]

    def index(self, counts: Sequence[int]) -> int:
        c = np.asarray(counts, dtype=np.int64)
        if c.shape != self._radix.shape:
            raise DimensionError(f"count vector has shape {c.shape}, expected {self._radix.shape}")
        values = c.tolist()
        if min(values) < 0 or sum(values) != self.total:
            raise ValueError(f"count vector {counts} has a negative entry or wrong total (expected {self.total})")
        return int(self.rows(c))

    def weights(self, y: np.ndarray) -> np.ndarray:
        """Multinomial(total, y) probability of each count vector."""
        logy = np.where(y > 0.0, np.log(np.where(y > 0.0, y, 1.0)), LOG_ZERO)
        return np.exp(self.log_coeffs + self.counts @ logy)

    def weights_batch(self, ys: np.ndarray) -> np.ndarray:
        """Weights for many strategies at once: (Ny, A) -> (Ny, K), built in
        place in one (Ny, K) array; payoff_vectors_batch bounds Ny."""
        logy = np.where(ys > 0.0, np.log(np.where(ys > 0.0, ys, 1.0)), LOG_ZERO)
        w = logy @ self.counts.T
        w += self.log_coeffs
        return np.exp(w, out=w)


@dataclass
class SymmetricGame:
    """An n-player symmetric zero-sum game over a shared action set.

    payoff(a, counts) maps an int array of count rows, shape (..., A), each
    row the per-action counts of the remaining n-1 players' actions, to the
    payoffs of a player using action a against each row, shape (...).
    payoff_matrix is its one reader and calls it once per action, so a
    Python-defined custom game receives all (K, A) rows of count_table().
    scale bounds |payoff| over the whole domain.
    """

    name: str
    n: int
    A: int
    payoff: Callable[[int, np.ndarray], np.ndarray]
    scale: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2 or self.A < 2:
            raise ValueError("need n >= 2 players and A >= 2 actions")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def count_table(self) -> CountTable:
        """The CountTable of the n-1 opponents' counts, built once."""
        if "table" not in self._cache:
            self._cache["table"] = CountTable.build(self.n - 1, self.A)
        return self._cache["table"]

    def payoff_matrix(self) -> np.ndarray:
        """(A, K) array of payoff(a, counts) over count_table()'s rows, built
        once, with one payoff call per action."""
        if "payoffs" not in self._cache:
            counts = self.count_table().counts
            mat = np.empty((self.A, len(counts)))
            for a in range(self.A):
                row = np.asarray(self.payoff(a, counts), dtype=float)
                if row.shape != (len(counts),):
                    raise DimensionError(f"payoff({a}, counts) returned shape {row.shape} for {len(counts)} count rows")
                mat[a] = row
            self._cache["payoffs"] = mat
        return self._cache["payoffs"]


def payoff_vector(game: SymmetricGame, y: Sequence[float]) -> np.ndarray:
    """Expected payoff of every action against n-1 opponents i.i.d. ~ y."""
    yv = as_strategy(y, game.A)
    return game.payoff_matrix() @ game.count_table().weights(yv)


def row_chunks(rows: np.ndarray, row_entries: int) -> list[np.ndarray]:
    """rows split into nearly equal chunks (np.array_split) of at most
    CHUNK_ENTRIES // row_entries rows, and at least one, for a scan that
    allocates row_entries entries per row.  When all the rows fit, they are
    one chunk."""
    per_chunk = max(1, CHUNK_ENTRIES // row_entries)
    return np.array_split(rows, max(1, -(-len(rows) // per_chunk)))


def payoff_vectors_batch(game: SymmetricGame, ys: np.ndarray) -> np.ndarray:
    """payoff_vector for many meta-strategies at once: (Ny, A) -> (Ny, A).

    The (Ny, K) multinomial weights are built one row_chunks chunk at a
    time, so a scan holds at most CHUNK_ENTRIES of them."""
    table, mat = game.count_table(), game.payoff_matrix()
    ys = np.asarray(ys, dtype=float)
    return np.concatenate([table.weights_batch(chunk) @ mat.T for chunk in row_chunks(ys, table.counts.shape[0])])


def expected_payoff_mixed(game: SymmetricGame, x1: Sequence[float], y: Sequence[float]) -> float:
    """Expected payoff of mixed strategy x1 against opponents i.i.d. ~ y."""
    xv = as_strategy(x1, game.A)
    return float(xv @ payoff_vector(game, y))


def realized_payoff_vector(game: SymmetricGame, counts: Sequence[int]) -> np.ndarray:
    """Payoff of every action against one realized opponent count vector."""
    return game.payoff_matrix()[:, game.count_table().index(counts)].copy()


def realized_payoff_vectors(game: SymmetricGame, actions: np.ndarray) -> np.ndarray:
    """realized_payoff_vector for each row of opponent actions in [0, A):
    (T, n-1) -> (T, A)."""
    rows = game.count_table().rows(counts_from_actions(actions, game.A))
    return game.payoff_matrix().T[rows]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    worst_violation: float
    worst_profile: tuple[int, ...] | None
    num_profiles: int

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        msg = f"zero-sum check: {status} over {self.num_profiles} profiles, worst violation {self.worst_violation:.3g}"
        if not self.passed and self.worst_profile is not None:
            msg += f" at profile {self.worst_profile}"
        return msg


def validate(game: SymmetricGame) -> ValidationReport:
    """Check the zero-sum identity over every full action profile.

    For each count vector c with total n, the payoffs of all n players must
    sum to zero:  sum_a c[a] * payoff(a, c - e_a) == 0 within 1e-9 * scale.
    Refuses (rather than silently sampling) when the enumeration exceeds
    MAX_PROFILES.
    """
    num = num_compositions(game.n, game.A)
    if num > MAX_PROFILES:
        raise SizeCapExceeded(f"{num} full profiles exceed the cap of {MAX_PROFILES}; validation refused")
    full = compositions(game.n, game.A)
    table = game.count_table()
    mat = game.payoff_matrix()
    # each profile's sum runs over its actions in order, as a loop over them would
    total = np.zeros(len(full))
    for a in range(game.A):
        live = full[:, a] > 0
        others = full[live]
        others[:, a] -= 1
        total[live] += full[live, a] * mat[a, table.rows(others)]
    violation = np.abs(total)
    k = int(np.argmax(violation))
    worst = float(violation[k])
    worst_profile = tuple(int(v) for v in full[k]) if worst > 0.0 else None
    return ValidationReport(worst <= PROB_TOL * game.scale, worst, worst_profile, num)


# ---------------------------------------------------------------------------
# Built-in games.
# ---------------------------------------------------------------------------

def majority3() -> SymmetricGame:
    """3-player majority vote on {0, 1}: majority wins 1/2 each, loner loses 1.
    Its payoff is extended_majority(3, 2)'s."""
    return SymmetricGame("majority3", 3, 2, _extended_majority_payoff_fn(3), 1.0, kind="majority3")


def minority3() -> SymmetricGame:
    """3-player minority game on {0, 1}: loner wins 1, majority loses 1/2 each.
    Its payoff is majority3's negated, from +0.0 so that unanimity stays +0.0."""
    majority = _extended_majority_payoff_fn(3)
    return SymmetricGame("minority3", 3, 2, lambda a, counts: 0.0 - majority(a, counts), 1.0, kind="minority3")


def _sdg_payoff_fn(n: int) -> Callable[[int, np.ndarray], np.ndarray]:
    # Actions 0, 1, 2 stand for A, B, C.  The dominance order flips on the
    # count of action A among all n players.  A division runs only on a
    # non-zero denominator; a zero indicator subtracts +0.0, which is exact.
    def pay(a: int, counts: np.ndarray) -> np.ndarray:
        full = np.array(counts, dtype=np.int64)
        full[..., a] += 1
        flip = 5 * full[..., 0] > n
        # the counts (ni, nj, nk) in rank order and a's rank: B > A > C when flipped, else C > B > A
        ni, nj, nk = (np.where(flip, full[..., i], full[..., j]) for i, j in ((1, 2), (0, 1), (2, 0)))
        rank = np.where(flip, (1, 0, 2)[a], (2, 1, 0)[a])
        share = np.where(nj + nk > 0, ni / np.maximum(nj + nk, 1), 0.0)
        top = np.where(nj + nk > 0, 1.0, 0.0)
        middle = np.where(nk > 0, 1.0, 0.0) - share
        bottom = (0.0 - share) - np.where(nk > 0, nj / np.maximum(nk, 1), 0.0)
        return np.choose(rank, (top, middle, bottom))

    return pay


def sdg(n: int = 30) -> SymmetricGame:
    """Switch dominance game on {A, B, C}: C is dominated while enough players
    pick A, dominating otherwise.  Payoffs telescope to zero-sum by design.

    |payoff| peaks at n-1 (a lone bottom-ranked player against a unanimous
    field), which sets the scale bound.
    """
    if n < 2:
        raise ValueError("sdg requires n >= 2")
    return SymmetricGame(f"sdg({n})", n, 3, _sdg_payoff_fn(n), float(n - 1), kind="sdg", params={"n": n})


def _majority_symbol_payoff(a: int, b: int, c: int) -> float:
    """3-player majority vote extended with interchangeable dummy actions.

    Actions outside {0, 1} collapse to a single dummy symbol.  A player
    whose symbol is shared by another gets 1/2, a lone symbol against a
    pair gets -1, unanimity gets 0.  In the one remaining profile class
    (all three symbols distinct) the dummy is the loser at -1 and the two
    binary players split the remainder.
    """
    sa = a if a < 2 else 2
    sb = b if b < 2 else 2
    sc = c if c < 2 else 2
    if sa == sb == sc:
        return 0.0
    if sa == sb or sa == sc:
        return 0.5
    if sb == sc:
        return -1.0
    # all distinct: symbols are {0, 1, dummy}
    return -1.0 if sa == 2 else 0.5


def _extended_majority_payoff_fn(n: int) -> Callable[[int, np.ndarray], np.ndarray]:
    scale = 1.0 / ((n - 1) * (n - 2))

    def pay(a: int, counts: np.ndarray) -> np.ndarray:
        # Average of the 3-player payoff over all ordered pairs of distinct
        # opponents, computed from action counts.  A pair of actions that no
        # pair of opponents plays adds 0 * payoff = +-0.0, which leaves the
        # sum, never -0.0, as it is.
        total = np.zeros(counts.shape[:-1])
        for b in range(counts.shape[-1]):
            cb = counts[..., b]
            for c in range(counts.shape[-1]):
                mult = cb * (cb - 1) if b == c else cb * counts[..., c]
                total += mult * _majority_symbol_payoff(a, b, c)
        return total * scale

    return pay


def extended_majority(n: int = 3, num_actions: int = 2) -> SymmetricGame:
    """Pairwise-averaged majority vote with optional dummy actions.

    With n=3 and two actions this is exactly the 3-player majority game.
    Extra actions beyond {0, 1} are penalized dummies.
    """
    if n < 3:
        raise ValueError("extended_majority requires n >= 3")
    if num_actions < 2:
        raise ValueError("extended_majority requires A >= 2")
    return SymmetricGame(
        f"extended_majority({n},{num_actions})",
        n,
        num_actions,
        _extended_majority_payoff_fn(n),
        1.0,
        kind="extended_majority",
        params={"n": n, "num_actions": num_actions},
    )


def builtin_game(name: str, **params) -> SymmetricGame:
    """Construct a built-in game by name.

    Names: majority3, minority3, sdg (param n), extended_majority
    (params n, num_actions).
    """
    builders = {
        "majority3": majority3,
        "minority3": minority3,
        "sdg": sdg,
        "extended_majority": extended_majority,
    }
    if name not in builders:
        raise ValueError(f"unknown game {name!r}; choose from {sorted(builders)}")
    check_fields(params, inspect.signature(builders[name]).parameters, f"game {name!r}")
    return builders[name](**params)


# ---------------------------------------------------------------------------
# JSON game documents.
# ---------------------------------------------------------------------------

def game_to_json(game: SymmetricGame) -> dict:
    """Serialize a game.  Built-ins serialize by name; custom games dump the
    full payoff table keyed by "a|c0,c1,..."."""
    if game.kind != "custom":
        return {"name": game.kind, **game.params}
    table, mat = game.count_table(), game.payoff_matrix()
    payoffs = {
        f"{a}|{','.join(str(int(v)) for v in row)}": float(mat[a, k])
        for a in range(game.A)
        for k, row in enumerate(table.counts)
    }
    return {"custom": {"n": game.n, "A": game.A, "payoff_table": payoffs}}


def check_fields(doc: dict, reads, owner: str) -> None:
    """Refuse, naming them, the fields of a document its owner does not read."""
    unread = sorted(set(doc) - set(reads))
    if unread:
        raise ValueError(f"unknown fields {unread}: {owner} reads only {sorted(reads)}")


# the JSON type each Python type stands for when a document is read
_JSON_TYPES = {int: "a JSON integer", float: "a JSON number", str: "a JSON string",
               list: "a JSON array", dict: "a JSON object"}


def is_json(value, kind: type) -> bool:
    """Whether a value parsed from JSON has the JSON type `kind` stands for:
    int an integer, float any number, str, list or dict.  A bool is neither
    an integer nor a number."""
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def json_field(doc: dict, name: str, kind: type):
    """The field `name` of a parsed JSON document, refused, naming it, when
    it is missing or does not have the JSON type of `kind` (is_json)."""
    if name not in doc:
        raise ValueError(f"missing field {name!r}")
    value = doc[name]
    if not is_json(value, kind):
        raise ValueError(f"field {name!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def game_from_json(doc: dict) -> SymmetricGame:
    """Inverse of game_to_json; a custom game takes no other field."""
    if not is_json(doc, dict):
        raise ValueError(f"a game document must be a JSON object, got {doc!r}")
    if "name" in doc:
        # every parameter of a built-in game is an integer
        params = {k: json_field(doc, k, int) for k in doc if k != "name"}
        return builtin_game(doc["name"], **params)
    if "custom" not in doc:
        raise ValueError("game document needs either 'name' or 'custom'")
    check_fields(doc, ("custom",), "a custom game document")
    spec = json_field(doc, "custom", dict)
    check_fields(spec, ("n", "A", "payoff_table"), "a custom game")
    n, A = json_field(spec, "n", int), json_field(spec, "A", int)
    entries = json_field(spec, "payoff_table", dict)
    for key, value in entries.items():
        if not (is_json(value, float) and math.isfinite(value)):
            raise ValueError(f"payoff {key!r} must be a finite JSON number, got {value!r}")
    mat = None  # (A, K) in count-table order, filled once every key is checked, before the game is returned
    game = SymmetricGame("custom", n, A, lambda a, counts: mat[a, table.rows(counts)],
                         max(map(abs, entries.values()), default=0.0) or 1.0)
    table = game.count_table()
    # game_to_json's keys in its order, one spelling per entry, so no key can stand in for another
    keys = {f"{a}|{','.join(map(str, c))}": (a, k) for a in range(A) for k, c in enumerate(table.counts.tolist())}
    for key in entries:
        if key not in keys:
            raise ValueError(f"bad payoff key {key!r} for n={n}, A={A}: want a|c0,...,c{A - 1} "
                             f"with 0 <= a < {A} and counts >= 0 summing to {n - 1}")
    for key in keys:
        if key not in entries:
            raise ValueError(f"payoff table for n={n}, A={A} has no entry {key!r}")
    mat = np.empty((A, len(table.counts)))
    for key, value in entries.items():
        mat[keys[key]] = float(value)
    return game


def load_game(path_or_name: str, **params) -> SymmetricGame:
    """Load `file:<path>` as a JSON game document, else treat as builtin name."""
    if path_or_name.startswith("file:"):
        with open(path_or_name[5:]) as fh:
            return game_from_json(json.load(fh))
    return builtin_game(path_or_name, **params)
