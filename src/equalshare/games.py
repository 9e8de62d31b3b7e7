"""Symmetric zero-sum games in opponent-count form.

A symmetric game is fully described by the payoff of a single player as a
function of (own action, multiset of opponent actions).  We encode the
multiset as a count vector over the shared action set, which makes exact
expectations against i.i.d. opponents a sum over C(n-2+A, A-1) multinomial
terms instead of A^(n-1) joint actions.
"""

from __future__ import annotations

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


# The most entries a dense lookup or search array may have: the count
# index, and minimax_independent's (Nx, Ny^2) value matrix.
MAX_ARRAY_ENTRIES = 2**25


def as_strategy(probs: Sequence[float], num_actions: int | None = None) -> np.ndarray:
    """Validate and return a mixed strategy as a float64 array.

    Entries must be non-negative and sum to 1 within 1e-9 (absolute).
    """
    x = np.asarray(probs, dtype=float)
    if x.ndim != 1:
        raise InvalidStrategyError(f"strategy must be a vector, got shape {x.shape}")
    if num_actions is not None and x.shape[0] != num_actions:
        raise DimensionError(f"strategy has {x.shape[0]} entries, expected {num_actions}")
    if np.any(x < 0):
        raise InvalidStrategyError(f"negative probability in {x}")
    s = float(x.sum())
    if abs(s - 1.0) > PROB_TOL:
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
        size = (total + 1) ** (num_actions - 1)
        if size > MAX_ARRAY_ENTRIES:
            raise SizeCapExceeded(
                f"count index of {size} entries for total {total}, {num_actions} actions "
                f"exceeds the cap of {MAX_ARRAY_ENTRIES}"
            )
        counts = compositions(total, num_actions)
        lg = math.lgamma(total + 1)
        log_coeffs = lg - np.sum(
            np.vectorize(math.lgamma)(counts + 1.0), axis=1
        )
        radix = np.zeros(num_actions, dtype=np.int64)
        radix[:-1] = (total + 1) ** np.arange(num_actions - 2, -1, -1, dtype=np.int64)
        index = np.zeros(size, dtype=np.int64)
        index[counts @ radix] = np.arange(counts.shape[0])
        return cls(total, counts, log_coeffs, index, radix)

    def rows(self, counts: np.ndarray) -> np.ndarray:
        """Row numbers of count vectors of this table's total: (..., A) -> (...)."""
        return self._index[counts @ self._radix]

    def switch_rows(self, counts: np.ndarray) -> np.ndarray:
        """(..., A) -> (..., A, A): entry [b, a] is the row of counts - e_b + e_a.
        Where counts[b] == 0 that vector does not exist and the entry is an
        arbitrary row, for the caller to mask."""
        codes = (counts @ self._radix)[..., None, None] - self._radix[:, None] + self._radix
        return self._index[np.minimum(np.maximum(codes, 0), len(self._index) - 1)]

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
        place in one (Ny, K) array."""
        logy = np.where(ys > 0.0, np.log(np.where(ys > 0.0, ys, 1.0)), LOG_ZERO)
        w = logy @ self.counts.T
        w += self.log_coeffs
        return np.exp(w, out=w)


@dataclass
class SymmetricGame:
    """An n-player symmetric zero-sum game over a shared action set.

    payoff(a, counts) is the payoff of a player using action a when the
    remaining n-1 players' actions have the given per-action counts.
    scale bounds |payoff| over the whole domain.
    """

    name: str
    n: int
    A: int
    payoff: Callable[[int, tuple[int, ...]], float]
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
        """(A, K) array of payoff(a, counts) over count_table()'s rows, built once."""
        if "payoffs" not in self._cache:
            counts = self.count_table().counts
            mat = np.empty((self.A, counts.shape[0]))
            for a in range(self.A):
                for k, row in enumerate(counts):
                    mat[a, k] = self.payoff(a, tuple(int(v) for v in row))
            self._cache["payoffs"] = mat
        return self._cache["payoffs"]


def profile_payoff(game: SymmetricGame, a: int, others: Sequence[int]) -> float:
    """Payoff of action `a` against opponents with the given action counts."""
    c = np.asarray(others, dtype=np.int64)
    if c.shape != (game.A,):
        raise DimensionError(f"count vector has shape {c.shape}, expected ({game.A},)")
    if np.any(c < 0):
        raise ValueError(f"negative count in {others}")
    if int(c.sum()) != game.n - 1:
        raise ValueError(f"opponent counts sum to {int(c.sum())}, expected {game.n - 1}")
    if not 0 <= a < game.A:
        raise ValueError(f"action {a} outside [0, {game.A})")
    return float(game.payoff(a, tuple(int(v) for v in c)))


def expected_payoff_iid(game: SymmetricGame, a: int, y: Sequence[float]) -> float:
    """Exact expected payoff of action `a` against n-1 opponents i.i.d. ~ y."""
    yv = as_strategy(y, game.A)
    table = game.count_table()
    return float(game.payoff_matrix()[a] @ table.weights(yv))


def payoff_vector(game: SymmetricGame, y: Sequence[float]) -> np.ndarray:
    """Expected payoff of every action against n-1 opponents i.i.d. ~ y."""
    yv = as_strategy(y, game.A)
    return game.payoff_matrix() @ game.count_table().weights(yv)


def payoff_vectors_batch(game: SymmetricGame, ys: np.ndarray) -> np.ndarray:
    """payoff_vector for many meta-strategies at once: (Ny, A) -> (Ny, A)."""
    w = game.count_table().weights_batch(np.asarray(ys, dtype=float))
    return w @ game.payoff_matrix().T


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


def validate(game: SymmetricGame, max_profiles: int = 250_000) -> ValidationReport:
    """Check the zero-sum identity over every full action profile.

    For each count vector c with total n, the payoffs of all n players must
    sum to zero:  sum_a c[a] * payoff(a, c - e_a) == 0 within 1e-9 * scale.
    Refuses (rather than silently sampling) when the enumeration is too big.
    """
    num = num_compositions(game.n, game.A)
    if num > max_profiles:
        raise SizeCapExceeded(
            f"{num} full profiles exceed the cap of {max_profiles}; validation refused"
        )
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
# Dense joint-action form, for equilibrium verification on small games.
# ---------------------------------------------------------------------------

@dataclass
class DenseGame:
    """Full payoff tensors U_i over joint actions, one per player.

    utilities has shape (n, A, ..., A) with n trailing action axes.
    Only intended for n <= 4.
    """

    n: int
    A: int
    utilities: np.ndarray

    def __post_init__(self):
        expected = (self.n,) + (self.A,) * self.n
        if self.utilities.shape != expected:
            raise DimensionError(
                f"utilities shape {self.utilities.shape}, expected {expected}"
            )


@dataclass(frozen=True)
class DenseValidationReport:
    zero_sum: bool
    symmetric: bool
    worst_zero_sum: float
    worst_symmetry: float

    @property
    def passed(self) -> bool:
        return self.zero_sum and self.symmetric

    def __str__(self):
        return (
            f"dense check: zero-sum {'pass' if self.zero_sum else 'FAIL'} "
            f"(worst {self.worst_zero_sum:.3g}), symmetry "
            f"{'pass' if self.symmetric else 'FAIL'} (worst {self.worst_symmetry:.3g})"
        )


# The largest games dense_from_symmetric expands: A^n joint actions per player.
DENSE_MAX_PLAYERS = 4
DENSE_MAX_ACTIONS = 8


def dense_from_symmetric(game: SymmetricGame) -> DenseGame:
    """Expand an opponent-count game into per-player joint-action tensors."""
    if game.n > DENSE_MAX_PLAYERS or game.A > DENSE_MAX_ACTIONS:
        raise SizeCapExceeded(
            f"dense expansion refused for n={game.n}, A={game.A} "
            f"(caps: n<={DENSE_MAX_PLAYERS}, A<={DENSE_MAX_ACTIONS})"
        )
    n, A = game.n, game.A
    joints = np.indices((A,) * n).reshape(n, -1).T  # every joint action, in C order
    mat, table = game.payoff_matrix(), game.count_table()
    util = np.stack([
        mat[joints[:, i], table.rows(counts_from_actions(np.delete(joints, i, axis=1), A))]
        for i in range(n)
    ])
    return DenseGame(n, A, util.reshape((n,) + (A,) * n))


def validate_dense(dense: DenseGame, tol: float = 1e-9) -> DenseValidationReport:
    """Check the zero-sum and permutation-symmetry conditions on tensors."""
    import itertools

    total = dense.utilities.sum(axis=0)
    worst_zs = float(np.max(np.abs(total)))

    worst_sym = 0.0
    n = dense.n
    for sigma in itertools.permutations(range(n)):
        # A symmetric game satisfies U_i(a_1..a_n) = U_{sigma^-1(i)}(a_sigma(1)..a_sigma(n)).
        # With numpy's transpose convention, composing indices with sigma
        # means passing the inverse permutation as axes.
        inv = [0] * n
        for pos, p in enumerate(sigma):
            inv[p] = pos
        for i in range(n):
            permuted = np.transpose(dense.utilities[inv[i]], axes=inv)
            diff = float(np.max(np.abs(dense.utilities[i] - permuted)))
            worst_sym = max(worst_sym, diff)
    scale = float(np.max(np.abs(dense.utilities))) or 1.0
    return DenseValidationReport(
        worst_zs <= tol * scale, worst_sym <= tol * scale, worst_zs, worst_sym
    )


# ---------------------------------------------------------------------------
# Built-in games.
# ---------------------------------------------------------------------------

def _majority_payoff(a: int, counts: tuple[int, ...]) -> float:
    allies = counts[a] + 1
    if allies == 3:
        return 0.0
    return 0.5 if allies == 2 else -1.0


def _minority_payoff(a: int, counts: tuple[int, ...]) -> float:
    allies = counts[a] + 1
    if allies == 3:
        return 0.0
    return -0.5 if allies == 2 else 1.0


def majority3() -> SymmetricGame:
    """3-player majority vote on {0, 1}: majority wins 1/2 each, loner loses 1."""
    return SymmetricGame("majority3", 3, 2, _majority_payoff, 1.0, kind="majority3")


def minority3() -> SymmetricGame:
    """3-player minority game on {0, 1}: loner wins 1, majority loses 1/2 each."""
    return SymmetricGame("minority3", 3, 2, _minority_payoff, 1.0, kind="minority3")


def _sdg_payoff_fn(n: int) -> Callable[[int, tuple[int, ...]], float]:
    # Actions 0, 1, 2 stand for A, B, C.  The dominance order flips on the
    # count of action A among all n players; divisions are guarded by the
    # indicator so a zero indicator never evaluates its term.
    def pay(a: int, counts: tuple[int, ...]) -> float:
        full = [counts[0], counts[1], counts[2]]
        full[a] += 1
        if 5 * full[0] > n:
            order = (1, 0, 2)  # B > A > C
        else:
            order = (2, 1, 0)  # C > B > A
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


def _extended_majority_payoff_fn(n: int) -> Callable[[int, tuple[int, ...]], float]:
    scale = 1.0 / ((n - 1) * (n - 2))

    def pay(a: int, counts: tuple[int, ...]) -> float:
        # Average of the 3-player payoff over all ordered pairs of distinct
        # opponents, computed from action counts.
        total = 0.0
        for b, cb in enumerate(counts):
            if cb == 0:
                continue
            for c, cc in enumerate(counts):
                if cc == 0:
                    continue
                mult = cb * (cc - 1) if b == c else cb * cc
                if mult:
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


def game_from_json(doc: dict) -> SymmetricGame:
    """Inverse of game_to_json; a custom game takes no other field."""
    if "name" in doc:
        params = {k: v for k, v in doc.items() if k != "name"}
        return builtin_game(doc["name"], **params)
    if "custom" not in doc:
        raise ValueError("game document needs either 'name' or 'custom'")
    check_fields(doc, ("custom",), "a custom game document")
    spec = doc["custom"]
    check_fields(spec, ("n", "A", "payoff_table"), "a custom game")
    n, A = int(spec["n"]), int(spec["A"])
    table = {}
    for key, value in spec["payoff_table"].items():
        a_str, counts_str = key.split("|")
        counts = tuple(int(v) for v in counts_str.split(","))
        if len(counts) != A or sum(counts) != n - 1:
            raise ValueError(f"bad payoff key {key!r} for n={n}, A={A}")
        table[(int(a_str), counts)] = float(value)

    def pay(a: int, counts: tuple[int, ...]) -> float:
        try:
            return table[(a, counts)]
        except KeyError:
            raise ValueError(f"payoff table missing entry for action {a}, counts {counts}")

    scale = max(abs(v) for v in table.values()) or 1.0
    return SymmetricGame("custom", n, A, pay, scale, kind="custom")


def load_game(path_or_name: str, **params) -> SymmetricGame:
    """Load `file:<path>` as a JSON game document, else treat as builtin name."""
    if path_or_name.startswith("file:"):
        with open(path_or_name[5:]) as fh:
            return game_from_json(json.load(fh))
    return builtin_game(path_or_name, **params)
