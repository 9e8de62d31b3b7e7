"""Match driver, opponent schedules, and regret metrics.

A match pits one schedule-driven learner against n-1 opponents who all draw
from a common per-round meta-strategy.  The schedule fixes that sequence;
the two hard schedules batch the horizon and flip a coin per batch, which
is the construction that separates the adaptive learners from each other.

Nothing in a match reacts to the learner's play, so `run_matches` draws
each seed's randomness for the whole match up front and runs the learner's
whole-match form, which for SAOL is batched over the seeds (in batches of
bounded size, so memory does not grow with the seed count).  `run_match` is
`run_matches` with one seed.  A seed's transcript does not depend on the
other seeds in the call, and is byte-identical to a round-by-round loop over
the single-step learner API, which the tests keep as reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .games import (
    CHUNK_ENTRIES,
    SymmetricGame,
    as_strategy,
    check_fields,
    is_json,
    json_field,
    payoff_vector,
    realized_payoff_vectors,
)
from .learners import LearnerSpec, clone_strategies, hedge_strategies, saol_strategies
from .sampling import actions_from_uniforms, role_rngs


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class FixedSchedule:
    y: tuple[float, ...]


@dataclass(frozen=True)
class SequenceSchedule:
    ys: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class BiasedCoinSchedule:
    """Batched +/-eps coin schedule over the first two actions.

    Batch length Delta = max(1, round((T/V)^(2/3))) and
    eps = min(1/(8*sqrt(Delta)), V*Delta/T); each batch independently plays
    (1/2-eps, 1/2+eps, 0, ...) or its mirror.  Only meaningful on the
    pairwise-averaged majority family, which the realizer enforces.
    """

    v_budget: float
    horizon: int

    def batch_length(self) -> int:
        return max(1, round((self.horizon / self.v_budget) ** (2.0 / 3.0)))

    def epsilon(self) -> float:
        d = self.batch_length()
        return min(1.0 / (8.0 * np.sqrt(d)), self.v_budget * d / self.horizon)


@dataclass(frozen=True)
class PureSwapSchedule:
    """Batched pure-action coin schedule: each batch of length
    max(1, round(T/V)) plays all-0 or all-1."""

    v_budget: float
    horizon: int

    def batch_length(self) -> int:
        return max(1, round(self.horizon / self.v_budget))


Schedule = FixedSchedule | SequenceSchedule | BiasedCoinSchedule | PureSwapSchedule


def _check_budget(v: float, horizon: int):
    if not 1.0 <= v <= horizon:
        raise ScheduleError(f"variation budget {v} outside [1, {horizon}]")


def realize_schedule(
    schedule: Schedule, game: SymmetricGame, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Materialize the per-round meta-strategies as a (T, A) array.

    Batch coins are drawn here, once, and frozen; the schedule never reacts
    to the learner.
    """
    A = game.A
    if isinstance(schedule, FixedSchedule):
        y = as_strategy(schedule.y, A)
        return np.tile(y, (T, 1))
    if isinstance(schedule, SequenceSchedule):
        if len(schedule.ys) != T:
            raise ScheduleError(f"sequence has {len(schedule.ys)} rounds, expected {T}")
        return np.stack([as_strategy(y, A) for y in schedule.ys])
    if isinstance(schedule, BiasedCoinSchedule):
        if game.kind not in ("extended_majority", "majority3"):
            raise ScheduleError(
                "the +/-eps hard schedule is tied to the pairwise majority family"
            )
        coins = _batch_coins(schedule, T, rng)
        eps = schedule.epsilon()
        y_cases = np.zeros((2, A))
        y_cases[0, 0], y_cases[0, 1] = 0.5 - eps, 0.5 + eps
        y_cases[1, 0], y_cases[1, 1] = 0.5 + eps, 0.5 - eps
        return y_cases[coins]
    if isinstance(schedule, PureSwapSchedule):
        return np.eye(2, A)[_batch_coins(schedule, T, rng)]
    raise TypeError(f"unknown schedule {schedule!r}")


def _batch_coins(schedule: BiasedCoinSchedule | PureSwapSchedule, T: int, rng: np.random.Generator) -> np.ndarray:
    """The (T,) coin of each round of a batched coin schedule: one fair coin
    per batch of schedule.batch_length() rounds, after the horizon and
    budget checks."""
    if T != schedule.horizon:
        raise ScheduleError("schedule horizon does not match T")
    _check_budget(schedule.v_budget, T)
    delta = schedule.batch_length()
    coins = rng.integers(0, 2, size=-(-T // delta))
    return coins[np.arange(T) // delta]


def _payoff_vectors_by_row(game: SymmetricGame, ys: np.ndarray) -> np.ndarray:
    """payoff_vector of each row of a (T, A) schedule, once per distinct row among the
    first rows of its runs of equal rows (payoff_vectors_batch would round differently)."""
    starts = np.ones(len(ys), dtype=bool)
    np.any(ys[1:] != ys[:-1], axis=1, out=starts[1:])
    distinct, row_of = np.unique(ys[starts], axis=0, return_inverse=True)
    vectors = np.array([payoff_vector(game, y) for y in distinct]).reshape(-1, game.A)
    return vectors[row_of.reshape(-1)[np.cumsum(starts) - 1]]


@dataclass
class Transcript:
    """Per-round record of one seed's match; the substrate of every metric.
    It holds no game, learner or schedule: the caller of run_matches has them.

    u_vectors and expected follow from the game, y_seq and the strategies.
    y_seq, opponent_actions and u_vectors depend on the game, schedule, T
    and seed alone: every learner kind faces the same opponents.
    """

    seed: int
    strategies: np.ndarray  # (T, A) learner strategy x^t
    actions: np.ndarray  # (T,) learner action
    opponent_actions: np.ndarray  # (T, n-1)
    realized: np.ndarray  # (T,) realized payoff
    y_seq: np.ndarray  # (T, A) meta-strategy per round
    u_vectors: np.ndarray  # (T, A) expected payoff of each action
    expected: np.ndarray  # (T,) u^t(x^t)

    @property
    def T(self) -> int:
        return self.strategies.shape[0]

    def to_csv(self) -> str:
        """One header line, then per round t, the strategy, the action, and
        the realized, expected and oracle payoffs; floats as repr."""
        A = self.strategies.shape[1]
        head = ["t", *(f"x{a}" for a in range(A)), "action", "realized_payoff", "expected_payoff", "oracle_payoff"]
        lines = [",".join(head)]
        rounds = zip(
            self.strategies.tolist(),
            self.actions.tolist(),
            self.realized.tolist(),
            self.expected.tolist(),
            self.u_vectors.max(axis=1).tolist(),
        )
        for t, (x, action, realized, expected, oracle) in enumerate(rounds, 1):
            lines.append(f"{t},{','.join(map(repr, x))},{action},{realized!r},{expected!r},{oracle!r}")
        lines.append("")
        return "\n".join(lines)


def _draw_match(game: SymmetricGame, schedule: Schedule, T: int, seed: int):
    """One seed's meta-strategies, opponent actions and realized gains, and
    its learner stream: the schedule, learner, and opponents each own a
    spawned stream, read in the order a round-by-round match reads it."""
    rngs = role_rngs(seed)
    ys = realize_schedule(schedule, game, T, rngs["schedule"])
    opp_actions = actions_from_uniforms(ys, rngs["opponents"].random((T, game.n - 1)))
    return ys, opp_actions, realized_payoff_vectors(game, opp_actions), rngs["learner"]


def run_matches(
    game: SymmetricGame,
    learner: LearnerSpec,
    schedule: Schedule,
    T: int,
    seeds,
) -> Iterator[Transcript]:
    """Play T rounds of learner vs schedule once per seed, and yield each
    seed's transcript in seed order.  A transcript is deterministic given
    its seed alone: it does not depend on the other seeds or their order.
    Hedge and clone play one seed at a time, and SAOL batches of at most
    CHUNK_ENTRIES // (T * A) seeds, so a caller that keeps only each
    transcript's metrics holds one batch at a time, however many seeds."""
    A = game.A
    seeds = list(seeds)
    size = max(1, CHUNK_ENTRIES // max(1, T * A)) if learner.kind == "saol" else 1
    for first in range(0, len(seeds), size):
        batch = seeds[first : first + size]
        draws = [_draw_match(game, schedule, T, seed) for seed in batch]
        if learner.kind == "hedge":
            strategies = [hedge_strategies(draws[0][2] / game.scale, learner.eta, learner.rule)]
        elif learner.kind == "saol":
            gains = np.stack([gains for _, _, gains, _ in draws]) / game.scale
            strategies = saol_strategies(gains, learner.horizon or T, learner.eta)
        else:
            strategies = [clone_strategies(draws[0][1][:, 0], A)]
        for seed, (ys, opp_actions, gains_raw, rng), x in zip(batch, draws, strategies):
            actions = actions_from_uniforms(x, rng.random((T, 1)))[:, 0]
            u_vectors = _payoff_vectors_by_row(game, ys)
            yield Transcript(seed, x, actions, opp_actions, gains_raw[np.arange(T), actions], ys, u_vectors,
                             np.vecdot(x, u_vectors))


def run_match(
    game: SymmetricGame,
    learner: LearnerSpec,
    schedule: Schedule,
    T: int,
    seed: int,
) -> Transcript:
    """run_matches with one seed."""
    return next(run_matches(game, learner, schedule, T, [seed]))


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    u_avg: float
    static_regret: float  # gap to the best fixed action in hindsight, on expected payoffs
    dynamic_regret: float  # gap to the per-round best action, on expected payoffs
    best_fixed: float  # best single action's average payoff
    dynamic_oracle: float  # average per-round best payoff; >= 0, since playing y itself earns 0
    variation: float  # realized total sup-norm drift of the expected payoff function
    realized_avg: float


def compute_metrics(transcript: Transcript) -> Metrics:
    u, expected = transcript.u_vectors, transcript.expected
    best_total = u.sum(axis=0).max()
    oracle = u.max(axis=1)
    earned = expected.sum()
    return Metrics(
        u_avg=float(expected.mean()),
        static_regret=float(best_total - earned),
        dynamic_regret=float(oracle.sum() - earned),
        best_fixed=float(best_total) / transcript.T,
        dynamic_oracle=float(oracle.mean()),
        variation=float(np.abs(np.diff(u, axis=0)).max(axis=1).sum()),
        realized_avg=float(transcript.realized.mean()),
    )


# the fields each schedule kind reads, every one required, and their JSON types
SCHEDULE_FIELDS = {"fixed": {"y": list}, "sequence": {"ys": list},
                   "biased_coin": {"v_budget": float, "horizon": int}, "pure_swap": {"v_budget": float, "horizon": int}}


def _numbers(values, name: str) -> tuple[float, ...]:
    """A JSON array of numbers as floats, refused, naming its field, otherwise."""
    if not is_json(values, list) or not all(is_json(v, float) for v in values):
        raise ScheduleError(f"field {name!r}: {values!r} is not an array of JSON numbers")
    return tuple(float(v) for v in values)


def schedule_from_json(doc: dict) -> Schedule:
    """Schedule documents: {"kind": K, **fields}, with exactly the fields of SCHEDULE_FIELDS[K]."""
    kind = doc.get("kind")
    if kind not in SCHEDULE_FIELDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}; choose from {tuple(SCHEDULE_FIELDS)}")
    check_fields(doc, ("kind", *SCHEDULE_FIELDS[kind]), kind)
    fields = {name: json_field(doc, name, json_type) for name, json_type in SCHEDULE_FIELDS[kind].items()}
    if kind == "fixed":
        return FixedSchedule(_numbers(fields["y"], "y"))
    if kind == "sequence":
        return SequenceSchedule(tuple(_numbers(y, "ys") for y in fields["ys"]))
    if kind == "biased_coin":
        return BiasedCoinSchedule(float(fields["v_budget"]), fields["horizon"])
    return PureSwapSchedule(float(fields["v_budget"]), fields["horizon"])
