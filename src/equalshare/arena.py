"""Match driver, opponent schedules, and regret metrics.

A match pits one schedule-driven learner against n-1 opponents who all draw
from a common per-round meta-strategy.  The schedule fixes that sequence;
the two hard schedules batch the horizon and flip a coin per batch, which
is the construction that separates the adaptive learners from each other.

Nothing in a match reacts to the learner's play, so a match is a
(schedule, seed) pair whose randomness `run_matches` draws once, up front:
the meta-strategies, the opponents' actions and gains, and the uniforms the
learner samples its actions with.  Every learner in the call then plays
that draw through its whole-match form, which for SAOL is batched over the
matches (in batches of bounded size, so memory does not grow with the
match count).  `run_match` is `run_matches` with one learner and one match.
A transcript does not depend on the other matches or learners in the call,
and is byte-identical to a round-by-round loop over the single-step learner
API, which the tests keep as reference.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
        columns = [range(1, self.T + 1), *self.strategies.T.tolist(), self.actions.tolist(), self.realized.tolist(),
                   self.expected.tolist(), self.u_vectors.max(axis=1).tolist()]
        rows = map(",".join, zip(*(map(repr, column) for column in columns)))
        return "\n".join([",".join(head), *rows, ""])


class _Draw(NamedTuple):
    """A match's randomness, the same for every learner that plays it."""

    ys: np.ndarray  # (T, A) meta-strategy per round
    opponent_actions: np.ndarray  # (T, n-1)
    gains: np.ndarray  # (T, A) raw realized payoff of each action
    learner: np.random.Generator  # the stream the learner samples its actions from


def _draw_match(game: SymmetricGame, schedule: Schedule, T: int, seed: int) -> _Draw:
    """One match's draw: the schedule, learner, and opponents each own a
    spawned stream, read in the order a round-by-round match reads it."""
    rngs = role_rngs(seed)
    ys = realize_schedule(schedule, game, T, rngs["schedule"])
    opp_actions = actions_from_uniforms(ys, rngs["opponents"].random((T, game.n - 1)))
    return _Draw(ys, opp_actions, realized_payoff_vectors(game, opp_actions), rngs["learner"])


def _strategies(game: SymmetricGame, learner: LearnerSpec, draws: list[_Draw], T: int):
    """Each draw's (T, A) strategies for one learner: SAOL plays the whole
    batch in one call, hedge and clone one draw at a time as they are read."""
    if learner.kind == "saol":
        return saol_strategies(np.stack([d.gains for d in draws]) / game.scale, learner.horizon or T, learner.eta)
    if learner.kind == "hedge":
        return (hedge_strategies(d.gains / game.scale, learner.eta, learner.rule) for d in draws)
    return (clone_strategies(d.opponent_actions[:, 0], game.A) for d in draws)


def run_matches(
    game: SymmetricGame,
    learners: Sequence[LearnerSpec],
    matches: Iterable[tuple[Schedule, int]],
    T: int,
) -> Iterator[list[Transcript]]:
    """Play T rounds of each learner on each (schedule, seed) match, and
    yield each match's transcripts, one per learner, in match order.  A
    match is drawn once and every learner plays that draw; a transcript is
    deterministic given its learner, schedule and seed alone.  With a SAOL
    learner the matches go in batches of at most CHUNK_ENTRIES // (T * A),
    otherwise one at a time, so a caller that keeps only each transcript's
    metrics holds one batch at a time, however many matches."""
    if not learners:
        raise ValueError("run_matches needs at least one learner")
    matches = list(matches)
    size = max(1, CHUNK_ENTRIES // max(1, T * game.A)) if any(spec.kind == "saol" for spec in learners) else 1
    for first in range(0, len(matches), size):
        yield from _play_batch(game, learners, matches[first : first + size], T)


def _play_batch(
    game: SymmetricGame, learners: Sequence[LearnerSpec], batch: list[tuple[Schedule, int]], T: int
) -> Iterator[list[Transcript]]:
    """Draw a batch of matches and yield each one's transcripts; the batch
    is released when this generator ends, before the next one is drawn.
    A match's action uniforms and expected payoffs are made when it is
    reached, once for all its learners, so the batch never holds them: the
    uniforms do not depend on the strategies, so every learner samples its
    actions from the same doubles."""
    draws = [_draw_match(game, schedule, T, seed) for schedule, seed in batch]
    plays = [_strategies(game, spec, draws, T) for spec in learners]
    for (_, seed), (ys, opp_actions, gains, rng), xs in zip(batch, draws, zip(*plays)):
        uniforms, u_vectors = rng.random((T, 1)), _payoff_vectors_by_row(game, ys)
        transcripts = []
        for x in xs:
            actions = actions_from_uniforms(x, uniforms)[:, 0]
            transcripts.append(Transcript(seed, x, actions, opp_actions, gains[np.arange(T), actions], ys, u_vectors,
                                          np.vecdot(x, u_vectors)))
        yield transcripts


def run_match(
    game: SymmetricGame,
    learner: LearnerSpec,
    schedule: Schedule,
    T: int,
    seed: int,
) -> Transcript:
    """run_matches with one learner and one match."""
    (transcript,) = next(run_matches(game, [learner], [(schedule, seed)], T))
    return transcript


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
