"""Match driver, opponent schedules, and regret metrics.

A match pits one schedule-driven learner against n-1 opponents who all draw
from a common per-round meta-strategy.  The schedule fixes that sequence;
the two hard schedules batch the horizon and flip a coin per batch, which
is the construction that separates the adaptive learners from each other.

Nothing in a match reacts to the learner's play, so `run_match` draws each
role's randomness for the whole match up front and runs the learner's
whole-match form.  Its transcripts are byte-identical to a round-by-round
loop over the single-step learner API, which the tests keep as reference.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .games import (
    SymmetricGame,
    as_strategy,
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

    def describe(self) -> str:
        return f"fixed({','.join(f'{v:g}' for v in self.y)})"


@dataclass(frozen=True)
class SequenceSchedule:
    ys: tuple[tuple[float, ...], ...]

    def describe(self) -> str:
        return f"sequence(len={len(self.ys)})"


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

    def describe(self) -> str:
        return f"biased_coin(V={self.v_budget:g},T={self.horizon})"

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

    def describe(self) -> str:
        return f"pure_swap(V={self.v_budget:g},T={self.horizon})"

    def batch_length(self) -> int:
        return max(1, round(self.horizon / self.v_budget))


@dataclass(frozen=True)
class ReplaySchedule:
    """Replays the opponent actions (and meta-strategies) of a prior match."""

    opponent_actions: np.ndarray  # (T, n-1) ints
    ys: np.ndarray  # (T, A)

    def describe(self) -> str:
        return f"replay(len={self.opponent_actions.shape[0]})"


Schedule = FixedSchedule | SequenceSchedule | BiasedCoinSchedule | PureSwapSchedule | ReplaySchedule


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
    if isinstance(schedule, ReplaySchedule):
        if schedule.ys.shape != (T, A):
            raise ScheduleError("replay length or action count mismatch")
        return schedule.ys.copy()
    if isinstance(schedule, BiasedCoinSchedule):
        if game.kind not in ("extended_majority", "majority3"):
            raise ScheduleError(
                "the +/-eps hard schedule is tied to the pairwise majority family"
            )
        if T != schedule.horizon:
            raise ScheduleError("schedule horizon does not match T")
        _check_budget(schedule.v_budget, T)
        delta = schedule.batch_length()
        eps = schedule.epsilon()
        num_batches = -(-T // delta)
        coins = rng.integers(0, 2, size=num_batches)
        y_cases = np.zeros((2, A))
        y_cases[0, 0], y_cases[0, 1] = 0.5 - eps, 0.5 + eps
        y_cases[1, 0], y_cases[1, 1] = 0.5 + eps, 0.5 - eps
        idx = coins[np.arange(T) // delta]
        return y_cases[idx]
    if isinstance(schedule, PureSwapSchedule):
        if T != schedule.horizon:
            raise ScheduleError("schedule horizon does not match T")
        _check_budget(schedule.v_budget, T)
        delta = schedule.batch_length()
        num_batches = -(-T // delta)
        coins = rng.integers(0, 2, size=num_batches)
        y_cases = np.zeros((2, A))
        y_cases[0, 0] = 1.0
        y_cases[1, 1] = 1.0
        idx = coins[np.arange(T) // delta]
        return y_cases[idx]
    raise TypeError(f"unknown schedule {schedule!r}")


def _payoff_vectors_by_row(game: SymmetricGame, ys: np.ndarray) -> np.ndarray:
    """payoff_vector of each row of a (T, A) schedule, once per distinct row
    (payoff_vectors_batch would round differently)."""
    distinct, row_of = np.unique(ys, axis=0, return_inverse=True)
    return np.array([payoff_vector(game, y) for y in distinct]).reshape(-1, game.A)[row_of.reshape(-1)]


@dataclass
class Transcript:
    """Per-round record of a match; the substrate of every metric.

    All expected quantities (u_vectors, expected) are recomputable from the
    game and y_seq; verify_consistency checks that.
    """

    game_name: str
    learner_desc: str
    schedule_desc: str
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

    def verify_consistency(self, game: SymmetricGame) -> float:
        """Max deviation between stored expectations and a recomputation."""
        u_dev = np.abs(_payoff_vectors_by_row(game, self.y_seq) - self.u_vectors)
        x_dev = np.abs(np.vecdot(self.strategies, self.u_vectors) - self.expected)
        return float(max(u_dev.max(initial=0.0), x_dev.max(initial=0.0)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        A = self.strategies.shape[1]
        writer.writerow(
            ["t"]
            + [f"x{a}" for a in range(A)]
            + ["action", "realized_payoff", "expected_payoff", "oracle_payoff"]
        )
        oracle = self.u_vectors.max(axis=1)
        for t in range(self.T):
            writer.writerow(
                [t + 1]
                + [repr(float(v)) for v in self.strategies[t]]
                + [
                    int(self.actions[t]),
                    repr(float(self.realized[t])),
                    repr(float(self.expected[t])),
                    repr(float(oracle[t])),
                ]
            )
        return buf.getvalue()

    def replay_document(self) -> dict:
        """Everything a later match needs to face the same opponents."""
        return {
            "game": self.game_name,
            "seed": self.seed,
            "schedule": self.schedule_desc,
            "opponent_actions": self.opponent_actions.tolist(),
            "meta_strategies": self.y_seq.tolist(),
        }


def run_match(
    game: SymmetricGame,
    learner: LearnerSpec,
    schedule: Schedule,
    T: int,
    seed: int,
) -> Transcript:
    """Play T rounds of learner vs schedule.  Deterministic given the seed:
    the schedule, learner, and opponents each own a spawned stream, and each
    stream is read in the order a round-by-round match would read it."""
    A = game.A
    rngs = role_rngs(seed)
    ys = realize_schedule(schedule, game, T, rngs["schedule"])
    if isinstance(schedule, ReplaySchedule):  # checked before any draw
        opp_actions = schedule.opponent_actions.astype(np.int64)
        if opp_actions.shape != (T, game.n - 1):
            raise ScheduleError("replay opponent actions shape mismatch")
        if np.any((opp_actions < 0) | (opp_actions >= A)):
            raise ScheduleError(f"replay opponent action outside [0, {A})")
    else:
        opp_actions = actions_from_uniforms(ys, rngs["opponents"].random((T, game.n - 1)))
    gains_raw = realized_payoff_vectors(game, opp_actions)
    if learner.kind == "hedge":
        strategies = hedge_strategies(gains_raw / game.scale, learner.eta, learner.rule)
    elif learner.kind == "saol":
        strategies = saol_strategies(gains_raw / game.scale, learner.horizon or T, learner.eta)
    else:
        strategies = clone_strategies(opp_actions[:, 0], A)
    actions = actions_from_uniforms(strategies, rngs["learner"].random((T, 1)))[:, 0]

    u_vectors = _payoff_vectors_by_row(game, ys)
    return Transcript(
        game.name,
        learner.describe(),
        schedule.describe(),
        seed,
        strategies,
        actions,
        opp_actions,
        gains_raw[np.arange(T), actions],
        ys,
        u_vectors,
        np.vecdot(strategies, u_vectors),
    )


def replay_of(transcript: Transcript) -> ReplaySchedule:
    return ReplaySchedule(transcript.opponent_actions.copy(), transcript.y_seq.copy())


def replay_from_document(doc: dict) -> ReplaySchedule:
    return ReplaySchedule(
        np.asarray(doc["opponent_actions"], dtype=np.int64),
        np.asarray(doc["meta_strategies"], dtype=float),
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    u_avg: float
    static_regret: float
    dynamic_regret: float
    best_fixed: float  # best single action's average payoff
    dynamic_oracle: float  # average per-round best payoff
    variation: float
    realized_avg: float

    def as_dict(self) -> dict:
        return {
            "u_avg": self.u_avg,
            "static_regret": self.static_regret,
            "dynamic_regret": self.dynamic_regret,
            "best_fixed": self.best_fixed,
            "dynamic_oracle": self.dynamic_oracle,
            "variation": self.variation,
            "realized_avg": self.realized_avg,
        }


def u_average(transcript: Transcript) -> float:
    return float(transcript.expected.mean())


def static_regret(transcript: Transcript) -> float:
    """Gap to the best fixed action in hindsight, on expected payoffs."""
    totals = transcript.u_vectors.sum(axis=0)
    return float(totals.max() - transcript.expected.sum())


def dynamic_regret(transcript: Transcript) -> float:
    """Gap to the per-round best action, on expected payoffs."""
    return float(transcript.u_vectors.max(axis=1).sum() - transcript.expected.sum())


def dynamic_oracle(transcript: Transcript, scale: float = 1.0) -> float:
    """Average per-round best payoff; non-negative in symmetric zero-sum
    games because matching the opponents' meta-strategy already earns 0."""
    val = float(transcript.u_vectors.max(axis=1).mean())
    if val < -1e-9 * scale:
        raise AssertionError(f"dynamic oracle {val} negative beyond tolerance")
    return val


def variation_budget(transcript_or_uvecs) -> float:
    """Realized total sup-norm drift of the expected payoff function."""
    u = transcript_or_uvecs.u_vectors if isinstance(transcript_or_uvecs, Transcript) else transcript_or_uvecs
    if u.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(u, axis=0)).max(axis=1).sum())


def compute_metrics(transcript: Transcript) -> Metrics:
    totals = transcript.u_vectors.sum(axis=0)
    T = transcript.T
    return Metrics(
        u_avg=u_average(transcript),
        static_regret=static_regret(transcript),
        dynamic_regret=dynamic_regret(transcript),
        best_fixed=float(totals.max()) / T,
        dynamic_oracle=float(transcript.u_vectors.max(axis=1).mean()),
        variation=variation_budget(transcript),
        realized_avg=float(transcript.realized.mean()),
    )


def schedule_from_json(doc: dict) -> Schedule:
    """Schedule documents: {"kind": "fixed", "y": [...]} | {"kind": "biased_coin" |
    "pure_swap", "v_budget": V, "horizon": T} | {"kind": "sequence", "ys": [...]}."""
    kind = doc.get("kind")
    if kind == "fixed":
        return FixedSchedule(tuple(float(v) for v in doc["y"]))
    if kind == "sequence":
        return SequenceSchedule(tuple(tuple(float(v) for v in y) for y in doc["ys"]))
    if kind == "biased_coin":
        return BiasedCoinSchedule(float(doc["v_budget"]), int(doc["horizon"]))
    if kind == "pure_swap":
        return PureSwapSchedule(float(doc["v_budget"]), int(doc["horizon"]))
    raise ScheduleError(f"unknown schedule kind {kind!r}")
