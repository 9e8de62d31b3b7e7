"""Online learners and self-play baselines.

All learners speak gains (payoffs), not losses.  The schedule-driven
learners (hedge, the adaptive meta-learner, cloning) receive payoffs
normalized by the game's scale bound so their rate schedules keep their
meaning on games whose payoffs exceed [-1, 1]; the self-play family and
the exploiter consume raw payoffs, whose balance against the
regularization term is part of their update formulas.  States are plain
values; every step consumes a state and returns a fresh one.  The
schedule-driven learners also have a whole-match form (`*_strategies`):
given a match's (T, A) gains up front it returns every round's strategy,
bytewise what stepping the single-round functions would play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import SymmetricGame, realized_payoff_vector
from .sampling import counts_from_actions, sample_actions


@dataclass(frozen=True)
class RateSchedule:
    """Learning-rate rule: fixed eta, or eta * sqrt(log(A) / t)."""

    eta: float
    rule: str = "sqrt_decay"
    num_actions: int = 2

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.rule not in ("fixed", "sqrt_decay"):
            raise ValueError(f"unknown rate rule {self.rule!r}")

    def rate(self, t: int) -> float:
        return float(self.rates(t))

    def rates(self, t) -> np.ndarray:
        """The rate at each round in t (an int or an int array)."""
        if self.rule == "fixed":
            return np.full(np.shape(t), float(self.eta))
        return self.eta * np.sqrt(math.log(self.num_actions) / np.asarray(t))


def _softmax(log_weights: np.ndarray) -> np.ndarray:
    w = np.exp(log_weights - np.max(log_weights))
    return w / w.sum()


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """_softmax applied to each row of a (R, A) array."""
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def hedge_update(x: np.ndarray, gains: np.ndarray, eta: float) -> np.ndarray:
    """One exponential-weights step: x'(a) proportional to x(a) * exp(eta * gains(a)).

    Computed in log space with max-subtraction; zero-mass actions stay at
    zero.  Shift-invariant in the gains by construction.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x > 0):
        raise ValueError("cannot update an all-zero strategy")
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    return _softmax(logx + eta * np.asarray(gains, dtype=float))


@dataclass(frozen=True)
class HedgeState:
    """Exponential-weights learner: log-weights plus a round counter."""

    log_weights: np.ndarray
    t: int
    schedule: RateSchedule

    @classmethod
    def fresh(cls, num_actions: int, eta: float = 1.0, rule: str = "sqrt_decay") -> "HedgeState":
        return cls(
            np.zeros(num_actions),
            0,
            RateSchedule(eta, rule, num_actions),
        )


def hedge_act(state: HedgeState) -> np.ndarray:
    return _softmax(state.log_weights)


def hedge_observe(state: HedgeState, gains: np.ndarray) -> HedgeState:
    t = state.t + 1
    eta_t = state.schedule.rate(t)
    return replace(state, log_weights=state.log_weights + eta_t * np.asarray(gains, dtype=float), t=t)


def hedge_strategies(gains: np.ndarray, eta: float = 1.0, rule: str = "sqrt_decay") -> np.ndarray:
    """Whole-match hedge: row t is hedge_act after hedge_observe on rows
    0..t-1 of the (T, A) gains, as one running sum and a row softmax."""
    T, A = gains.shape
    eta_t = RateSchedule(eta, rule, A).rates(np.arange(1, T))
    log_w = np.zeros((T, A))
    np.cumsum(eta_t[:, None] * gains[:-1], axis=0, out=log_w[1:])
    return softmax_rows(log_w)


# ---------------------------------------------------------------------------
# Strongly adaptive meta-learner over a geometric interval cover.
# ---------------------------------------------------------------------------

def cover_intervals_starting_at(s: int, horizon: int) -> list[tuple[int, int]]:
    """Intervals [q*2^k, (q+1)*2^k - 1] of the dyadic cover that start at s,
    truncated to the horizon.  Truncation can make several nominal intervals
    coincide near the horizon; duplicates are dropped."""
    out = []
    length = 1
    while s % length == 0 and length <= s:
        end = min(s + length - 1, horizon)
        if end >= s and (not out or out[-1][1] != end):
            out.append((s, end))
        length *= 2
    return out


@dataclass
class SAOLState:
    """Meta-learner mixing interval-restarted hedges.

    Row i holds the live hedge expert of the dyadic interval
    [starts[i], ends[i]], started fresh at the interval's first round; the
    meta weights follow a multiplicative update on each expert's
    instantaneous regret against the mixture.  Rows keep survivors in order
    and append new experts, which fixes the order the mixture sums them in.
    """

    horizon: int
    t: int
    expert_rates: RateSchedule
    experts: np.ndarray  # (L, A) expert log-weights
    weights: np.ndarray  # (L,) meta weights
    rates: np.ndarray  # (L,) meta rates, min(1/2, 1/sqrt(interval length))
    starts: np.ndarray  # (L,) first round of each expert's interval
    ends: np.ndarray  # (L,) last round, truncated to the horizon

    @classmethod
    def fresh(cls, horizon: int, num_actions: int, expert_eta: float = 1.0) -> "SAOLState":
        floats, rounds = np.empty(0), np.empty(0, dtype=np.int64)
        before = cls(horizon, 0, RateSchedule(expert_eta, "sqrt_decay", num_actions),
                     np.empty((0, num_actions)), floats, floats, rounds, rounds)
        return _advance(before, before.experts, before.weights, np.empty(0, dtype=bool))


def _advance(state: SAOLState, experts: np.ndarray, weights: np.ndarray, keep: np.ndarray) -> SAOLState:
    """The state of round t+1: the kept rows of the updated experts and
    weights, then a fresh expert per cover interval starting at t+1."""
    born = cover_intervals_starting_at(state.t + 1, state.horizon)
    spans = np.array(born, dtype=np.int64).reshape(-1, 2)
    rates = np.minimum(0.5, 1.0 / np.sqrt(spans[:, 1] - spans[:, 0] + 1))
    return SAOLState(
        state.horizon,
        state.t + 1,
        state.expert_rates,
        np.concatenate([experts[keep], np.zeros((len(born), experts.shape[1]))]),
        np.concatenate([weights[keep], rates]),
        np.concatenate([state.rates[keep], rates]),
        np.concatenate([state.starts[keep], spans[:, 0]]),
        np.concatenate([state.ends[keep], spans[:, 1]]),
    )


def _saol_mixture(state: SAOLState) -> tuple[np.ndarray, np.ndarray]:
    """Each expert's play and the meta-weighted mixture of them."""
    lw = state.experts
    plays = np.exp(lw - lw.max(axis=1, keepdims=True))
    plays /= plays.sum(axis=1, keepdims=True)
    w = state.weights
    return plays, (w @ plays) / w.sum()


def saol_act(state: SAOLState) -> np.ndarray:
    return _saol_mixture(state)[1]


def _saol_step(state: SAOLState, gains: np.ndarray) -> tuple[np.ndarray, SAOLState]:
    """The strategy played at round t and the state after its gains."""
    if state.t > state.horizon:
        raise ValueError(f"round {state.t} beyond horizon {state.horizon}")
    plays, x_t = _saol_mixture(state)
    r = plays @ gains - float(x_t @ gains)
    # Keep the multiplicative factor strictly positive even at the clipping
    # boundary; a tiny weight can still underflow to zero.
    r = np.maximum(r, (1e-9 - 1.0) / state.rates)
    new_w = state.weights * (1.0 + state.rates * r)
    if not (new_w > 0.0).all():
        raise FloatingPointError(f"meta weight underflowed to zero at round {state.t}")
    # every expert is a hedge started at its interval's first round
    eta = state.expert_rates.rates(state.t - state.starts + 1)
    experts = state.experts + eta[:, None] * gains
    return x_t, _advance(state, experts, new_w, state.ends > state.t)


def saol_observe(state: SAOLState, gains: np.ndarray) -> SAOLState:
    """Feed one round of gains (in [-1, 1]) to every active interval expert
    and reweight them by instantaneous regret against the mixture; intervals
    ending this round retire."""
    return _saol_step(state, np.asarray(gains, dtype=float))[1]


def saol_strategies(gains: np.ndarray, horizon: int, eta: float = 1.0) -> np.ndarray:
    """Whole-match SAOL: row t is saol_act after saol_observe on rows
    0..t-1 of the (T, A) gains."""
    T, A = gains.shape
    state = SAOLState.fresh(horizon, A, eta)
    out = np.empty((T, A))
    for t in range(T):
        out[t], state = _saol_step(state, gains[t])
    return out


# ---------------------------------------------------------------------------
# Behavior cloning: copy the second player's previous action.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloneState:
    num_actions: int
    last_seen: int | None = None


def clone_strategy(state: CloneState) -> np.ndarray:
    """Round 1: uniform.  Afterwards: point mass on the copied action."""
    if state.last_seen is None:
        return np.full(state.num_actions, 1.0 / state.num_actions)
    x = np.zeros(state.num_actions)
    x[state.last_seen] = 1.0
    return x


def clone_act(state: CloneState, rng: np.random.Generator) -> int:
    if state.last_seen is None:
        return sample_actions(rng, clone_strategy(state))
    return state.last_seen


def clone_observe(state: CloneState, second_player_action: int) -> CloneState:
    return CloneState(state.num_actions, int(second_player_action))


def clone_strategies(second_player_actions: np.ndarray, num_actions: int) -> np.ndarray:
    """Whole-match cloning: uniform in row 0, then a point mass on the
    previous round's action of the second player."""
    T = len(second_player_actions)
    x = np.zeros((T, num_actions))
    x[:1] = 1.0 / num_actions
    x[np.arange(1, T), second_player_actions[:-1]] = 1.0
    return x


# ---------------------------------------------------------------------------
# Self-play baselines and the exploiter.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfPlayState:
    """Self-play accumulator.

    Maintains cum_gain = sum_t eta_t * g_t and cum_eta = sum_t eta_t; the
    current strategy is a normalized exponential of

        (log x0 + cum_gain + lam * cum_eta * log y_meta) / (1 + lam * cum_eta)

    which reduces to plain hedge-from-x0 when lam = 0.
    """

    mode: str  # "scratch" | "bc_init" | "regularized"
    schedule: RateSchedule
    log_x0: np.ndarray
    cum_gain: np.ndarray
    cum_eta: float
    step: int
    lam: float = 0.0
    log_y_meta: np.ndarray | None = None

    @classmethod
    def fresh(
        cls,
        game: SymmetricGame,
        mode: str = "scratch",
        eta: float = 1.0,
        lam: float = 0.0,
        y_meta: np.ndarray | None = None,
        rule: str = "sqrt_decay",
    ) -> "SelfPlayState":
        A = game.A
        if mode == "scratch":
            log_x0, log_y = np.zeros(A), None
        elif mode in ("bc_init", "regularized"):
            if y_meta is None:
                raise ValueError(f"mode {mode!r} needs the opponents' meta-strategy")
            y_meta = np.asarray(y_meta, dtype=float)
            if np.any(y_meta <= 0):
                raise ValueError(f"{mode} takes log of the meta-strategy; entries must be positive")
            log_x0 = np.log(y_meta)
            log_y = np.log(y_meta) if mode == "regularized" else None
        else:
            raise ValueError(f"unknown self-play mode {mode!r}")
        if lam < 0:
            raise ValueError("lam must be >= 0")
        return cls(mode, RateSchedule(eta, rule, A), log_x0, np.zeros(A), 0.0, 0, lam, log_y)


def self_play_current(state: SelfPlayState) -> np.ndarray:
    score = state.log_x0 + state.cum_gain
    if state.mode == "regularized":
        score = (score + state.lam * state.cum_eta * state.log_y_meta) / (1.0 + state.lam * state.cum_eta)
    return _softmax(score)


def self_play_step(
    state: SelfPlayState, game: SymmetricGame, rng: np.random.Generator
) -> tuple[SelfPlayState, np.ndarray]:
    """Sample n-1 opponents from the current strategy, observe the realized
    per-action payoffs, advance one exponential-weights step."""
    x_prev = self_play_current(state)
    actions = sample_actions(rng, x_prev, game.n - 1)
    counts = counts_from_actions(actions, game.A)
    gains = realized_payoff_vector(game, counts)
    t = state.step + 1
    eta_t = state.schedule.rate(t)
    new = replace(state, cum_gain=state.cum_gain + eta_t * gains, cum_eta=state.cum_eta + eta_t, step=t)
    return new, self_play_current(new)


def self_play_reg_step(
    state: SelfPlayState, game: SymmetricGame, rng: np.random.Generator
) -> tuple[SelfPlayState, np.ndarray]:
    """Regularized variant; identical bookkeeping, the regularizer only
    changes how the current strategy is read out."""
    if state.mode != "regularized":
        raise ValueError("state was not built with mode='regularized'")
    return self_play_step(state, game, rng)


@dataclass(frozen=True)
class ExploiterState:
    """Population learner that minimizes a fixed target strategy's payoff.

    The exploiter's mixed strategy is shared by all n-1 opponents; gains are
    the negated average, over insertion positions, of the target's payoff
    when one opponent switches to the candidate action.
    """

    hedge: HedgeState
    target: np.ndarray

    @classmethod
    def fresh(cls, game: SymmetricGame, target: np.ndarray, eta: float = 1.0, rule: str = "sqrt_decay") -> "ExploiterState":
        return cls(HedgeState.fresh(game.A, eta, rule), np.asarray(target, dtype=float))


def exploiter_current(state: ExploiterState) -> np.ndarray:
    return hedge_act(state.hedge)


def exploiter_step(
    state: ExploiterState, game: SymmetricGame, rng: np.random.Generator
) -> tuple[ExploiterState, np.ndarray]:
    a1 = sample_actions(rng, state.target)
    y_prev = exploiter_current(state)
    actions = sample_actions(rng, y_prev, game.n - 1)
    counts = counts_from_actions(actions, game.A)
    gains = np.zeros(game.A)
    for a in range(game.A):
        total = 0.0
        for b in range(game.A):
            if counts[b] == 0:
                continue
            swapped = counts.copy()
            swapped[b] -= 1
            swapped[a] += 1
            total += counts[b] * game.payoff(a1, tuple(int(v) for v in swapped))
        gains[a] = -total / (game.n - 1)
    new_hedge = hedge_observe(state.hedge, gains)
    new = replace(state, hedge=new_hedge)
    return new, exploiter_current(new)


# ---------------------------------------------------------------------------
# The arena's view of a learner.
# ---------------------------------------------------------------------------

@dataclass
class LearnerSpec:
    kind: str
    eta: float = 1.0
    rule: str = "sqrt_decay"
    lam: float = 0.0
    horizon: int | None = None

    ARENA_KINDS = ("hedge", "saol", "clone")
    ALL_KINDS = ARENA_KINDS + ("sp_scratch", "sp_bc", "sp_bc_reg", "exploiter")

    def __post_init__(self):
        if self.kind not in self.ALL_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; choose from {self.ALL_KINDS}")

    def describe(self) -> str:
        bits = [self.kind, f"eta={self.eta:g}", self.rule]
        if self.kind == "sp_bc_reg":
            bits.append(f"lam={self.lam:g}")
        return " ".join(bits)
