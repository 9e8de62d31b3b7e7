"""Online learners, self-play baselines and the exploiter.

All learners speak gains (payoffs), not losses.  The schedule-driven
learners (hedge, the adaptive meta-learner, cloning) receive payoffs
normalized by the game's scale bound so their rate schedules keep their
meaning on games whose payoffs exceed [-1, 1]; the self-play family and
the exploiter consume raw payoffs, whose balance against the
regularization term is part of their update formulas.

The schedule-driven learners have single-step forms, whose states are plain
values (every step consumes a state and returns a fresh one), and a
whole-match form (`*_strategies`): given a match's (T, A) gains up front it
returns every round's strategy, bytewise what stepping the single-round
functions would play.  Self-play, hedge against a fixed meta-strategy and
the exploiter have one implementation each, the batched trainers
(`batch_*`), which advance many runs in lockstep; runs=1 is the sequential
case.  `exploiter_step` steps one exploiter run with the batched rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import SymmetricGame
from .sampling import sample_actions


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
# Batched trainers: hedge against a fixed meta-strategy, the self-play
# baselines, and the exploiter.  One numpy Generator drives all runs.
# ---------------------------------------------------------------------------

def _gains_table(game: SymmetricGame, normalize: bool) -> np.ndarray:
    """(K, A) realized per-action payoffs for each opponent count vector;
    normalized by the game's scale for schedule-driven learners, raw for
    the self-play family."""
    mat = game.payoff_matrix().T
    return mat / game.scale if normalize else mat.copy()


def batch_hedge_vs_fixed(
    game: SymmetricGame,
    y: np.ndarray,
    T: int,
    runs: int,
    eta: float,
    rng: np.random.Generator,
    rule: str = "sqrt_decay",
) -> np.ndarray:
    """Final strategies of `runs` independent hedge runs against opponents
    i.i.d. from a fixed meta-strategy.  Fully vectorized: the opponent count
    vector of every round is drawn from its exact multinomial law."""
    table = game.count_table()
    weights = table.weights(np.asarray(y, dtype=float))
    cdf = np.minimum(np.cumsum(weights), 1.0)
    cdf[-1] = 1.0
    gains = _gains_table(game, normalize=True)
    eta_t = RateSchedule(eta, rule, game.A).rates(np.arange(1, T + 1))
    log_w = np.zeros((runs, game.A))
    chunk = max(1, 2_000_000 // max(runs, 1))
    for start in range(0, T, chunk):
        stop = min(start + chunk, T)
        u = rng.random((stop - start, runs))
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(weights) - 1)
        log_w += np.einsum("t,tra->ra", eta_t[start:stop], gains[idx], optimize=True)
    return softmax_rows(log_w)


def batch_self_play(
    game: SymmetricGame,
    T: int,
    runs: int,
    eta: float,
    rng: np.random.Generator,
    mode: str = "scratch",
    lam: float = 0.0,
    y_meta: np.ndarray | None = None,
    rule: str = "sqrt_decay",
) -> np.ndarray:
    """Final strategies of `runs` self-play runs advanced in lockstep.

    Each run samples its n-1 opponents from its own current strategy and
    takes an exponential-weights step on the realized per-action payoffs.
    With cum_gain = sum_t eta_t * g_t and cum_eta = sum_t eta_t, a run's
    strategy is the normalized exponential of

        (log x0 + cum_gain + lam * cum_eta * log y_meta) / (1 + lam * cum_eta)

    where x0 is uniform for mode "scratch" and y_meta for "bc_init" and
    "regularized", and lam acts only in "regularized" (lam = 0 is
    "bc_init").  The arguments are checked before any draw.
    """
    if mode not in ("scratch", "bc_init", "regularized"):
        raise ValueError(f"unknown self-play mode {mode!r}")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    A = game.A
    log_x0 = np.zeros(A)
    if mode != "scratch":
        if y_meta is None:
            raise ValueError(f"mode {mode!r} needs the opponents' meta-strategy")
        y_meta = np.asarray(y_meta, dtype=float)
        if np.any(y_meta <= 0):
            raise ValueError(f"{mode} takes log of the meta-strategy; entries must be positive")
        log_x0 = np.log(y_meta)
    eta_by_step = RateSchedule(eta, rule, A).rates(np.arange(1, T + 1))
    table = game.count_table()
    gains = _gains_table(game, normalize=False)

    def strategies(cum_gain: np.ndarray, cum_eta: float) -> np.ndarray:
        score = log_x0 + cum_gain
        if mode == "regularized":
            score = (score + lam * cum_eta * log_x0) / (1.0 + lam * cum_eta)
        return softmax_rows(score)

    cum_gain = np.zeros((runs, A))
    cum_eta = 0.0
    for eta_t in eta_by_step:
        counts = rng.multinomial(game.n - 1, strategies(cum_gain, cum_eta))
        cum_gain += eta_t * gains[table.rows(counts)]
        cum_eta += eta_t
    return strategies(cum_gain, cum_eta)


def exploiter_gains(game: SymmetricGame, a1: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The exploiter's gains, one row per run: (runs,) target actions a1 and
    (runs, A) opponent counts -> (runs, A).  Gain of action a is the negated
    average, over the n-1 opponent seats, of the target's payoff when that
    seat switches to a."""
    mat = game.payoff_matrix()
    # [r, b, a]: the counts after one seat playing b switches to a
    switched = game.count_table().switch_rows(counts)
    gains = np.zeros((len(counts), game.A))
    for b in range(game.A):
        cb = counts[:, b, None]
        live = cb > 0
        if not live.any():
            continue
        vals = mat[a1[:, None], switched[:, b]]
        gains -= np.where(live, cb * vals, 0.0)
    gains /= game.n - 1
    return gains


def batch_exploiter(
    game: SymmetricGame,
    target: np.ndarray,
    T: int,
    runs: int,
    eta: float,
    rng: np.random.Generator,
    rule: str = "sqrt_decay",
) -> np.ndarray:
    """Final strategies of `runs` exploiter runs against a fixed target.

    The exploiter is one mixed strategy shared by all n-1 opponents.  Each
    round every run draws the target's action, then its opponents' counts
    from its current strategy, and takes a hedge step on exploiter_gains.
    """
    target = np.asarray(target, dtype=float)
    eta_by_step = RateSchedule(eta, rule, game.A).rates(np.arange(1, T + 1))
    log_w = np.zeros((runs, game.A))
    for eta_t in eta_by_step:
        x = softmax_rows(log_w)
        a1 = sample_actions(rng, target, runs)
        counts = rng.multinomial(game.n - 1, x)
        log_w += eta_t * exploiter_gains(game, a1, counts)
    return softmax_rows(log_w)


@dataclass(frozen=True)
class ExploiterState:
    """One exploiter run as a value, for stepping it round by round; T
    exploiter_step calls from a fresh state play batch_exploiter with
    runs=1, draw for draw."""

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
    a1 = sample_actions(rng, state.target, 1)
    counts = rng.multinomial(game.n - 1, exploiter_current(state)[None])
    new = replace(state, hedge=hedge_observe(state.hedge, exploiter_gains(game, a1, counts)[0]))
    return new, exploiter_current(new)


# ---------------------------------------------------------------------------
# The arena's view of a learner.
# ---------------------------------------------------------------------------

@dataclass
class LearnerSpec:
    kind: str
    eta: float = 1.0
    rule: str = "sqrt_decay"
    horizon: int | None = None

    KINDS = ("hedge", "saol", "clone")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; choose from {self.KINDS}")

    def describe(self) -> str:
        return f"{self.kind} eta={self.eta:g} {self.rule}"
