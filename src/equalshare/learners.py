"""Online learners, self-play baselines and the exploiter.

All learners speak gains (payoffs), not losses.  The schedule-driven
learners (hedge, the adaptive meta-learner, cloning) receive payoffs
normalized by the game's scale bound so their rate schedules keep their
meaning on games whose payoffs exceed [-1, 1]; the self-play family and
the exploiter consume raw payoffs, whose balance against the
regularization term is part of their update formulas.

The schedule-driven learners have single-step forms, whose states are plain
values (every step consumes a state and returns a fresh one), and a
whole-match form (`*_strategies`): given a match's gains up front it
returns every round's strategy, bytewise what stepping the single-round
functions would play.  SAOL's whole-match form is batched over runs, on
(R, T, A) gains, and shares its meta step with `saol_observe`; a run's rows
do not depend on the rest of the batch.  Self-play, hedge against a fixed
meta-strategy and the exploiter have one implementation each, the batched
trainers (`batch_*`), which advance many runs in lockstep at the
"sqrt_decay" rate; runs=1 is the sequential case.  `exploiter_step` steps one exploiter run with the batched
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import SymmetricGame, check_fields
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


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """The softmax of each row of a (R, A) array, shifted by the row's max."""
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
    return softmax_rows(state.log_weights[None])[0]


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

def cover_slots(rounds, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The dyadic cover by level slot: (..., L) starts and ends of the
    interval of level k live at each round, L = floor(log2 horizon) + 1.
    Level k holds the intervals [q*2^k, (q+1)*2^k - 1] for q >= 1, truncated
    to the horizon; truncation can make a level's interval coincide with the
    one below it that starts at the same round, and then only the lower
    level keeps it.  A slot with no live interval (before round 2^k, as such
    a duplicate, past the horizon) has start and end 0."""
    t = np.asarray(rounds, dtype=np.int64)[..., None]
    size = np.int64(1) << np.arange(int(horizon).bit_length(), dtype=np.int64)
    starts = t // size * size
    ends = np.minimum(starts + size - 1, horizon)
    # level k starting at s duplicates level k-1 when that one starts at s
    # too and already reaches the horizon
    dup = np.zeros(starts.shape, dtype=bool)
    dup[..., 1:] = (starts[..., 1:] == starts[..., :-1]) & (ends[..., :-1] == horizon)
    live = (starts >= size) & (t <= horizon) & ~dup
    return np.where(live, starts, 0), np.where(live, ends, 0)


def _meta_rates(lengths: np.ndarray) -> np.ndarray:
    """Meta rate of an interval expert: min(1/2, 1/sqrt(interval length))."""
    return np.minimum(0.5, 1.0 / np.sqrt(lengths))


def _expert_rows(log_weights: np.ndarray, gains: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each expert's play p, its gain p.g and a 1, as (A + 2, ...) rows from
    (A, ...) log-weights and gains broadcast against them, actions first.
    Sums over actions run in action order, so an expert's bytes never
    depend on the shape of the batch around it."""
    A = len(log_weights)
    rows = np.empty((A + 2,) + log_weights.shape[1:]) if out is None else out
    plays, gain, total = rows[:A], rows[A], rows[A + 1]
    np.max(log_weights, axis=0, out=total)
    np.subtract(log_weights, total, out=plays)
    np.exp(plays, out=plays)  # on contiguous memory in every call, so every path uses one exp kernel
    np.copyto(total, plays[0])
    for a in range(1, A):
        total += plays[a]
    plays /= total
    np.multiply(plays[0], gains[0], out=gain)
    for a in range(1, A):
        gain += plays[a] * gains[a]
    total[...] = 1.0
    return rows


def _meta_totals(weights, rows, scratch=None):
    """(R, L) meta weights and (A + 2, R, L) expert rows -> (A + 2, R): the
    weighted sums of the plays, of the gains and of the weights (their
    ratios are the mixture and its gain).  The sums run over the slots in
    order (an accumulate, never a BLAS product), and empty slots weigh 0 and
    add exact zeros, so a run's bytes depend neither on the batch around it
    nor on the empty slots."""
    products = np.multiply(weights, rows, out=scratch)
    return np.add.accumulate(products, axis=-1)[..., -1]


def _meta_step(weights, rows, rates, floors, scratch=None):
    """One round of the meta-weight recursion for R runs over L slots, with
    (R, L) weights, rates and regret floors: the round's _meta_totals, and
    the weights after a multiplicative step on each expert's instantaneous
    regret against the mixture.  The regret is clipped at floors = (1e-9 -
    1) / rates so the factor stays strictly positive (a tiny weight can
    still underflow)."""
    totals = _meta_totals(weights, rows, scratch)
    regret = np.maximum(rows[-2] - (totals[-2] / totals[-1])[:, None], floors)
    return totals, weights * (1.0 + rates * regret)


def _check_weights(weights: np.ndarray, live: int, t: int) -> None:
    if np.count_nonzero(weights > 0.0) != live:
        raise FloatingPointError(f"meta weight underflowed to zero at round {t}")


@dataclass
class SAOLState:
    """Meta-learner mixing interval-restarted hedges.

    Row i holds the live hedge expert of the dyadic interval
    [starts[i], ends[i]], started fresh at the interval's first round; the
    meta weights follow a multiplicative update on each expert's
    instantaneous regret against the mixture.  Rows are in level order
    (shortest interval first), which fixes the order the mixture sums them
    in: the order of saol_strategies' level slots.
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
    """The state of round t+1: a fresh expert per cover_slots interval
    starting at t+1, then the kept rows of the updated experts and weights.
    Intervals born at t+1 are the levels below every survivor's, so this is
    level order."""
    starts, ends = cover_slots(state.t + 1, state.horizon)
    born = starts == state.t + 1
    rates = _meta_rates(ends[born] - starts[born] + 1)
    return SAOLState(
        state.horizon,
        state.t + 1,
        state.expert_rates,
        np.concatenate([np.zeros((len(rates), experts.shape[1])), experts[keep]]),
        np.concatenate([rates, weights[keep]]),
        np.concatenate([rates, state.rates[keep]]),
        np.concatenate([starts[born], state.starts[keep]]),
        np.concatenate([ends[born], state.ends[keep]]),
    )


def saol_act(state: SAOLState) -> np.ndarray:
    A = state.experts.shape[1]
    rows = _expert_rows(state.experts.T, np.zeros((A, 1)))
    totals = _meta_totals(state.weights[None], rows[:, None])[:, 0]
    return totals[:A] / totals[A + 1]


def saol_observe(state: SAOLState, gains: np.ndarray) -> SAOLState:
    """Feed one round of gains (in [-1, 1]) to every active interval expert
    and reweight them by instantaneous regret against the mixture; intervals
    ending this round retire.  The meta step is saol_strategies' for one
    run."""
    if state.t > state.horizon:
        raise ValueError(f"round {state.t} beyond horizon {state.horizon}")
    gains = np.asarray(gains, dtype=float)
    rows = _expert_rows(state.experts.T, gains[:, None])
    floors = (1e-9 - 1.0) / state.rates
    new_w = _meta_step(state.weights[None], rows[:, None], state.rates, floors)[1][0]
    _check_weights(new_w, len(new_w), state.t)
    # every expert is a hedge started at its interval's first round
    eta = state.expert_rates.rates(state.t - state.starts + 1)
    experts = state.experts + eta[:, None] * gains
    return _advance(state, experts, new_w, state.ends > state.t)


SAOL_BLOCK = 128  # rounds per block of expert tracks; a power of two


def saol_strategies(gains: np.ndarray, horizon: int, eta: float = 1.0) -> np.ndarray:
    """Whole-match SAOL for a batch of runs: row [r, t] is saol_act after
    saol_observe on rows [r, 0..t-1] of the (R, T, A) gains, byte for byte,
    and a run's rows do not depend on the other runs in the batch.

    The cover is a fixed set of level slots (cover_slots), so every run
    shares one schedule of births, retirements and rates.  Expert log-weights
    are per-level running sums of eta(t - s + 1) * g, computed a block of
    rounds at a time: within-block intervals are a segmented cumsum, and a
    level whose interval spans blocks carries its running row into the next
    block's cumsum, so the bytes do not depend on where blocks fall.  Only
    the (R, L) meta-weight recursion steps round by round.

    At a round 2^K every live interval of the geometric cover starts fresh, so
    the strategy is uniform there (Daniely, Gonen & Shalev-Shwartz, ICML 2015).
    """
    R, T, A = gains.shape
    if T > horizon:
        raise ValueError(f"round {horizon + 1} beyond horizon {horizon}")
    block = SAOL_BLOCK
    out = np.empty((R, T, A))
    L = min(T, horizon).bit_length()  # the levels live by round T
    # the expert rate at ages 1..2^(L-1), computed as saol_observe does
    eta_by_age = RateSchedule(eta, "sqrt_decay", A).rates(np.arange(1, (1 << L) // 2 + 1))
    running = np.zeros((L, A, R))  # each level's log-weights at the block's first round
    # per-block buffers: (action, round in block, run[, slot])
    g = np.empty((A, block, R))
    log_w = np.empty((A, block, R, L))
    rows = np.empty((A + 2, block, R, L))
    totals = np.empty((block, A + 2, R))
    scratch = np.empty((A + 2, R, L))
    # block j holds rounds j*block .. (j+1)*block - 1; round 0 is a placeholder
    for b0 in range(0, T + 1, block):
        rounds = np.arange(b0, b0 + block + 1)
        starts, ends = (c[:, :L] for c in cover_slots(rounds, horizon))
        live = ends > 0
        rates = _meta_rates(np.where(live, ends - starts + 1, 1))  # 1/2 on empty slots
        floors = (1e-9 - 1.0) / rates
        # the slots that carry their weight into the next round, and the
        # starting weights of the slots born there
        carry = live[1:] & (starts[1:] < rounds[1:, None])
        born = np.where(live[1:] & ~carry, rates[1:], 0.0)
        live_counts = R * live.sum(axis=1)

        lo, hi = max(b0, 1), min(b0 + block, T + 1)
        g[...] = 0.0
        g[:, lo - b0 : hi - b0] = gains[:, lo - 1 : hi - 1].transpose(2, 1, 0)
        for k in range(L):
            size = 1 << k
            step = eta_by_age[rounds[:-1] % size][:, None] * g
            if size <= block:
                track = np.zeros((A, block // size, size, R))
                np.cumsum(step.reshape(A, block // size, size, R)[:, :, :-1], axis=2, out=track[:, :, 1:])
                log_w[..., k] = track.reshape(A, block, R)
            else:
                if b0 % size == 0:
                    running[k] = 0.0
                sums = np.cumsum(np.concatenate([running[k][:, None], step], axis=1), axis=1)
                log_w[..., k] = sums[:, :-1]
                running[k] = sums[:, -1]
        _expert_rows(log_w, g[..., None], out=rows)

        first = 0
        if b0 == 0:  # round 1 starts from the weights born there
            weights, first = np.broadcast_to(born[0], (R, L)), 1
        for i in range(first, hi - b0):
            totals[i], new_w = _meta_step(weights, rows[:, i], rates[i], floors[i], scratch)
            _check_weights(new_w, live_counts[i], b0 + i)
            weights = np.where(carry[i], new_w, born[i])
        played = totals[lo - b0 : hi - b0]
        out[:, lo - 1 : hi - 1] = (played[:, :A] / played[:, A + 1 :]).transpose(2, 0, 1)
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
) -> np.ndarray:
    """Final strategies of `runs` independent hedge runs against opponents
    i.i.d. from a fixed meta-strategy.  Fully vectorized: the opponent count
    vector of every round is drawn from its exact multinomial law."""
    weights = game.count_table().weights(np.asarray(y, dtype=float))
    gains = _gains_table(game, normalize=True)
    eta_t = RateSchedule(eta, "sqrt_decay", game.A).rates(np.arange(1, T + 1))
    log_w = np.zeros((runs, game.A))
    chunk = max(1, 2_000_000 // max(runs, 1))
    for start in range(0, T, chunk):
        stop = min(start + chunk, T)
        idx = sample_actions(rng, weights, (stop - start, runs))
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
    eta_by_step = RateSchedule(eta, "sqrt_decay", A).rates(np.arange(1, T + 1))
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
) -> np.ndarray:
    """Final strategies of `runs` exploiter runs against a fixed target.

    The exploiter is one mixed strategy shared by all n-1 opponents.  Each
    round every run draws the target's action, then its opponents' counts
    from its current strategy, and takes a hedge step on exploiter_gains.
    """
    target = np.asarray(target, dtype=float)
    eta_by_step = RateSchedule(eta, "sqrt_decay", game.A).rates(np.arange(1, T + 1))
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

# the fields each learner kind reads; SAOL's horizon defaults to the match's T
LEARNER_FIELDS = {"hedge": ("eta", "rule"), "saol": ("eta", "horizon"), "clone": ()}


@dataclass
class LearnerSpec:
    """A learner kind and its parameters; built in Python, it takes every field."""

    kind: str
    eta: float = 1.0
    rule: str = "sqrt_decay"
    horizon: int | None = None

    def __post_init__(self):
        if self.kind not in LEARNER_FIELDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; choose from {tuple(LEARNER_FIELDS)}")
        RateSchedule(self.eta, self.rule)  # a bad eta or rule fails here, before any match

    def describe(self) -> str:
        """The kind and the fields it reads: "hedge eta=1 sqrt_decay", "saol eta=1", "clone"."""
        shown = {"eta": f"eta={self.eta:g}", "rule": self.rule, "horizon": self.horizon and f"horizon={self.horizon}"}
        return " ".join([self.kind, *filter(None, (shown[f] for f in LEARNER_FIELDS[self.kind]))])


def learner_from_json(doc: dict) -> LearnerSpec:
    """Learner documents: {"kind": K, **fields}, fields optional and only those of LEARNER_FIELDS[K]."""
    spec = LearnerSpec(doc.get("kind"))
    reads = LEARNER_FIELDS[spec.kind]
    check_fields(doc, ("kind", *reads), spec.kind)
    return replace(spec, **{field: doc[field] for field in reads if field in doc})
