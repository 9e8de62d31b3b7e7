"""Online learners, self-play baselines and the exploiter.

All learners speak gains (payoffs), not losses.  The schedule-driven
learners (hedge, the adaptive meta-learner, cloning) receive payoffs
normalized by the game's scale bound so their rate schedules keep their
meaning on games whose payoffs exceed [-1, 1]; the self-play family and
the exploiter consume raw payoffs, whose balance against the
regularization term is part of their update formulas.

The schedule-driven learners have single-step forms, whose states are plain
values, and a whole-match form (`*_strategies`) that returns every round's
strategy from a match's gains up front, bytewise what the single steps
play.  SAOL's whole-match form is batched over runs and shares its meta
step with `saol_observe`.  Hedge against a fixed meta-strategy is one
batched trainer.  Self-play and the exploiter share one sampled-count
update loop, `train_roster`, which advances rows of runs in lockstep at
the "sqrt_decay" rate, each row on its own generator (runs=1 is the
sequential case).  `self_play_roster` builds its self-play rows, a
table's whole roster in one call; `batch_self_play` is the one-row scratch
roster, `batch_exploiter` trains one exploiter row, and `exploiter_step`
steps one exploiter run by its rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import CHUNK_ENTRIES, MAX_ARRAY_ENTRIES, SizeCapExceeded, SymmetricGame, as_strategy, check_fields, json_field, num_compositions
from .sampling import action_cdf, actions_from_cdf, sample_actions


@dataclass(frozen=True)
class RateSchedule:
    """Learning-rate rule: fixed eta, or eta * sqrt(log(A) / t)."""

    eta: float
    rule: str = "sqrt_decay"
    num_actions: int = 2

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if self.rule not in ("fixed", "sqrt_decay"):
            raise ValueError(f"unknown rate rule {self.rule!r}")

    def rates(self, t) -> np.ndarray:
        """The rate at each round in t (an int or an int array)."""
        if self.rule == "fixed":
            return np.full(np.shape(t), float(self.eta))
        return self.eta * np.sqrt(math.log(self.num_actions) / np.asarray(t))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """The softmax of each row of a (R, A) array, shifted by the row's max
    (a running maximum over the columns, as exact as a row reduction)."""
    top = scores[:, 0]
    for a in range(1, scores.shape[1]):
        top = np.maximum(top, scores[:, a])
    w = np.exp(scores - top[:, None])
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
    eta_t = float(state.schedule.rates(t))
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
    vector of every round is drawn from its exact multinomial law, for
    max(1, CHUNK_ENTRIES // (runs * A)) rounds at a time: the same draws,
    in the same order, whatever the chunk."""
    weights = game.count_table().weights(np.asarray(y, dtype=float))
    gains = _gains_table(game, normalize=True)
    eta_t = RateSchedule(eta, "sqrt_decay", game.A).rates(np.arange(1, T + 1))
    log_w = np.zeros((runs, game.A))
    chunk = max(1, CHUNK_ENTRIES // max(1, runs * game.A))
    for start in range(0, T, chunk):
        stop = min(start + chunk, T)
        idx = sample_actions(rng, weights, (stop - start, runs))
        log_w += np.einsum("t,tra->ra", eta_t[start:stop], gains.take(idx, axis=0), optimize=True)
    return softmax_rows(log_w)


def train_roster(game: SymmetricGame, T: int, runs: int, eta: float, rows: list[tuple]) -> list[np.ndarray]:
    """Final strategies of rows of `runs` runs advanced in one lockstep
    loop; row i is (log x0, lam, generator, target or None).

    Each run samples its n-1 opponents from its own current strategy and
    takes an exponential-weights step on a gain row looked up by their count
    vector.  With cum_gain = sum_t eta_t * g_t and cum_eta = sum_t eta_t, a
    run's strategy is the normalized exponential of

        (log x0 + cum_gain + lam * cum_eta * log x0) / (1 + lam * cum_eta)

    A self-play row (no target) reads its realized per-action payoffs.  An
    exploiter row (log x0 = 0, lam = 0) is one mixed strategy shared by all
    n-1 opponents; it first draws the target's action a1, then reads
    exploiter_gain_table[a1].  One call trains rows of one kind, and checks
    every target before any draw.  Each row draws from its own generator,
    in row order, so its finals and draws are those of training it alone.
    """
    cdfs = [None if target is None else action_cdf(as_strategy(target, game.A)) for *_, target in rows]
    if len({cdf is None for cdf in cdfs}) > 1:
        raise ValueError("one roster trains self-play rows or exploiter rows, not both")
    table = game.count_table()
    K = len(table.counts)
    exploiter = any(cdf is not None for cdf in cdfs)
    # row a1 * K + k of the flat exploiter table is exploiter_gain_table[a1, k]
    gains = exploiter_gain_table(game).reshape(-1, game.A) if exploiter else _gains_table(game, normalize=False)
    log_x0 = np.repeat([np.broadcast_to(x0, game.A) for x0, *_ in rows], runs, axis=0).reshape(-1, game.A)
    lam = np.repeat([lam for _, lam, *_ in rows], runs)[:, None]
    regularized = lam.any()
    slices = [(rng, cdf, i * runs, (i + 1) * runs) for i, ((_, _, rng, _), cdf) in enumerate(zip(rows, cdfs))]
    eta_by_step = RateSchedule(eta, "sqrt_decay", game.A).rates(np.arange(1, T + 1)).tolist()

    def strategies(score: np.ndarray, cum_eta: float) -> np.ndarray:
        reg = lam * cum_eta  # with lam = 0 the regularized form is log x0 + score, byte for byte
        return softmax_rows((log_x0 + score + reg * log_x0) / (1.0 + reg) if regularized else log_x0 + score)

    score = np.zeros(log_x0.shape)  # cum_gain
    offsets = np.zeros(len(score), dtype=np.intp)  # a1 * K for exploiter rows
    counts = np.empty(score.shape, dtype=np.int64)
    cum_eta = 0.0
    for eta_t in eta_by_step:
        x = strategies(score, cum_eta)
        for rng, cdf, lo, hi in slices:
            if cdf is not None:
                offsets[lo:hi] = actions_from_cdf(cdf, rng.random(hi - lo)) * K
            counts[lo:hi] = rng.multinomial(game.n - 1, x[lo:hi])
        score += eta_t * gains.take(offsets + table.rows(counts), axis=0)
        cum_eta += eta_t
    return list(strategies(score, cum_eta).reshape(len(rows), runs, game.A))


SELF_PLAY_MODES = ("scratch", "bc_init", "regularized")


def self_play_roster(
    game: SymmetricGame,
    T: int,
    runs: int,
    eta: float,
    rows: list[tuple[str, float, np.random.Generator]],
    y_meta: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Final strategies of self-play rows trained in one train_roster call:
    row i is `runs` runs of mode rows[i][0] at strength rows[i][1], drawn
    from its own generator rows[i][2].  x0 is uniform for "scratch" and
    y_meta for "bc_init" and "regularized"; lam acts only in "regularized"
    (lam = 0 is "bc_init").  Every row is checked before any draw."""
    log_y, roster = None, []
    for mode, lam, rng in rows:
        if mode not in SELF_PLAY_MODES:
            raise ValueError(f"unknown self-play mode {mode!r}")
        if lam < 0:
            raise ValueError("lam must be >= 0")
        if mode != "scratch" and log_y is None:
            if y_meta is None:
                raise ValueError(f"mode {mode!r} needs the opponents' meta-strategy")
            y_meta = np.asarray(y_meta, dtype=float)
            if np.any(y_meta <= 0):
                raise ValueError(f"{mode} takes log of the meta-strategy; entries must be positive")
            log_y = np.log(y_meta)
        roster.append((0.0 if mode == "scratch" else log_y, lam if mode == "regularized" else 0.0, rng, None))
    return train_roster(game, T, runs, eta, roster)


def batch_self_play(game: SymmetricGame, T: int, runs: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Final strategies of `runs` self-play runs from scratch (a uniform
    start) advanced in lockstep: the one-row "scratch" self_play_roster."""
    return self_play_roster(game, T, runs, eta, [("scratch", 0.0, rng)])[0]


def exploiter_gain_table(game: SymmetricGame) -> np.ndarray:
    """(A, K, A) exploiter gains: entry [a1, k, a] is the negated average, over
    the n-1 opponent seats of count_table() row k, of the target's payoff at
    a1 when that seat switches to a.  Refused (SizeCapExceeded) before it is
    built when its A^2 K entries exceed MAX_ARRAY_ENTRIES."""
    size = game.A**2 * num_compositions(game.n - 1, game.A)
    if size > MAX_ARRAY_ENTRIES:
        raise SizeCapExceeded(f"exploiter gain table of {size} entries exceeds the cap of {MAX_ARRAY_ENTRIES}")
    table, mat, eye = game.count_table(), game.payoff_matrix(), np.eye(game.A, dtype=np.int64)
    gains = np.zeros((game.A, len(table.counts), game.A))
    for b in range(game.A):
        live = np.flatnonzero(table.counts[:, b] >= 1)
        # [k, a]: the row of the counts after one seat playing b switches to a
        switched = table.rows(table.counts[live, None] - eye[b] + eye)
        gains[:, live] -= table.counts[live, b, None] * mat[:, switched]
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
    """Final strategies of `runs` exploiter runs against a fixed target: the
    one-row train_roster."""
    return train_roster(game, T, runs, eta, [(0.0, 0.0, rng, target)])[0]


@dataclass(frozen=True)
class ExploiterState:
    """One exploiter run as a value, for stepping it round by round; T
    exploiter_step calls from a fresh state play batch_exploiter with
    runs=1, draw for draw."""

    hedge: HedgeState
    target: np.ndarray
    gains: np.ndarray  # the game's exploiter_gain_table

    @classmethod
    def fresh(cls, game: SymmetricGame, target: np.ndarray, eta: float = 1.0) -> "ExploiterState":
        return cls(HedgeState.fresh(game.A, eta), np.asarray(target, dtype=float), exploiter_gain_table(game))


def exploiter_current(state: ExploiterState) -> np.ndarray:
    return hedge_act(state.hedge)


def exploiter_step(
    state: ExploiterState, game: SymmetricGame, rng: np.random.Generator
) -> tuple[ExploiterState, np.ndarray]:
    a1 = sample_actions(rng, state.target, 1)
    counts = rng.multinomial(game.n - 1, exploiter_current(state)[None])
    new = replace(state, hedge=hedge_observe(state.hedge, state.gains[a1, game.count_table().rows(counts)][0]))
    return new, exploiter_current(new)


# ---------------------------------------------------------------------------
# The arena's view of a learner.
# ---------------------------------------------------------------------------

# each learner kind's fields and their JSON types; SAOL's horizon defaults to T
LEARNER_FIELDS = {"hedge": {"eta": float, "rule": str}, "saol": {"eta": float, "horizon": int}, "clone": {}}


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
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")


def learner_from_json(doc: dict) -> LearnerSpec:
    """Learner documents: {"kind": K, **fields}, fields optional and only those of LEARNER_FIELDS[K]."""
    spec = LearnerSpec(doc.get("kind"))
    reads = LEARNER_FIELDS[spec.kind]
    check_fields(doc, ("kind", *reads), spec.kind)
    return replace(spec, **{f: json_field(doc, f, kind) for f, kind in reads.items() if f in doc})
