"""Seeded randomness utilities.

All stochastic code draws from numpy Generators spawned from a single
SeedSequence per run, one child stream per role, so runs are reproducible
and roles (learner, opponents, schedule, evaluation) stay independent.
"""

from __future__ import annotations

import math

import numpy as np

ROLES = ("schedule", "learner", "opponents", "evaluation")


def role_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One independent generator per role, derived from a single seed."""
    children = np.random.SeedSequence(seed).spawn(len(ROLES))
    return {role: np.random.default_rng(ss) for role, ss in zip(ROLES, children)}


def action_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums of strategies along the last axis, clamped to 1 and
    ending in exactly 1, so a strategy summing to 1 - 1e-9 can still emit
    its last action.  A uniform u in [0, 1) plays the action
    #{a : cdf[a] <= u}, so u < cdf[a] exactly when that action is <= a."""
    cdf = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    cdf[..., -1] = 1.0
    return cdf


def sample_actions(rng: np.random.Generator, probs: np.ndarray, size: int | None = None):
    """Inverse-CDF sampling of action indices in stored order, on action_cdf."""
    cdf = action_cdf(probs)
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    return actions_from_cdf(cdf, rng.random(size))


GUIDE_EXTRA_BITS = 6  # guide buckets per CDF entry, as a power of two: 2^6 = 64
GUIDE_MAX_BITS = 16  # at most 2^16 guide buckets
GUIDE_MIN_DRAWS = 4  # draws per guide bucket from which the guide is built
GUIDE_CHUNK = 1 << 16  # draws looked up at a time, which bounds the temporaries


def actions_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The action #{a : cdf[a] <= u} of each uniform in u, for one
    action_cdf: a right-sided search, which never returns past the last
    action because the CDF ends in 1 > u.

    Many draws go through an indexed search (Chen & Asau 1974): a guide of
    B = 2^b buckets holds the answer at each bucket edge j/B.  Both u * B
    and j/B are exact in binary floating point, so a draw in bucket j has
    its answer between guide[j] and guide[j+1], and only draws in buckets
    where those differ (a CDF step lies inside) are searched."""
    bits = min(GUIDE_MAX_BITS, len(cdf).bit_length() + GUIDE_EXTRA_BITS)
    if u.size < GUIDE_MIN_DRAWS << bits:
        return cdf.searchsorted(u, side="right")
    buckets = 1 << bits
    # the edge at 1 counts every entry; clamped, it still bounds the top bucket
    guide = np.minimum(cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right"), len(cdf) - 1)
    is_open = guide[1:] != guide[:-1]
    actions = np.empty(u.shape, dtype=np.intp)
    flat_u, flat_actions = u.reshape(-1), actions.reshape(-1)
    for start in range(0, flat_u.size, GUIDE_CHUNK):
        chunk = flat_u[start : start + GUIDE_CHUNK]
        bucket = (chunk * buckets).astype(np.intp)
        found = guide.take(bucket)
        open_draws = np.flatnonzero(is_open.take(bucket))
        found[open_draws] = cdf.searchsorted(chunk[open_draws], side="right")
        flat_actions[start : start + GUIDE_CHUNK] = found
    return actions


def actions_from_uniforms(probs_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_actions for many rounds at once, from uniforms drawn up front.

    Entry u[t, j] is read against the clamped CDF of probs_rows[t];
    (T, A), (T, m) -> (T, m) int action indices.
    """
    cdf = action_cdf(probs_rows)
    # the right-sided search counts the CDF entries <= u; the last is 1 > u
    actions = np.zeros(u.shape, dtype=np.int64)
    for a in range(probs_rows.shape[1] - 1):
        actions += u >= cdf[:, a, None]
    return actions


def counts_from_actions(actions: np.ndarray, num_actions: int) -> np.ndarray:
    """Per-action counts of each row of actions in [0, num_actions):
    (..., m) -> (..., num_actions); a 1-D input gives one (num_actions,) vector."""
    actions = np.asarray(actions)
    lead = actions.shape[:-1]
    rows = math.prod(lead)
    # shift row r's actions into bins [r*A, (r+1)*A) so one bincount covers all rows
    offsets = np.arange(rows, dtype=np.int64).reshape(lead + (1,)) * num_actions
    counts = np.bincount((actions + offsets).ravel(), minlength=rows * num_actions)
    return counts.reshape(lead + (num_actions,))
