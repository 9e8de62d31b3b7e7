"""Seeded randomness utilities.

All stochastic code draws from numpy Generators spawned from a single
SeedSequence per run, one child stream per role, so runs are reproducible
and roles (learner, opponents, schedule, evaluation) stay independent.
"""

from __future__ import annotations

import numpy as np

ROLES = ("schedule", "learner", "opponents", "evaluation")


def role_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One independent generator per role, derived from a single seed."""
    children = np.random.SeedSequence(seed).spawn(len(ROLES))
    return {role: np.random.default_rng(ss) for role, ss in zip(ROLES, children)}


def sample_actions(rng: np.random.Generator, probs: np.ndarray, size: int | None = None):
    """Inverse-CDF sampling of action indices in stored order.

    Cumulative sums are clamped to 1 so a strategy summing to 1 - 1e-9 can
    still emit its last action.
    """
    cdf = np.minimum(np.cumsum(probs), 1.0)
    cdf[-1] = 1.0
    if size is None:
        return int(np.minimum(np.searchsorted(cdf, rng.random(), side="right"), len(probs) - 1))
    u = rng.random(size)
    # a right-sided search never returns below 0, so only the top needs a clamp
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(probs) - 1)


def actions_from_uniforms(probs_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_actions for many rounds at once, from uniforms drawn up front.

    Entry u[t, j] is read against the clamped CDF of probs_rows[t];
    (T, A), (T, m) -> (T, m) int action indices.
    """
    cdf = np.minimum(np.cumsum(probs_rows, axis=1), 1.0)
    cdf[:, -1] = 1.0
    # the right-sided search counts the CDF entries <= u; the last is 1 > u
    actions = np.zeros(u.shape, dtype=np.int64)
    for a in range(probs_rows.shape[1] - 1):
        actions += u >= cdf[:, a, None]
    return actions


def counts_from_actions(actions: np.ndarray, num_actions: int) -> np.ndarray:
    return np.bincount(actions, minlength=num_actions)
