"""Sampling: the indexed search behind sample_actions is exact, and each
role draws from its own stream of the run seed."""

import numpy as np
import pytest

from equalshare import sampling
from equalshare.sampling import ROLES, action_cdf, actions_from_cdf, cdf_guide, guided_actions, role_rngs, sample_actions


def _reference(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _bits(K):
    return min(sampling.GUIDE_MAX_BITS, K.bit_length() + sampling.GUIDE_EXTRA_BITS)


def _guided(K):
    """The fewest draws for which actions_from_cdf builds a guide."""
    return sampling.GUIDE_MIN_DRAWS << _bits(K)


def _edge_steps(K):
    # every CDF step but the last exactly on a guide bucket edge j/2^b
    buckets = 1 << _bits(K)
    probs = np.zeros(K)
    probs[: K - 1] = np.arange(1, K) % 3 / buckets  # repeated steps where the entry is 0
    probs[-1] = 1.0 - probs.sum()
    return probs


STRATEGIES = {
    "zero-weights": np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0]),
    "inner-steps": np.array([0.1, 0.2, 0.3, 0.4]),
    "pure-first": np.array([1.0, 0.0, 0.0]),
    "pure-last": np.array([0.0, 0.0, 1.0]),
    "edge-steps": _edge_steps(7),
    "edge-steps-many": _edge_steps(300),
    "short-sum": np.array([0.25, 0.25, 0.5 - 1e-9]),
    "dirichlet": np.random.default_rng(3).dirichlet(np.full(465, 0.2)),
}


def _hard_uniforms(K, size):
    """Every bucket edge j/2^b, the doubles either side of it, 0 and the
    largest double below 1, then uniforms up to `size` draws."""
    buckets = 1 << _bits(K)
    edges = np.arange(buckets) / buckets
    hard = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
                           [0.0, np.nextafter(1.0, 0.0)]])
    u = np.resize(hard, size)
    if size > hard.size:
        u[hard.size:] = np.random.default_rng(size).random(size - hard.size)
    return u


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("side", ["below", "at", "above"])
def test_indexed_search_equals_the_clamped_searchsorted(name, side):
    cdf = action_cdf(STRATEGIES[name])
    size = {"below": _guided(len(cdf)) - 1, "at": _guided(len(cdf)), "above": 3 * _guided(len(cdf)) + 5}[side]
    u = _hard_uniforms(len(cdf), size)
    got = actions_from_cdf(cdf, u)
    assert got.dtype == _reference(cdf, u).dtype
    assert np.array_equal(got, _reference(cdf, u))
    # the same draws as a (rounds, runs) block
    block = u[: size - size % 5].reshape(-1, 5)
    assert np.array_equal(actions_from_cdf(cdf, block), _reference(cdf, block))


@pytest.mark.parametrize("name", ["dirichlet", "edge-steps-many"])
def test_one_guide_serves_a_stream_in_chunks_below_its_threshold(name):
    # the guide is built once for the stream's total draws; each chunk holds
    # fewer draws than would build a guide of its own, and still uses it
    cdf = action_cdf(STRATEGIES[name])
    total, chunk = 3 * _guided(len(cdf)) + 5, _guided(len(cdf)) // 7
    u = _hard_uniforms(len(cdf), total)
    guide = cdf_guide(cdf, total)
    assert guide is not None and cdf_guide(cdf, chunk) is None
    got = np.concatenate([guided_actions(cdf, guide, u[start : start + chunk]) for start in range(0, total, chunk)])
    assert got.dtype == _reference(cdf, u).dtype
    assert np.array_equal(got, _reference(cdf, u))


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_sample_actions_draws_and_plays_as_before(name):
    probs = STRATEGIES[name]
    for size in (7, (_guided(len(probs)) // 4 + 1, 4)):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = sample_actions(rng, probs, size)
        assert np.array_equal(got, _reference(action_cdf(probs), ref.random(size)))
        assert rng.random() == ref.random()


def test_a_short_sum_still_plays_its_last_action():
    # a strategy summing to 1 - 1e-9 has a CDF ending in exactly 1
    probs = STRATEGIES["short-sum"]
    u = np.full(_guided(3), 1.0 - 5e-10)
    assert np.all(actions_from_cdf(action_cdf(probs), u) == 2)


@pytest.mark.parametrize("role", ROLES)
def test_each_role_draws_the_child_of_the_seed_at_its_index(role):
    # SeedSequence.spawn keys each child by its index, so a role's stream
    # does not depend on how many roles come after it
    index = ROLES.index(role)
    for seed in (0, 7, 2**40 + 3):
        spawned = np.random.SeedSequence(seed).spawn(index + 2)[index]
        want = np.random.default_rng(spawned).random(8)
        assert role_rngs(seed)[role].random(8).tobytes() == want.tobytes()
