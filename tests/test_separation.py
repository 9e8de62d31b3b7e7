"""Where the adaptive meta-learner actually beats plain hedge.

On the pure-swap schedule family (point-mass batches, fixed total budget)
the per-round optimum moves by a full payoff unit at every coin flip, so a
learner whose rate decays to zero freezes and pays linearly, while the
interval-restart mixture re-learns each batch.  The behavior cloner sheds
at most one round per flip.
"""

import numpy as np
import pytest

import equalshare as eq
from equalshare.arena import PureSwapSchedule, compute_metrics, run_matches
from equalshare.learners import LearnerSpec

EM2 = eq.extended_majority(3, 2)
HORIZONS = (512, 1024, 2048, 4096)
SEEDS = 8


def _dreg_means(kinds):
    """Per kind, the seed-mean dynamic regret at each horizon; every kind plays the same matches."""
    means = {kind: [] for kind in kinds}
    for T in HORIZONS:
        matches = [(PureSwapSchedule(8.0, T), seed) for seed in range(42_000, 42_000 + SEEDS)]
        dreg = [[compute_metrics(tr).dynamic_regret for tr in transcripts]
                for transcripts in run_matches(EM2, [LearnerSpec(kind, horizon=T) for kind in kinds], matches, T)]
        for k, kind in enumerate(kinds):
            means[kind].append(float(np.mean([d[k] for d in dreg])))
    return means


def _slope(means):
    return float(np.polyfit(np.log(HORIZONS), np.log(np.maximum(means, 1e-9)), 1)[0])


def test_pure_swap_family_separates_the_learners():
    means = _dreg_means(("hedge", "saol", "clone"))
    hedge, saol, clone = means["hedge"], means["saol"], means["clone"]
    # frozen hedge pays linearly (pilot slope 1.00), the interval mixture
    # stays sublinear (pilot slope 0.78), cloning pays a constant
    assert _slope(hedge) >= 0.9
    assert _slope(saol) <= 0.85
    assert saol[-1] < hedge[-1] / 2
    assert max(clone) <= 2.0 * (8.0 + 1.0)


def test_hedge_fails_two_round_batches():
    # batches of length 2: copying survives, reweighting does not
    T = 1024
    sched = PureSwapSchedule(T / 2.0, T)
    matches = [(sched, seed) for seed in range(52_000, 52_010)]
    runs = list(run_matches(EM2, [LearnerSpec("hedge"), LearnerSpec("clone")], matches, T))
    hedge_vals = [compute_metrics(hedge).u_avg for hedge, _ in runs]
    clone_vals = [compute_metrics(clone).u_avg for _, clone in runs]
    assert float(np.mean(hedge_vals)) <= -0.1
    v = T / 2.0
    sigma = float(np.std(clone_vals, ddof=1)) / np.sqrt(len(clone_vals))
    assert float(np.mean(clone_vals)) >= -(v + 1.0) / T - 3 * sigma
