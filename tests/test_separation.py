"""Where the adaptive meta-learner actually beats plain hedge.

On the pure-swap schedule family (point-mass batches, fixed total budget)
the per-round optimum moves by a full payoff unit at every coin flip, so a
learner whose rate decays to zero freezes and pays linearly, while the
interval-restart mixture re-learns each batch.  The behavior cloner sheds
at most one round per flip.
"""

import numpy as np

import equalshare as eq
from equalshare.reproduce import fit_scaling_exponent, lowerbound_sweep

EM2 = eq.extended_majority(3, 2)
HORIZONS = (512, 1024, 2048, 4096)
SEEDS = 8


def test_pure_swap_family_separates_the_learners():
    kinds = ("hedge", "saol", "clone")
    rows = lowerbound_sweep(EM2, [("pure_swap", 8.0, T) for T in HORIZONS], range(42_000, 42_000 + SEEDS), kinds=kinds)
    (hedge_slope, hedge), (saol_slope, saol), (_, clone) = (fit_scaling_exponent(rows, kind) for kind in kinds)
    # frozen hedge pays linearly (pilot slope 1.00), the interval mixture
    # stays sublinear (pilot slope 0.78), cloning pays a constant
    assert hedge_slope >= 0.9
    assert saol_slope <= 0.85
    assert saol[-1][1] < hedge[-1][1] / 2
    assert max(m for _, m in clone) <= 2.0 * (8.0 + 1.0)


def test_hedge_fails_two_round_batches():
    # batches of length 2: copying survives, reweighting does not
    T = 1024
    v = T / 2.0
    hedge, clone = lowerbound_sweep(EM2, [("pure_swap", v, T)], range(52_000, 52_010), kinds=("hedge", "clone"))
    assert hedge.u_avg_mean <= -0.1
    sigma = clone.u_avg_std / np.sqrt(clone.seeds)
    assert clone.u_avg_mean >= -(v + 1.0) / T - 3 * sigma
