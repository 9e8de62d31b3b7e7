"""Equal-share play in multiplayer symmetric zero-sum games."""

from .games import (
    DenseGame,
    SymmetricGame,
    as_strategy,
    builtin_game,
    dense_from_symmetric,
    expected_payoff_iid,
    expected_payoff_mixed,
    extended_majority,
    game_from_json,
    game_to_json,
    load_game,
    majority3,
    minority3,
    payoff_vector,
    payoff_vectors_batch,
    profile_payoff,
    sdg,
    validate,
    validate_dense,
)
from .learners import (
    CloneState,
    ExploiterState,
    HedgeState,
    LearnerSpec,
    RateSchedule,
    SAOLState,
    clone_act,
    clone_observe,
    exploiter_step,
    hedge_act,
    hedge_observe,
    saol_act,
    saol_observe,
)
from .arena import (
    FixedSchedule,
    Metrics,
    ReplaySchedule,
    SequenceSchedule,
    BiasedCoinSchedule,
    PureSwapSchedule,
    Transcript,
    compute_metrics,
    dynamic_oracle,
    dynamic_regret,
    realize_schedule,
    replay_of,
    run_match,
    static_regret,
    variation_budget,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
