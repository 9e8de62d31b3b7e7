"""Equal-share play in multiplayer symmetric zero-sum games."""

from .games import (
    SymmetricGame,
    as_strategy,
    builtin_game,
    expected_payoff_mixed,
    extended_majority,
    game_from_json,
    game_to_json,
    load_game,
    majority3,
    minority3,
    payoff_vector,
    payoff_vectors_batch,
    sdg,
    validate,
)
from .learners import LearnerSpec, RateSchedule
from .arena import (
    FixedSchedule,
    Metrics,
    SequenceSchedule,
    BiasedCoinSchedule,
    PureSwapSchedule,
    Transcript,
    compute_metrics,
    realize_schedule,
    run_match,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
