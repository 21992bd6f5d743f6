"""Rollout planning for post-hazard restoration of interdependent power
and water networks."""

from .community import (
    Community,
    Component,
    ComponentClass,
    DamageState,
    GridCell,
    Network,
    Retailer,
    gravity_weights,
)
from .hazard import (
    ComponentHazard,
    FragilityCurve,
    FragilitySet,
    damage_pmf,
    exceedance_prob,
    sample_initial_damage,
)
from .mdp import (
    MdpConfig,
    Objective,
    RecoveryState,
    RepairAction,
    RepairModel,
    count_admissible,
    coverage_fraction,
    enumerate_actions,
    initial_state,
    is_terminal,
)
from .planner import (
    DecisionRecord,
    EpisodeResult,
    PolicyKind,
    PriorityBasePolicy,
    QEstimate,
    RestorationCurve,
    RolloutConfig,
    RolloutMode,
    base_action,
    estimate_q,
    exhaustive_oracle,
    rollout_decision,
    run_episode,
    run_episodes,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
