"""Barrier-constrained adversarial test synthesis for reach-avoid control tasks."""

from .core import (
    BarrierFunction,
    BoxSpace,
    BudgetError,
    ClassKappaFn,
    ContinuousDynamics,
    DiscreteDynamics,
    FiniteSpace,
    MappedSpace,
    MonitorResult,
    Polytope,
    ReachAvoidSpec,
    ScenarioError,
    SynthesisResult,
    TestSpace,
    as_vector,
    feasibility_filter,
    feasible_input_polytope,
    lie_derivatives,
    monitor_trajectory,
)
from .lp import (
    INFEASIBILITY_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    LpProblem,
    blocks_all_inputs,
    phase_one_feasible,
    solve_lp,
)
from .continuous import (
    ContinuousScenario,
    SearchConfig,
    difficulty,
    synthesize,
    synthesize_constrained,
    synthesize_perturbed,
)
from .discrete import (
    DiscreteScenario,
    feasible_sequences,
    one_step_difficulty,
    predictive_difficulty,
    rollout,
    synthesize_discrete,
    synthesize_discrete_constrained,
    synthesize_predictive,
)
from .scenarios import (
    RewardGrid,
    SimulationLog,
    build_gridworld,
    build_quadgrid,
    build_unicycle,
    greedy_safe_controller,
    grid_step,
    simulate_adversarial,
    solve_reward,
    unit_cell_corners,
)

__version__ = "0.1.0"
