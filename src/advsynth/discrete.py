"""Adversarial test synthesis for finite-alphabet discrete-time systems.

Everything here is exact enumeration: the finite action alphabet and finite
test set make the minimax solvable by exhaustive search over an N-step
prediction horizon, one step being N = 1.  One difficulty loop
(:func:`predictive_difficulty`) and one test scan serve every synthesizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    DEFAULT_BUDGET,
    BudgetError,
    DiscreteDynamics,
    FiniteSpace,
    MappedSpace,
    ReachAvoidSpec,
    SynthesisResult,
    satisfaction_floor,
)

__all__ = [
    "DiscreteScenario",
    "rollout",
    "one_step_difficulty",
    "synthesize_discrete",
    "feasible_sequences",
    "predictive_difficulty",
    "synthesize_predictive",
    "synthesize_discrete_constrained",
]


@dataclass(frozen=True, eq=False)
class DiscreteScenario:
    dynamics: DiscreteDynamics
    spec: ReachAvoidSpec
    test_space: Union[FiniteSpace, MappedSpace]
    horizon: int = 1
    floor: Optional[float] = None
    name: str = "discrete"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("prediction horizon must be >= 1")
        if not isinstance(self.test_space, (FiniteSpace, MappedSpace)):
            raise ValueError("discrete scenarios need a finite or mapped test space")
        if self.floor is not None:
            satisfaction_floor(self)


def rollout(dyn: DiscreteDynamics, x, inputs):
    """Terminal state after applying the input sequence in order."""
    for u in inputs:
        x = dyn.step(x, u)
    return x


def one_step_difficulty(scn: DiscreteScenario, x, d, floor: float):
    """:func:`predictive_difficulty` at N = 1, with the best action unwrapped
    from its 1-tuple (None when no action is safe)."""
    val, seq = predictive_difficulty(scn, x, d, floor, 1)
    return val, None if seq is None else seq[0]


def feasible_sequences(
    spec: ReachAvoidSpec,
    dyn: DiscreteDynamics,
    x,
    d,
    n_steps: int,
    check_path: bool = False,
) -> tuple:
    """Action sequences of length ``n_steps`` whose terminal state keeps
    every avoid barrier nonnegative, in product order.  This is the one
    feasibility rule of discrete synthesis; at N = 1 it lists the safe
    actions, as 1-tuples in alphabet order.

    Only the terminal state is constrained, so sequences may pass through
    violating states on the way; ``check_path=True`` opts into the stricter
    variant that also screens every intermediate state.
    """
    if n_steps < 1:
        raise ValueError("sequence length must be >= 1")
    out = []
    for seq in itertools.product(dyn.alphabet, repeat=n_steps):
        if _sequence_ok(spec, dyn, x, d, seq, check_path):
            out.append(seq)
    return tuple(out)


def _sequence_ok(spec, dyn, x, d, seq, check_path):
    """Every avoid value is >= 0 (so NaN fails) at the terminal state, or
    with ``check_path`` at each state after x."""
    if check_path:
        s = x
        for u in seq:
            s = dyn.step(s, u)
            if not all(float(h.value(s, d)) >= 0.0 for h in spec.avoid):
                return False
        return True
    terminal = rollout(dyn, x, seq)
    return all(float(h.value(terminal, d)) >= 0.0 for h in spec.avoid)


def predictive_difficulty(
    scn: DiscreteScenario,
    x,
    d,
    floor: float,
    n_steps: int,
    check_path: bool = False,
):
    """Max N-step reach increment over the :func:`feasible_sequences`, or
    ``(floor, None)`` when none exist.  Ties resolve to the last sequence in
    product order.  A non-finite increment raises ``ValueError``."""
    base = float(scn.spec.reach.value(x, d))
    best_val = -float("inf")
    best = None
    for seq in feasible_sequences(scn.spec, scn.dynamics, x, d, n_steps, check_path):
        v = float(scn.spec.reach.value(rollout(scn.dynamics, x, seq), d)) - base
        if not math.isfinite(v):
            # a NaN increment never wins, which would report a safe test as Γ
            raise ValueError("reach barrier values must be finite")
        if v >= best_val:
            best_val, best = v, seq
    if best is None:
        return float(floor), None
    return best_val, best


def synthesize_discrete(
    scn: DiscreteScenario,
    x,
    n_steps: Optional[int] = None,
    check_path: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SynthesisResult:
    """Exact N-step minimax over the finite test set, by enumeration.

    N defaults to the scenario's ``horizon``, so a ``horizon > 1`` scenario
    is planned over that horizon.  ``inner_maximizer`` is the best action
    sequence under ``d_star`` (a 1-tuple at N = 1).  Enumeration that would
    take more than ``budget`` sequence evaluations raises
    :class:`BudgetError` before any is made."""
    if isinstance(scn.test_space, MappedSpace):
        raise ValueError("scenario has a mapped test space; use synthesize_discrete_constrained")
    return synthesize_discrete_constrained(scn, x, 0.0, n_steps, check_path, budget)


# the paper's name for the N-step synthesizer
synthesize_predictive = synthesize_discrete


def synthesize_discrete_constrained(
    scn: DiscreteScenario,
    x,
    t: float,
    n_steps: Optional[int] = None,
    check_path: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SynthesisResult:
    """:func:`synthesize_discrete` over the admissible test set realized at
    (x, t); the result is always drawn from that set.

    The tests are scanned in order for the least N-step difficulty.  The
    first test with no safe sequence ends the scan; ties keep the earliest
    minimizer."""
    space = scn.test_space
    if isinstance(space, MappedSpace):
        space = space.at(x, t)
    if not isinstance(space, FiniteSpace):
        raise ValueError("discrete synthesis needs a finite realized test set")
    n = scn.horizon if n_steps is None else int(n_steps)
    if n < 1:
        raise ValueError("prediction horizon must be >= 1")
    fl = satisfaction_floor(scn)
    cost = len(scn.dynamics.alphabet) ** n * len(space)
    if cost > budget:
        raise BudgetError(
            f"enumeration needs {cost} sequence evaluations but the budget is "
            f"{budget}; raise the budget or shrink the horizon"
        )
    evals = 0
    best_d = best_seq = None
    best_val = float("inf")
    for d in space.points:
        val, seq = predictive_difficulty(scn, x, d, fl, n, check_path)
        evals += 1
        if seq is None:
            return SynthesisResult(d, fl, True, None, evals)
        if val < best_val:
            best_val, best_d, best_seq = val, d, seq
    return SynthesisResult(best_d, best_val, False, best_seq, evals)
