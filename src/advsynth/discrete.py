"""Adversarial test synthesis for finite-alphabet discrete-time systems.

Everything here is exact enumeration: the finite action alphabet and finite
test set make the minimax solvable by exhaustive search over an N-step
prediction horizon, one step being N = 1.  One difficulty loop
(:func:`predictive_difficulty`) and one test scan serve every synthesizer.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    _finite_floor,
    satisfaction_floor,
)

__all__ = [
    "DiscreteScenario",
    "one_step_difficulty",
    "synthesize_discrete",
    "feasible_sequences",
    "predictive_difficulty",
    "synthesize_predictive",
    "synthesize_discrete_constrained",
]


@dataclass(frozen=True, eq=False)
class DiscreteScenario:
    """A finite-alphabet system, its spec and its test set.

    ``lower_bound``, when given, is a finite real number that certifies two
    facts about every test d the test space can realize, at every state x,
    for every prediction horizon N and either screening rule of
    :func:`feasible_sequences`: some action sequence is safe, and the
    N-step difficulty is at least that number.  Anything else but None
    (NaN, an infinity, a callable) raises ``ValueError``.  The scan of
    :func:`synthesize_discrete_constrained` uses it to stop once its best
    difficulty reaches the bound; nothing else reads it.  The bound holds
    only for the ``dynamics``, ``spec`` and tests it was declared with, and
    ``dataclasses.replace`` keeps it: a caller who swaps one of them must
    pass a bound that holds for the new scenario, or ``lower_bound=None``."""

    dynamics: DiscreteDynamics
    spec: ReachAvoidSpec
    test_space: Union[FiniteSpace, MappedSpace]
    horizon: int = 1
    floor: Optional[float] = None
    lower_bound: Optional[float] = None

    def __post_init__(self):
        _check_horizon(self.horizon)
        if not isinstance(self.test_space, (FiniteSpace, MappedSpace)):
            raise ValueError("discrete scenarios need a finite or mapped test space")
        if self.floor is not None:
            satisfaction_floor(self)
        if self.lower_bound is not None and not (isinstance(self.lower_bound, numbers.Real)
                                                 and math.isfinite(self.lower_bound)):
            raise ValueError(f"lower_bound must be a finite real number, got {self.lower_bound!r}")


def _check_horizon(n_steps) -> int:
    """``n_steps`` when it is an integer >= 1, the one rule for a
    prediction horizon; otherwise ``ValueError``."""
    if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1):
        raise ValueError(f"prediction horizon must be an integer >= 1, got {n_steps!r}")
    return n_steps


def one_step_difficulty(scn: DiscreteScenario, x, d, floor: float):
    """:func:`predictive_difficulty` at N = 1, with the best action unwrapped
    from its 1-tuple (None when no action is safe)."""
    val, seq = predictive_difficulty(scn, x, d, floor, 1)
    return val, None if seq is None else seq[0]


def _walks(spec: ReachAvoidSpec, dyn: DiscreteDynamics, x, d, n_steps: int, check_path: bool):
    """Each action sequence of length ``n_steps``, in product order, walked
    once from x and yielded with its terminal state when every avoid value
    is >= 0 (so NaN fails) there, or with ``check_path`` at each state
    after x."""
    _check_horizon(n_steps)
    for seq in itertools.product(dyn.alphabet, repeat=n_steps):
        path = tuple(itertools.accumulate(seq, dyn.step, initial=x))
        screened = path[1:] if check_path else path[-1:]
        if all(float(h.value(s, d)) >= 0.0 for s in screened for h in spec.avoid):
            yield seq, path[-1]


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
    return tuple(seq for seq, _ in _walks(spec, dyn, x, d, n_steps, check_path))


def predictive_difficulty(
    scn: DiscreteScenario,
    x,
    d,
    floor: float,
    n_steps: int,
    check_path: bool = False,
):
    """Max N-step reach increment over the :func:`feasible_sequences`, or
    ``(floor, None)`` when none exist.  Each sequence is walked once, its
    terminal state scored as it is screened.  Ties resolve to the last
    sequence in product order.  A floor that is not finite (the rule of
    :func:`core.satisfaction_floor`) raises ``ValueError`` before any
    callback runs, and so does a non-finite increment when it is met."""
    floor = _finite_floor(floor)
    base = float(scn.spec.reach.value(x, d))
    best_val = -float("inf")
    best = None
    for seq, terminal in _walks(scn.spec, scn.dynamics, x, d, n_steps, check_path):
        v = float(scn.spec.reach.value(terminal, d)) - base
        if not math.isfinite(v):
            # a NaN increment never wins, which would report a safe test as Γ
            raise ValueError("reach barrier values must be finite")
        if v >= best_val:
            best_val, best = v, seq
    if best is None:
        return floor, None
    return best_val, best


def synthesize_discrete(
    scn: DiscreteScenario,
    x,
    n_steps: Optional[int] = None,
    check_path: bool = False,
) -> SynthesisResult:
    """Exact N-step minimax over the finite test set, by enumeration.

    N defaults to the scenario's ``horizon``, so a ``horizon > 1`` scenario
    is planned over that horizon.  ``inner_maximizer`` is the best action
    sequence under ``d_star`` (a 1-tuple at N = 1).  Enumeration that would
    take more than ``DEFAULT_BUDGET`` sequence evaluations raises
    :class:`BudgetError` before any is made."""
    if isinstance(scn.test_space, MappedSpace):
        raise ValueError("scenario has a mapped test space; use synthesize_discrete_constrained")
    return synthesize_discrete_constrained(scn, x, 0.0, n_steps, check_path)


# the paper's name for the N-step synthesizer
synthesize_predictive = synthesize_discrete


def synthesize_discrete_constrained(
    scn: DiscreteScenario,
    x,
    t: float,
    n_steps: Optional[int] = None,
    check_path: bool = False,
) -> SynthesisResult:
    """:func:`synthesize_discrete` over the admissible test set realized at
    (x, t); the result is always drawn from that set.

    The tests are scanned in order for the least N-step difficulty.  The
    first test with no safe sequence ends the scan; ties keep the earliest
    minimizer.  Once the best difficulty is at or below ``scn.lower_bound``
    the scan stops: every later test has a safe sequence, so none is in Γ,
    and each can at best tie, which keeps the earlier test.  So the result
    is that of the full scan, and ``evaluations`` counts every test of the
    set, the unevaluated ones included, unless a test in Γ ends the scan."""
    n = scn.horizon if n_steps is None else _check_horizon(n_steps)
    space = scn.test_space
    if isinstance(space, MappedSpace):
        space = space.at(x, t)
    if not isinstance(space, FiniteSpace):
        raise ValueError("discrete synthesis needs a finite realized test set")
    fl = satisfaction_floor(scn)
    cost = len(scn.dynamics.alphabet) ** n * len(space)
    if cost > DEFAULT_BUDGET:
        raise BudgetError(f"enumeration needs {cost} sequence evaluations but the budget is "
                          f"{DEFAULT_BUDGET}; shrink the horizon")
    best_d = best_seq = None
    best_val = float("inf")
    for evals, d in enumerate(space.points, 1):
        val, seq = predictive_difficulty(scn, x, d, fl, n, check_path)
        if seq is None:
            return SynthesisResult(d, fl, True, None, evals)
        if val < best_val:
            best_val, best_d, best_seq = val, d, seq
            if scn.lower_bound is not None and best_val <= scn.lower_bound:
                break
    return SynthesisResult(best_d, best_val, False, best_seq, len(space))
