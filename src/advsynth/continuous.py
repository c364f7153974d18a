"""Adversarial test synthesis for continuous-time control-affine systems.

The adversary picks the test vector minimizing the best achievable
reach-barrier rate among inputs that keep every avoid barrier enforceable.
A test whose safe-input polytope is empty is maximally difficult and
short-circuits the search; otherwise the inner maximization is a small LP.

The outer minimization is a deterministic coarse grid over the test box
followed by compass refinement, so repeated runs reproduce bit for bit.
Finite test sets are enumerated exhaustively instead.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    BoxSpace,
    BudgetError,
    ContinuousDynamics,
    FiniteSpace,
    LieCache,
    MappedSpace,
    Polytope,
    ReachAvoidSpec,
    ScenarioError,
    SynthesisResult,
    TestSpace,
    as_vector,
    avoid_rows,
    feasible_input_polytope,
    lie_derivatives,
    satisfaction_floor,
    stack_rows,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    objective_vector,
    solve_lp,
    solve_lp_batch,
)

__all__ = [
    "SearchConfig",
    "ContinuousScenario",
    "difficulty",
    "synthesize",
    "synthesize_perturbed",
    "synthesize_constrained",
]

# held candidates per batched solve, which bounds the tableau memory
_HELD_BLOCK = 256
_UNBOUNDED = "inner maximization unbounded; the input polytope is not compact"


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic outer-search settings.

    ``grid_points`` per test dimension (a single point lands on the box
    midpoint), then compass refinement from the best grid point with step
    halving.  Refinement stops after ``refine_iterations`` rounds or once
    the largest step falls below ``step_tolerance`` times the box diameter.
    """

    grid_points: int = 25
    refine_iterations: int = 40
    step_tolerance: float = 1e-4

    def __post_init__(self):
        if not (isinstance(self.grid_points, numbers.Integral) and self.grid_points >= 1):
            raise ValueError("grid_points must be an integer >= 1")
        if not (isinstance(self.refine_iterations, numbers.Integral)
                and self.refine_iterations >= 0):
            raise ValueError("refine_iterations must be an integer >= 0")
        if not (math.isfinite(self.step_tolerance) and self.step_tolerance >= 0):
            raise ValueError("step_tolerance must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class ContinuousScenario:
    """A complete continuous test setting.

    The state box and test space must be compact and the input polytope
    bounded (checked at construction with one LP per axis direction), which
    is what guarantees the synthesizer always returns a test.  ``floor`` is
    the satisfaction floor, the difficulty of a test that admits no safe
    input; synthesis needs it unless the call passes one.
    """

    dynamics: ContinuousDynamics
    spec: ReachAvoidSpec
    input_polytope: Polytope
    test_space: TestSpace
    state_lower: np.ndarray
    state_upper: np.ndarray
    floor: Optional[float] = None
    name: str = "continuous"
    normalize_state: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        lo = as_vector(self.state_lower, "state lower bound")
        hi = as_vector(self.state_upper, "state upper bound")
        if lo.size != hi.size or np.any(lo > hi):
            raise ValueError("state box needs lower <= upper elementwise")
        object.__setattr__(self, "state_lower", lo)
        object.__setattr__(self, "state_upper", hi)
        for i in range(self.input_polytope.dim):
            for sign in (1.0, -1.0):
                e = np.zeros(self.input_polytope.dim)
                e[i] = sign
                out = solve_lp(LpProblem(e, self.input_polytope))
                if out.status != OPTIMAL:
                    raise ValueError(
                        f"input polytope must be nonempty and bounded "
                        f"(axis {i} direction {sign:+.0f} came back {out.status})"
                    )


def _axis(lo: float, hi: float, k: int) -> np.ndarray:
    if k == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, k)


class _BoxGrid:
    """The points of a box grid in ``np.ndindex`` order, as a lazy sequence:
    iterating walks the grid and indexing rebuilds one point, with the same
    bits, so no point is stored."""

    def __init__(self, lower: np.ndarray, upper: np.ndarray, counts: tuple):
        self.axes = [_axis(lower[i], upper[i], counts[i]) for i in range(lower.size)]
        self.shape = tuple(len(a) for a in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __iter__(self):
        return map(self._point, np.ndindex(*self.shape))

    def __getitem__(self, i: int) -> np.ndarray:
        return self._point(np.unravel_index(i, self.shape))

    def _point(self, idx) -> np.ndarray:
        return np.array([axis[j] for axis, j in zip(self.axes, idx)])


def difficulty(scn: ContinuousScenario, x, d, floor: float, tau: float = 0.0):
    """Best achievable reach-barrier rate at (x, d), or the floor when no
    safe input exists.

    Returns ``(value, maximizer)``; the maximizer is None exactly on the
    floor branch.  ``tau`` shifts the non-floor objective down by a progress
    margin; since it is a constant shift it can never change which test
    minimizes the measure.
    """
    d = np.asarray(d, dtype=float)
    poly = feasible_input_polytope(scn.spec, scn.dynamics, x, d, scn.input_polytope)
    return _best_rate(scn, x, d, poly, floor, tau)


def _best_rate(scn, x, d, poly, floor, tau, cache=None):
    """The inner maximization of :func:`difficulty` over the safe-input
    polytope ``poly`` already assembled at (x, d), with the reach rate
    from ``cache`` when one is given."""
    if cache is None:
        drift_rate, input_row = lie_derivatives(scn.spec.reach, scn.dynamics, x, d)
    else:
        drift_rate, input_row = cache.reach(d)
    out = solve_lp(LpProblem(input_row, poly))
    if out.status == INFEASIBLE:
        return float(floor), None
    if out.status == UNBOUNDED:
        raise ScenarioError(_UNBOUNDED)
    return drift_rate + out.value - tau, out.point


def _solve_held(candidates, held, held_A, held_b, tau, inputs, cache):
    """``(d, value, maximizer)`` of the held candidates ``held`` (indices in
    candidate order) from one :func:`solve_lp_batch` of their stored rows.

    Their reach rates are taken one by one, in order, from ``cache``.
    When one raises, an unbounded program ahead of it is reported first,
    as a one-by-one scan would."""
    ds, rates, rows = [], [], []

    def solve(k):
        if k == 0:
            return []
        A = np.concatenate(
            [held_A[held[:k]], np.broadcast_to(inputs.A, (k,) + inputs.A.shape)], axis=1
        )
        b = np.concatenate([held_b[held[:k]], np.broadcast_to(inputs.b, (k, inputs.rows))], axis=1)
        outs = solve_lp_batch(np.reshape(rows, (k, inputs.dim)), A, b)
        if any(out.status == UNBOUNDED for out in outs):
            raise ScenarioError(_UNBOUNDED)
        return outs

    checked = None  # a kept reach row is one object, so it is checked once
    for i in held:
        d = candidates[i]
        try:
            rate, row = cache.reach(np.asarray(d, dtype=float))
            if row is not checked:
                row = checked = objective_vector(row, inputs.dim)
            rows.append(row)
        except Exception:
            solve(len(rates))
            raise
        ds.append(d)
        rates.append(rate)
    outs = solve(len(held))
    return [(d, rate + out.value - tau, out.point) for d, rate, out in zip(ds, rates, outs)]


def _scan(scn, x, candidates, floor, tau, evals, cache):
    """Hardest of ``candidates`` (a sequence, walked once in order and then
    indexed), Γ first.

    Each candidate's avoid rows are taken from ``cache``, the call's
    :class:`core.LieCache`, and validated as it comes; a declared row is
    built only the first time its coordinates occur, so the callbacks run
    fewer times than candidates.  A candidate with a negative right-hand
    side among its avoid and actuator rows is evaluated on the spot, and
    the first one found in Γ is returned with ``early_exit``.  The others
    cannot be in Γ (see :func:`synthesize`): their rows are held, and
    after the scan their LPs are solved by :func:`solve_lp_batch` in
    blocks of at most ``_HELD_BLOCK`` candidates, with the same bits as
    one :func:`solve_lp` each.  Every value is folded in candidate order
    with the earliest minimum kept.  ``evals`` counts earlier candidates
    of the same search.

    Memory is the held rows plus one block of tableaux.  The held rows
    take ``8 * len(candidates) * barriers * (inputs + 1)`` bytes: about
    19 MB for a 25^4 grid with two avoid barriers and two inputs.  A block
    takes ``8 * _HELD_BLOCK * (rows + 1) * (2 * inputs + rows + 1)`` bytes
    twice over (the tableaux and the running ones' working copy), where
    ``rows`` counts the avoid and actuator rows: about 0.3 MB for that
    grid.  Candidates are not copied; a held one is looked up again by its
    index.  The cache adds at most one entry per barrier and candidate.
    """
    spec, dyn, inputs = scn.spec, scn.dynamics, scn.input_polytope
    can_hold = not (inputs.b < 0).any()
    n = len(candidates)
    held_A = np.empty((n, len(spec.avoid), inputs.dim))
    held_b = np.empty((n, len(spec.avoid)))
    solved = {}
    for i, d in enumerate(candidates):
        dv = np.asarray(d, dtype=float)
        A, b = avoid_rows(spec, dyn, x, dv, inputs.dim, cache)
        if can_hold and not (b < 0).any():
            held_A[i] = A
            held_b[i] = b
            continue
        val, u = _best_rate(scn, x, dv, stack_rows(A, b, inputs), floor, tau, cache)
        if u is None:
            return SynthesisResult(d, float(floor), True, None, evals + i + 1, True)
        solved[i] = (d, val, u)

    best_d = best_u = None
    best_val = np.inf
    for start in range(0, n, _HELD_BLOCK):
        block = range(start, min(start + _HELD_BLOCK, n))
        held = [i for i in block if i not in solved]
        solved.update(zip(held, _solve_held(candidates, held, held_A, held_b, tau, inputs, cache)))
        for i in block:
            d, val, u = solved.pop(i)
            if val < best_val:
                best_val, best_d, best_u = val, d, u
    return SynthesisResult(best_d, best_val, False, best_u, evals + n)


def _refine(scn, x, space, start, floor, search, tau, cache):
    lower, upper = space.lower, space.upper
    diam = float(np.linalg.norm(upper - lower))
    span = upper - lower
    step = np.where(span > 0, span / max(search.grid_points - 1, 1), 0.0)
    d_cur = np.asarray(start.d_star, dtype=float).copy()
    val_cur, u_cur, evals = start.difficulty, start.inner_maximizer, start.evaluations
    for _ in range(search.refine_iterations):
        if step.size == 0 or step.max() <= search.step_tolerance * diam:
            break
        candidates = []
        for i in range(d_cur.size):
            if step[i] == 0.0:
                continue
            for sign in (-1.0, 1.0):
                cand = d_cur.copy()
                # np.clip's bits, signed zeros included, at a fraction of its cost
                cand[i] = min(max(cand[i] + sign * step[i], lower[i]), upper[i])
                if cand[i] != d_cur[i]:
                    candidates.append(cand)
        best = _scan(scn, x, candidates, floor, tau, evals, cache)
        if best.in_gamma:
            return best
        evals = best.evaluations
        if best.d_star is not None and best.difficulty < val_cur:
            d_cur, val_cur, u_cur = best.d_star, best.difficulty, best.inner_maximizer
        else:
            step = step * 0.5
    return SynthesisResult(d_cur, val_cur, False, u_cur, evals)


def _synthesize_over(scn, x, space, floor, search, tau):
    if isinstance(space, FiniteSpace):
        candidates = space.points
        box = None
        test_dim = np.asarray(candidates[0]).size
    elif isinstance(space, BoxSpace):
        candidates = _BoxGrid(space.lower, space.upper, (search.grid_points,) * space.dim)
        box = space
        test_dim = space.dim
    else:
        raise ValueError("mapped test spaces need synthesize_constrained")
    # the grid is lazy, so nothing sized by the count exists yet
    if len(candidates) > DEFAULT_BUDGET:
        raise BudgetError(
            f"search would scan {len(candidates)} candidate tests but the budget is "
            f"{DEFAULT_BUDGET}; lower grid_points or the test dimension"
        )
    # shared by the grid scan and every compass round, dropped on return
    cache = LieCache(scn.spec, scn.dynamics, x, test_dim, scn.input_polytope.dim)

    # the avoid sets move with d, so only the goal-side start condition is
    # meaningful to check; the probe uses the first candidate
    if float(scn.spec.reach.value(x, candidates[0])) >= 0.0:
        # at the first frame outside this module: the caller of the public
        # synthesizer, however many of them delegate on the way
        frame, level = sys._getframe(), 1
        while frame.f_globals is globals():
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "start state already satisfies the reach predicate; "
            "the synthesized test is uninteresting but still valid",
            stacklevel=level,
        )
    best = _scan(scn, x, candidates, floor, tau, 0, cache)
    if best.in_gamma or box is None:
        return best
    return _refine(scn, x, box, best, floor, search, tau, cache)


def synthesize(
    scn: ContinuousScenario,
    x,
    floor: Optional[float] = None,
    search: SearchConfig = SearchConfig(),
    tau: float = 0.0,
) -> SynthesisResult:
    """Hardest admissible test at state x.

    Candidates are scanned in deterministic order (the coarse grid, then
    each compass round); the first one that blocks every safe input ends
    the search immediately (it is globally optimal, in the paper's set
    Γ).  Ties between equal difficulties keep the earliest candidate.  The
    floor defaults to the scenario's pinned value; with neither,
    ``ValueError`` is raised before any callback runs.

    Each scan settles Γ before solving any LP it can postpone.  Phase-I
    adds no artificial variable for a polytope whose right-hand sides are
    all >= 0: u = 0 is in it, so it is never empty.  A candidate whose
    avoid rows and actuator rows all have a nonnegative right-hand side is
    therefore not in Γ, and its reach-barrier rate and LP wait until the
    scan ends without a blocking test.  Every other candidate is solved on
    the spot.  Every reported value still comes from the simplex, on the
    same polytope with the same bits, so results equal a one-by-one scan;
    the postponed LPs are solved together by a batched Phase-II kernel
    that makes the same pivots as the scalar one.  A box grid of more than
    ``DEFAULT_BUDGET`` points, or a larger finite test set, raises
    :class:`BudgetError` before any candidate is examined.
    ``evaluations`` counts candidates examined, not LPs solved.

    One difference from a one-by-one scan: the reach-barrier callbacks of a
    postponed candidate run only after the scan, so they are skipped when
    a later candidate is in Γ, and an error they raise surfaces after every
    candidate's avoid rows were built.

    Another, for scenarios that declare which test coordinates their
    callbacks read (``reads`` on the barriers and the dynamics): each
    declared avoid row and the reach rate are built once per distinct
    value of those coordinates within the call, and f and g once when
    they read none, so the callbacks run fewer times than candidates.
    The kept pieces live until the call returns; :class:`core.LieCache`
    states their memory bound.  Undeclared scenarios make every call.
    A declaration out of range of the test dimension raises
    ``ValueError`` before any callback runs.
    """
    if isinstance(scn.test_space, MappedSpace):
        raise ValueError("scenario has a mapped test space; use synthesize_constrained")
    return synthesize_constrained(scn, x, 0.0, floor, search, tau)


# Synthesis against test-perturbed dynamics is the same search: dynamics
# callbacks always receive the candidate test vector, so with a zero coupling
# matrix and d-independent f, g it reduces to the nominal synthesizer exactly.
synthesize_perturbed = synthesize


def synthesize_constrained(
    scn: ContinuousScenario,
    x,
    t: float,
    floor: Optional[float] = None,
    search: SearchConfig = SearchConfig(),
    tau: float = 0.0,
) -> SynthesisResult:
    """Synthesis over the admissible test set realized at (x, t).

    With a constant map this coincides with :func:`synthesize`; the result
    is always a member of the realized set.
    """
    x = as_vector(x, "state")
    fl = satisfaction_floor(scn, floor)
    space = scn.test_space
    if isinstance(space, MappedSpace):
        space = space.at(x, t)
    return _synthesize_over(scn, x, space, fl, search, tau)
