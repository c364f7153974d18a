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

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import accumulate
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
    dynamics_at,
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
    the satisfaction floor (see :func:`core.satisfaction_floor`).
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
        if not isinstance(self.test_space, (BoxSpace, FiniteSpace, MappedSpace)):
            raise ValueError("continuous scenarios need a box, finite or mapped test space")
        if self.floor is not None:
            satisfaction_floor(self)
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
    """The points of a box grid in ``np.ndindex`` order, as a lazy sequence
    that stores no point: a slice gives its points as the rows of one
    array, and an index the one row of its slice."""

    def __init__(self, lower: np.ndarray, upper: np.ndarray, counts: tuple):
        self.axes = [_axis(lower[i], upper[i], counts[i]) for i in range(lower.size)]
        self.shape = tuple(len(a) for a in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # IndexError out of range, which ends iteration
            return self[i:i + 1][0]
        rows = np.arange(*i.indices(len(self)))
        idx = np.unravel_index(rows, self.shape)
        cols = [axis[j] for axis, j in zip(self.axes, idx)]
        return np.array(cols, dtype=float).reshape(len(cols), rows.size).T


def difficulty(scn: ContinuousScenario, x, d, floor: float, tau: float = 0.0):
    """Best achievable reach-barrier rate at (x, d), or the floor when no
    safe input exists.

    Returns ``(value, maximizer)``; the maximizer is None exactly on the
    floor branch.  ``tau`` shifts the non-floor objective down by a progress
    margin; since it is a constant shift it can never change which test
    minimizes the measure.  f and g are evaluated once for all rows.
    """
    d = np.asarray(d, dtype=float)
    fg = dynamics_at(scn.dynamics, x, d)
    poly = feasible_input_polytope(scn.spec, scn.dynamics, x, d, scn.input_polytope, fg)
    value, u = _best_rate(lie_derivatives(scn.spec.reach, scn.dynamics, x, d, fg), poly, floor)
    return (value, u) if u is None else (value - tau, u)


def _best_rate(reach, poly, floor):
    """The inner maximization of :func:`difficulty` over the safe-input
    polytope ``poly``, with ``reach`` the reach barrier's
    ``(drift_rate, input_row)`` at the same (x, d)."""
    drift_rate, input_row = reach
    out = solve_lp(LpProblem(input_row, poly))
    if out.status == INFEASIBLE:
        return float(floor), None
    if out.status == UNBOUNDED:
        raise ScenarioError(_UNBOUNDED)
    return drift_rate + out.value, out.point


def _solve_held(points, held_A, held_b, inputs, cache):
    """``(value, maximizer)`` of each held test in ``points`` from one
    :func:`solve_lp_batch` of its stored rows ``held_A``, ``held_b``.

    Their reach rates are taken one by one, in order, from ``cache``.
    When one raises, an unbounded program ahead of it is reported first,
    as a one-by-one scan would."""
    rates, rows = [], []

    def solve(k):
        if k == 0:
            return []
        A = np.concatenate([held_A[:k], np.broadcast_to(inputs.A, (k,) + inputs.A.shape)], axis=1)
        b = np.concatenate([held_b[:k], np.broadcast_to(inputs.b, (k, inputs.rows))], axis=1)
        outs = solve_lp_batch(np.reshape(rows, (k, inputs.dim)), A, b)
        if any(out.status == UNBOUNDED for out in outs):
            raise ScenarioError(_UNBOUNDED)
        return outs

    checked = None  # a kept reach row is one object, so it is checked once
    for d in points:
        try:
            rate, row = cache.reach(np.asarray(d, dtype=float))
            if row is not checked:
                row = checked = objective_vector(row, inputs.dim)
            rows.append(row)
        except Exception:
            solve(len(rates))
            raise
        rates.append(rate)
    outs = solve(len(points))
    return [(rate + out.value, out.point) for rate, out in zip(rates, outs)]


def _scan(scn, candidates, ends, floor, evals, cache, bar=-np.inf):
    """Hardest candidate of each group of ``candidates`` (a sequence,
    indexed), Γ first: ``(gamma, bests)``.

    Groups are consecutive runs of candidates ending at the indices
    ``ends`` (the coarse grid or a finite set is one, a compass plan has
    one per round), folded in order: ``bests`` holds ``(d, value,
    maximizer)`` of each folded group's hardest candidate, the earliest on
    ties and ``(None, inf, None)`` for an empty group, and the scan ends
    after the first group whose value is below ``bar``.  ``gamma`` is the
    first candidate in Γ as a :class:`SynthesisResult` (the groups
    before its own all folded), else None.
    ``evals`` counts earlier candidates of the same search.

    Avoid rows come from ``cache.avoid_block``, ``_HELD_BLOCK`` candidates
    at a time when it is ``batched`` (so also for candidates after a test
    in Γ), else one.  Phase-I adds no artificial variable for a polytope
    whose right-hand sides are all >= 0: u = 0 is in it, so such a
    candidate is not in Γ.  Its rows are held, and its reach rate and LP
    wait until its group is folded (so they are skipped after a test in
    Γ, and their errors surface after later candidates' rows are built),
    then go through :func:`solve_lp_batch` (the pivots and bits of one
    :func:`solve_lp` each) in blocks of at most ``_HELD_BLOCK``.  Every
    other candidate is solved on the spot, in order, once the groups
    before its own are folded, so each LP solved on the spot is one a
    scan of one group at a time would solve.

    Memory: ``8 * len(candidates) * barriers * (inputs + 1)`` bytes of
    held rows (about 19 MB for a 25^4 grid, two avoid barriers and two
    inputs), one block of rows, and one block of tableaux twice over (with
    the running ones' copy), ``8 * _HELD_BLOCK * (rows + 1) * (2 * inputs
    + rows + 1)`` bytes, ``rows`` counting avoid and actuator rows (about
    0.3 MB there).
    """
    inputs = scn.input_polytope
    can_hold = not (inputs.b < 0).any()
    n, size = len(candidates), _HELD_BLOCK if cache.batched else 1
    held_A = np.empty((n, len(scn.spec.avoid), inputs.dim))
    held_b = np.empty((n, len(scn.spec.avoid)))
    solved, bests = {}, []

    def fold(stop):
        """Fold the groups that end at or before candidate ``stop``; True
        once one has a value below ``bar``."""
        lo = ends[len(bests) - 1] if bests else 0
        last = bisect.bisect_right(ends, stop)
        top, solved_to = ends[last - 1] if last else 0, lo
        for end in ends[len(bests):last]:
            best_d = best_u = None
            best_val = np.inf
            for i in range(lo, end):
                if i == solved_to:
                    solved_to = min(i + _HELD_BLOCK, top)
                    block = candidates[i:solved_to]
                    held = [j for j in range(i, solved_to) if j not in solved]
                    points = [block[j - i] for j in held]
                    outs = _solve_held(points, held_A[held], held_b[held], inputs, cache)
                    solved.update((j, (d,) + out) for j, d, out in zip(held, points, outs))
                d, val, u = solved.pop(i)
                if val < best_val:
                    best_val, best_d, best_u = val, d, u
            bests.append((best_d, best_val, best_u))
            lo = end
            if best_d is not None and best_val < bar:
                return True
        return False

    i = 0
    while i < n:
        block = candidates[i:i + size]
        D = np.asarray(block, dtype=float)
        A, b = cache.avoid_block(D)
        k = len(b)
        held_A[i:i + k], held_b[i:i + k] = A, b
        spot = (b < 0).any(axis=1) if can_hold else np.ones(k, dtype=bool)
        for j in np.flatnonzero(spot).tolist():
            if fold(i + j):
                return None, bests
            val, u = _best_rate(cache.reach(D[j]), stack_rows(A[j], b[j], inputs), floor)
            if u is None:
                return SynthesisResult(block[j], float(floor), True, None,
                                       evals + i + j + 1), bests
            solved[i + j] = (block[j], val, u)
        i += k
    fold(n)
    return None, bests


def _compass(d_cur, step, lower, upper):
    """One compass round's moves from ``d_cur``: each coordinate with a
    nonzero step, down then up, clipped to the box.  A move the clip
    cancels is left out."""
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
    return candidates


def _refine(scn, space, start, floor, search, cache):
    """Compass refinement from ``start``, the grid scan's result: a round's
    hardest move replaces the current test when it is strictly harder,
    else the step halves.

    Rounds are planned ahead as if none improves, each at half the step
    of the one before, and a plan is scanned as one, its rounds folded in
    order.  The first round that improves moves the test and keeps its
    step, and the later ones are dropped; a test in Γ counts only when no
    earlier round improves.  So results, ``evaluations`` and the LPs solved
    on the spot are those of a search of one round at a time, which raises
    where this one does (see the replanning below).
    """
    lower, upper = space.lower, space.upper
    limit = search.step_tolerance * float(np.linalg.norm(upper - lower))
    span = upper - lower
    step = np.where(span > 0, span / max(search.grid_points - 1, 1), 0.0)
    d_cur = np.asarray(start.d_star, dtype=float).copy()
    val_cur, u_cur, evals = start.difficulty, start.inner_maximizer, start.evaluations
    # width: the most rounds the next plan may hold.  The first plan holds
    # every remaining round; a plan whose round k improves wasted the rest,
    # so the next holds k + 1, and one with no improving round twice as many
    rounds = width = search.refine_iterations
    while True:
        plan, s = [], step
        while len(plan) < min(rounds, width) and not (s.size == 0 or s.max() <= limit):
            plan.append(_compass(d_cur, s, lower, upper))
            s = s * 0.5
        if not plan:
            break
        flat = [c for r in plan for c in r]
        try:
            gamma, bests = _scan(scn, flat, list(accumulate(map(len, plan))),
                                 floor, evals, cache, val_cur)
        except Exception:
            # a planned round the loop may never reach can raise: plan one
            # round at a time until a lone round raises where the loop would
            if len(plan) == 1:
                raise
            width = 1
            continue
        width = 2 * len(plan)
        for k, (moves, (d, val, u)) in enumerate(zip(plan, bests)):
            rounds, evals = rounds - 1, evals + len(moves)
            if d is not None and val < val_cur:
                d_cur, val_cur, u_cur, width = d, val, u, k + 1
                break
            step = step * 0.5
        else:
            if gamma is not None:
                return gamma
    return SynthesisResult(d_cur, val_cur, False, u_cur, evals)


def _synthesize_over(scn, x, space, floor, search):
    if isinstance(space, FiniteSpace):
        candidates = space.points
    else:
        candidates = _BoxGrid(space.lower, space.upper, (search.grid_points,) * space.dim)
    # the grid is lazy, so nothing sized by the count exists yet
    if len(candidates) > DEFAULT_BUDGET:
        raise BudgetError(
            f"search would scan {len(candidates)} candidate tests but the budget is "
            f"{DEFAULT_BUDGET}; lower grid_points or the test dimension"
        )
    # shared by the grid scan and every compass round, dropped on return
    cache = LieCache(scn.spec, scn.dynamics, x, scn.input_polytope.dim)

    # the avoid sets move with d, so only the goal-side start condition is
    # meaningful to check; the probe uses the first candidate
    if float(scn.spec.reach.value(x, candidates[0])) >= 0.0:
        warnings.warn(
            "start state already satisfies the reach predicate; "
            "the synthesized test is uninteresting but still valid",
            stacklevel=3,  # the caller of the public synthesizer
        )
    gamma, bests = _scan(scn, candidates, [len(candidates)], floor, 0, cache)
    if gamma is not None:
        return gamma
    (d, val, u), = bests
    best = SynthesisResult(d, val, False, u, len(candidates))
    if isinstance(space, FiniteSpace):
        return best
    return _refine(scn, space, best, floor, search, cache)


def _checked(scn: ContinuousScenario, x) -> tuple:
    """The state as a vector of the scenario's dimension, and the floor."""
    x = as_vector(x, "state")
    if x.size != scn.state_lower.size:
        raise ValueError(f"state needs {scn.state_lower.size} components, got {x.size}")
    return x, satisfaction_floor(scn)


def synthesize(
    scn: ContinuousScenario, x, search: SearchConfig = SearchConfig()
) -> SynthesisResult:
    """Hardest admissible test at state x, searched as the module docstring
    and :class:`SearchConfig` say; the first test in the paper's set Γ
    ends the search.  Ties keep the earliest candidate, and
    ``evaluations`` counts candidates examined, not LPs solved.  Before
    any callback runs, a state of the wrong size or a scenario without a
    valid floor (see :func:`core.satisfaction_floor`) raises
    ``ValueError``, and a search of more than ``DEFAULT_BUDGET``
    candidates :class:`BudgetError`.

    Results and ``evaluations`` equal those of a scan of one candidate at
    a time, but the callbacks may run fewer or more times than there, and
    an error may surface later: :class:`core.LieCache` builds f, g and
    the reach rate once where ``reads`` allows it, :func:`_scan` puts off held
    candidates' reach rates and builds rows in blocks, and :func:`_refine`
    may build rows for planned rounds that an improving round drops.
    """
    if isinstance(scn.test_space, MappedSpace):
        raise ValueError("scenario has a mapped test space; use synthesize_constrained")
    x, floor = _checked(scn, x)
    return _synthesize_over(scn, x, scn.test_space, floor, search)


# Synthesis against test-perturbed dynamics is the same search: dynamics
# callbacks always receive the candidate test vector, so with a zero coupling
# matrix and d-independent f, g it reduces to the nominal synthesizer exactly.
synthesize_perturbed = synthesize


def synthesize_constrained(
    scn: ContinuousScenario, x, t: float, search: SearchConfig = SearchConfig()
) -> SynthesisResult:
    """:func:`synthesize` over the admissible test set realized at (x, t),
    with its checks made before the map runs; the result is a member of
    that set."""
    x, floor = _checked(scn, x)
    space = scn.test_space
    if isinstance(space, MappedSpace):
        space = space.at(x, t)
    return _synthesize_over(scn, x, space, floor, search)
