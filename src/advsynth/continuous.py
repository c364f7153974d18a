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
    _finite_floor,
    as_vector,
    avoid_lists,
    dim_at,
    dynamics_at,
    # bound here, though unused, because bench/spans.py wraps it by name
    feasible_input_polytope,
    lie_derivatives,
    objective_vector,
    satisfaction_floor,
    stack_rows,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BlandPath,
    LpProblem,
    maximize_stacked,
    solve_lp,
)

__all__ = [
    "SearchConfig",
    "ContinuousScenario",
    "difficulty",
    "synthesize",
    "synthesize_perturbed",
    "synthesize_constrained",
]

# held candidates per path replay, which bounds the replay array's memory
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
    normalize_state: Optional[Callable[[np.ndarray], np.ndarray]] = None

    # the size of every test vector, fixed by the first test set realized
    _test_size = None

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

    def check_state(self, x, name: str = "state") -> np.ndarray:
        """``x`` as a finite vector of this scenario's state size; otherwise
        ``ValueError`` names ``name``.  Every entry point taking a state
        checks it here before any callback runs."""
        x = as_vector(x, name)
        if x.size != self.state_lower.size:
            raise ValueError(f"{name} needs {self.state_lower.size} components, got {x.size}")
        return x

    def realize(self, x, t: float):
        """The test set admissible at (x, t): the test space, or the set a
        mapped one gives there.  The first set realized fixes the
        scenario's test size, as :func:`core.dim_at` reads it; a set of
        another size raises ``ValueError``."""
        space = self.test_space
        space = space.at(x, t) if isinstance(space, MappedSpace) else space
        if self._test_size is None:
            object.__setattr__(self, "_test_size", dim_at(space, x))
        elif (size := dim_at(space, x)) != self._test_size:
            raise ValueError(f"test-space map realized tests of {size} components, "
                             f"the scenario's have {self._test_size}")
        return space

    def check_test(self, d, x) -> np.ndarray:
        """``d`` as a finite vector of this scenario's test size, which
        :meth:`realize` fixes at (x, 0) if no set was realized yet;
        otherwise ``ValueError``."""
        d = as_vector(d, "test vector")
        if self._test_size is None:
            self.realize(x, 0.0)
        if d.size != self._test_size:
            raise ValueError(f"test vector needs {self._test_size} components, got {d.size}")
        return d


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
    minimizes the measure.  The program is :func:`_program`'s, which
    :func:`scenarios.greedy_safe_controller` solves too, both through
    :func:`_solved`; the value is the drift rate plus ``float(c @ u)``, as
    :func:`lp.solve_lp` computes an LP's value.  Before any dynamics or
    barrier callback runs, a floor that is not finite (the rule of
    :func:`core.satisfaction_floor`), or a state or test vector that
    :meth:`ContinuousScenario.check_state` or
    :meth:`ContinuousScenario.check_test` rejects, raises ``ValueError``
    (a mapped test space's map runs once per scenario, to size the tests).
    """
    floor, x = _finite_floor(floor), scn.check_state(x)
    drift_rate, c, _, _, u = _solved(scn, x, scn.check_test(d, x))
    return (floor, None) if u is None else (drift_rate + float(np.array(c) @ u) - tau, u)


def _program(scn, x, d):
    """The one-test program of :func:`difficulty` and
    :func:`scenarios.greedy_safe_controller` at checked (x, d), as Python
    floats: ``(drift_rate, c, A, b)``, the reach barrier's drift rate and
    input row ``c`` and the avoid rows ``A u <= b`` of
    :func:`core.avoid_lists`, to stack above the input polytope.  f and g
    are evaluated once for all of them, and each row is checked finite
    once, ``c`` by :func:`core.objective_vector`."""
    fg = dynamics_at(scn.dynamics, x, d)
    A, b = avoid_lists(scn.spec, scn.dynamics, x, d, scn.input_polytope.dim, fg)
    drift_rate, row = lie_derivatives(scn.spec.reach, scn.dynamics, x, d, fg)
    return drift_rate, objective_vector(row, scn.input_polytope.dim).tolist(), A, b


def _solved(scn, x, d):
    """:func:`_program` at checked (x, d) and the maximizer ``u`` of ``c @
    u`` over its safe inputs, by :func:`lp.maximize_stacked`: ``(drift_rate,
    c, A, b, u)``, ``u`` None when no input is safe (the test is in Γ).
    Without avoid rows the program is the input polytope's own, which
    :func:`_best_rate` solves, as the scan does."""
    drift_rate, c, A, b = _program(scn, x, d)
    if not b:
        return drift_rate, c, A, b, _best_rate((drift_rate, c), scn.input_polytope, None)[1]
    status, u = maximize_stacked(c, A, b, scn.input_polytope)
    if status == UNBOUNDED:
        raise ScenarioError(_UNBOUNDED)
    return drift_rate, c, A, b, u


def _best_rate(reach, poly, floor):
    """The scan's inner maximization over the safe-input polytope
    ``poly``, with ``reach`` the reach barrier's ``(drift_rate,
    input_row)`` at the same (x, d): ``(floor, None)`` when ``poly`` is
    empty (the test is in Γ), else the best rate and its maximizer, with
    :func:`difficulty`'s bits.  :class:`lp.LpProblem` checks the input
    row, the one check it gets."""
    drift_rate, input_row = reach
    out = solve_lp(LpProblem(input_row, poly))
    if out.status == INFEASIBLE:
        return floor, None
    if out.status == UNBOUNDED:
        raise ScenarioError(_UNBOUNDED)
    return drift_rate + out.value, out.point


def _scan(scn, candidates, ends, floor, evals, cache, bar=-np.inf):
    """Hardest candidate of the groups of ``candidates`` (a sequence,
    indexed), Γ first: ``(gamma, folded, best)``.

    Groups are consecutive runs of candidates ending at the indices
    ``ends`` (the coarse grid or a finite set is one, a compass plan has
    one per round), folded in order until one's hardest candidate, as
    :func:`_hardest` picks it, has a value below ``bar``.  ``folded``
    counts the groups folded, and ``best`` is ``(d, value, maximizer)``
    of the last one's hardest candidate, or ``(None, inf, None)`` when
    it has none.  ``gamma`` is the first candidate in Γ as a
    :class:`SynthesisResult` (the groups before its own all folded), else
    None.  ``evals`` counts earlier candidates of the same search.

    Avoid rows come from ``cache.avoid_block``, ``_HELD_BLOCK`` candidates
    at a time when it is ``batched`` (so also for candidates after a test
    in Γ), else one.  Phase-I adds no artificial variable for a polytope
    whose right-hand sides are all >= 0: u = 0 is in it, so such a
    candidate is not in Γ.  Its rows are held and its index queued in
    ``pending``; its reach rate and LP wait until its group is folded (so
    they are skipped after a test in Γ, and their errors surface after
    later candidates' rows are built).  Folding drains the queue in
    order, at most ``_HELD_BLOCK`` held candidates at a time, never past
    the end of the last group it folds.  When the cache keeps the reach
    row, each block of held candidates reads the :class:`lp.BlandPath` of
    that row over the input polytope alone from the polytope's pivot
    trie.  A held candidate whose avoid rows neither leave nor tie at any
    of the path's pivots takes the kept reach rate plus the path's value,
    and the path's point; :meth:`lp.BlandPath.follows` says why :func:`solve_lp`
    would give it the same bits.  Every other held candidate, in queue
    order, takes its reach rate from ``cache.reach`` and its LP from
    :func:`solve_lp`.  A path rule is needed: a candidate whose avoid rows
    merely hold at the recorded point may be cut at an intermediate vertex
    of the path and get other last bits.  A candidate that is not held is
    solved on the spot, in order, once the groups before its own are
    folded, so each LP solved on the spot is one a scan of one group at a
    time would solve.  Values and maximizers wait in two arrays until
    their group is folded.

    Memory: ``8 * len(candidates) * barriers * (inputs + 1)`` bytes of
    held rows (about 19 MB for a 25^4 grid, two avoid barriers and two
    inputs), one block of rows, a result slot of ``8 * (inputs + 1)``
    bytes and a queue slot of 8 bytes per candidate, and the path
    replay's array twice over (with its update's product), ``8 *
    _HELD_BLOCK * barriers * (2 * inputs + actuator rows + 1)`` bytes
    (about 74 KB there, with four actuator rows).  Rows and slots are
    allocated unfilled, so a scan touches only the pages of the
    candidates it reaches.
    """
    inputs = scn.input_polytope
    can_hold = not (inputs.b < 0).any()
    n, size, m = len(candidates), _HELD_BLOCK if cache.batched else 1, len(scn.spec.avoid)
    held_A, held_b = np.empty((n, m, inputs.dim)), np.empty((n, m))
    # each candidate's value and maximizer, from its solve until its fold
    values, maximizers = np.empty(n), np.empty((n, inputs.dim))
    # the queue: held candidates' indices, ascending, pending[head:tail]
    pending, head, tail = np.empty(n, dtype=np.intp), 0, 0
    folded, best = 0, (None, np.inf, None)
    groups = list(zip([0] + ends, ends))

    def solve_held(top):
        """Solve the next block of the queue, none at or past ``top``: the
        candidates that follow the recorded Bland path take its point, and
        the rest go to :func:`solve_lp` in order."""
        nonlocal head
        stop = head + int(np.searchsorted(pending[head:min(tail, head + _HELD_BLOCK)], top))
        held, head = pending[head:stop], stop
        first = int(held[0])
        D = np.asarray(candidates[first:int(held[-1]) + 1], dtype=float)[held - first]
        if cache.keep_reach:
            rate, row = cache.reach(D[0])
            path = BlandPath(row, inputs)
            short = path.follows(held_A[held], held_b[held])
            if short.any():
                values[held[short]] = rate + path.value
                maximizers[held[short]] = path.point
                held, D = held[~short], D[~short]
        for k, d in zip(held.tolist(), D):
            values[k], maximizers[k] = _best_rate(
                cache.reach(d), stack_rows(held_A[k], held_b[k], inputs), floor)

    def fold(stop):
        """Fold the groups that end at or before candidate ``stop``; True
        once one has a value below ``bar``."""
        nonlocal folded, best
        last = bisect.bisect_right(ends, stop)
        top = ends[last - 1] if last else 0
        for lo, end in groups[folded:last]:
            while head < tail and pending[head] < end:
                solve_held(top)
            k, folded = _hardest(values[lo:end]), folded + 1
            best = (None, np.inf, None) if k is None else (
                candidates[lo + k], float(values[lo + k]), maximizers[lo + k].copy())
            if best[1] < bar:
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
        queued = i + np.flatnonzero(~spot)
        pending[tail:tail + queued.size] = queued
        tail += queued.size
        for j in np.flatnonzero(spot).tolist():
            if fold(i + j):
                return None, folded, best
            val, u = _best_rate(cache.reach(D[j]), stack_rows(A[j], b[j], inputs), floor)
            if u is None:
                return SynthesisResult(block[j], float(floor), True, None,
                                       evals + i + j + 1), folded, best
            values[i + j], maximizers[i + j] = val, u
        i += k
    fold(n)
    return None, folded, best


def _hardest(values):
    """Index of the earliest least entry of ``values``, NaN counting as
    +inf, or None when that entry is +inf or there is none: the candidate
    that a fold from +inf keeps, replacing its best only on a strictly
    smaller value."""
    if not values.size:
        return None
    masked = np.where(np.isnan(values), np.inf, values)
    k = int(masked.argmin())
    return None if masked[k] == math.inf else k


def _compass(d_cur, steps, lower, upper):
    """A compass plan's moves from ``d_cur``, one round per row of
    ``steps``: in each round, each coordinate down then up by its step,
    clipped to the box.  A move that leaves ``d_cur`` where it is (a zero
    step, or one the clip cancels) is left out.  Returns the moves as the
    rows of one array, round by round, and each round's count of them."""
    moved = np.stack([d_cur - steps, d_cur + steps], axis=2)
    # min(max(x, lo), hi) by comparisons, which gives a scalar np.clip's
    # bits: an array np.clip's signed zeros depend on its operands' layout
    lo, hi = lower[:, None], upper[:, None]
    moved = np.where(lo > moved, lo, moved)
    moved = np.where(hi < moved, hi, moved)
    keep = moved != d_cur[:, None]
    _, axis, _ = keep.nonzero()
    moves = d_cur[None].repeat(axis.size, axis=0)
    moves[np.arange(axis.size), axis] = moved[keep]
    return moves, keep.reshape(len(steps), -1).sum(axis=1)


def _refine(scn, space, start, evals, floor, search, cache):
    """Compass refinement from ``start``, the grid scan's ``(d, value,
    maximizer)`` after ``evals`` candidates: a round's hardest move
    replaces the current test when it is strictly harder, else the step
    halves.

    Rounds are planned ahead as if none improves, each at half the step
    of the one before, and a plan's moves are built by one
    :func:`_compass` call and scanned as one, its rounds folded in order.
    The scan stops at the first round that improves, so either its
    ``best`` is that round's hardest move or no round it folded improved,
    and its ``folded`` rounds are the ones used: the improving round moves
    the test and keeps its step, and the later ones are dropped.  A test
    in Γ counts only when no earlier round improves.  So results,
    ``evaluations`` and the LPs solved on the spot are those of a search
    of one round at a time, which raises where this one does (see the
    replanning below).
    """
    lower, upper = space.lower, space.upper
    limit = search.step_tolerance * float(np.linalg.norm(upper - lower))
    span = upper - lower
    step = np.where(span > 0, span / max(search.grid_points - 1, 1), 0.0)
    d_cur, val_cur, u_cur = start
    d_cur = np.array(d_cur, dtype=float)
    # width: the most rounds the next plan may hold.  The first plan holds
    # every remaining round; a plan that folds k rounds, the last one
    # improving, wasted the rest, so the next holds k, and one with no
    # improving round twice as many
    rounds = width = search.refine_iterations
    while step.size:
        # the plan's steps, each round's half the one before, up to the
        # first round whose largest step is within the limit, so no plan
        # outgrows the halvings left however many rounds remain
        steps, s = [], step
        while len(steps) < min(rounds, width) and s.max() > limit:
            steps.append(s)
            s = s * 0.5
        if not steps:
            break
        steps = np.array(steps)
        moves, counts = _compass(d_cur, steps, lower, upper)
        counts = counts.tolist()
        try:
            gamma, folded, (d, val, u) = _scan(scn, moves, list(accumulate(counts)), floor,
                                               evals, cache, val_cur)
        except Exception:
            # a planned round the loop may never reach can raise: plan one
            # round at a time until a lone round raises where the loop would
            if len(steps) == 1:
                raise
            width = 1
            continue
        rounds, evals = rounds - folded, evals + sum(counts[:folded])
        if val < val_cur:
            d_cur, val_cur, u_cur, width, step = d, val, u, folded, steps[folded - 1]
        elif gamma is not None:
            return gamma
        else:
            width, step = 2 * len(steps), steps[-1] * 0.5
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
    gamma, _, (d, val, u) = _scan(scn, candidates, [len(candidates)], floor, 0, cache)
    if gamma is not None:
        return gamma
    # with no finite grid value there is no test to refine from
    if isinstance(space, FiniteSpace) or d is None:
        return SynthesisResult(d, val, False, u, len(candidates))
    return _refine(scn, space, (d, val, u), len(candidates), floor, search, cache)


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
    may build rows for planned rounds that an improving round drops.  A
    held candidate's LP runs right after its reach rate, so an unbounded
    program (possible only with an input polytope that construction
    rejects) raises :class:`ScenarioError` before any later candidate's
    reach rate runs.
    """
    if isinstance(scn.test_space, MappedSpace):
        raise ValueError("scenario has a mapped test space; use synthesize_constrained")
    x, floor = scn.check_state(x), satisfaction_floor(scn)
    return _synthesize_over(scn, x, scn.test_space, floor, search)


# Synthesis against test-perturbed dynamics is the same search: f and g
# always receive the candidate test vector, so with d-independent f and g it
# reduces to the nominal synthesizer exactly.
synthesize_perturbed = synthesize


def synthesize_constrained(
    scn: ContinuousScenario, x, t: float, search: SearchConfig = SearchConfig()
) -> SynthesisResult:
    """:func:`synthesize` over the admissible test set realized at (x, t)
    by :meth:`ContinuousScenario.realize`, with its checks made before the
    map runs; the result is a member of that set."""
    x, floor = scn.check_state(x), satisfaction_floor(scn)
    return _synthesize_over(scn, x, scn.realize(x, t), floor, search)
