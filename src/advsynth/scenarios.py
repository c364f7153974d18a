"""Ready-to-run test settings.

Three builders: a planar unicycle dodging round obstacles, a 10x10 grid
world whose barriers come from an absorbing-boundary value grid, and a
planar integrator ("quadgrid") whose admissible tests are the corners of the
unit grid cell around the agent.  Plus a greedy safe baseline controller and
a closed-loop adversarial simulation harness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

import numpy as np

from .continuous import ContinuousScenario, SearchConfig, _solved, synthesize_constrained
from .core import (
    DEFAULT_BUDGET,
    BarrierFunction,
    BoxSpace,
    ClassKappaFn,
    ContinuousDynamics,
    DiscreteDynamics,
    FiniteSpace,
    MappedSpace,
    Polytope,
    ReachAvoidSpec,
    ScenarioError,
    as_vector,
    # ``feasible_input_polytope`` and ``lie_derivatives`` stay bound here
    # because bench/spans.py wraps them by name
    feasible_input_polytope,
    lie_derivatives,
    min_avoid,
)
from .discrete import DiscreteScenario
from .lp import OPTIMAL, LpProblem, solve_lp

__all__ = [
    "GRID_ACTIONS",
    "grid_step",
    "RewardGrid",
    "SimulationLog",
    "build_unicycle",
    "grid_cell",
    "solve_reward",
    "build_gridworld",
    "unit_cell_corners",
    "build_quadgrid",
    "greedy_safe_controller",
    "simulation_steps",
    "simulate_adversarial",
]

GRID_N = 10
_GRID_MOVES = {
    "left": (-1, 0),
    "right": (1, 0),
    "up": (0, 1),
    "down": (0, -1),
    "stay": (0, 0),
}
GRID_ACTIONS = tuple(_GRID_MOVES)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# f and g of the builders' dynamics that read neither x nor d: one shared
# read-only array each, so no call allocates one
_ZEROS2, _ZEROS3, _EYE2 = (_readonly(a) for a in (np.zeros(2), np.zeros(3), np.eye(2)))


# ---------------------------------------------------------------------------
# unicycle

def _scalar_squares(a: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each entry with the bits of a numpy float64 scalar's
    ``**``, which is C ``pow``: an array's ``a * a``, ``a ** 2`` and
    ``np.power`` differ from it in the last bit now and then.  Python
    floats' ``**`` is C ``pow`` too, but raises where the scalar
    overflows to inf, so that case takes the scalars themselves."""
    try:
        return (a.astype(object) ** 2).astype(float)
    except OverflowError:
        with np.errstate(over="ignore"):
            return np.array([v ** 2 for v in a])


def build_unicycle(
    goal=(0.5, 0.5),
    n_obstacles: int = 1,
    kappa: float = 10.0,
    floor: float = -5.0,
    t_max: float = math.inf,
) -> ContinuousScenario:
    """Planar unicycle that must enter a 0.25-radius goal disc while staying
    0.175 away from each obstacle center.

    The test vector stacks the obstacle centers, each free in [-1, 1]^2.
    State is (x, y, heading) with heading wrapped to [0, 2*pi); inputs are
    (forward speed, turn rate) in [-0.2, 0.2] x [-1, 1].
    """
    g = as_vector(goal, "goal")
    if g.size != 2 or np.any(np.abs(g) > 1.0):
        raise ValueError("goal must lie in the [-1, 1]^2 plane")
    if not (isinstance(n_obstacles, numbers.Integral) and n_obstacles >= 1):
        raise ValueError(f"obstacle count must be an integer >= 1, got {n_obstacles!r}")

    goal_r2 = 0.25 ** 2
    obs_r2 = 0.175 ** 2

    reach = BarrierFunction(
        value=lambda x, d: goal_r2 - float((x[0] - g[0]) ** 2 + (x[1] - g[1]) ** 2),
        gradient=lambda x, d: np.array([-2.0 * (x[0] - g[0]), -2.0 * (x[1] - g[1]), 0.0]),
        reads=(),
    )

    def _batch(x, D, j):
        dx, dy = x[0] - D[:, 2 * j], x[1] - D[:, 2 * j + 1]
        values = _scalar_squares(dx) + _scalar_squares(dy) - obs_r2
        return values, np.column_stack([2.0 * dx, 2.0 * dy, np.zeros(len(D))])

    def _avoid(j: int) -> BarrierFunction:
        return BarrierFunction(
            value=lambda x, d, j=j: float(
                (x[0] - d[2 * j]) ** 2 + (x[1] - d[2 * j + 1]) ** 2
            ) - obs_r2,
            gradient=lambda x, d, j=j: np.array(
                [2.0 * (x[0] - d[2 * j]), 2.0 * (x[1] - d[2 * j + 1]), 0.0]
            ),
            batch=lambda x, D, j=j: _batch(x, D, j),
        )

    avoid = tuple(_avoid(j) for j in range(n_obstacles))
    spec = ReachAvoidSpec(
        reach=reach,
        avoid=avoid,
        gains=tuple(ClassKappaFn(kappa) for _ in range(n_obstacles)),
        t_max=t_max,
    )
    dynamics = ContinuousDynamics(
        f=lambda x, d: _ZEROS3,
        g=lambda x, d: np.array(
            [[math.cos(x[2]), 0.0], [math.sin(x[2]), 0.0], [0.0, 1.0]]
        ),
        reads=(),
    )

    def _wrap(x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float)
        out[2] = out[2] % (2.0 * math.pi)
        return out

    p = 2 * n_obstacles
    return ContinuousScenario(
        dynamics=dynamics,
        spec=spec,
        input_polytope=Polytope.box([-0.2, -1.0], [0.2, 1.0]),
        test_space=BoxSpace(-np.ones(p), np.ones(p)),
        state_lower=np.array([-1.0, -1.0, 0.0]),
        state_upper=np.array([1.0, 1.0, 2.0 * math.pi]),
        floor=floor,
        normalize_state=_wrap,
    )


# ---------------------------------------------------------------------------
# grid world

# every grid cell, keyed by itself
_CELLS = {c: c for c in product(range(GRID_N), range(GRID_N))}


def grid_cell(c, what: str = "cell") -> tuple:
    """``c`` as a pair of ints in ``0..GRID_N - 1``: ``_CELLS[tuple(c)]``.
    Equal numbers hash alike, so any spelling of a cell's two integers
    finds it (``(7.0, 9.0)``, numpy ints, an array); anything else
    (``7.0000000001``, NaN, a wrong length) raises ``ValueError`` naming
    ``what``."""
    try:
        return _CELLS[tuple(c)]
    except (KeyError, TypeError):
        raise ValueError(f"{what} must be a pair of integers in 0..{GRID_N - 1}") from None


def grid_step(x, u):
    """One grid move from the cell x (checked by :func:`grid_cell`); actions
    that would leave the grid keep the agent in place, as does "stay"."""
    x = grid_cell(x, "state")
    dx, dy = _GRID_MOVES[u]
    return _CELLS.get((x[0] + dx, x[1] + dy), x)


@dataclass(frozen=True, eq=False)
class RewardGrid:
    """Value matrices backing the grid-world barriers.

    ``base`` solves the averaging recursion (each cell the mean of its five
    successors) with the goal fixed at +10 and the obstacle at -10;
    ``modified`` overrides those cells to +10.1/-10.1.  When goal and
    obstacle coincide the system is inconsistent, ``base`` is None and
    ``modified`` is identically zero.

    Grids come from a shared cache and every caller gets the same arrays, so
    both are read-only.
    """

    base: Optional[np.ndarray]
    modified: np.ndarray


# row 0: each index minus one, row 1: plus one, clamped to the grid, so
# ``a.take(_CLAMPED, axis)`` stacks the two successors along an axis, a wall
# keeping the agent in place
_CLAMPED = _readonly(np.array([[0, *range(GRID_N - 1)], [*range(1, GRID_N), GRID_N - 1]]))


@lru_cache(maxsize=None)
def _cosine_basis() -> tuple:
    """``(C, Ct, lam)``: the orthonormal DCT-II basis, ``C[i, k]``
    proportional to cos(pi k (i + 1/2) / n), its transpose, and ``lam[k, l]``
    the eigenvalue of I - P on mode (k, l).  P averages the five successors,
    so I - P = (4I - M x I - I x M) / 5, where M, the 1-D move pair with a
    self-loop at each wall, has eigenvalue 2 cos(pi k / n) on column k of C.
    The constant mode's eigenvalue, the only zero, is stored as inf: its
    coefficient is exactly 0 for every pair, and 0 / inf sets that mode to
    0.  Built with ``math.cos`` on first use."""
    n = GRID_N
    C = np.array([[math.sqrt((2.0 if k else 1.0) / n) * math.cos(math.pi * k * (i + 0.5) / n)
                   for k in range(n)] for i in range(n)])
    move = [2.0 * math.cos(math.pi * k / n) for k in range(n)]
    lam = np.array([[(4.0 - a - b) / 5.0 or math.inf for b in move] for a in move])
    return _readonly(C), _readonly(C.T.copy()), _readonly(lam)


def _reward_base(goal: tuple, obstacle: tuple) -> np.ndarray:
    """The ``base`` grid in closed form.  w = C ((c_g1 c_g2 - c_o1 c_o2) / lam) C^T,
    with c_i row i of C, solves (I - P) w = e_g - e_o, so w is harmonic off
    the two pinned cells; ``q w + (10 - q w_g)`` with q = 20 / (w_g - w_o)
    takes +10 at the goal and -10 at the obstacle, which are then set
    exactly.  Both matrix products are elementwise products summed by
    numpy's ``sum`` along a middle axis, a left-to-right sum, so no BLAS
    kernel or thread count decides a bit."""
    C, Ct, lam = _cosine_basis()
    coef = (C[goal[0], :, None] * C[goal[1]] - C[obstacle[0], :, None] * C[obstacle[1]]) / lam
    t = (C[:, :, None] * coef).sum(axis=1)
    w = (t[:, :, None] * Ct).sum(axis=1)
    q = 20.0 / (w[goal] - w[obstacle])
    base = q * w + (10.0 - q * w[goal])
    base[goal], base[obstacle] = 10.0, -10.0
    return base


@lru_cache(maxsize=GRID_N ** 4)
def _solve_reward_cached(goal: tuple, obstacle: tuple) -> RewardGrid:
    if goal == obstacle:
        return RewardGrid(None, _readonly(np.zeros((GRID_N, GRID_N))))
    base = _reward_base(goal, obstacle)
    # 5 (I - P) base by a 5-point stencil with edge-clamped neighbours, off
    # the two pinned cells
    r = 4.0 * base - base.take(_CLAMPED, 0).sum(0) - base.take(_CLAMPED, 1).sum(1)
    r[goal] = r[obstacle] = 0.0
    if not (residual := float(np.abs(r).max()) / 5.0) <= 1e-9:  # so a NaN residual fails too
        raise ScenarioError(f"reward solve residual {residual:.3e} exceeds 1e-9")
    modified = base.copy()
    modified[goal], modified[obstacle] = 10.1, -10.1
    return RewardGrid(_readonly(base), _readonly(modified))


def solve_reward(goal, obstacle) -> RewardGrid:
    """Value matrices for a goal/obstacle pair, both cells checked by
    :func:`grid_cell`, built in closed form by :func:`_reward_base` and
    checked against the averaging recursion to 1e-9 (``ScenarioError``
    otherwise).  Results are cached per pair, up to ``GRID_N ** 4``
    entries: all 100 goals times 100 obstacles, so no pair is ever evicted
    or built twice.  Each entry holds two 10x10 float grids, about 2.2 KB
    with overhead, so the worst case is about 21 MB."""
    return _solve_reward_cached(grid_cell(goal, "goal"), grid_cell(obstacle, "obstacle"))


def build_gridworld(goal=(7, 9), floor: float = -15.0, horizon: int = 1) -> DiscreteScenario:
    """10x10 grid agent that must reach the goal cell while never stepping
    onto the obstacle cell; the test vector is the obstacle cell.

    Barriers read the modified value matrix: the reach barrier is positive
    only on the goal cell, the avoid barrier negative only on the obstacle
    cell (both identically shifted when the pair is inconsistent).

    The goal cell leads the canonical test enumeration, followed by the
    remaining cells lexicographically.  Covering the goal always attains the
    global minimum difficulty of zero, but screened pockets (e.g. a corner
    sealed off by a nearby obstacle under a symmetric goal/obstacle layout)
    can tie it exactly, and ties resolve to the earliest candidate; leading
    with the goal keeps the reported test the obstacle-on-goal one.

    ``lower_bound`` is 0.0: every obstacle cell d, the agent's own
    included, has a safe sequence and a difficulty of at least 0.0 at every
    state x, N and screening rule.  For d other than x, the all-``stay``
    sequence never leaves x, and the avoid value at any cell but the
    obstacle is at least 1.3456 over all goal/obstacle pairs (10 when the
    obstacle is on the goal), so that sequence is safe and its reach
    increment is exactly 0.0.  For d = x off the goal, x holds the grid's
    least value, -10.1, and is its only unsafe cell, so a step to any
    neighbour and then ``stay`` is safe, with an increment above 0.1.  For
    d = x on the goal the grid is all zeros: every cell is safe and every
    increment is 0.0.  The goal leads the scan at difficulty 0.0, so the
    scan evaluates the goal alone.
    """
    g = grid_cell(goal, "goal")
    reach = BarrierFunction(
        value=lambda x, d: float(solve_reward(g, d).modified[grid_cell(x, "state")]) - 10.0
    )
    avoid = BarrierFunction(
        value=lambda x, d: float(solve_reward(g, d).modified[grid_cell(x, "state")]) + 10.0
    )
    spec = ReachAvoidSpec(
        reach=reach,
        avoid=(avoid,),
        # the discrete feasibility rule only checks successor sign, so the
        # gain is a placeholder
        gains=(ClassKappaFn(1.0),),
        t_max=math.inf,
    )
    dynamics = DiscreteDynamics(step=grid_step, alphabet=GRID_ACTIONS)
    cells = (g,) + tuple(c for c in _CELLS if c != g)
    return DiscreteScenario(
        dynamics=dynamics,
        spec=spec,
        test_space=FiniteSpace(cells),
        horizon=horizon,
        floor=floor,
        lower_bound=0.0,
    )


# ---------------------------------------------------------------------------
# quadgrid: planar integrator with cell-corner test map

def unit_cell_corners(x) -> tuple:
    """Corners of the unit grid cell containing the planar point x, in
    lexicographic order.  On integer coordinates floor and ceil coincide and
    the set shrinks (it stays nonempty)."""
    xs = sorted({math.floor(x[0]), math.ceil(x[0])})
    ys = sorted({math.floor(x[1]), math.ceil(x[1])})
    return tuple((float(a), float(b)) for a in xs for b in ys)


def build_quadgrid(
    kappa: float = 10.0, floor: float = -8.0, t_max: float = math.inf
) -> ContinuousScenario:
    """Planar single integrator that must reach the goal at [3.5, 2.5] by
    ``t_max`` while two obstacles, both 0.3-radius, sit at grid-cell
    corners around it.

    Distance (not squared) barriers, so the reach gradient is a unit vector
    everywhere off the goal center and the floor -8 safely under-runs every
    achievable rate (|rate| <= |u| <= sqrt(50)).  The admissible test set at
    x assigns each obstacle independently to one corner of the unit cell
    containing x (up to 16 combinations).
    """
    g = np.array([3.5, 2.5])
    radius = 0.3

    def _unit(a, b) -> np.ndarray:
        """(a, b) / hypot(a, b), entry by entry, or zeros at the origin."""
        norm = float(np.hypot(a, b))
        if norm == 0.0:
            return np.zeros(2)
        return np.array([a / norm, b / norm])

    reach = BarrierFunction(
        value=lambda x, d: radius - float(np.hypot(x[0] - g[0], x[1] - g[1])),
        gradient=lambda x, d: -_unit(x[0] - g[0], x[1] - g[1]),
        reads=(),
    )

    def _batch(x, D, j):
        offsets = np.column_stack([x[0] - D[:, 2 * j], x[1] - D[:, 2 * j + 1]])
        norms = np.hypot(offsets[:, 0], offsets[:, 1])
        grads = np.zeros_like(offsets)
        np.divide(offsets, norms[:, None], out=grads, where=norms[:, None] != 0.0)
        return norms - radius, grads

    def _avoid(j: int) -> BarrierFunction:
        return BarrierFunction(
            value=lambda x, d, j=j: float(
                np.hypot(x[0] - d[2 * j], x[1] - d[2 * j + 1])
            ) - radius,
            gradient=lambda x, d, j=j: _unit(x[0] - d[2 * j], x[1] - d[2 * j + 1]),
            batch=lambda x, D, j=j: _batch(x, D, j),
        )

    spec = ReachAvoidSpec(
        reach=reach,
        avoid=(_avoid(0), _avoid(1)),
        gains=(ClassKappaFn(kappa), ClassKappaFn(kappa)),
        t_max=t_max,
    )
    dynamics = ContinuousDynamics(f=lambda x, d: _ZEROS2, g=lambda x, d: _EYE2, reads=())

    def _corner_tests(x, t: float) -> FiniteSpace:
        corners = unit_cell_corners(x)
        return FiniteSpace(
            tuple(
                np.array([c1[0], c1[1], c2[0], c2[1]])
                for c1 in corners
                for c2 in corners
            )
        )

    return ContinuousScenario(
        dynamics=dynamics,
        spec=spec,
        input_polytope=Polytope.box([-5.0, -5.0], [5.0, 5.0]),
        test_space=MappedSpace(_corner_tests),
        state_lower=np.array([-1.0, -2.0]),
        state_upper=np.array([4.0, 3.0]),
        floor=floor,
    )


# ---------------------------------------------------------------------------
# baseline controller and closed-loop simulation

def greedy_safe_controller(scn: ContinuousScenario, x, d) -> np.ndarray:
    """Baseline system-under-test: the maximizer of
    :func:`continuous.difficulty`, the safe input with the best
    reach-barrier rate, from the same program solved by the same
    :func:`continuous._solved`.  When no input is safe (the test is in
    Γ), fall back to the input maximizing the least avoid-row slack over
    the actuator polytope.  A state or test vector that
    :meth:`ContinuousScenario.check_state` or
    :meth:`ContinuousScenario.check_test` rejects raises ``ValueError``
    before any dynamics or barrier callback runs."""
    x = scn.check_state(x)
    _, _, A, b, u = _solved(scn, x, scn.check_test(d, x))
    if u is not None:
        return u

    # max-slack fallback: variables (u, s), maximize s subject to
    # avoid_row @ u + s <= avoid_rhs and u in the actuator polytope
    inputs, m = scn.input_polytope, scn.input_polytope.dim
    rows = [a + [1.0] for a in A] + [a + [0.0] for a in inputs.A.tolist()]
    out2 = solve_lp(LpProblem([0.0] * m + [1.0], Polytope(rows, b + inputs.b.tolist())))
    if out2.status != OPTIMAL:
        raise ScenarioError(f"max-slack fallback came back {out2.status}")
    return out2.point[:m]


@dataclass(frozen=True, eq=False)
class SimulationLog:
    """Closed-loop run record.

    ``obstacles`` holds the actual test vector (stacked planar positions) at
    every sample; ``commands`` holds (time, state at command, commanded test
    vector) for each adversary solve; ``aborted`` flags a partial log cut
    short by a non-finite state.
    """

    times: np.ndarray
    states: np.ndarray
    obstacles: np.ndarray
    min_barrier: np.ndarray
    commands: tuple
    aborted: bool


def _pursue(actual: np.ndarray, target: np.ndarray, max_step: float) -> np.ndarray:
    """Move each planar chunk of the test vector toward its target, capped
    at max_step per chunk (whole-vector pursuit for odd dimensions)."""
    out, delta = target.copy(), target - actual
    chunk = 2 if actual.size % 2 == 0 else actual.size
    for k in range(0, actual.size, chunk):
        step = delta[k:k + chunk]
        dist = math.sqrt(step.dot(step))  # np.linalg.norm's sum, without its overhead
        if not (dist <= max_step or dist == 0.0):
            out[k:k + chunk] = actual[k:k + chunk] + (max_step / dist) * step
    return out


def simulation_steps(
    dt: float, synth_period: float, horizon: float, obstacle_speed: float = 1.0
) -> int:
    """Euler steps of a closed-loop run, after checking its timing, the
    obstacles' pursuit speed and that the steps fit ``DEFAULT_BUDGET``."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be a positive finite number")
    if not synth_period >= dt:  # so a NaN period fails too
        raise ValueError("synth_period must be at least dt")
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be finite and nonnegative")
    if not obstacle_speed >= 0:
        raise ValueError("obstacle_speed must be a nonnegative number")
    # clamped first, so a quotient that overflows to inf is rejected too
    n_steps = int(round(min(horizon / dt, DEFAULT_BUDGET + 1)))
    if n_steps > DEFAULT_BUDGET:
        raise ValueError(f"the run would take {horizon / dt:.6g} Euler steps but the budget "
                         f"is {DEFAULT_BUDGET}; shorten the horizon or raise dt")
    return n_steps


def simulate_adversarial(
    scn: ContinuousScenario,
    x0,
    controller: Callable,
    synth_period: float,
    dt: float = 0.01,
    horizon: float = 10.0,
    obstacle_speed: float = 1.0,
    search: SearchConfig = SearchConfig(),
) -> SimulationLog:
    """Forward-Euler closed loop between the controller and the adversary.

    The adversary re-commands obstacle targets at t = 0 and then every
    ``synth_period``, by :func:`synthesize_constrained` with ``search`` over
    the test set admissible at (x, t); the obstacles start on the first
    command and pursue their targets at ``obstacle_speed``; the controller
    reacts to the obstacles' actual positions every ``dt``.  The run aborts
    (returning the partial log with ``aborted=True``) if the state goes
    non-finite.  A negative or NaN ``obstacle_speed`` raises ``ValueError``
    before the first command.  The state ``x0`` is checked once, here; the
    controller, which may be any callable ``controller(scn, x, d)``,
    checks what it needs.  The log keeps the arrays the controller is
    passed, so it must not write into them.
    """
    n_steps = simulation_steps(dt, synth_period, horizon, obstacle_speed)
    x = scn.check_state(x0).copy()

    result = synthesize_constrained(scn, x, 0.0, search=search)
    obstacles = cmd = np.array(result.d_star, dtype=float)
    commands, times, states, obstacle_log = [(0.0, x, cmd)], [0.0], [x], [obstacles]
    barrier_log = [min_avoid(scn.spec, x, obstacles)]
    next_synth = synth_period
    aborted = False

    # every array logged below is made in the loop and never written
    for k in range(n_steps):
        t = k * dt
        if k > 0 and t >= next_synth - 1e-9:
            result = synthesize_constrained(scn, x, t, search=search)
            cmd = np.array(result.d_star, dtype=float)
            commands.append((t, x, cmd))
            next_synth += synth_period
        u = np.asarray(controller(scn, x, obstacles), dtype=float)
        x = x + dt * scn.dynamics.xdot(x, u, obstacles)
        if not all(map(math.isfinite, x.tolist())):
            aborted = True
            break
        if scn.normalize_state is not None:
            x = scn.normalize_state(x)
        obstacles = _pursue(obstacles, cmd, obstacle_speed * dt)
        times.append((k + 1) * dt)
        states.append(x)
        obstacle_log.append(obstacles)
        barrier_log.append(min_avoid(scn.spec, x, obstacles))

    return SimulationLog(
        times=np.array(times),
        states=np.array(states),
        obstacles=np.array(obstacle_log),
        min_barrier=np.array(barrier_log),
        commands=tuple(commands),
        aborted=aborted,
    )
