"""Ready-to-run test settings.

Three builders: a planar unicycle dodging round obstacles, a 10x10 grid
world whose barriers come from an absorbing-boundary value solve, and a
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

from .continuous import (ContinuousScenario, SearchConfig, _best_rate, _program,
                         synthesize_constrained)
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
        f=lambda x, d: np.zeros(3),
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

    ``base`` solves the averaging recursion with the goal fixed at +10 and
    the obstacle at -10; ``modified`` overrides those cells to +10.1/-10.1.
    When goal and obstacle coincide the system is inconsistent, ``base`` is
    None and ``modified`` is identically zero.

    Grids come from a shared cache and every caller gets the same arrays, so
    both are read-only.
    """

    base: Optional[np.ndarray]
    modified: np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _averaging_operator() -> np.ndarray:
    """``I - 0.2 * sum over actions of the successor matrix`` (self-loops at
    walls): each unpinned value is the mean of its five successors.  It does
    not depend on goal or obstacle.  Built on first use, accumulating each
    row in the order the explicit per-pair assembly did, so every entry has
    the same bits (1.0 - 0.2 - 0.2 is not 1.0 - 0.4)."""
    n2 = GRID_N * GRID_N
    A = np.zeros((n2, n2))
    for i, j in _CELLS:
        k = i * GRID_N + j
        A[k, k] += 1.0
        for u in GRID_ACTIONS:
            ni, nj = grid_step((i, j), u)
            A[k, ni * GRID_N + nj] -= 0.2
    return _readonly(A)


@lru_cache(maxsize=GRID_N ** 4)
def _solve_reward_cached(goal: tuple, obstacle: tuple) -> RewardGrid:
    if goal == obstacle:
        return RewardGrid(None, _readonly(np.zeros((GRID_N, GRID_N))))
    A = _averaging_operator().copy()
    rhs = np.zeros(GRID_N * GRID_N)
    for (i, j), value in ((goal, 10.0), (obstacle, -10.0)):
        k = i * GRID_N + j
        A[k] = 0.0
        A[k, k] = 1.0
        rhs[k] = value
    base = np.linalg.solve(A, rhs).reshape(GRID_N, GRID_N)
    residual = np.abs(A @ base.reshape(-1) - rhs).max()
    if not residual <= 1e-9:  # so a NaN residual fails too
        raise ScenarioError(f"reward solve residual {residual:.3e} exceeds 1e-9")
    modified = base.copy()
    modified[goal] = 10.1
    modified[obstacle] = -10.1
    return RewardGrid(_readonly(base), _readonly(modified))


def solve_reward(goal, obstacle) -> RewardGrid:
    """Value matrices for a goal/obstacle pair, both cells checked by
    :func:`grid_cell`.  Results are cached per pair, up to ``GRID_N ** 4``
    entries: all 100 goals times 100 obstacles, so no pair is ever evicted
    or solved twice.  Each entry holds two 10x10 float grids, about 2.2 KB
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

    Every obstacle cell d other than the agent's has ``lower_bound`` 0.0.
    The all-``stay`` sequence never leaves x, and the avoid value at any
    cell but the obstacle is at least 1.3456 over all goal/obstacle pairs
    (10 when the obstacle is on the goal), so that sequence is safe under
    either screening rule and its reach increment is exactly 0.0.  The goal
    leads the scan at difficulty 0.0, so every test the bound skips could
    only tie the goal, never beat it.  The agent's own cell gets no bound
    (``-inf``): it makes the avoid value at x negative.
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
        lower_bound=lambda x, d: -math.inf if grid_cell(d) == grid_cell(x, "state") else 0.0,
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

    def _unit(v: np.ndarray) -> np.ndarray:
        norm = float(np.hypot(v[0], v[1]))
        if norm == 0.0:
            return np.zeros(2)
        return v / norm

    reach = BarrierFunction(
        value=lambda x, d: radius - float(np.hypot(x[0] - g[0], x[1] - g[1])),
        gradient=lambda x, d: -_unit(np.array([x[0] - g[0], x[1] - g[1]])),
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
            gradient=lambda x, d, j=j: _unit(
                np.array([x[0] - d[2 * j], x[1] - d[2 * j + 1]])
            ),
            batch=lambda x, D, j=j: _batch(x, D, j),
        )

    spec = ReachAvoidSpec(
        reach=reach,
        avoid=(_avoid(0), _avoid(1)),
        gains=(ClassKappaFn(kappa), ClassKappaFn(kappa)),
        t_max=t_max,
    )
    dynamics = ContinuousDynamics(
        f=lambda x, d: np.zeros(2), g=lambda x, d: np.eye(2), reads=()
    )

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
    reach-barrier rate, from the same program (:func:`continuous._program`)
    read by the same :func:`continuous._best_rate`.  When no input is safe
    (the test is in Γ), fall back to the input maximizing the least
    avoid-row slack over the actuator polytope.  ``d`` is used as given,
    not checked against the test space."""
    x = scn.check_state(x)
    reach, poly = _program(scn, x, np.asarray(d, dtype=float))
    _, u = _best_rate(reach, poly, None)
    if u is not None:
        return u

    # max-slack fallback: variables (u, s), maximize s subject to
    # avoid_row @ u + s <= avoid_rhs and u in the actuator polytope; the
    # avoid rows lead the safe-input polytope's rows
    m = scn.input_polytope.dim
    slack = np.zeros((poly.rows, 1))
    slack[:len(scn.spec.avoid)] = 1.0
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    out2 = solve_lp(LpProblem(objective, Polytope(np.hstack([poly.A, slack]), poly.b)))
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
    out = actual.copy()
    chunk = 2 if actual.size % 2 == 0 else actual.size
    for k in range(0, actual.size, chunk):
        delta = target[k:k + chunk] - actual[k:k + chunk]
        dist = math.sqrt(delta.dot(delta))  # np.linalg.norm's sum, without its overhead
        if dist <= max_step or dist == 0.0:
            out[k:k + chunk] = target[k:k + chunk]
        else:
            out[k:k + chunk] = actual[k:k + chunk] + (max_step / dist) * delta
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
    before the first command.
    """
    n_steps = simulation_steps(dt, synth_period, horizon, obstacle_speed)
    x = scn.check_state(x0).copy()

    result = synthesize_constrained(scn, x, 0.0, search=search)
    cmd = np.asarray(result.d_star, dtype=float)
    commands = [(0.0, x.copy(), cmd.copy())]
    obstacles = cmd.copy()

    times = [0.0]
    states = [x.copy()]
    obstacle_log = [obstacles.copy()]
    barrier_log = [min_avoid(scn.spec, x, obstacles)]
    next_synth = synth_period
    aborted = False

    for k in range(n_steps):
        t = k * dt
        if k > 0 and t >= next_synth - 1e-9:
            result = synthesize_constrained(scn, x, t, search=search)
            cmd = np.asarray(result.d_star, dtype=float)
            commands.append((t, x.copy(), cmd.copy()))
            next_synth += synth_period
        u = np.asarray(controller(scn, x, obstacles), dtype=float)
        x = x + dt * scn.dynamics.xdot(x, u, obstacles)
        if not np.all(np.isfinite(x)):
            aborted = True
            break
        if scn.normalize_state is not None:
            x = scn.normalize_state(x)
        obstacles = _pursue(obstacles, cmd, obstacle_speed * dt)
        times.append((k + 1) * dt)
        states.append(x.copy())
        obstacle_log.append(obstacles.copy())
        barrier_log.append(min_avoid(scn.spec, x, obstacles))

    return SimulationLog(
        times=np.array(times),
        states=np.array(states),
        obstacles=np.array(obstacle_log),
        min_barrier=np.array(barrier_log),
        commands=tuple(commands),
        aborted=aborted,
    )
