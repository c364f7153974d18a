import ast
import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advsynth import (
    BarrierFunction,
    ClassKappaFn,
    MappedSpace,
    ReachAvoidSpec,
    ScenarioError,
    blocks_all_inputs,
    build_gridworld,
    build_quadgrid,
    build_unicycle,
    feasible_input_polytope,
    greedy_safe_controller,
    grid_cell,
    grid_step,
    monitor_trajectory,
    simulate_adversarial,
    solve_reward,
    unit_cell_corners,
)
from advsynth import core, scenarios
from conftest import assert_gradient_consistent, reference_controller, reference_difficulty

cell = st.tuples(st.integers(0, 9), st.integers(0, 9))


# ---------------------------------------------------------------------------
# unicycle barriers

def test_unicycle_reach_value_at_goal(unicycle):
    x = np.array([0.5, 0.5, 1.3])
    assert unicycle.spec.reach.value(x, np.zeros(2)) == 0.0625


def test_unicycle_avoid_value_on_obstacle(unicycle):
    x = np.array([0.2, -0.3, 0.0])
    d = np.array([0.2, -0.3])
    assert unicycle.spec.avoid[0].value(x, d) == pytest.approx(-0.030625, abs=1e-12)


def test_unicycle_gradients_match_finite_differences(unicycle):
    rng = np.random.default_rng(101)
    for _ in range(100):
        x = rng.uniform(unicycle.state_lower, unicycle.state_upper)
        d = rng.uniform(-1, 1, size=2)
        assert_gradient_consistent(unicycle.spec.reach, x, d)
        assert_gradient_consistent(unicycle.spec.avoid[0], x, d)


def test_unicycle_goal_validation():
    with pytest.raises(ValueError):
        build_unicycle(goal=(1.5, 0.0))


@pytest.mark.parametrize("count", [2.0, 1.5, 0, -1, "2"])
def test_unicycle_takes_only_an_integer_obstacle_count_of_at_least_one(count):
    with pytest.raises(ValueError, match=f"obstacle count must be an integer >= 1, got {count!r}"):
        build_unicycle(n_obstacles=count)
    # the integer rule admits numpy integers, as grid_points does
    assert build_unicycle(n_obstacles=np.int64(2)).test_space.dim == 4


def test_unicycle_two_obstacles():
    scn = build_unicycle(n_obstacles=2)
    assert scn.test_space.dim == 4
    d = np.array([0.5, 0.5, -0.5, -0.5])
    x = np.array([0.0, 0.0, 0.0])
    assert scn.spec.avoid[0].value(x, d) == scn.spec.avoid[1].value(x, d)


# ---------------------------------------------------------------------------
# reward grid

def test_reward_grid_fixed_and_override_values():
    rg = solve_reward((7, 9), (5, 5))
    assert rg.base is not None
    assert rg.base[7, 9] == 10.0
    assert rg.base[5, 5] == -10.0
    assert rg.modified[7, 9] == 10.1
    assert rg.modified[5, 5] == -10.1


def test_reward_grid_interior_strictly_inside():
    rg = solve_reward((7, 9), (5, 5))
    mask = np.ones((10, 10), dtype=bool)
    mask[7, 9] = mask[5, 5] = False
    assert np.all(rg.base[mask] > -10.0)
    assert np.all(rg.base[mask] < 10.0)


def test_reward_grid_infeasible_pair_is_zero():
    rg = solve_reward((4, 4), (4, 4))
    assert rg.base is None
    assert np.all(rg.modified == 0.0)


def _recursion_residual(base, goal, obstacle):
    worst = 0.0
    for i in range(10):
        for j in range(10):
            if (i, j) in (goal, obstacle):
                continue
            acc = 0.0
            for u in ("left", "right", "up", "down", "stay"):
                ni, nj = grid_step((i, j), u)
                acc += 0.2 * base[ni, nj]
            worst = max(worst, abs(base[i, j] - acc))
    return worst


@given(goal=cell, obstacle=cell)
@settings(max_examples=25, deadline=None)
def test_reward_recursion_residual(goal, obstacle):
    rg = solve_reward(goal, obstacle)
    if rg.base is None:
        assert goal == obstacle
        return
    assert _recursion_residual(rg.base, goal, obstacle) <= 1e-9


def test_reward_interior_harmonic_identity():
    # non-edge, non-fixed cell: moving the stay term across leaves the value
    # as the mean of its four neighbors
    rg = solve_reward((7, 9), (5, 5))
    v = rg.base
    for (i, j) in [(3, 3), (6, 2), (2, 7)]:
        mean4 = 0.25 * (v[i - 1, j] + v[i + 1, j] + v[i, j - 1] + v[i, j + 1])
        assert v[i, j] == pytest.approx(mean4, abs=1e-9)


def test_reward_solve_rejects_a_nan_grid_and_caches_nothing(monkeypatch):
    # a NaN residual is not > 1e-9, so only a check written as
    # "not <= 1e-9" rejects it; the NaN enters through one entry of the
    # cosine basis, which the closed form multiplies into a whole grid row
    scenarios._solve_reward_cached.cache_clear()
    C, Ct, lam = scenarios._cosine_basis()
    poisoned = C.copy()
    poisoned[3, 4] = np.nan
    monkeypatch.setattr(scenarios, "_cosine_basis", lambda: (poisoned, Ct, lam))
    with pytest.raises(ScenarioError, match="residual nan exceeds"):
        solve_reward((7, 9), (5, 5))
    assert scenarios._solve_reward_cached.cache_info().currsize == 0
    monkeypatch.undo()
    assert np.isfinite(solve_reward((7, 9), (5, 5)).base).all()


# an interior cell, an edge cell and a corner, where the stencil's clamped
# neighbours stand in for the walls
@pytest.mark.parametrize("cell", [(3, 3), (0, 4), (9, 0)])
def test_reward_solve_rejects_a_grid_entry_off_by_1e_6(monkeypatch, cell):
    scenarios._solve_reward_cached.cache_clear()
    build = scenarios._reward_base

    def off(goal, obstacle):
        base = build(goal, obstacle)
        base[cell] += 1e-6
        return base

    monkeypatch.setattr(scenarios, "_reward_base", off)
    with pytest.raises(ScenarioError, match="exceeds 1e-9"):
        solve_reward((7, 9), (5, 5))
    assert scenarios._solve_reward_cached.cache_info().currsize == 0


def test_reward_memoized_identity():
    a = solve_reward((7, 9), (5, 5))
    # integral spellings of the same cell share one cache entry
    for goal in [(7, 9), (np.int64(7), 9), [7, 9], (7.0, 9.0)]:
        assert solve_reward(goal, (5, 5)) is a


def test_reward_rejects_bad_cells():
    for goal, obstacle in [
        ((10, 0), (5, 5)),
        ((7.9, 9.2), (5, 5)),  # once truncated to the (7, 9) grid
        ((7, 9), (5, 5.5)),
        ((7, 9), (float("nan"), 5)),
        ((7, 9), (5, 5, 5)),
    ]:
        with pytest.raises(ValueError, match="pair of integers"):
            solve_reward(goal, obstacle)


def _spellings(i):
    """An int and the float and numpy spellings of it."""
    return st.sampled_from([i, float(i), np.int64(i), np.float64(i)])


_ENTRY = st.one_of(
    st.integers(-3, 12).flatmap(_spellings),
    st.floats(-3.0, 12.0).filter(lambda v: v != int(v)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(entries=st.lists(_ENTRY, min_size=0, max_size=4), as_array=st.booleans())
@settings(max_examples=300, deadline=None)
def test_grid_cell_is_the_int_pair_exactly_for_integers_in_range(entries, as_array):
    c = np.array(entries, dtype=float) if as_array else tuple(entries)
    if len(entries) == 2 and all(float(v).is_integer() and 0 <= v <= 9 for v in entries):
        got = grid_cell(c)
        assert got == tuple(int(v) for v in entries)
        assert all(type(v) is int for v in got)
    else:
        with pytest.raises(ValueError, match="cell must be a pair of integers in 0..9"):
            grid_cell(c)


@pytest.mark.parametrize("values", [(math.nan, -1.0), (-1.0, math.nan)])
def test_min_avoid_shows_a_nan_whatever_the_barrier_order(quadgrid, values):
    spec = ReachAvoidSpec(
        reach=quadgrid.spec.reach,
        avoid=tuple(BarrierFunction(value=lambda x, d, v=v: v) for v in values),
        gains=(ClassKappaFn(1.0), ClassKappaFn(1.0)),
    )
    assert math.isnan(core.min_avoid(spec, np.zeros(2), np.zeros(4)))


@functools.lru_cache(maxsize=None)
def _explicit_operator():
    # I - 0.2 * (sum of the five successor matrices), assembled cell by cell
    A = np.zeros((100, 100))
    for i, j in itertools.product(range(10), range(10)):
        A[i * 10 + j, i * 10 + j] += 1.0
        for u in ("left", "right", "up", "down", "stay"):
            ni, nj = grid_step((i, j), u)
            A[i * 10 + j, ni * 10 + nj] -= 0.2
    return A


def _reference_reward(goal, obstacle):
    # the per-pair LU solve the closed form replaced: the averaging operator
    # with the goal and obstacle rows pinned
    if goal == obstacle:
        return None, np.zeros((10, 10))
    A = _explicit_operator().copy()
    rhs = np.zeros(100)
    for (i, j), value in ((goal, 10.0), (obstacle, -10.0)):
        A[i * 10 + j] = 0.0
        A[i * 10 + j, i * 10 + j] = 1.0
        rhs[i * 10 + j] = value
    base = np.linalg.solve(A, rhs).reshape(10, 10)
    modified = base.copy()
    modified[goal] = 10.1
    modified[obstacle] = -10.1
    return base, modified


def _closed_form_reference(goal, obstacle):
    # scenarios._reward_base in Python floats: the cosine basis and the
    # eigenvalues of I - P, then C coef C^T with each sum left to right
    n = 10
    C = [[math.sqrt((2.0 if k else 1.0) / n) * math.cos(math.pi * k * (i + 0.5) / n)
          for k in range(n)] for i in range(n)]
    move = [2.0 * math.cos(math.pi * k / n) for k in range(n)]
    coef = [[0.0] * n for _ in range(n)]
    for k, l in itertools.product(range(n), range(n)):
        if (k, l) != (0, 0):  # the constant mode stays 0
            coef[k][l] = ((C[goal[0]][k] * C[goal[1]][l] - C[obstacle[0]][k] * C[obstacle[1]][l])
                          / ((4.0 - move[k] - move[l]) / 5.0))
    t = [[0.0] * n for _ in range(n)]
    w = [[0.0] * n for _ in range(n)]
    for i, l in itertools.product(range(n), range(n)):
        for k in range(n):
            t[i][l] += C[i][k] * coef[k][l]
    for i, j in itertools.product(range(n), range(n)):
        for l in range(n):
            w[i][j] += t[i][l] * C[j][l]
    w_goal, w_obstacle = w[goal[0]][goal[1]], w[obstacle[0]][obstacle[1]]
    q = 20.0 / (w_goal - w_obstacle)
    base = np.array([[q * v + (10.0 - q * w_goal) for v in row] for row in w])
    base[goal] = 10.0
    base[obstacle] = -10.0
    return base


@pytest.mark.parametrize("goal", [(0, 0), (0, 5), (7, 9)])
def test_reward_matches_closed_form_reference_bitwise(goal):
    for obstacle in itertools.product(range(10), range(10)):
        rg = solve_reward(goal, obstacle)
        if goal == obstacle:
            assert rg.base is None and np.array_equal(rg.modified, np.zeros((10, 10)))
            continue
        base = _closed_form_reference(goal, obstacle)
        assert np.array_equal(rg.base, base)
        modified = base.copy()
        modified[goal] = 10.1
        modified[obstacle] = -10.1
        assert np.array_equal(rg.modified, modified)


def test_reward_matches_lu_solve_within_1e_12_for_every_pair():
    # measured worst entry: 7.5e-14
    worst = 0.0
    for goal in scenarios._CELLS:
        for obstacle in scenarios._CELLS:
            base, modified = _reference_reward(goal, obstacle)
            rg = solve_reward(goal, obstacle)
            if base is None:
                assert rg.base is None and np.array_equal(rg.modified, modified)
                continue
            worst = max(worst, np.abs(rg.base - base).max(), np.abs(rg.modified - modified).max())
    assert worst <= 1e-12
    scenarios._solve_reward_cached.cache_clear()  # later tests start cold


def test_reward_grids_are_read_only():
    rg = solve_reward((7, 9), (5, 5))
    shared = (rg.base, rg.modified, solve_reward((4, 4), (4, 4)).modified,
              *scenarios._cosine_basis())
    for grid in shared:
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0


# the functions that build and check a reward grid
_REWARD_FUNCTIONS = ("_cosine_basis", "_reward_base", "_solve_reward_cached", "solve_reward")


def _blas_sites(source):
    """(function, what) for each matrix product, ``dot``, ``matmul``,
    ``einsum`` or ``linalg`` in the reward-grid functions of ``source``."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    sites = []
    for name in _REWARD_FUNCTIONS:
        for node in ast.walk(defs[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                sites.append((name, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "einsum", "linalg"):
                sites.append((name, node.attr))
            elif isinstance(node, ast.Name) and node.id in ("dot", "matmul", "einsum", "linalg"):
                sites.append((name, node.id))
    return sites


def test_reward_grid_functions_call_no_blas_or_lapack():
    # a BLAS product or a LAPACK solve would make the grids' bits, and the
    # gridworld artifacts, depend on the kernel and the thread count
    with open(scenarios.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert _blas_sites(source) == []
    # the guard sees a product put back
    line = "    t = (C[:, :, None] * coef).sum(axis=1)\n"
    assert line in source
    assert _blas_sites(source.replace(line, "    t = C @ coef\n")) == [("_reward_base", "@")]
    for call in ("np.dot(C, coef)", "C.dot(coef)", "np.matmul(C, coef)",
                 "np.einsum('ik,kl->il', C, coef)", "np.linalg.solve(C, coef)"):
        assert _blas_sites(source.replace(line, f"    t = {call}\n")), call


def test_reward_cache_holds_every_pair():
    cached = scenarios._solve_reward_cached
    assert cached.cache_info().maxsize == scenarios.GRID_N ** 4
    cells = list(itertools.product(range(10), range(10)))
    for goal in cells[:17]:
        for obstacle in cells:
            solve_reward(goal, obstacle)
    info = cached.cache_info()
    assert info.currsize <= info.maxsize
    # nothing was evicted: the first goal's pairs are still hits
    solve_reward(cells[0], cells[1])
    assert cached.cache_info().misses == info.misses



def test_avoid_value_is_positive_off_the_obstacle_for_every_pair():
    # the premise of the gridworld's lower bound of 0.0: an agent anywhere
    # but on the obstacle may stay put, over all 10^4 goal/obstacle pairs
    least = math.inf
    for goal in scenarios._CELLS:
        for obstacle in scenarios._CELLS:
            avoid = solve_reward(goal, obstacle).modified + 10.0
            if goal == obstacle:
                assert (avoid == 10.0).all()
            off = np.ones(avoid.shape, dtype=bool)
            off[obstacle] = False
            least = min(least, float(avoid[off].min()))
    # reached with the goal at (0, 0) and the obstacle at (8, 8)
    assert least >= 0.0 and round(least, 4) == 1.3456
    scenarios._solve_reward_cached.cache_clear()  # later tests start cold

# ---------------------------------------------------------------------------
# gridworld barriers

def test_gridworld_barrier_signs(gridworld79):
    d = (5, 5)
    reach = gridworld79.spec.reach
    avoid = gridworld79.spec.avoid[0]
    assert reach.value((7, 9), d) == pytest.approx(0.1)
    assert avoid.value((5, 5), d) == pytest.approx(-0.1)
    for i in range(10):
        for j in range(10):
            x = (i, j)
            if x != (7, 9):
                assert reach.value(x, d) < 0.0
            if x != (5, 5):
                assert avoid.value(x, d) > 0.0


# ---------------------------------------------------------------------------
# quadgrid

def test_quadgrid_reach_at_goal(quadgrid):
    assert quadgrid.spec.reach.value(np.array([3.5, 2.5]), np.zeros(4)) == 0.3


def test_quadgrid_gradients(quadgrid):
    rng = np.random.default_rng(55)
    for _ in range(100):
        x = rng.uniform(quadgrid.state_lower, quadgrid.state_upper)
        d = rng.uniform(-1, 4, size=4)
        if np.linalg.norm(x - np.array([3.5, 2.5])) < 1e-3:
            continue
        assert_gradient_consistent(quadgrid.spec.reach, x, d)
        if min(np.linalg.norm(x - d[:2]), np.linalg.norm(x - d[2:])) > 1e-3:
            assert_gradient_consistent(quadgrid.spec.avoid[0], x, d)
            assert_gradient_consistent(quadgrid.spec.avoid[1], x, d)


def test_quadgrid_avoid_gradient_is_unit_radial(quadgrid):
    x = np.array([1.0, 1.0])
    d = np.array([1.0, 0.0, 3.0, 3.0])  # first obstacle at distance 1
    g = quadgrid.spec.avoid[0].gradient(x, d)
    assert np.allclose(g, [0.0, 1.0], atol=1e-12)


def test_unit_cell_corners_worked_value():
    assert set(unit_cell_corners([0.3, 1.7])) == {(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.0, 2.0)}


def test_unit_cell_corners_on_integer_coordinates():
    # floor and ceil coincide, shrinking the set but never emptying it
    assert unit_cell_corners([1.0, 1.5]) == ((1.0, 1.0), (1.0, 2.0))
    assert unit_cell_corners([2.0, 3.0]) == ((2.0, 3.0),)


def test_quadgrid_map_sizes(quadgrid):
    assert len(quadgrid.test_space.at(np.array([0.3, 1.7]), 0.0)) == 16
    assert len(quadgrid.test_space.at(np.array([1.0, 1.5]), 0.0)) == 4
    assert len(quadgrid.test_space.at(np.array([2.0, 3.0]), 0.0)) == 1


# ---------------------------------------------------------------------------
# greedy controller

def test_greedy_drives_toward_goal(unicycle):
    free = dataclasses.replace(
        unicycle,
        spec=ReachAvoidSpec(reach=unicycle.spec.reach, avoid=(), gains=()),
    )
    u = greedy_safe_controller(free, np.array([0.0, 0.0, 0.0]), np.zeros(2))
    assert u[0] == 0.2  # full speed ahead; the goal sits along the heading
    assert free.input_polytope.contains(u)


def test_greedy_max_slack_fallback(unicycle):
    x = np.array([-0.5, 0.5, np.pi / 4])
    d = np.array([-0.5, 0.5])
    poly = feasible_input_polytope(unicycle.spec, unicycle.dynamics, x, d, unicycle.input_polytope)
    assert blocks_all_inputs(poly)
    u = greedy_safe_controller(unicycle, x, d)
    assert unicycle.input_polytope.contains(u)
    assert np.all(np.isfinite(u))


def test_greedy_max_slack_fallback_that_is_not_optimal_aborts(unicycle, monkeypatch):
    from advsynth import INFEASIBLE, LpOutcome

    # the obstacle on the agent: the first LP is infeasible unpatched, and
    # only the fallback's solve_lp binding is patched
    monkeypatch.setattr(scenarios, "solve_lp", lambda problem: LpOutcome(INFEASIBLE))
    with pytest.raises(ScenarioError, match="max-slack fallback came back infeasible"):
        greedy_safe_controller(unicycle, np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5]))


def _reference_max_slack(scn, x, d):
    """The max-slack program assembled row by row, each avoid row from its
    own Lie derivative, apart from the controller's safe-input polytope."""
    from advsynth import LpProblem, Polytope, lie_derivatives, solve_lp

    m = scn.input_polytope.dim
    rows, rhs = [], []
    for h, gain in zip(scn.spec.avoid, scn.spec.gains):
        dr, row = lie_derivatives(h, scn.dynamics, x, d)
        rows.append(np.concatenate([-row, [1.0]]))
        rhs.append(dr + gain(h.value(x, d)))
    for i in range(scn.input_polytope.rows):
        rows.append(np.concatenate([scn.input_polytope.A[i], [0.0]]))
        rhs.append(scn.input_polytope.b[i])
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    return solve_lp(LpProblem(objective, Polytope(np.array(rows), np.array(rhs)))).point[:m]


@pytest.mark.parametrize(
    "which,x,d",
    [
        ("unicycle", [-0.5, 0.5, np.pi / 4], [-0.5, 0.5]),
        ("unicycle", [0.5, -0.5, np.pi / 2], [0.55, -0.45]),
        ("quadgrid", [1.0, 2.0], [1.1, 2.0, 0.9, 2.0]),
    ],
)
def test_greedy_max_slack_matches_row_by_row_program(unicycle, quadgrid, which, x, d):
    scn = unicycle if which == "unicycle" else quadgrid
    x, d = np.array(x), np.array(d)
    poly = feasible_input_polytope(scn.spec, scn.dynamics, x, d, scn.input_polytope)
    assert blocks_all_inputs(poly)
    assert np.array_equal(greedy_safe_controller(scn, x, d), _reference_max_slack(scn, x, d))


def test_greedy_zero_gradient_feasible(unicycle):
    u = greedy_safe_controller(unicycle, np.array([0.5, 0.5, 0.0]), np.array([-0.9, -0.9]))
    assert unicycle.input_polytope.contains(u)


@pytest.mark.parametrize("which", ["unicycle", "quadgrid"])
def test_greedy_evaluates_f_and_g_once_per_call(unicycle, quadgrid, which):
    # the avoid rows and the reach row share one evaluation of the dynamics
    scn = unicycle if which == "unicycle" else quadgrid
    calls = []
    dyn = dataclasses.replace(
        scn.dynamics,
        f=lambda x, d: calls.append("f") or scn.dynamics.f(x, d),
        g=lambda x, d: calls.append("g") or scn.dynamics.g(x, d),
    )
    counted = dataclasses.replace(scn, dynamics=dyn)
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.uniform(scn.state_lower, scn.state_upper)
        space = scn.test_space.at(x, 0.0) if which == "quadgrid" else scn.test_space
        d = np.asarray(space.points[0]) if which == "quadgrid" else rng.uniform(space.lower, space.upper)
        del calls[:]
        u = greedy_safe_controller(counted, x, d)
        assert sorted(calls) == ["f", "g"]
        assert np.array_equal(u, greedy_safe_controller(scn, x, d))


# ---------------------------------------------------------------------------
# closed-loop simulation

def test_simulation_static_obstacles_at_goal(quadgrid):
    with pytest.warns(UserWarning, match="already satisfies the reach predicate"):
        log = simulate_adversarial(
            quadgrid,
            np.array([3.5, 2.5]),
            greedy_safe_controller,
            synth_period=0.5,
            dt=0.01,
            horizon=0.5,
            obstacle_speed=0.0,
        )
    assert not log.aborted
    assert np.all(log.min_barrier == log.min_barrier[0])
    verdict = monitor_trajectory(
        quadgrid.spec,
        list(zip(log.times, log.states)),
        list(zip(log.times, log.obstacles)),
    )
    assert verdict.satisfied and verdict.reach_time == 0.0


def test_simulation_zero_speed_safe_start_stays_safe(quadgrid):
    # non-integer start: every admissible corner is at least 0.5 away, so
    # the initial obstacle placement leaves the agent safe; the agent
    # reaches the goal before the last command
    with pytest.warns(UserWarning, match="already satisfies the reach predicate"):
        log = simulate_adversarial(
            quadgrid,
            np.array([0.4, 0.3]),
            greedy_safe_controller,
            synth_period=0.5,
            dt=0.02,
            horizon=2.0,
            obstacle_speed=0.0,
        )
    assert not log.aborted
    assert np.all(log.min_barrier >= 0.0)


def test_simulation_single_solve_when_period_is_horizon(quadgrid):
    log = simulate_adversarial(
        quadgrid,
        np.array([0.0, 0.0]),
        greedy_safe_controller,
        synth_period=1.0,
        dt=0.05,
        horizon=1.0,
    )
    assert len(log.commands) == 1
    assert log.times.size == 21


def test_simulation_commands_stay_inside_map(quadgrid):
    # the agent reaches the goal before the last command
    with pytest.warns(UserWarning, match="already satisfies the reach predicate"):
        log = simulate_adversarial(
            quadgrid,
            np.array([0.2, 0.2]),
            greedy_safe_controller,
            synth_period=0.25,
            dt=0.05,
            horizon=1.5,
        )
    assert len(log.commands) >= 2
    for t, x, d in log.commands:
        assert quadgrid.test_space.at(x, t).contains(d)


def test_simulation_zero_horizon_single_row(quadgrid):
    log = simulate_adversarial(
        quadgrid,
        np.array([0.0, 0.0]),
        greedy_safe_controller,
        synth_period=0.5,
        dt=0.01,
        horizon=0.0,
    )
    assert log.times.size == 1
    assert len(log.commands) == 1


def test_simulation_aborts_on_nonfinite(quadgrid):
    def bad_controller(scn, x, d):
        return np.array([np.nan, np.nan])

    log = simulate_adversarial(
        quadgrid,
        np.array([0.0, 0.0]),
        bad_controller,
        synth_period=0.5,
        dt=0.01,
        horizon=1.0,
    )
    assert log.aborted
    assert log.times.size < 101


def test_simulation_unicycle_wraps_heading(unicycle):
    log = simulate_adversarial(
        unicycle,
        np.array([-0.5, -0.5, 6.2]),
        lambda scn, x, d: np.array([0.0, 1.0]),  # spin in place
        synth_period=0.5,
        dt=0.05,
        horizon=1.0,
    )
    assert not log.aborted
    assert np.all(log.states[:, 2] >= 0.0)
    assert np.all(log.states[:, 2] < 2.0 * math.pi)


def assert_same_log(got, want):
    """Every field of two simulation logs, compared by bytes."""
    for name in ("times", "states", "obstacles", "min_barrier"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert len(got.commands) == len(want.commands)
    for (t, x, d), (t2, x2, d2) in zip(got.commands, want.commands):
        assert t == t2 and x.tobytes() == x2.tobytes() and d.tobytes() == d2.tobytes()
    assert got.aborted == want.aborted


def _zero(scn, x, d):
    return np.zeros(scn.input_polytope.dim)


@pytest.mark.parametrize("case", ["quadgrid-zero", "quadgrid-greedy", "quadgrid-abort",
                                  "unicycle-zero", "unicycle-spin"])
def test_closed_loop_matches_the_reference_loop(quadgrid, unicycle, case):
    # the loop checks the state once and copies nothing it made itself; any
    # controller, not only greedy_safe_controller, gives the plain loop's log
    from conftest import reference_simulate

    scn, x0, controller, kwargs = {
        "quadgrid-zero": (quadgrid, [2.2, 1.9], _zero, {"horizon": 2.0}),
        "quadgrid-greedy": (quadgrid, [0.3, -1.2], greedy_safe_controller, {"horizon": 2.0}),
        "quadgrid-abort": (quadgrid, [0.3, -1.2],
                           lambda scn, x, d: np.full(2, np.inf if x[0] > 0.31 else 1.0),
                           {"horizon": 1.0}),
        "unicycle-zero": (unicycle, [-0.5, -0.5, 0.0], _zero, {"horizon": 1.0, "dt": 0.05}),
        "unicycle-spin": (unicycle, [-0.5, -0.5, 6.2], lambda scn, x, d: np.array([0.1, 1.0]),
                          {"horizon": 1.0, "dt": 0.05, "obstacle_speed": 2.0}),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = simulate_adversarial(scn, np.array(x0), controller, 0.5, **kwargs)
        want = reference_simulate(scn, np.array(x0), controller, 0.5, **kwargs)
    assert_same_log(got, want)
    assert got.aborted == (case == "quadgrid-abort")


def test_closed_loop_dynamics_share_read_only_arrays(quadgrid, unicycle):
    # f and g that read neither x nor d are one array each, which no caller
    # can write into
    x2, x3, d = np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]), np.zeros(4)
    shared = [(quadgrid.dynamics.f, x2, np.zeros(2)), (quadgrid.dynamics.g, x2, np.eye(2)),
              (unicycle.dynamics.f, x3, np.zeros(3))]
    for fn, x, want in shared:
        a = fn(x, d)
        assert a is fn(x + 1.0, d + 1.0) and np.array_equal(a, want)
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert build_quadgrid().dynamics.g(x2, d) is quadgrid.dynamics.g(x2, d)


def _program_sample(scn, rng, x):
    """A test vector for the list-program differential at x, two planar
    obstacles: one of quadgrid's corner tests, obstacles anywhere around
    the agent or within about a radius of it (negative right-hand sides,
    tests in Γ), or both on the agent, where a gradient is zero and an
    avoid row holds -0.0."""
    on_agent, pick = np.tile(x[:2], 2), rng.random()
    if pick < 0.25 and isinstance(scn.test_space, MappedSpace):
        points = scn.test_space.at(x, 0.0).points
        return points[int(rng.integers(len(points)))].copy()
    if pick < 0.5:
        return on_agent + rng.uniform(-1.0, 1.0, 4)
    if pick < 0.75:
        return on_agent + rng.normal(0.0, 0.2, 4)
    if pick < 0.9:
        # one obstacle about the unicycle's radius away, inside quadgrid's
        angle, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.15, 0.18)
        return on_agent + np.r_[r * math.cos(angle), r * math.sin(angle),
                                rng.uniform(-1.0, 1.0, 2)]
    return on_agent


@pytest.mark.parametrize("name", ["quadgrid", "unicycle"])
def test_list_program_matches_the_numpy_path(name):
    # difficulty's values and maximizers and the controller's inputs on
    # the list program, byte for byte against the numpy path it replaced
    # (conftest.py), which solves the stacked polytope with the plain
    # kernel: so this checks the pivot trie against an independent solve,
    # on tests in Γ with the max-slack fallback, negative right-hand sides
    # (Phase-I), and states and tests of +-0.0, which make -0.0 rows
    from advsynth import continuous

    scn = build_quadgrid() if name == "quadgrid" else build_unicycle(n_obstacles=2)
    rng = np.random.default_rng(3301)
    seen = dict.fromkeys(["gamma", "phase one", "trie", "-0.0"], 0)
    for k in range(5_000):
        x = rng.uniform(scn.state_lower, scn.state_upper)
        if k % 10 == 0:
            x[:2] = rng.choice([0.0, -0.0], 2)
        d = _program_sample(scn, rng, x)
        if k % 10 == 0:
            d[rng.random(d.size) < 0.5] = -0.0
        tau = 0.25 if k % 3 == 0 else 0.0
        got, want = continuous.difficulty(scn, x, d, scn.floor, tau), \
            reference_difficulty(scn, x, d, scn.floor, tau)
        assert type(got[0]) is float and type(want[0]) is float
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        if want[1] is None:
            assert got[1] is None
        else:
            assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
        u, v = greedy_safe_controller(scn, x, d), reference_controller(scn, x, d)
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        _, c, A, b = continuous._program(scn, x, scn.check_test(d, x))
        seen["gamma"] += want[1] is None
        seen["phase one"] += want[1] is not None and min(b) < 0
        seen["trie"] += min(b) >= 0
        seen["-0.0"] += any(e == 0.0 and math.copysign(1.0, e) < 0
                            for e in c.tolist() + b + sum(A, []))
    assert min(seen.values()) >= 200, seen


def test_closed_loop_counts_its_trie_solves(monkeypatch):
    # every controller LP and scan candidate with right-hand sides >= 0
    # is solved along the input polytope's trie, which counts the solves
    # that end on it and the tableaux built where a program leaves it
    from advsynth import continuous, lp

    scn, on_trie = build_quadgrid(), []

    def spy_lists(cs, A, b, inputs):
        # the controller's and the scan's programs, stacked lists
        on_trie.append(min(b) >= 0)
        return lp.maximize_stacked(cs, A, b, inputs)

    monkeypatch.setattr(continuous, "maximize_stacked", spy_lists)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        simulate_adversarial(scn, np.array([2.2, 1.9]), greedy_safe_controller, 0.5, horizon=1.0)
    trie = lp.pivot_trie(scn.input_polytope)
    assert trie.hits + trie.builds == sum(on_trie) >= 100
    assert trie.hits >= 50 and trie.builds >= 10 and 0 < trie.nodes <= lp._TRIE_CAP


def test_simulation_validates_arguments(quadgrid):
    with pytest.raises(ValueError):
        simulate_adversarial(
            quadgrid, np.zeros(2), greedy_safe_controller, synth_period=0.001, dt=0.01, horizon=1.0
        )
    with pytest.raises(ValueError):
        simulate_adversarial(
            quadgrid, np.zeros(2), greedy_safe_controller, synth_period=0.5, dt=0.01, horizon=math.inf
        )


def test_simulation_rejects_a_nan_period(quadgrid):
    # nan < dt is False too: the adversary would command once and never again
    with pytest.raises(ValueError, match="^synth_period must be at least dt$"):
        scenarios.simulation_steps(0.01, math.nan, 2.0)


def test_simulation_budget_admits_exactly_its_step_count(quadgrid, monkeypatch):
    monkeypatch.setattr(scenarios, "DEFAULT_BUDGET", 12)
    assert scenarios.simulation_steps(0.01, 0.5, 0.12) == 12
    with pytest.raises(ValueError, match="^the run would take 13 Euler steps but the budget is 12;"):
        simulate_adversarial(quadgrid, np.zeros(2), greedy_safe_controller,
                             synth_period=0.5, dt=0.01, horizon=0.13)


def test_simulation_rejects_a_step_count_that_overflows():
    # 1e300 / 1e-10 is inf, which no step count can round to
    with pytest.raises(ValueError, match="^the run would take inf Euler steps but the budget"):
        scenarios.simulation_steps(1e-10, 0.5, 1e300)


def test_simulation_rejects_a_state_of_the_wrong_size(quadgrid):
    with pytest.raises(ValueError, match="^state needs 2 components, got 3$"):
        simulate_adversarial(quadgrid, np.array([1.2, 0.7, 99.0]), greedy_safe_controller,
                             synth_period=0.5, horizon=1.0)


@pytest.mark.parametrize("speed", [-1.0, -1e-12, math.nan])
def test_simulation_rejects_negative_or_nan_speed(quadgrid, speed):
    with pytest.raises(ValueError, match="obstacle_speed"):
        simulate_adversarial(quadgrid, np.array([0.3, 1.7]), greedy_safe_controller,
                             synth_period=0.5, horizon=2.0, obstacle_speed=speed)


# every shipped continuous scenario, with a box to draw its tests from
DECLARED = {
    "unicycle-1": (lambda: build_unicycle(n_obstacles=1), 2),
    "unicycle-2": (lambda: build_unicycle(n_obstacles=2), 4),
    "unicycle-3": (lambda: build_unicycle(n_obstacles=3), 6),
    "quadgrid": (build_quadgrid, 4),
}


@pytest.mark.parametrize("name", list(DECLARED))
def test_declared_reads_cover_every_coordinate_read(name):
    # the reach barrier and the dynamics declare reads=(): every test
    # coordinate may take any value, NaN included, without moving a bit of
    # what their callbacks return.  Avoid barriers declare nothing.
    build, dim = DECLARED[name]
    scn = build()
    dyn, reach = scn.dynamics, scn.spec.reach
    assert reach.reads == () and dyn.reads == ()
    assert all(h.reads is None for h in scn.spec.avoid)
    callbacks = [reach.value, reach.gradient, dyn.f, dyn.g]
    rng = np.random.default_rng(31)
    lo, hi = np.minimum(scn.state_lower, -1.0), np.maximum(scn.state_upper, 1.0)
    for _ in range(25):
        x = rng.uniform(scn.state_lower, scn.state_upper)
        d = rng.uniform(lo.min(), hi.max(), dim)
        for fn in callbacks:
            want = np.asarray(fn(x, d), dtype=float).tobytes()
            for i in range(dim):
                for v in (rng.uniform(lo.min(), hi.max()), x[0], math.nan):
                    moved = d.copy()
                    moved[i] = v
                    assert np.asarray(fn(x, moved), dtype=float).tobytes() == want


def test_gridworld_goal_leads_enumeration():
    scn = build_gridworld((4, 7))
    assert scn.test_space.points[0] == (4, 7)
    assert len(scn.test_space.points) == 100
    rest = scn.test_space.points[1:]
    assert list(rest) == sorted(rest)


def test_quadgrid_floor_is_a_true_bound(quadgrid):
    # |reach rate| <= |u| <= sqrt(50) < 8 because the reach gradient is a
    # unit vector away from the goal center
    assert quadgrid.floor == -8.0
    assert math.sqrt(50.0) < 8.0
