import dataclasses
import itertools
import math

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
from conftest import assert_gradient_consistent

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
    # "not <= 1e-9" rejects it
    scenarios._solve_reward_cached.cache_clear()
    monkeypatch.setattr(scenarios.np.linalg, "solve", lambda A, b: np.full_like(b, np.nan))
    with pytest.raises(ScenarioError, match="residual nan exceeds"):
        solve_reward((7, 9), (5, 5))
    assert scenarios._solve_reward_cached.cache_info().currsize == 0
    monkeypatch.undo()
    assert np.isfinite(solve_reward((7, 9), (5, 5)).base).all()


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


def _reference_reward(goal, obstacle):
    # the explicit per-pair assembly the shared operator replaced
    if goal == obstacle:
        return None, np.zeros((10, 10))
    A = np.zeros((100, 100))
    rhs = np.zeros(100)

    def idx(c):
        return c[0] * 10 + c[1]

    for i, j in itertools.product(range(10), range(10)):
        k = idx((i, j))
        if (i, j) == goal:
            A[k, k] = 1.0
            rhs[k] = 10.0
        elif (i, j) == obstacle:
            A[k, k] = 1.0
            rhs[k] = -10.0
        else:
            A[k, k] += 1.0
            for u in ("left", "right", "up", "down", "stay"):
                A[k, idx(grid_step((i, j), u))] -= 0.2
    base = np.linalg.solve(A, rhs).reshape(10, 10)
    modified = base.copy()
    modified[goal] = 10.1
    modified[obstacle] = -10.1
    return base, modified


@pytest.mark.parametrize("goal", [(0, 0), (0, 5), (7, 9)])
def test_reward_matches_explicit_assembly_bitwise(goal):
    for obstacle in itertools.product(range(10), range(10)):
        base, modified = _reference_reward(goal, obstacle)
        rg = solve_reward(goal, obstacle)
        assert (rg.base is None) == (base is None)
        if base is None:
            assert rg.base is None
        else:
            assert np.array_equal(rg.base, base)
        assert np.array_equal(rg.modified, modified)


def test_reward_grids_are_read_only():
    rg = solve_reward((7, 9), (5, 5))
    shared = (rg.base, rg.modified, solve_reward((4, 4), (4, 4)).modified,
              scenarios._averaging_operator())
    for grid in shared:
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0


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
