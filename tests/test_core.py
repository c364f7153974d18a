import dataclasses
import itertools
import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from advsynth import (
    BarrierFunction,
    BoxSpace,
    ClassKappaFn,
    ContinuousDynamics,
    FiniteSpace,
    MappedSpace,
    Polytope,
    ReachAvoidSpec,
    blocks_all_inputs,
    feasibility_filter,
    feasible_input_polytope,
    lie_derivatives,
    monitor_trajectory,
    SearchConfig,
    build_quadgrid,
    build_unicycle,
    continuous,
    core,
    greedy_safe_controller,
    phase_one_feasible,
    synthesize,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


def test_lie_derivatives_unicycle_row(unicycle):
    x = np.array([0.0, 0.0, 0.0])
    d = np.array([0.9, 0.9])
    drift, row = lie_derivatives(unicycle.spec.reach, unicycle.dynamics, x, d)
    assert drift == 0.0
    assert np.allclose(row, [1.0, 0.0], atol=1e-12)


def test_lie_derivatives_zero_gradient():
    h = BarrierFunction(value=lambda x, d: 1.0, gradient=lambda x, d: np.zeros(3))
    dyn = ContinuousDynamics(
        f=lambda x, d: np.array([1.0, 2.0, 3.0]),
        g=lambda x, d: np.ones((3, 2)),
    )
    drift, row = lie_derivatives(h, dyn, np.zeros(3), np.zeros(1))
    assert drift == 0.0
    assert np.array_equal(row, np.zeros(2))


def test_lie_derivatives_additive_coupling():
    h = BarrierFunction(value=lambda x, d: x[0], gradient=lambda x, d: np.array([1.0, 0.0]))
    C = np.eye(2)
    dyn = ContinuousDynamics(
        f=lambda x, d: np.zeros(2) + C @ np.asarray(d, dtype=float),
        g=lambda x, d: np.zeros((2, 2)),
    )
    drift, row = lie_derivatives(h, dyn, np.zeros(2), np.array([1.0, 1.0]))
    assert drift == 1.0
    assert np.array_equal(row, np.zeros(2))


def test_lie_derivatives_dimension_mismatch():
    h = BarrierFunction(value=lambda x, d: 0.0, gradient=lambda x, d: np.zeros(3))
    dyn = ContinuousDynamics(f=lambda x, d: np.zeros(2), g=lambda x, d: np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lie_derivatives(h, dyn, np.zeros(3), np.zeros(1))


def test_filter_branches():
    u = np.array([0.1, 0.2])
    box = Polytope.box([-1, -1], [1, 1])
    assert feasibility_filter(3.2, u, box, -5.0) == 3.2
    assert feasibility_filter(0.0, u, box, -5.0) == 0.0


@given(
    value=finite_floats,
    fallback=finite_floats,
    inside=st.booleans(),
)
def test_filter_is_a_two_branch_select(value, fallback, inside):
    member = SimpleNamespace(contains=lambda _: inside)
    got = feasibility_filter(value, object(), member, fallback)
    assert got == (value if inside else fallback)
    assert got in (value, fallback)


def test_feasible_polytope_far_obstacle_contains_rest(unicycle):
    x = np.array([0.0, 0.0, 0.0])
    d = np.array([0.9, 0.9])
    poly = feasible_input_polytope(unicycle.spec, unicycle.dynamics, x, d, unicycle.input_polytope)
    assert poly.contains(np.zeros(2))
    assert phase_one_feasible(poly)


def test_feasible_polytope_obstacle_on_agent_empty(unicycle):
    x = np.array([-0.5, 0.5, np.pi / 4])
    d = np.array([-0.5, 0.5])  # obstacle exactly on the agent
    poly = feasible_input_polytope(unicycle.spec, unicycle.dynamics, x, d, unicycle.input_polytope)
    assert blocks_all_inputs(poly)


def test_feasible_polytope_no_avoid_rows_is_input_polytope(unicycle):
    spec = ReachAvoidSpec(reach=unicycle.spec.reach, avoid=(), gains=())
    poly = feasible_input_polytope(spec, unicycle.dynamics, np.zeros(3), np.zeros(2), unicycle.input_polytope)
    assert poly is unicycle.input_polytope


def test_feasible_polytope_row_layout(unicycle):
    x = np.array([0.2, -0.1, 1.0])
    d = np.array([0.4, 0.4])
    poly = feasible_input_polytope(unicycle.spec, unicycle.dynamics, x, d, unicycle.input_polytope)
    n_avoid = len(unicycle.spec.avoid)
    assert poly.rows == n_avoid + unicycle.input_polytope.rows
    # dropping the avoid rows recovers the actuator polytope exactly
    assert np.array_equal(poly.A[n_avoid:], unicycle.input_polytope.A)
    assert np.array_equal(poly.b[n_avoid:], unicycle.input_polytope.b)


def test_stacked_rows_are_the_checked_polytope(monkeypatch):
    # maximize_stacked does not run Polytope's checks again; on the
    # controller's rows and on the scan's, held or solved on the spot,
    # lists of Python floats stacked above the actuator's (both obstacles
    # on the agent first, so the fallback runs), they give Polytope's bits
    maximize, calls = continuous.maximize_stacked, Counter()

    def compared_lists(cs, A, b, inputs):
        rows, rhs = A + inputs.A.tolist(), b + inputs.b.tolist()
        assert all(type(v) is float for v in itertools.chain(cs, rhs, *rows))
        assert all(len(row) == inputs.dim for row in rows) and len(cs) == inputs.dim
        want = Polytope(rows, rhs)
        for g, w in ((np.array(rows), want.A), (np.array(rhs), want.b)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        calls[caller] += 1
        return maximize(cs, A, b, inputs)

    monkeypatch.setattr(continuous, "maximize_stacked", compared_lists)
    rng = np.random.default_rng(8)
    caller, quad = "controller", build_quadgrid()
    greedy_safe_controller(quad, [1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    for x in rng.uniform(quad.state_lower, quad.state_upper, (20, 2)):
        greedy_safe_controller(quad, x, rng.uniform(-1.0, 4.0, 4))
    caller, unicycle = "scan", build_unicycle(n_obstacles=2)
    for x in rng.uniform(unicycle.state_lower, unicycle.state_upper, (30, 3)):
        synthesize(unicycle, x, search=SearchConfig(grid_points=3, refine_iterations=2))
    assert calls["controller"] == 21 and calls["scan"] >= 5


@pytest.mark.parametrize("where,message", [
    ("value", "polytope coefficients must be finite"),
    ("gradient", "barrier gradient contains non-finite entries"),
])
def test_non_finite_avoid_rows_are_rejected_where_they_are_built(unicycle, where, message):
    h = unicycle.spec.avoid[0]
    bad = dataclasses.replace(
        h,
        value=(lambda x, d: math.nan) if where == "value" else h.value,
        gradient=(lambda x, d: np.array([math.inf, 0.0, 0.0])) if where == "gradient" else h.gradient,
    )
    spec = dataclasses.replace(unicycle.spec, avoid=(bad,))
    x, d = np.array([0.2, -0.1, 1.0]), np.array([0.4, 0.4])
    with pytest.raises(ValueError, match=message):
        feasible_input_polytope(spec, unicycle.dynamics, x, d, unicycle.input_polytope)


def _unicycle_traj_spec(unicycle):
    return unicycle.spec


def test_monitor_single_sample_at_goal(unicycle):
    d = np.array([-0.9, -0.9])
    out = monitor_trajectory(unicycle.spec, [(0.0, np.array([0.5, 0.5, 0.0]))], [(0.0, d)])
    assert out.satisfied
    assert out.reach_time == 0.0
    assert out.min_avoid_value > 0.0


def test_monitor_obstacle_touch_fails(unicycle):
    d = np.array([0.0, 0.0])
    traj = [(0.0, np.array([0.5, 0.5, 0.0])), (1.0, np.array([0.05, 0.0, 0.0]))]
    out = monitor_trajectory(unicycle.spec, traj, [(0.0, d)])
    assert not out.satisfied
    assert out.min_avoid_value < 0.0


def test_monitor_circling_outside_goal_misses_deadline():
    from advsynth import build_unicycle

    scn = build_unicycle(goal=(0.0, 0.0), t_max=10.0)
    d = np.array([0.9, 0.9])
    # circle of radius 0.5 around the goal: reach barrier stays negative
    traj = [
        (t, np.array([0.5 * math.cos(w), 0.5 * math.sin(w), 0.0]))
        for t, w in ((0.5 * k, 0.3 * k) for k in range(40))
    ]
    out = monitor_trajectory(scn.spec, traj, [(0.0, d)])
    assert not out.satisfied
    assert out.reach_time is None
    assert out.min_avoid_value > 0.0


def test_monitor_rejects_empty_and_unsorted(unicycle):
    with pytest.raises(ValueError):
        monitor_trajectory(unicycle.spec, [], [(0.0, np.zeros(2))])
    traj = [(1.0, np.zeros(3)), (0.5, np.zeros(3))]
    with pytest.raises(ValueError):
        monitor_trajectory(unicycle.spec, traj, [(0.0, np.zeros(2))])


def test_monitor_min_avoid_matches_brute_force(unicycle):
    rng = np.random.default_rng(3)
    traj = [(float(k), rng.uniform(-1, 1, size=3)) for k in range(30)]
    d_seq = [(float(k), rng.uniform(-1, 1, size=2)) for k in range(0, 30, 5)]
    out = monitor_trajectory(unicycle.spec, traj, d_seq)

    # zero-order hold recomputation, written independently
    best = math.inf
    for t, x in traj:
        d = d_seq[0][1]
        for td, dv in d_seq:
            if td <= t:
                d = dv
        for h in unicycle.spec.avoid:
            best = min(best, h.value(x, d))
    assert out.min_avoid_value == best


def test_monitor_folds_given_avoid_values_and_reads_reach_up_to_the_first(unicycle):
    # with each sample's min_avoid given, no avoid barrier runs, and the
    # reach barrier runs up to the first sample that reaches
    reached, x_far, x_goal = [], np.array([-0.5, -0.5, 0.0]), np.array([0.5, 0.5, 0.0])
    reach = dataclasses.replace(unicycle.spec.reach, value=lambda x, d: reached.append(x)
                                or unicycle.spec.reach.value(x, d))
    spec = dataclasses.replace(unicycle.spec, reach=reach, avoid=(BarrierFunction(
        value=lambda x, d: pytest.fail("an avoid barrier ran")),))
    traj = [(0.0, x_far), (1.0, x_goal), (2.0, x_far), (3.0, x_goal)]
    out = monitor_trajectory(spec, traj, [(0.0, np.zeros(2))], [0.5, math.nan, 0.25, 1.0])
    assert len(reached) == 2 and out.reach_time == 1.0 and not out.satisfied
    assert math.isnan(out.min_avoid_value)
    with pytest.raises(ValueError, match="^need one min_avoid value per sample$"):
        monitor_trajectory(spec, traj, [(0.0, np.zeros(2))], [0.5, 0.5, 0.5])


def test_monitor_no_avoid_barriers(unicycle):
    spec = ReachAvoidSpec(reach=unicycle.spec.reach, avoid=(), gains=())
    out = monitor_trajectory(spec, [(0.0, np.array([0.5, 0.5, 0.0]))], [(0.0, np.zeros(2))])
    assert out.satisfied and out.min_avoid_value == math.inf


@pytest.mark.parametrize(
    "values", [(math.nan,), (math.nan, -1.0), (-1.0, math.nan), (2.0, math.nan, 1.0)]
)
def test_monitor_a_nan_avoid_value_fails_and_shows_whatever_the_order(unicycle, values):
    # one constant avoid barrier per value; the run sits on the goal
    spec = ReachAvoidSpec(
        reach=unicycle.spec.reach,
        avoid=tuple(BarrierFunction(value=lambda x, d, v=v: v) for v in values),
        gains=tuple(ClassKappaFn(1.0) for _ in values),
    )
    traj = [(0.0, np.array([0.5, 0.5, 0.0])), (1.0, np.array([0.5, 0.5, 0.0]))]
    out = monitor_trajectory(spec, traj, [(0.0, np.zeros(2))])
    assert not out.satisfied
    assert out.reach_time == 0.0
    assert math.isnan(out.min_avoid_value)


def test_class_kappa_validation():
    with pytest.raises(ValueError):
        ClassKappaFn(0.0)
    k = ClassKappaFn(10.0)
    assert k(0.0) == 0.0
    assert k(-0.030625) == pytest.approx(-0.30625)


def test_test_space_invariants():
    with pytest.raises(ValueError):
        BoxSpace([1.0], [0.0])
    with pytest.raises(ValueError):
        FiniteSpace(())
    box = BoxSpace([-1, -1], [1, 1])
    assert box.contains([0.5, -0.5]) and not box.contains([1.5, 0.0])
    fin = FiniteSpace(((0, 1), (2, 3)))
    assert fin.contains((0, 1)) and not fin.contains((1, 0))
    mapped = MappedSpace(lambda x, t: box)
    assert mapped.at(np.zeros(2), 0.0) is box
    bad = MappedSpace(lambda x, t: [1, 2])
    with pytest.raises(ValueError):
        bad.at(np.zeros(2), 0.0)


@pytest.mark.parametrize(
    "point",
    [0.5, [0.5], [0.5, 0.5, 0.5]],
    ids=["scalar", "length-1", "length-3"],
)
def test_box_holds_no_point_of_another_shape(point):
    # no broadcasting: a point of the wrong shape is outside a box or a
    # polytope, as it is outside a finite space that does not hold it
    for member in (BoxSpace([-1, -1], [1, 1]), Polytope.box([-1, -1], [1, 1])):
        assert member.contains(point) is False
        assert feasibility_filter(3.0, point, member, -5.0) == -5.0


@pytest.mark.parametrize(
    "reads",
    [(0,), (2, 3), (-1,), (0, -2), (True,), (0, False), (1.0,), (np.float64(2.0),), ("0",),
     (1, 1), (0, 2, 0), [], np.zeros(0), 3],
    ids=["one-index", "two-indices", "negative", "negative-later", "true", "false", "float",
         "numpy-float", "string", "repeated", "repeated-apart", "empty-list", "empty-array",
         "not-a-sequence"],
)
def test_reads_rejects_bad_declarations(reads):
    # the message names both legal values
    message = r"^reads must be None \(no claim\) or \(\) \(no test coordinate\), got "
    with pytest.raises(ValueError, match=message):
        BarrierFunction(lambda x, d: 0.0, reads=reads)
    with pytest.raises(ValueError, match=message):
        ContinuousDynamics(f=lambda x, d: np.zeros(2), g=lambda x, d: np.eye(2), reads=reads)


def test_reads_keeps_none_and_empty_declarations():
    assert BarrierFunction(lambda x, d: 0.0).reads is None
    assert BarrierFunction(lambda x, d: 0.0, reads=()).reads == ()
    dyn = ContinuousDynamics(f=lambda x, d: np.zeros(2), g=lambda x, d: np.eye(2))
    assert dyn.reads is None
    assert ContinuousDynamics(f=dyn.f, g=dyn.g, reads=()).reads == ()


def test_reach_avoid_spec_validation(unicycle):
    with pytest.raises(ValueError):
        ReachAvoidSpec(reach=unicycle.spec.reach, avoid=unicycle.spec.avoid, gains=())
    with pytest.raises(ValueError):
        ReachAvoidSpec(reach=unicycle.spec.reach, avoid=(), gains=(), t_max=0.0)


X0, D0 = np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.5])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda scn: core.as_vector(np.zeros((2, 2)), "v"), ValueError,
         "v must be one-dimensional, got shape (2, 2)"),
        (lambda scn: core.objective_vector(np.ones(3), 2), ValueError,
         "objective dim 3 does not match polytope dim 2"),
        (lambda scn: Polytope(np.zeros(2), np.zeros(2)), ValueError,
         "constraint matrix must be 2-D, got shape (2,)"),
        (lambda scn: Polytope(np.zeros((2, 1)), np.zeros(3)), ValueError,
         "right-hand side length (3,) does not match 2 rows"),
        (lambda scn: Polytope.box([1.0], [0.0]), ValueError,
         "box needs lower <= upper elementwise"),
        (lambda scn: BoxSpace(np.zeros(0), np.zeros(0)), ValueError,
         "test box needs at least one coordinate"),
        (lambda scn: core.DiscreteDynamics(step=lambda x, u: x, alphabet=()), ValueError,
         "action alphabet must be nonempty"),
        (lambda scn: lie_derivatives(BarrierFunction(lambda x, d: 0.0), scn.dynamics, X0, D0),
         ValueError, "barrier has no gradient; Lie derivatives undefined"),
        # the unicycle's batched rows and the one-test rows check the input
        # dimension each on their own path
        (lambda scn: core.LieCache(scn.spec, scn.dynamics, X0, 3).avoid_block(D0[None]),
         ValueError, "input row dim 2 does not match polytope dim 3"),
        (lambda scn: core.avoid_rows(scn.spec, scn.dynamics, X0, D0, 3), ValueError,
         "input row dim 2 does not match polytope dim 3"),
        (lambda scn: core.dynamics_at(
            ContinuousDynamics(f=scn.dynamics.f, g=lambda x, d: np.eye(2)), X0, D0),
         ValueError, "actuation matrix shape (2, 2) does not match state dim 3"),
        (lambda scn: monitor_trajectory(scn.spec, [(0.0, X0)], []), ValueError,
         "test-vector sequence must be nonempty"),
        (lambda scn: monitor_trajectory(scn.spec, [(0.0, X0)], [(1.0, D0), (0.0, D0)]),
         ValueError, "test-vector timestamps must be nondecreasing"),
    ],
    ids=["as-vector-2d", "objective-dim", "polytope-1d", "polytope-rhs-length", "box-order",
         "test-box-no-coordinate", "empty-alphabet", "no-gradient",
         "avoid-block-input-dim", "avoid-rows-input-dim", "actuation-shape", "monitor-no-tests",
         "monitor-test-order"],
)
def test_invalid_model_input_raises(unicycle, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(unicycle)
