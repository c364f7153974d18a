import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from advsynth import (
    BarrierFunction,
    BoxSpace,
    BudgetError,
    ClassKappaFn,
    ContinuousDynamics,
    ContinuousScenario,
    DiscreteDynamics,
    DiscreteScenario,
    FiniteSpace,
    MappedSpace,
    Polytope,
    ReachAvoidSpec,
    ScenarioError,
    SearchConfig,
    build_unicycle,
    difficulty,
    greedy_safe_controller,
    one_step_difficulty,
    predictive_difficulty,
    synthesize,
    synthesize_constrained,
    synthesize_discrete,
    synthesize_discrete_constrained,
    synthesize_perturbed,
)
from advsynth.core import satisfaction_floor
from advsynth import cli, continuous, core, lp
from conftest import reference_synthesize_over

REPO = Path(__file__).resolve().parent.parent

COARSE = SearchConfig(grid_points=9, refine_iterations=10)


def integrator_scenario(coupling=None, actuation=None, test_dim=2):
    """Planar integrator with a quadratic reach barrier and no avoid
    barriers; the test vector enters through the dynamics only, as the
    additive drift ``coupling @ d`` written into f."""
    reach = BarrierFunction(
        value=lambda x, d: -float(x[0] ** 2 + x[1] ** 2),
        gradient=lambda x, d: np.array([-2.0 * x[0], -2.0 * x[1], ]),
    )

    def f(x, d):
        if coupling is None:
            return np.zeros(2)
        return np.zeros(2) + coupling @ np.asarray(d, dtype=float)

    dyn = ContinuousDynamics(
        f=f,
        g=actuation if actuation is not None else (lambda x, d: np.eye(2)),
    )
    return ContinuousScenario(
        dynamics=dyn,
        spec=ReachAvoidSpec(reach=reach, avoid=(), gains=()),
        input_polytope=Polytope.box([-1.0, -1.0], [1.0, 1.0]),
        test_space=BoxSpace(-np.ones(test_dim), np.ones(test_dim)),
        state_lower=np.array([-2.0, -2.0]),
        state_upper=np.array([2.0, 2.0]),
        floor=-20.0,
    )


# ---------------------------------------------------------------------------
# satisfaction floor

BLOCKED = np.array([-0.5, 0.5, np.pi / 4])  # the unicycle has no safe input here


def counting(h, calls):
    """``h`` with each value and gradient call recorded in ``calls``."""
    grad = h.gradient and (lambda x, d: calls.append(d) or h.gradient(x, d))
    return BarrierFunction(lambda x, d: calls.append(d) or h.value(x, d), grad)


def unpinned(scn, calls):
    """``scn`` with no pinned floor and barriers that count their calls."""
    spec = dataclasses.replace(
        scn.spec,
        reach=counting(scn.spec.reach, calls),
        avoid=tuple(counting(h, calls) for h in scn.spec.avoid),
    )
    return dataclasses.replace(scn, spec=spec, floor=None)


def test_floor_pinned_value_wins(unicycle):
    assert satisfaction_floor(unicycle) == -5.0
    assert synthesize(unicycle, BLOCKED).difficulty == -5.0


@pytest.mark.parametrize("family", ["continuous", "discrete"])
def test_missing_floor_raises_before_any_callback(unicycle, gridworld79, family):
    calls = []
    if family == "continuous":
        scn, x = unpinned(unicycle, calls), BLOCKED
        entries = [synthesize, lambda scn, x: synthesize_constrained(scn, x, 0.0)]
    else:
        scn, x = unpinned(gridworld79, calls), (3, 5)
        entries = [synthesize_discrete,
                   lambda scn, x: synthesize_discrete_constrained(scn, x, 0.0)]
    for entry in entries:
        with pytest.raises(ValueError, match="^no satisfaction floor: pin one on the scenario$"):
            entry(scn, x)
        assert not calls
    for entry in entries:
        # a pinned floor is enough, and the barriers then run
        res = entry(dataclasses.replace(scn, floor=-9.0), x)
        assert calls
        assert res.difficulty == (-9.0 if family == "continuous" else 0.0)


@pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
def test_non_finite_floor_is_rejected(unicycle, gridworld79, floor):
    message = "^satisfaction floor must be finite, got "
    for scn in (unicycle, gridworld79):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(scn, floor=floor)


@pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
def test_one_test_measures_reject_a_non_finite_floor_before_any_callback(unicycle, floor):
    # the floor argument of difficulty and predictive_difficulty follows
    # the scenario floor's rule: a NaN or infinite floor would rank a test
    # in Γ (the obstacle on the unicycle, an avoid barrier that every
    # action violates) with the easiest
    calls = []
    cont = unpinned(unicycle, calls)
    disc = DiscreteScenario(
        dynamics=DiscreteDynamics(step=lambda x, u: x, alphabet=("a", "b")),
        spec=ReachAvoidSpec(reach=counting(BarrierFunction(lambda x, d: 0.0), calls),
                            avoid=(counting(BarrierFunction(lambda x, d: -1.0), calls),),
                            gains=(ClassKappaFn(1.0),)),
        test_space=FiniteSpace(((0,),)),
    )
    measures = [
        lambda fl: difficulty(cont, BLOCKED, BLOCKED[:2], fl),
        lambda fl: predictive_difficulty(disc, (0,), (0,), fl, 1),
        lambda fl: one_step_difficulty(disc, (0,), (0,), fl),
    ]
    for measure in measures:
        with pytest.raises(ValueError, match="^satisfaction floor must be finite, got "):
            measure(floor)
        assert not calls
    for measure in measures:
        # a finite floor is the value of the test in Γ, and the barriers run
        assert measure(-9.0) == (-9.0, None)
        assert calls


# ---------------------------------------------------------------------------
# difficulty

def test_difficulty_obstacle_on_agent_hits_floor(unicycle):
    x = np.array([-0.5, 0.5, np.pi / 4])
    val, u = difficulty(unicycle, x, np.array([-0.5, 0.5]), floor=-5.0)
    assert val == -5.0
    assert u is None


def test_difficulty_far_obstacle_box_corner(unicycle):
    x = np.array([0.0, 0.0, 0.0])
    val, u = difficulty(unicycle, x, np.array([-0.9, -0.9]), floor=-5.0)
    assert val == 0.2
    assert u is not None
    assert unicycle.input_polytope.contains(u)


def test_difficulty_zero_gradient_zero_value():
    scn = integrator_scenario()
    val, u = difficulty(scn, np.zeros(2), np.array([0.3, -0.1]), floor=-20.0)
    assert val == 0.0
    assert u is not None
    assert scn.input_polytope.contains(u)


def test_difficulty_floor_property(unicycle):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(unicycle.state_lower, unicycle.state_upper)
        d = rng.uniform(-1, 1, size=2)
        val, u = difficulty(unicycle, x, d, floor=-5.0)
        assert val >= -5.0
        if u is None:
            assert val == -5.0


# ---------------------------------------------------------------------------
# synthesize

@pytest.mark.parametrize(
    "state",
    [np.array([-0.5, 0.5, np.pi / 4]), np.array([0.5, -0.5, np.pi / 2])],
)
def test_synthesize_blocking_states(unicycle, state):
    res = synthesize(unicycle, state)
    assert res.in_gamma
    assert res.difficulty == -5.0
    assert res.inner_maximizer is None
    # the chosen obstacle overlaps the agent closely enough to block it
    assert np.linalg.norm(np.asarray(res.d_star) - state[:2]) < 0.175


def test_synthesize_singleton_test_space(unicycle):
    d0 = np.array([0.9, -0.9])
    scn = dataclasses.replace(unicycle, test_space=FiniteSpace((d0,)))
    res = synthesize(scn, np.array([0.0, 0.0, 0.0]))
    assert np.array_equal(np.asarray(res.d_star), d0)
    assert res.evaluations == 1


@pytest.mark.parametrize(
    "space,evaluations",
    [(BoxSpace(-np.ones(2), np.ones(2)), 9), (FiniteSpace(((0.0, 0.0), (0.5, -0.5))), 2)],
    ids=["box", "finite"],
)
def test_search_without_a_finite_value_returns_no_test(monkeypatch, space, evaluations):
    # every reach rate overflows to inf, so no candidate has a finite value
    # and the grid leaves compass refinement no test to start from
    base = integrator_scenario()
    scn = dataclasses.replace(
        base,
        dynamics=ContinuousDynamics(f=lambda x, d: np.ones(2), g=lambda x, d: np.eye(2)),
        spec=dataclasses.replace(base.spec, reach=BarrierFunction(
            lambda x, d: -1.0, lambda x, d: np.array([1e308, 1e308]))),
        test_space=space,
    )
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        got, want = both_scans(
            monkeypatch, lambda: synthesize(scn, np.zeros(2), SearchConfig(grid_points=3)))
    assert (got.d_star, got.difficulty, got.in_gamma, got.inner_maximizer) == (
        None, math.inf, False, None)
    assert got.evaluations == evaluations
    assert_same_result(got, want)


def test_synthesize_difficulty_recomputes(unicycle):
    scn = integrator_scenario(coupling=np.eye(2))
    x = np.array([0.3, -0.2])
    res = synthesize(scn, x, search=COARSE)
    val, _ = difficulty(scn, x, res.d_star, floor=-20.0)
    assert val == pytest.approx(res.difficulty, abs=1e-9)
    assert not res.in_gamma


def test_synthesize_warns_inside_goal(unicycle):
    x, search = np.array([0.5, 0.5, 0.0]), SearchConfig(grid_points=3, refine_iterations=0)
    # the warning names the caller's line, whichever entry point it used
    for run in (lambda: synthesize(unicycle, x, search=search),
                lambda: synthesize_constrained(unicycle, x, 0.0, search=search)):
        with pytest.warns(UserWarning, match="already satisfies the reach predicate") as caught:
            run()
        assert [w.filename for w in caught] == [__file__]


def test_synthesize_existence_sweep(unicycle):
    rng = np.random.default_rng(17)
    coarse = SearchConfig(grid_points=3, refine_iterations=8)
    space = unicycle.test_space
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            x = rng.uniform(unicycle.state_lower, unicycle.state_upper)
            res = synthesize(unicycle, x, search=coarse)
            assert space.contains(res.d_star)
            assert res.difficulty >= -5.0


def test_synthesize_optimal_at_grid_resolution():
    scn = integrator_scenario(coupling=np.eye(2))
    x = np.array([0.7, -1.1])
    res = synthesize(scn, x, search=COARSE)
    for a in np.linspace(-1, 1, 9):
        for b in np.linspace(-1, 1, 9):
            val, _ = difficulty(scn, x, np.array([a, b]), floor=-20.0)
            assert res.difficulty <= val + 1e-9


# ---------------------------------------------------------------------------
# perturbed dynamics

def test_perturbed_reduces_to_nominal(unicycle):
    x = np.array([0.35, -0.15, 2.0])
    a = synthesize(unicycle, x)
    b = synthesize_perturbed(unicycle, x)
    assert np.array_equal(np.asarray(a.d_star), np.asarray(b.d_star))
    assert a.difficulty == b.difficulty
    assert a.evaluations == b.evaluations
    assert a.in_gamma == b.in_gamma


def test_perturbed_integrator_picks_worst_corner():
    scn = integrator_scenario(coupling=np.eye(2))
    x = np.array([0.3, -0.2])
    grad = np.array([-2.0 * x[0], -2.0 * x[1]])
    res = synthesize(scn, x, search=COARSE)
    # closed form: max_u grad @ u over the unit box is |grad|_1, and the
    # minimizing d is the box corner opposing the gradient
    corners = [np.array([sx, sy]) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    expected = min(np.abs(grad).sum() + float(grad @ c) for c in corners)
    worst = min(corners, key=lambda c: float(grad @ c))
    assert res.difficulty == pytest.approx(expected, abs=1e-9)
    assert np.allclose(np.asarray(res.d_star), worst, atol=1e-9)


def test_perturbed_actuator_failure_kills_input_term():
    coupling = np.array([[0.5], [-0.3]])
    scn = integrator_scenario(
        coupling=coupling,
        actuation=lambda x, d: (1.0 - d[0]) * np.eye(2),
        test_dim=1,
    )
    scn = dataclasses.replace(scn, test_space=BoxSpace([0.0], [1.0]))
    x = np.array([0.4, 0.8])
    grad = np.array([-2.0 * x[0], -2.0 * x[1]])
    val, u = difficulty(scn, x, np.array([1.0]), floor=-20.0)
    assert val == pytest.approx(float(grad @ coupling[:, 0]), abs=1e-12)
    assert u is not None
    # brute force over the test grid agrees with the synthesizer
    res = synthesize(scn, x, search=SearchConfig(grid_points=25, refine_iterations=10))
    brute = min(
        difficulty(scn, x, np.array([v]), floor=-20.0)[0] for v in np.linspace(0, 1, 25)
    )
    assert res.difficulty <= brute + 1e-9


def test_tau_shift_moves_values_not_minimizer():
    scn = integrator_scenario(coupling=np.eye(2))
    rng = np.random.default_rng(23)
    for tau in (0.0, 0.25, 1.5):
        for _ in range(10):
            x = rng.uniform(scn.state_lower, scn.state_upper)
            d = rng.uniform(-1, 1, size=2)
            base, _ = difficulty(scn, x, d, floor=-20.0, tau=0.0)
            shifted, _ = difficulty(scn, x, d, floor=-20.0, tau=tau)
            assert shifted == base - tau


def test_tau_does_not_shift_the_floor_branch(unicycle):
    x = np.array([-0.5, 0.5, np.pi / 4])
    val, u = difficulty(unicycle, x, np.array([-0.5, 0.5]), floor=-5.0, tau=0.7)
    assert val == -5.0 and u is None


# ---------------------------------------------------------------------------
# constrained test spaces

def test_constrained_constant_map_reduces(unicycle):
    mapped = dataclasses.replace(
        unicycle, test_space=MappedSpace(lambda x, t: unicycle.test_space)
    )
    x = np.array([0.25, 0.4, 1.0])
    a = synthesize(unicycle, x)
    b = synthesize_constrained(mapped, x, 3.0)
    assert np.array_equal(np.asarray(a.d_star), np.asarray(b.d_star))
    assert a.difficulty == b.difficulty
    assert a.evaluations == b.evaluations


def test_constrained_quadgrid_candidates(quadgrid):
    from advsynth import unit_cell_corners

    x = np.array([0.3, 1.7])
    corners = set(unit_cell_corners(x))
    assert corners == {(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.0, 2.0)}
    res = synthesize_constrained(quadgrid, x, 0.0)
    d = np.asarray(res.d_star)
    assert tuple(d[:2]) in corners and tuple(d[2:]) in corners
    space = quadgrid.test_space.at(x, 0.0)
    assert len(space.points) == 16
    assert space.contains(res.d_star)


def test_constrained_singleton_map(unicycle):
    d0 = np.array([0.1, 0.2])
    mapped = dataclasses.replace(
        unicycle, test_space=MappedSpace(lambda x, t: FiniteSpace((d0,)))
    )
    res = synthesize_constrained(mapped, np.array([0.0, 0.0, 0.0]), 0.0)
    assert np.array_equal(np.asarray(res.d_star), d0)


def test_constrained_empty_map_rejected(unicycle):
    mapped = dataclasses.replace(
        unicycle, test_space=MappedSpace(lambda x, t: FiniteSpace(()))
    )
    with pytest.raises(ValueError):
        synthesize_constrained(mapped, np.array([0.0, 0.0, 0.0]), 0.0)


def test_mapped_space_requires_constrained_entry(unicycle):
    mapped = dataclasses.replace(
        unicycle, test_space=MappedSpace(lambda x, t: unicycle.test_space)
    )
    with pytest.raises(ValueError):
        synthesize(mapped, np.array([0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# scenario validation

def test_unbounded_input_polytope_rejected(unicycle):
    open_poly = Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        dataclasses.replace(unicycle, input_polytope=open_poly)


def test_state_box_validation(unicycle):
    with pytest.raises(ValueError):
        dataclasses.replace(unicycle, state_lower=np.array([2.0, 0.0, 0.0]))


def test_test_space_must_be_a_box_finite_or_mapped_space(unicycle):
    with pytest.raises(ValueError, match="^continuous scenarios need a box, finite or mapped test space$"):
        dataclasses.replace(unicycle, test_space=[np.zeros(2)])


def test_state_of_the_wrong_size_raises_before_any_callback(unicycle, quadgrid):
    calls = []
    for base, n in ((unicycle, 3), (quadgrid, 2)):
        scn = dataclasses.replace(unpinned(base, calls), floor=base.floor)
        entries = [lambda x: synthesize_constrained(scn, x, 0.0)]
        if isinstance(base.test_space, MappedSpace):
            scn = dataclasses.replace(scn, test_space=MappedSpace(
                lambda x, t: calls.append(x) or base.test_space.at(x, t)))
        else:
            entries.append(lambda x: synthesize(scn, x))
        for x in (np.zeros(n - 1), np.array([1.2, 0.7, 99.0, 0.5][:n + 1])):
            for entry in entries:
                with pytest.raises(ValueError, match=f"^state needs {n} components, got {x.size}$"):
                    entry(x)
        assert not calls


@pytest.mark.parametrize("entry", ["difficulty", "controller"])
def test_difficulty_and_controller_reject_a_bad_state_before_any_callback(quadgrid, entry):
    counts = {}
    for base, x, d in ((build_unicycle(n_obstacles=2), np.array([0.3, -0.2, 1.0]),
                        np.array([0.5, 0.1, -0.4, 0.2])),
                       (quadgrid, np.array([1.2, 0.7]), np.array([1.0, 1.0, 2.0, 1.0]))):
        scn = recounted(base, counts)
        call = {"difficulty": lambda x: difficulty(scn, x, d, -5.0),
                "controller": lambda x: greedy_safe_controller(scn, x, d)}[entry]
        n = x.size
        for bad, message in ((x[:-1], f"^state needs {n} components, got {n - 1}$"),
                             (np.append(x, 99.0), f"^state needs {n} components, got {n + 1}$"),
                             (np.r_[np.inf, x[1:]], "^state contains non-finite entries$")):
            with pytest.raises(ValueError, match=message):
                call(bad)
        assert not counts
        call(x)  # a state of the scenario's size runs the callbacks
        assert counts
        counts.clear()


def test_difficulty_rejects_a_bad_test_vector_before_any_callback(quadgrid):
    # the box scenario's tests have 2 components, the finite one's its
    # first point's 2, and the mapped quadgrid's 4 at x = (1.2, 0.7), the
    # size of its corner set realized at (x, 0): a fifth entry is not
    # ignored, and two entries do not reach the avoid barrier's lambda
    counts = {}
    box = build_unicycle()
    finite = dataclasses.replace(box, test_space=FiniteSpace((np.array([0.3, -0.4]),)))
    x = np.array([0.3, -0.2, 1.0])
    for base in (box, finite):
        scn = recounted(base, counts)
        for bad, message in (([0.3, -0.4, 9.0, 9.0], "^test vector needs 2 components, got 4$"),
                             ([0.3], "^test vector needs 2 components, got 1$"),
                             (0.3, "^test vector must be one-dimensional, got shape \\(\\)$"),
                             ([0.3, np.nan], "^test vector contains non-finite entries$")):
            with pytest.raises(ValueError, match=message):
                difficulty(scn, x, bad, -5.0)
        assert not counts
        difficulty(scn, x, [0.3, -0.4], -5.0)
        assert counts
        counts.clear()
    scn = recounted(quadgrid, counts)
    for bad, message in (([1, 2, 1, 1, 7], "^test vector needs 4 components, got 5$"),
                         ([1.0, 2.0], "^test vector needs 4 components, got 2$"),
                         (0.3, "^test vector must be one-dimensional, got shape \\(\\)$"),
                         ([[1.0, 1.0, 2.0, 1.0]], "^test vector must be one-dimensional"),
                         ([1.0, 1.0, np.inf, 1.0], "^test vector contains non-finite entries$")):
        with pytest.raises(ValueError, match=message):
            difficulty(scn, np.array([1.2, 0.7]), bad, -8.0)
    assert not counts
    difficulty(scn, np.array([1.2, 0.7]), [1.0, 1.0, 2.0, 1.0], -8.0)
    assert counts


# ---------------------------------------------------------------------------
# Γ-first scan against the one-by-one reference scan (conftest.py)

def assert_same_result(got, want):
    assert np.array_equal(np.asarray(got.d_star), np.asarray(want.d_star))
    assert np.asarray(got.d_star).dtype == np.asarray(want.d_star).dtype
    assert type(got.difficulty) is type(want.difficulty)
    assert got.difficulty == want.difficulty
    assert got.in_gamma == want.in_gamma
    if want.inner_maximizer is None:
        assert got.inner_maximizer is None
    else:
        assert np.array_equal(got.inner_maximizer, want.inner_maximizer)
    assert got.evaluations == want.evaluations
    assert got.early_exit == want.early_exit


def both_scans(monkeypatch, run):
    """``run()`` with the synthesizer's own scan, then with the reference."""
    got = run()
    with monkeypatch.context() as m:
        m.setattr(continuous, "_synthesize_over", reference_synthesize_over)
        want = run()
    return got, want


def seeded_states(scn, seed, count):
    rng = np.random.default_rng(seed)
    return [rng.uniform(scn.state_lower, scn.state_upper) for _ in range(count)]


def test_scan_matches_reference_on_criterion_1_states(unicycle, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(unicycle, 2024, 30):
            got, want = both_scans(monkeypatch, lambda: synthesize(unicycle, x))
            assert want.in_gamma
            assert_same_result(got, want)


@pytest.mark.parametrize(
    "state",
    [np.array([-0.5, 0.5, np.pi / 4]), np.array([0.5, -0.5, np.pi / 2])],
)
def test_scan_matches_reference_on_criterion_2_states(unicycle, monkeypatch, state):
    got, want = both_scans(monkeypatch, lambda: synthesize(unicycle, state))
    assert_same_result(got, want)


@pytest.mark.parametrize("refine_iterations", [40, 0])
def test_scan_matches_reference_on_two_obstacle_grid(monkeypatch, refine_iterations):
    # without refinement a full scan reports a held grid point as it is
    scn = build_unicycle(n_obstacles=2)
    search = SearchConfig(grid_points=3, refine_iterations=refine_iterations)
    grid_size = 3 ** 4
    exits_in_grid = exits_in_refine = full_scans = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 11, 30):
            got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)
            if not want.in_gamma:
                full_scans += 1
            elif want.evaluations > grid_size:
                exits_in_refine += 1
            else:
                exits_in_grid += 1
    assert exits_in_grid and full_scans
    assert bool(exits_in_refine) == (refine_iterations > 0)


def test_scan_matches_reference_with_test_coupled_dynamics(monkeypatch):
    # the test vector also pushes the unicycle, so both the avoid rows and
    # the reach rate of a held grid point depend on it; f reads d, so the
    # dynamics drop the shipped reads=() declaration
    base = build_unicycle(n_obstacles=2)
    coupling = np.array([[0.3, 0.0, -0.1, 0.0], [0.0, 0.2, 0.0, 0.05], [0.0, 0.0, 0.0, 0.0]])
    f0 = base.dynamics.f
    coupled = ContinuousDynamics(lambda x, d: f0(x, d) + coupling @ np.asarray(d, dtype=float),
                                 base.dynamics.g)
    scn = dataclasses.replace(base, dynamics=coupled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for refine_iterations in (0, 40):
            search = SearchConfig(grid_points=3, refine_iterations=refine_iterations)
            for x in seeded_states(scn, 13, 8):
                got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
                assert_same_result(got, want)


@pytest.mark.parametrize("refine_iterations", [0, 10])
def test_scan_matches_reference_with_held_minima(monkeypatch, refine_iterations):
    # a gentle gain leaves most tests with a nonnegative avoid rhs, so the
    # hardest grid point is often one the scan held back and looked up again
    scn = build_unicycle(kappa=1.0)
    search = SearchConfig(grid_points=5, refine_iterations=refine_iterations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 3, 20):
            got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)


def test_scan_matches_reference_on_quadgrid_corner_maps(quadgrid, monkeypatch):
    states = seeded_states(quadgrid, 5, 40) + [np.array([1.0, 2.0]), np.array([3.5, 2.5])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the last state sits on the goal
        for x in states:
            got, want = both_scans(monkeypatch, lambda: synthesize_constrained(quadgrid, x, 0.0))
            assert_same_result(got, want)


@pytest.mark.parametrize("coupling", [None, np.eye(2)])
def test_scan_matches_reference_without_avoid_barriers(monkeypatch, coupling):
    scn = integrator_scenario(coupling=coupling)
    for x in seeded_states(scn, 9, 5):
        got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=COARSE))
        assert_same_result(got, want)


def test_scan_matches_reference_when_actuators_exclude_zero(unicycle, monkeypatch):
    # forward speed in [0.05, 0.2]: u = 0 is never admissible, so no
    # candidate may be held back and every one is solved on the spot
    scn = dataclasses.replace(
        unicycle, input_polytope=Polytope.box([0.05, -1.0], [0.2, 1.0])
    )
    calls = []
    real = continuous.solve_lp
    monkeypatch.setattr(continuous, "solve_lp", lambda p: calls.append(p) or real(p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 2024, 12):
            del calls[:]
            got = synthesize(scn, x, search=COARSE)
            assert len(calls) == got.evaluations
            _, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=COARSE))
            assert_same_result(got, want)


def test_scan_raises_avoid_row_errors_at_the_same_candidate(monkeypatch):
    base = build_unicycle()
    h = base.spec.avoid[0]
    bad = np.array([0.25, -0.5])
    seen = []

    def value(x, d):
        seen.append(np.array(d))
        return float("nan") if np.array_equal(d, bad) else h.value(x, d)

    spec = dataclasses.replace(base.spec, avoid=(BarrierFunction(value, h.gradient),))
    scn = dataclasses.replace(base, spec=spec)
    x = np.array([0.9, 0.9, 0.0])
    counts = []
    for scan in (continuous._synthesize_over, reference_synthesize_over):
        del seen[:]
        with monkeypatch.context() as m:
            m.setattr(continuous, "_synthesize_over", scan)
            with pytest.raises(ValueError, match="must be finite"):
                synthesize(scn, x, search=COARSE)
        assert np.array_equal(seen[-1], bad)
        counts.append(len(seen))
    assert counts[0] == counts[1]


def test_block_scan_raises_avoid_row_errors_where_a_one_by_one_scan_does(monkeypatch):
    # the barrier's batch gives NaN at candidate 47 of the 81-point grid,
    # one block.  From the first state no earlier candidate is in Γ, so
    # the scan raises there; from the second the first candidate is in Γ
    # and the scan returns it, although its block holds the NaN row.
    base = build_unicycle()
    h = base.spec.avoid[0]
    bad = np.array([0.25, -0.5])

    def value(x, d):
        return float("nan") if np.array_equal(d, bad) else h.value(x, d)

    def batch(x, D):
        values, grads = h.batch(x, D)
        values[(D == bad).all(axis=1)] = np.nan
        return values, grads

    spec = dataclasses.replace(base.spec, avoid=(dataclasses.replace(h, value=value, batch=batch),))
    scn = dataclasses.replace(base, spec=spec)
    raises, gamma = np.array([0.9, 0.9, 0.0]), np.array([-0.9, -0.9, 0.0])
    for scan in (continuous._synthesize_over, reference_synthesize_over):
        with monkeypatch.context() as m:
            m.setattr(continuous, "_synthesize_over", scan)
            with pytest.raises(ValueError, match="polytope coefficients must be finite"):
                synthesize(scn, raises, search=COARSE)
    got, want = both_scans(monkeypatch, lambda: synthesize(scn, gamma, search=COARSE))
    assert_same_result(got, want)
    assert got.in_gamma and got.evaluations == 1


def without_batch(scn):
    """``scn`` with every avoid barrier's ``batch`` dropped, so its scans
    build rows one candidate at a time."""
    avoid = tuple(dataclasses.replace(h, batch=None) for h in scn.spec.avoid)
    return dataclasses.replace(scn, spec=dataclasses.replace(scn.spec, avoid=avoid))


def test_held_candidates_skip_the_scalar_solver(monkeypatch):
    # solve_lp sees on the spot only candidates with a negative avoid rhs;
    # every other one follows the input box's Bland path or is an
    # off-path held solve, whether the rows come in blocks or one
    # candidate at a time
    two = build_unicycle(n_obstacles=2)
    # built before solve_lp is counted: construction checks the inputs by LP
    scenarios = ((True, two), (False, without_batch(two)))
    search = SearchConfig(grid_points=3)
    rhs, scalar, off_path, shortcut = [], [], [], []
    real_block, real_lp, real_follows = core.LieCache.avoid_block, continuous.solve_lp, lp.BlandPath.follows

    def avoid_block(cache, D):
        A, b = real_block(cache, D)
        rhs.extend(b)
        return A, b

    def solve_lp(problem):
        (scalar if (problem.constraints.b < 0).any() else off_path).append(problem)
        return real_lp(problem)

    def follows(path, A, b):
        short = real_follows(path, A, b)
        shortcut.append(int(short.sum()))
        return short

    monkeypatch.setattr(core.LieCache, "avoid_block", avoid_block)
    monkeypatch.setattr(continuous, "solve_lp", solve_lp)
    monkeypatch.setattr(lp.BlandPath, "follows", follows)
    split = []
    for batched, scn in scenarios:
        held = short = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in seeded_states(scn, 11, 30):
                res = synthesize(scn, x, search=search)
                if res.in_gamma and batched:
                    # a block's rows may run past a Γ exit to the end of
                    # its block, never short of it
                    assert 0 <= len(rhs) - res.evaluations < continuous._HELD_BLOCK
                else:
                    assert len(rhs) == res.evaluations
                on_the_spot = sum(1 for b in rhs[:res.evaluations] if (b < 0).any())
                assert len(scalar) == on_the_spot
                if not res.in_gamma:
                    assert sum(shortcut) + len(off_path) == res.evaluations - on_the_spot
                held += sum(shortcut) + len(off_path)
                short += sum(shortcut)
                del rhs[:], scalar[:], off_path[:], shortcut[:]
        split.append((short, held - short))
    # (shortcut, off-path): every held candidate of these states follows
    # the path, so none is solved
    assert split == [(3448, 0), (3448, 0)]


def test_held_blocks_follow_the_input_box_path_where_it_holds(quadgrid, monkeypatch):
    # each held block as ("path", followed, held), then one ("solve",) per
    # off-path held program: every held candidate of this unicycle grid
    # follows the input box's Bland path, so none is solved; the
    # quadgrid's corner set at a half-integer state mixes both; the
    # integrator's reach row is not kept, so no path is recorded and every
    # held candidate is solved.  Each scan still gives the one-by-one
    # reference's result
    log, real_follows, real_lp = [], lp.BlandPath.follows, continuous.solve_lp

    def follows(path, A, b):
        short = real_follows(path, A, b)
        log.append(("path", int(short.sum()), len(short)))
        return short

    def solve_lp(problem):
        if not (problem.constraints.b < 0).any():
            log.append(("solve",))
        return real_lp(problem)

    search = SearchConfig(grid_points=3, refine_iterations=0)
    # built before solve_lp is logged: construction checks the inputs by LP
    unicycle, integrator = build_unicycle(n_obstacles=2), integrator_scenario()
    cases = (
        (lambda: synthesize(unicycle, np.array([0.9, -0.8, 1.0]), search=search),
         [("path", 81, 81)]),
        (lambda: synthesize_constrained(quadgrid, np.array([1.5, 0.5]), 0.0),
         [("path", 9, 16)] + [("solve",)] * 7),
        (lambda: synthesize(integrator, np.array([1.0, 0.5]),
                            search=dataclasses.replace(COARSE, refine_iterations=0)),
         [("solve",)] * 81),
    )
    monkeypatch.setattr(lp.BlandPath, "follows", follows)
    monkeypatch.setattr(continuous, "solve_lp", solve_lp)
    for run, blocks in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run()
            assert log == blocks
            with monkeypatch.context() as m:
                m.setattr(continuous, "_synthesize_over", reference_synthesize_over)
                want = run()
        assert_same_result(got, want)
        del log[:]


def test_scan_matches_reference_across_held_blocks(monkeypatch):
    # five held candidates per block, so the 81-point grid spans many
    # blocks with on-the-spot candidates between them
    monkeypatch.setattr(continuous, "_HELD_BLOCK", 5)
    scn = build_unicycle(n_obstacles=2)
    search = SearchConfig(grid_points=3, refine_iterations=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 17, 12):
            got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)


def test_scan_matches_reference_on_a_grid_wider_than_a_block(monkeypatch):
    # 5^4 = 625 candidates: full scans solve three blocks at the default size
    scn = build_unicycle(n_obstacles=2)
    search = SearchConfig(grid_points=5, refine_iterations=0)
    assert 5 ** 4 > 2 * continuous._HELD_BLOCK
    full_scans = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 19, 8):
            got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)
            full_scans += not want.in_gamma
    assert full_scans


def test_trials_solve_held_programs_on_the_path(monkeypatch, capsys):
    # a refine trial's compass plan is held as one scan: 40 trials on the
    # refine benchmark config hold 4,773 programs, which all take the
    # input box's Bland path, and call solve_lp 7 times: 4 construction
    # checks of the input polytope and 3 candidates solved on the spot
    counts = {"construction": 0, "on_the_spot": 0, "off_path": 0, "shortcut": 0}
    real_over, real_lp, real_follows = continuous._synthesize_over, continuous.solve_lp, lp.BlandPath.follows
    searching = []

    def synthesize_over(*args):
        searching.append(True)
        try:
            return real_over(*args)
        finally:
            searching.pop()

    def solve_lp(problem):
        if not searching:
            counts["construction"] += 1
        elif (problem.constraints.b < 0).any():
            counts["on_the_spot"] += 1
        else:
            counts["off_path"] += 1
        return real_lp(problem)

    def follows(path, A, b):
        short = real_follows(path, A, b)
        counts["shortcut"] += int(short.sum())
        return short

    monkeypatch.setattr(continuous, "_synthesize_over", synthesize_over)
    monkeypatch.setattr(continuous, "solve_lp", solve_lp)
    monkeypatch.setattr(lp.BlandPath, "follows", follows)
    config = str(REPO / "bench" / "configs" / "unicycle-refine.cfg")
    assert cli.main(["trials", "--config", config, "--count", "40", "--seed", "7"]) == 0
    capsys.readouterr()
    assert counts["shortcut"] + counts["off_path"] == 4773
    assert counts["construction"] + counts["on_the_spot"] == 7
    assert counts["construction"] == 4 and counts["on_the_spot"] == 3
    # every held program follows the input box's Bland path: none is solved
    assert counts["shortcut"] == 4773 and counts["off_path"] == 0


def test_refine_trials_build_each_compass_plan_in_one_call(monkeypatch, tmp_path, capsys):
    # the run above: 40 grid scans and 37 compass plans, each plan's moves
    # from one _compass call (a call per planned round made 444)
    calls = {"scan": 0, "compass": 0}
    real_scan, real_compass = continuous._scan, continuous._compass

    def scan(*args, **kwargs):
        calls["scan"] += 1
        return real_scan(*args, **kwargs)

    def compass(*args):
        calls["compass"] += 1
        return real_compass(*args)

    monkeypatch.setattr(continuous, "_scan", scan)
    monkeypatch.setattr(continuous, "_compass", compass)
    config = str(REPO / "bench" / "configs" / "unicycle-refine.cfg")
    argv = ["trials", "--config", config, "--count", "40", "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"scan": 77, "compass": 37}


def sequential_hardest(values):
    """The fold ``_hardest`` replaces: from +inf, keep a candidate only on
    a strictly smaller value.  ``(index, value)``, index None if none."""
    best_k, best = None, math.inf
    for k, v in enumerate(values.tolist()):
        if v < best:
            best_k, best = k, v
    return best_k, best


HARDEST_CASES = [
    [],
    [math.nan],
    [math.inf],
    [math.nan, math.inf, math.nan],
    [-math.inf],
    [math.nan, -math.inf, -math.inf],
    [math.inf, 1.0, math.nan, 1.0],
    [0.0, -0.0],
    [-0.0, 0.0],
    [math.nan, 0.0, -0.0, math.nan],
    [2.0, math.inf, -math.inf, -1.0, -math.inf],
    [5e-324, -5e-324, 0.0, -0.0, -5e-324],
]


def test_hardest_keeps_the_sequential_fold():
    # crafted groups, then random ones from the same special values,
    # long enough to span several SIMD lanes
    rng = np.random.default_rng(21)
    pool = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
    groups = [np.array(c, dtype=float) for c in HARDEST_CASES]
    groups += [rng.choice(pool, size=int(rng.integers(0, 40))) for _ in range(3000)]
    found = 0
    for values in groups:
        want_k, want = sequential_hardest(values)
        k = continuous._hardest(values)
        assert k == want_k
        if k is not None:
            assert values[k].tobytes() == np.float64(want).tobytes()
            found += 1
    assert 1000 < found < len(groups)


def _raise_lookup_error():
    raise LookupError("reach callback failed")


@pytest.mark.parametrize(
    "make_error,error,needle",
    [
        (_raise_lookup_error, LookupError, "reach callback failed"),
        (lambda: np.array([1.5e308, 1.5e308, 0.0]), ValueError, "objective contains non-finite"),
    ],
    ids=["callback", "non-finite-objective"],
)
def test_scan_raises_reach_errors_at_the_same_candidate(monkeypatch, make_error, error, needle):
    # no grid point comes within an obstacle radius of the state, so no
    # test is in Γ and every candidate is held until the scan ends
    bad = np.array([0.25, -0.5])
    base = build_unicycle()
    h = base.spec.reach
    seen = []

    def gradient(x, d):
        seen.append(np.array(d))
        return make_error() if np.array_equal(d, bad) else h.gradient(x, d)

    scn = dataclasses.replace(
        base, spec=dataclasses.replace(base.spec, reach=BarrierFunction(h.value, gradient))
    )
    x = np.array([0.125, 0.125, math.pi / 4])
    search = SearchConfig(grid_points=9, refine_iterations=0)
    counts = []
    for scan in (continuous._synthesize_over, reference_synthesize_over):
        del seen[:]
        with monkeypatch.context() as m, np.errstate(over="ignore"):
            m.setattr(continuous, "_synthesize_over", scan)
            with pytest.raises(error, match=needle):
                synthesize(scn, x, search=search)
        assert np.array_equal(seen[-1], bad)
        counts.append(len(seen))
    assert counts[0] == counts[1]


def test_unbounded_held_program_raises_through_solve_lp(monkeypatch):
    # an actuator polytope open towards -u, which construction rejects: at
    # x = (1, 1) every candidate is held and its program unbounded; the
    # integrator's reach row is not kept, so no path is recorded, and the
    # first held program's solve reports it
    scn = integrator_scenario()
    object.__setattr__(scn, "input_polytope", Polytope(np.eye(2), np.ones(2)))
    x = np.array([1.0, 1.0])
    solved, real_lp = [], continuous.solve_lp

    def solve_lp(problem):
        out = real_lp(problem)
        solved.append(out.status)
        return out

    monkeypatch.setattr(continuous, "solve_lp", solve_lp)
    for scan in (continuous._synthesize_over, reference_synthesize_over):
        with monkeypatch.context() as m:
            m.setattr(continuous, "_synthesize_over", scan)
            with pytest.raises(ScenarioError, match="unbounded"):
                synthesize(scn, x, search=COARSE)
        assert solved == [lp.UNBOUNDED]
        del solved[:]


def test_search_over_budget_raises_before_any_callback():
    # four obstacles on the default 25-point grid: 25^8 candidate tests
    base = build_unicycle(n_obstacles=4)
    calls = []
    h = base.spec.avoid[0]
    avoid = (BarrierFunction(lambda x, d: calls.append(d) or h.value(x, d), h.gradient),)
    scn = dataclasses.replace(base, spec=dataclasses.replace(
        base.spec, avoid=avoid + base.spec.avoid[1:]))
    with pytest.raises(BudgetError, match="scan 152587890625 candidate tests but the budget is 10000000"):
        synthesize(scn, np.zeros(3))
    assert not calls
    assert synthesize(base, np.zeros(3), search=SearchConfig(grid_points=7, refine_iterations=0))


def test_scan_returns_finite_points_themselves(unicycle):
    points = ((0.9, -0.9), (-0.9, -0.9), (0.5, 0.5))
    scn = dataclasses.replace(unicycle, test_space=FiniteSpace(points))
    res = synthesize(scn, np.array([0.0, 0.0, 0.0]))
    assert not res.in_gamma and res.evaluations == 3
    assert any(res.d_star is p for p in points)


def test_box_grid_indexing_matches_iteration():
    grid = continuous._BoxGrid(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.3, 2.0]), (4, 3, 1))
    points = list(grid)
    assert len(points) == len(grid) == 12
    for i, p in enumerate(points):
        assert np.array_equal(grid[i], p)
    assert np.array_equal(grid[-1], points[-1])
    with pytest.raises(IndexError):
        grid[12]
    # a slice gives the same points as the rows of one array, bit for bit
    for start, stop in ((0, 12), (3, 4), (5, 9), (10, 40), (12, 13)):
        block = grid[start:stop]
        want = np.array(points[start:stop]).reshape(-1, 3)
        assert block.shape == want.shape and block.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_points": 0},
        {"grid_points": 2.5},
        {"refine_iterations": -3},
        {"step_tolerance": -1e-4},
        {"step_tolerance": math.inf},
        {"step_tolerance": math.nan},
    ],
)
def test_search_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


# ---------------------------------------------------------------------------
# declared test dependence: f, g and the reach rate built once per synthesis

def recounted(scn, counts, undeclared=False):
    """``scn`` with every barrier and dynamics callback counted in
    ``counts`` under its name; ``undeclared`` also drops every ``reads``."""
    strip = {"reads": None} if undeclared else {}

    def wrap(fn, key):
        def call(x, d):
            counts[key] = counts.get(key, 0) + 1
            return fn(x, d)
        return call

    def barrier(h, name):
        batch = h.batch and wrap(h.batch, name + ".batch")
        return dataclasses.replace(h, value=wrap(h.value, name + ".value"),
                                   gradient=wrap(h.gradient, name + ".gradient"),
                                   batch=batch, **strip)

    spec = dataclasses.replace(
        scn.spec,
        reach=barrier(scn.spec.reach, "reach"),
        avoid=tuple(barrier(h, "avoid") for h in scn.spec.avoid),
    )
    dyn = dataclasses.replace(
        scn.dynamics, f=wrap(scn.dynamics.f, "f"), g=wrap(scn.dynamics.g, "g"), **strip
    )
    return dataclasses.replace(scn, spec=spec, dynamics=dyn)


CALLBACKS = ("reach.value", "reach.gradient", "avoid.value", "avoid.gradient", "f", "g")

# (evaluations, in_gamma, calls of each of CALLBACKS) of a 3-point, 40-round
# synthesis at each of seeded_states(build_unicycle(n_obstacles=2), 11, 12),
# recorded before any scenario declared what it reads; f and g since one
# evaluation of them serves a test's avoid rows and its reach row, so they
# run once per test
UNDECLARED_CALLS = [(129, False, 1, 129, 258, 258, 129, 129)] + [
    (91, True, 1, 90, 182, 182, 91, 91)] * 2 + [(129, False, 1, 129, 258, 258, 129, 129)] * 9


def test_undeclared_scenarios_make_every_call():
    counts = {}
    scn = recounted(build_unicycle(n_obstacles=2), counts, undeclared=True)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 11, 12):
            counts.clear()
            res = synthesize(scn, x, search=SearchConfig(grid_points=3))
            got.append((res.evaluations, res.in_gamma) + tuple(counts[k] for k in CALLBACKS))
    assert got == UNDECLARED_CALLS


def test_undeclared_dynamics_run_f_and_g_once_per_candidate():
    # a candidate's avoid rows keep its (f, G) for its reach row, which a
    # held candidate builds only when its group folds
    counts = {}
    scn = recounted(build_unicycle(n_obstacles=2), counts, undeclared=True)
    held = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 396, 8):
            counts.clear()
            res = synthesize(scn, x, search=SearchConfig(grid_points=3, refine_iterations=0))
            assert counts["f"] == counts["g"] == res.evaluations
            held += counts["reach.gradient"]
    assert held >= 400


@pytest.mark.parametrize("undeclared", [False, True], ids=["declared", "undeclared"])
def test_difficulty_evaluates_f_and_g_once(quadgrid, undeclared):
    # one evaluation serves the avoid rows and the reach row alike
    counts = {}
    for scn, x, d in ((build_unicycle(n_obstacles=2), np.array([0.3, -0.2, 1.0]),
                       np.array([0.5, 0.1, -0.4, 0.2])),
                      (quadgrid, np.array([1.2, 0.7]), np.array([1.0, 1.0, 2.0, 1.0]))):
        scn = recounted(scn, counts, undeclared)
        counts.clear()
        want = difficulty(scn, x, d, -5.0)
        assert (counts["f"], counts["g"]) == (1, 1)
        assert counts["reach.gradient"] == 1 and counts["avoid.gradient"] == 2
        got = greedy_safe_controller(scn, x, d)
        assert (counts["f"], counts["g"]) == (2, 2)
        assert want[1] is not None and np.array_equal(got, want[1])


def lie_counted(monkeypatch):
    """A list that gains one entry per call through ``core.lie_derivatives``."""
    calls = []
    real = core.lie_derivatives
    monkeypatch.setattr(core, "lie_derivatives", lambda *a: calls.append(a[0]) or real(*a))
    return calls


def test_f_g_and_reach_rate_are_built_once_per_synthesis(monkeypatch):
    # at most of these states no grid test is in Γ, so the whole 3^4 grid is
    # scanned, with f and g evaluated once and one reach rate.  In blocks:
    # one batch call per obstacle gives all 81 rows, and only the reach
    # rate is a Lie derivative.  One by one: both rows of every test.
    counts = {}
    lie_calls = lie_counted(monkeypatch)
    two = build_unicycle(n_obstacles=2)
    search = SearchConfig(grid_points=3, refine_iterations=0)
    for batched, scn in ((True, two), (False, without_batch(two))):
        scn = recounted(scn, counts)
        full_scans = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in seeded_states(scn, 11, 12):
                counts.clear()
                del lie_calls[:]
                res = synthesize(scn, x, search=search)
                if not res.in_gamma:
                    full_scans += 1
                    assert res.evaluations == 81
                    assert counts["f"] == counts["g"] == counts["reach.gradient"] == 1
                    if batched:
                        assert len(lie_calls) == 1
                        assert counts["avoid.batch"] == 2
                        assert "avoid.value" not in counts and "avoid.gradient" not in counts
                    else:
                        assert len(lie_calls) == 2 * 81 + 1
                        assert counts["avoid.value"] == counts["avoid.gradient"] == 2 * 81
                got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
                assert_same_result(got, want)
        assert full_scans >= 10


@pytest.mark.parametrize("refine_iterations", [40, 0])
def test_declared_unicycle_matches_reference(monkeypatch, refine_iterations):
    # two obstacles on a 3-point grid, with and without compass rounds
    scn = build_unicycle(n_obstacles=2)
    search = SearchConfig(grid_points=3, refine_iterations=refine_iterations)
    lie_calls = lie_counted(monkeypatch)
    cached = evaluations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 23, 20):
            del lie_calls[:]
            got = synthesize(scn, x, search=search)
            cached += len(lie_calls)
            evaluations += got.evaluations
            _, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)
    # a one-by-one scan builds two avoid rows per candidate
    assert 4 * cached < 2 * evaluations


def test_declared_quadgrid_matches_reference_on_corner_sets(quadgrid, monkeypatch):
    lie_calls = lie_counted(monkeypatch)
    states = seeded_states(quadgrid, 29, 40) + [np.array([1.0, 2.0]), np.array([2.5, 0.5])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in states:
            del lie_calls[:]
            got = synthesize_constrained(quadgrid, x, 0.0)
            # block rows: the reach rate is the one Lie derivative
            assert len(lie_calls) == 1
            _, want = both_scans(monkeypatch, lambda: synthesize_constrained(quadgrid, x, 0.0))
            assert_same_result(got, want)


def test_compass_moves_have_the_bits_of_np_clip(monkeypatch):
    """Every compass candidate equals, byte for byte, the one the reference
    refinement builds with ``np.clip``.  The cases move onto the box bounds,
    and the second box has signed-zero bounds."""
    rounds, evaluated = [], []
    real_compass, real_difficulty = continuous._compass, continuous.difficulty

    def compass(*args):
        moves, counts = real_compass(*args)
        rounds.extend(np.asarray(c).tobytes() for c in moves)
        return moves, counts

    def evaluate(scn, x, d, *rest):
        evaluated.append(np.asarray(d, dtype=float).tobytes())
        return real_difficulty(scn, x, d, *rest)

    monkeypatch.setattr(continuous, "_compass", compass)
    monkeypatch.setattr(continuous, "difficulty", evaluate)
    two = build_unicycle(n_obstacles=2)
    zeros = dataclasses.replace(
        build_unicycle(), test_space=BoxSpace(np.array([-0.0, -1.0]), np.array([1.0, -0.0]))
    )
    search = SearchConfig(grid_points=3, refine_iterations=40)
    moves = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for scn in (two, zeros):
            grid = 3 ** scn.test_space.dim
            for x in seeded_states(scn, 11, 30):
                del rounds[:], evaluated[:]
                got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
                assert_same_result(got, want)
                # the reference stops at a blocking test, the plan runs past it
                assert evaluated[grid:] == rounds[:len(evaluated[grid:])]
                moves += len(rounds)
    assert moves > 1000


# ---------------------------------------------------------------------------
# compass rounds planned ahead, against the one-round-at-a-time reference

def target_scenario(target, trap=None, raises=None, batch=True):
    """A planar integrator whose difficulty at test d is |d - target|_1 on
    the box [-1, 1]^2, so compass rounds move towards an off-grid target.
    Its one avoid barrier blocks every input at the test ``trap`` and
    raises ``LookupError`` at ``raises``; ``batch`` gives it block rows."""
    target = np.asarray(target, dtype=float)
    east = np.array([1.0, 0.0])

    def value(d):
        if raises is not None and np.array_equal(d, raises):
            raise LookupError("avoid callback failed")
        return -10.0 if trap is not None and np.array_equal(d, trap) else 1.0

    def block(x, D):
        return np.array([value(d) for d in D]), np.tile(east, (len(D), 1))

    avoid = BarrierFunction(lambda x, d: value(d), lambda x, d: east,
                            batch=block if batch else None)
    reach = BarrierFunction(lambda x, d: -1.0, lambda x, d: np.asarray(d, dtype=float) - target)
    return ContinuousScenario(
        dynamics=ContinuousDynamics(lambda x, d: np.zeros(2), lambda x, d: np.eye(2), reads=()),
        spec=ReachAvoidSpec(reach=reach, avoid=(avoid,), gains=(ClassKappaFn(1.0),)),
        input_polytope=Polytope.box([-1.0, -1.0], [1.0, 1.0]),
        test_space=BoxSpace(-np.ones(2), np.ones(2)),
        state_lower=-np.ones(2),
        state_upper=np.ones(2),
        floor=-1.0,
    )


# From the 5-point grid's best test (0.5, 0), the first plan's rounds move
# by 0.5, 0.25, 0.125, ...  Towards (0.3, -0.2) its second round improves,
# so its third, which holds (0.375, 0), is dropped, and the reference never
# evaluates that test.  Towards (0.5, 0) no round improves.
PLANNED_CASES = {
    "improving-round": ((0.3, -0.2), None, None),
    "gamma-in-a-later-planned-round": ((0.5, 0.0), (0.375, 0.0), None),
    "gamma-after-an-improving-round": ((0.3, -0.2), (0.25, -0.25), None),
    "gamma-in-a-dropped-round": ((0.3, -0.2), (0.375, 0.0), None),
    "raise-in-a-dropped-round": ((0.3, -0.2), None, (0.375, 0.0)),
    "raise-where-the-reference-raises": ((0.5, 0.0), None, (0.375, 0.0)),
}


@pytest.mark.parametrize("batch", [True, False], ids=["blocks", "one-by-one"])
@pytest.mark.parametrize("case", sorted(PLANNED_CASES))
def test_planned_rounds_match_one_round_at_a_time(monkeypatch, case, batch):
    target, trap, raises = PLANNED_CASES[case]
    scn = target_scenario(target, trap, raises, batch)
    search = SearchConfig(grid_points=5, refine_iterations=40)
    x = np.zeros(2)
    planned, evaluated, scalar = set(), set(), []
    real_compass, real_difficulty, real_lp = continuous._compass, continuous.difficulty, continuous.solve_lp

    def compass(*args):
        moves, counts = real_compass(*args)
        planned.update(tuple(c) for c in moves)
        return moves, counts

    def evaluate(scn, x, d, *rest):
        evaluated.add(tuple(d))
        return real_difficulty(scn, x, d, *rest)

    monkeypatch.setattr(continuous, "_compass", compass)
    monkeypatch.setattr(continuous, "difficulty", evaluate)
    if case == "raise-where-the-reference-raises":
        for scan in (continuous._synthesize_over, reference_synthesize_over):
            with monkeypatch.context() as m:
                m.setattr(continuous, "_synthesize_over", scan)
                with pytest.raises(LookupError, match="avoid callback failed"):
                    synthesize(scn, x, search=search)
        return

    def solve_lp(problem):
        # only an on-the-spot polytope has a negative right-hand side
        if (problem.constraints.b < 0).any():
            scalar.append(problem)
        return real_lp(problem)

    monkeypatch.setattr(continuous, "solve_lp", solve_lp)
    got = synthesize(scn, x, search=search)
    on_the_spot = len(scalar)
    _, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
    assert_same_result(got, want)
    assert np.asarray(got.d_star).tobytes() == np.asarray(want.d_star).tobytes()
    assert want.in_gamma == (trap is not None and "dropped" not in case)
    assert want.evaluations > 25 + 4  # every case reaches the compass rounds
    # only the trap has a negative right-hand side, and the planned scan
    # solves it on the spot only where the reference evaluates it
    assert on_the_spot == (trap in evaluated)
    if "dropped" in case:
        point = (0.375, 0.0)
        assert point in planned and point not in evaluated


@pytest.mark.parametrize(
    "target,trap,folded,want",
    [
        ((0.3, -0.2), None, 2, ((0.25, 0.0), 0.25)),
        ((0.5, 0.0), None, 3, ((0.375, 0.0), 0.125)),
        ((0.3, -0.2), (0.0, 0.0), 0, None),
    ],
    ids=["round-2-improves", "no-round-improves", "gamma-in-round-1"],
)
def test_scan_stops_at_the_first_improving_round(target, trap, folded, want):
    # a three-round plan from (0.5, 0), steps 0.5, 0.25 and 0.125: the scan
    # folds rounds until one beats the current value and returns the last
    # folded round's hardest test; a test in Γ returns before any fold
    scn, x, d_cur = target_scenario(target, trap), np.zeros(2), np.array([0.5, 0.0])
    floor = satisfaction_floor(scn)
    cache = core.LieCache(scn.spec, scn.dynamics, x, scn.input_polytope.dim)
    bar, _ = continuous.difficulty(scn, x, d_cur, floor)
    steps = np.array([[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]])
    moves, counts = continuous._compass(d_cur, steps, scn.test_space.lower, scn.test_space.upper)
    ends = np.cumsum(counts).tolist()
    gamma, got_folded, (d, val, u) = continuous._scan(scn, moves, ends, floor, 25, cache, bar)
    assert got_folded == folded
    if want is None:
        assert gamma.in_gamma and tuple(gamma.d_star) == trap and gamma.evaluations == 26
        assert (d, val, u) == (None, math.inf, None)
        return
    assert gamma is None
    assert tuple(d) == want[0] and val == pytest.approx(want[1])
    want_val, want_u = continuous.difficulty(scn, x, d, floor)
    assert val == want_val and np.array_equal(u, want_u)


def test_planned_rounds_match_reference_without_batch(monkeypatch):
    # blocks of one on the two-obstacle unicycle: rows one candidate at a
    # time, a plan's held LPs still folded as one scan
    scn = without_batch(build_unicycle(n_obstacles=2))
    search = SearchConfig(grid_points=3, refine_iterations=40)
    refined = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in seeded_states(scn, 31, 16):
            got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=search))
            assert_same_result(got, want)
            refined += want.evaluations > 3 ** 4
    assert refined


def test_plans_after_an_improving_round_stay_short(monkeypatch):
    # with no step tolerance every synthesis runs all 40 rounds, about half
    # of them improving; beyond the first plan (at most 40 rounds) dropped
    # rounds number at most twice the 40 used.  Replanning every remaining
    # round after each improvement planned 339 to 430 here.
    planned = []
    real_compass = continuous._compass

    def compass(*args):
        moves, counts = real_compass(*args)
        planned.extend(counts)  # one entry per planned round
        return moves, counts

    monkeypatch.setattr(continuous, "_compass", compass)
    search = SearchConfig(grid_points=5, refine_iterations=40, step_tolerance=0.0)
    for target in [(0.3, -0.2), (-0.61, 0.37), (0.123, 0.877)]:
        del planned[:]
        got, want = both_scans(monkeypatch, lambda: synthesize(target_scenario(target), np.zeros(2),
                                                                search=search))
        assert_same_result(got, want)
        assert len(planned) <= 40 + 40 + 2 * 40


@pytest.mark.parametrize("step_tolerance", [1e-4, 0.0])
def test_huge_round_limit_stops_on_the_step_tolerance(monkeypatch, step_tolerance):
    # a round limit far past any step halving means "stop on the step
    # tolerance": plans end where the step does, so no plan is sized by
    # the limit (10**12 rows of steps would not fit in memory)
    scn, x = target_scenario((0.3, -0.2)), np.zeros(2)
    moderate = SearchConfig(grid_points=5, refine_iterations=5000, step_tolerance=step_tolerance)
    huge = dataclasses.replace(moderate, refine_iterations=10 ** 12)
    got, want = both_scans(monkeypatch, lambda: synthesize(scn, x, search=huge))
    assert_same_result(got, want)
    assert_same_result(got, synthesize(scn, x, search=moderate))
    assert got.evaluations > 25 + 4
