import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest

from advsynth import (
    BarrierFunction,
    BoxSpace,
    BudgetError,
    ClassKappaFn,
    DiscreteDynamics,
    DiscreteScenario,
    FiniteSpace,
    MappedSpace,
    ReachAvoidSpec,
    build_gridworld,
    feasible_sequences,
    grid_step,
    one_step_difficulty,
    predictive_difficulty,
    solve_reward,
    synthesize_discrete,
    synthesize_discrete_constrained,
    synthesize_predictive,
)
from advsynth import discrete


def blocked_scenario(floor=-3.0):
    """Every action violates the single avoid barrier: the fallback branch
    is the only possible outcome."""
    dyn = DiscreteDynamics(step=lambda x, u: x, alphabet=("a", "b"))
    spec = ReachAvoidSpec(
        reach=BarrierFunction(value=lambda x, d: 0.0),
        avoid=(BarrierFunction(value=lambda x, d: -1.0),),
        gains=(ClassKappaFn(1.0),),
    )
    return DiscreteScenario(
        dynamics=dyn,
        spec=spec,
        test_space=FiniteSpace(((0,), (1,))),
        floor=floor,
    )


def increment(scn, x, u, d):
    """Reach increment of action u at (x, d): the N = 1 difficulty of the
    scenario cut down to that one action and no avoid barrier."""
    alone = dataclasses.replace(
        scn,
        dynamics=DiscreteDynamics(step=scn.dynamics.step, alphabet=(u,)),
        spec=ReachAvoidSpec(reach=scn.spec.reach, avoid=(), gains=()),
    )
    val, seq = predictive_difficulty(alone, x, d, floor=-15.0, n_steps=1)
    assert seq == (u,)
    return val


def safe_actions(scn, x, d):
    """Safe actions at (x, d) as 1-tuples, by the N = 1 feasibility rule."""
    return feasible_sequences(scn.spec, scn.dynamics, x, d, 1)


def test_increment_stay_is_zero(gridworld79):
    for x in [(0, 0), (3, 5), (9, 9)]:
        for d in [(5, 5), (7, 9), (0, 0)]:
            assert increment(gridworld79, x, "stay", d) == 0.0


def test_increment_matches_reward_difference(gridworld79):
    rg = solve_reward((7, 9), (5, 5)).modified
    got = increment(gridworld79, (3, 5), "right", (5, 5))
    # the -10 shifts cancel mathematically, not bit for bit
    assert got == pytest.approx(rg[4, 5] - rg[3, 5], abs=1e-12)


def test_increment_boundary_selfloop(gridworld79):
    assert increment(gridworld79, (9, 5), "right", (5, 5)) == 0.0


def test_feasible_inputs_far_obstacle(gridworld79):
    assert safe_actions(gridworld79, (3, 5), (8, 1)) == tuple(
        (u,) for u in gridworld79.dynamics.alphabet
    )


def test_feasible_inputs_blocked_direction(gridworld79):
    feas = safe_actions(gridworld79, (3, 5), (4, 5))
    assert feas == (("left",), ("up",), ("down",), ("stay",))  # alphabet order


def test_feasible_inputs_no_avoid_barriers(gridworld79):
    spec = ReachAvoidSpec(reach=gridworld79.spec.reach, avoid=(), gains=())
    assert feasible_sequences(spec, gridworld79.dynamics, (3, 5), (4, 5), 1) == tuple(
        (u,) for u in gridworld79.dynamics.alphabet
    )


def test_one_step_difficulty_obstacle_on_goal(gridworld79):
    val, u = one_step_difficulty(gridworld79, (3, 5), (7, 9), floor=-15.0)
    assert val == 0.0
    assert u == "stay"


def test_one_step_difficulty_far_obstacle_positive(gridworld79):
    val, u = one_step_difficulty(gridworld79, (3, 5), (0, 0), floor=-15.0)
    assert val > 0.0
    assert u in gridworld79.dynamics.alphabet


def test_one_step_difficulty_all_blocked_returns_floor():
    scn = blocked_scenario(floor=-3.0)
    val, u = one_step_difficulty(scn, (0,), (0,), floor=-3.0)
    assert val == -3.0 and u is None


def test_synthesize_discrete_places_obstacle_on_goal(gridworld79):
    res = synthesize_discrete(gridworld79, (3, 5))
    assert res.d_star == (7, 9)
    assert res.difficulty == 0.0
    assert not res.in_gamma


def test_synthesize_discrete_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        while True:
            x = tuple(int(v) for v in rng.integers(0, 10, 2))
            g = tuple(int(v) for v in rng.integers(0, 10, 2))
            if x != g:
                break
        scn = build_gridworld(g)
        res = synthesize_discrete(scn, x)
        assert res.d_star == g
        assert res.difficulty == 0.0


def test_synthesize_discrete_singleton():
    scn = build_gridworld((7, 9))
    import dataclasses

    scn = dataclasses.replace(scn, test_space=FiniteSpace(((2, 2),)))
    res = synthesize_discrete(scn, (3, 5))
    assert res.d_star == (2, 2)


def test_synthesize_discrete_early_exit_flag():
    scn = blocked_scenario()
    res = synthesize_discrete(scn, (0,))
    assert res.in_gamma and res.early_exit
    assert res.difficulty == -3.0
    assert res.evaluations == 1


def test_exactness_against_double_loop(gridworld79):
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        res = synthesize_discrete(gridworld79, x)
        # independent double loop over the same candidate set
        best = None
        for d in gridworld79.test_space.points:
            feas = [
                u
                for u in gridworld79.dynamics.alphabet
                if gridworld79.spec.avoid[0].value(gridworld79.dynamics.step(x, u), d) >= 0
            ]
            if feas:
                val = max(
                    gridworld79.spec.reach.value(gridworld79.dynamics.step(x, u), d)
                    - gridworld79.spec.reach.value(x, d)
                    for u in feas
                )
            else:
                val = -15.0
            best = val if best is None else min(best, val)
        assert res.difficulty == best


def test_feasible_sequences_n1_matches_inputs(gridworld79):
    dyn, avoid = gridworld79.dynamics, gridworld79.spec.avoid[0]
    for x in [(3, 5), (0, 0), (9, 9)]:
        for d in [(4, 5), (0, 0), (7, 9), (9, 8)]:
            # the safe actions, checked directly on each successor
            want = tuple((u,) for u in dyn.alphabet if avoid.value(dyn.step(x, u), d) >= 0)
            for check_path in (False, True):
                got = feasible_sequences(gridworld79.spec, dyn, x, d, 1, check_path)
                assert got == want


def test_feasible_sequences_terminal_only(gridworld79):
    spec, dyn = gridworld79.spec, gridworld79.dynamics
    seqs = feasible_sequences(spec, dyn, (3, 5), (5, 5), 2)
    assert ("right", "right") not in seqs  # terminal state is the obstacle
    assert ("right", "left") in seqs       # passes through (4,5), ends safe
    # one cell away: the default permits passing through the obstacle
    near = feasible_sequences(spec, dyn, (3, 5), (4, 5), 2)
    assert ("right", "left") in near
    strict = feasible_sequences(spec, dyn, (3, 5), (4, 5), 2, check_path=True)
    assert ("right", "left") not in strict


def test_check_path_rejects_a_nan_avoid_value_as_the_terminal_rule_does():
    # "go" reaches state 1, whose avoid value is NaN: not >= 0, so neither
    # rule may keep it
    dyn = DiscreteDynamics(step=lambda x, u: 1 if u == "go" else x, alphabet=("go", "stay"))
    spec = ReachAvoidSpec(
        reach=BarrierFunction(value=lambda x, d: 0.0),
        avoid=(BarrierFunction(value=lambda x, d: float("nan") if x == 1 else 1.0),),
        gains=(ClassKappaFn(1.0),),
    )
    for check_path in (False, True):
        assert feasible_sequences(spec, dyn, 0, (), 1, check_path) == (("stay",),)
    assert feasible_sequences(spec, dyn, 0, (), 2, check_path=True) == (("stay", "stay"),)


def test_nan_reach_value_raises_instead_of_reporting_gamma():
    # both actions are safe at both tests, but the reach value is NaN at
    # test 1, so every increment there is NaN and none would be kept
    dyn = DiscreteDynamics(step=lambda x, u: x + u, alphabet=(0, 1))
    spec = ReachAvoidSpec(
        reach=BarrierFunction(value=lambda x, d: float("nan") if d == (1,) else float(x)),
        avoid=(BarrierFunction(value=lambda x, d: 1.0),),
        gains=(ClassKappaFn(1.0),),
    )
    scn = DiscreteScenario(dynamics=dyn, spec=spec, test_space=FiniteSpace(((0,), (1,))),
                           floor=-9.0)
    assert predictive_difficulty(scn, 0, (0,), -9.0, 1) == (1.0, (1,))
    with pytest.raises(ValueError, match="reach barrier values must be finite"):
        predictive_difficulty(scn, 0, (1,), -9.0, 1)
    with pytest.raises(ValueError, match="reach barrier values must be finite"):
        synthesize_discrete(scn, 0)


@pytest.mark.parametrize("state", [(3, 5, 1), (3,), (12, 5), (-1, 5)])
def test_gridworld_entry_points_reject_a_state_that_is_not_a_cell(gridworld79, state):
    spec, dyn = gridworld79.spec, gridworld79.dynamics
    calls = [
        lambda: synthesize_discrete(gridworld79, state),
        lambda: predictive_difficulty(gridworld79, state, (5, 5), -15.0, 1),
        lambda: feasible_sequences(spec, dyn, state, (5, 5), 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="state must be a pair of integers in 0..9"):
            call()


def test_predictive_difficulty_walks_each_sequence_once(gridworld79):
    steps = []

    def counted(x, u):
        steps.append(u)
        return grid_step(x, u)

    scn = dataclasses.replace(
        gridworld79, dynamics=DiscreteDynamics(step=counted, alphabet=gridworld79.dynamics.alphabet)
    )
    # a far obstacle, one next to the agent, and the agent's own cell
    for d in [(0, 0), (4, 5), (3, 5)]:
        steps.clear()
        predictive_difficulty(scn, (3, 5), d, -15.0, 2)
        assert len(steps) == 25 * 2


def test_feasible_sequences_no_avoid(gridworld79):
    spec = ReachAvoidSpec(reach=gridworld79.spec.reach, avoid=(), gains=())
    assert len(feasible_sequences(spec, gridworld79.dynamics, (3, 5), (4, 5), 2)) == 25


def test_predictive_n1_coincides(gridworld79):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        a = synthesize_discrete(gridworld79, x)
        b = synthesize_predictive(gridworld79, x, n_steps=1)
        assert a.d_star == b.d_star
        assert a.difficulty == b.difficulty


def test_predictive_n2_obstacle_on_goal(gridworld79):
    res = synthesize_predictive(gridworld79, (3, 5), n_steps=2)
    assert res.d_star == (7, 9)
    assert res.difficulty == 0.0


def test_predictive_two_step_reach_value():
    scn = build_gridworld((5, 5))
    rg = solve_reward((5, 5), (0, 0)).modified
    # goal two cells right of the agent, obstacle far off the path: the best
    # two-step increment lands on the goal
    val, seq = predictive_difficulty(scn, (3, 5), (0, 0), floor=-15.0, n_steps=2)
    assert val == pytest.approx(rg[5, 5] - rg[3, 5], abs=1e-12)
    assert functools.reduce(grid_step, seq, (3, 5)) == (5, 5)


def test_predictive_matches_triple_loop(gridworld79):
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        res = synthesize_predictive(gridworld79, x, n_steps=2)
        best = None
        for d in gridworld79.test_space.points:
            vals = []
            for seq in itertools.product(gridworld79.dynamics.alphabet, repeat=2):
                term = gridworld79.dynamics.step(gridworld79.dynamics.step(x, seq[0]), seq[1])
                if gridworld79.spec.avoid[0].value(term, d) >= 0:
                    vals.append(
                        gridworld79.spec.reach.value(term, d)
                        - gridworld79.spec.reach.value(x, d)
                    )
            val = max(vals) if vals else -15.0
            best = val if best is None else min(best, val)
        assert res.difficulty == best


def test_predictive_budget_rejected(gridworld79, monkeypatch):
    monkeypatch.setattr(discrete, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetError, match="needs 2500 sequence evaluations but the budget is 100"):
        synthesize_predictive(gridworld79, (3, 5), n_steps=2)
    assert issubclass(BudgetError, ValueError)


def test_one_step_difficulty_is_predictive_at_n1(gridworld79):
    rng = np.random.default_rng(41)
    for _ in range(30):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        d = tuple(int(v) for v in rng.integers(0, 10, 2))
        val, u = one_step_difficulty(gridworld79, x, d, floor=-15.0)
        want_val, seq = predictive_difficulty(gridworld79, x, d, floor=-15.0, n_steps=1)
        assert val == want_val
        assert u == (None if seq is None else seq[0])
    blocked = blocked_scenario()
    assert predictive_difficulty(blocked, (0,), (0,), floor=-3.0, n_steps=1) == (-3.0, None)


def test_every_entry_point_takes_only_an_integer_horizon_of_at_least_one(gridworld79):
    # one rule everywhere: a fractional horizon is neither truncated nor
    # left to fail inside itertools.product
    x, d = (3, 5), (4, 5)
    entry_points = {
        "DiscreteScenario": lambda n: dataclasses.replace(gridworld79, horizon=n),
        "build_gridworld": lambda n: build_gridworld((7, 9), horizon=n),
        "synthesize_discrete": lambda n: synthesize_discrete(gridworld79, x, n_steps=n),
        "synthesize_discrete_constrained":
            lambda n: synthesize_discrete_constrained(gridworld79, x, 0.0, n_steps=n),
        "predictive_difficulty":
            lambda n: predictive_difficulty(gridworld79, x, d, floor=-15.0, n_steps=n),
        "feasible_sequences":
            lambda n: feasible_sequences(gridworld79.spec, gridworld79.dynamics, x, d, n),
    }
    for name, call in entry_points.items():
        for n in (2.9, 2.5, 0, 1.5):
            with pytest.raises(ValueError, match=r"^prediction horizon must be an integer >= 1"):
                call(n)
        assert call(np.int64(2)) is not None, name
    want = synthesize_discrete(gridworld79, x, n_steps=2)
    got = synthesize_discrete(gridworld79, x, n_steps=np.int64(2))
    assert (got.d_star, got.difficulty, got.inner_maximizer) == (
        want.d_star, want.difficulty, want.inner_maximizer
    )


def test_synthesize_discrete_plans_over_scenario_horizon(monkeypatch):
    # with the goal left out of the tests, one and two steps disagree
    cells = ((4, 4), (2, 6), (3, 6))
    one = dataclasses.replace(build_gridworld((7, 9)), test_space=FiniteSpace(cells))
    two = dataclasses.replace(one, horizon=2)
    for x in [(3, 5), (0, 0), (8, 9)]:
        got = synthesize_discrete(two, x)
        want = synthesize_predictive(one, x, n_steps=2)
        assert (got.d_star, got.difficulty, got.inner_maximizer) == (
            want.d_star, want.difficulty, want.inner_maximizer
        )
        assert len(got.inner_maximizer) == 2
        assert len(synthesize_discrete(one, x).inner_maximizer) == 1
    assert synthesize_discrete(two, (3, 5)).difficulty != synthesize_discrete(one, (3, 5)).difficulty
    monkeypatch.setattr(discrete, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetError):
        synthesize_discrete(two, (3, 5))


def test_floor_property_over_evaluations(gridworld79):
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        d = tuple(int(v) for v in rng.integers(0, 10, 2))
        val, _ = one_step_difficulty(gridworld79, x, d, floor=-15.0)
        assert val >= -15.0
        val2, _ = predictive_difficulty(gridworld79, x, d, floor=-15.0, n_steps=2)
        assert val2 >= -15.0


def test_stay_bound_and_global_minimum(gridworld79):
    rng = np.random.default_rng(37)
    for _ in range(20):
        x = tuple(int(v) for v in rng.integers(0, 10, 2))
        d = tuple(int(v) for v in rng.integers(0, 10, 2))
        if x == d:
            continue
        assert ("stay",) in safe_actions(gridworld79, x, d)
        val, _ = one_step_difficulty(gridworld79, x, d, floor=-15.0)
        assert val >= 0.0


def random_pairs(rng, count):
    """``count`` (goal, state) pairs of random cells; the two may coincide."""
    return [tuple(tuple(int(v) for v in rng.integers(0, 10, 2)) for _ in range(2))
            for _ in range(count)]


def test_gridworld_lower_bound_is_sound():
    # on sampled tests other than the agent's cell, at N = 1 and 2 and under
    # both screening rules: some sequence is safe, and the difficulty is at
    # least the declared bound
    rng = np.random.default_rng(41)
    sampled = near_bound = 0
    while sampled < 200:
        (goal, x), = random_pairs(rng, 1)
        d = tuple(int(v) for v in rng.integers(0, 10, 2))
        if d == x:
            continue
        sampled += 1
        scn = build_gridworld(goal)
        bound = scn.lower_bound(x, d)
        for n_steps, check_path in itertools.product((1, 2), (False, True)):
            val, seq = predictive_difficulty(scn, x, d, scn.floor, n_steps, check_path)
            assert seq is not None
            assert val >= bound
            near_bound += 0.0 <= val < 0.1
    # tests within 0.1 of the bound, so a bound raised to 0.1 fails above
    assert near_bound > 0
    assert build_gridworld((7, 9)).lower_bound((3, 5), (3.0, 5.0)) == -math.inf


def result_fields(res):
    return tuple(getattr(res, f.name) for f in dataclasses.fields(res))


def assert_pruning_exact(scn, x, *args):
    """The scan with ``scn``'s lower bound gives the result of the full scan
    on every field."""
    full = dataclasses.replace(scn, lower_bound=None)
    assert (result_fields(synthesize_discrete_constrained(scn, x, 0.0, *args))
            == result_fields(synthesize_discrete_constrained(full, x, 0.0, *args)))


def test_bounded_scan_matches_the_full_scan():
    rng = np.random.default_rng(43)
    for goal, x in random_pairs(rng, 200):
        assert_pruning_exact(build_gridworld(goal), x)
    for goal, x in random_pairs(rng, 30):
        for check_path in (False, True):
            assert_pruning_exact(build_gridworld(goal, horizon=2), x, 2, check_path)


def test_bounded_scan_matches_the_full_scan_without_the_goal():
    # the tests of test_constrained_excluding_goal: no test reaches 0.0
    # first, so the bound of 0.0 finds nothing to skip
    rng = np.random.default_rng(47)
    for goal, x in [((7, 9), (3, 5))] + random_pairs(rng, 20):
        scn = build_gridworld(goal)
        allowed = FiniteSpace(tuple(c for c in scn.test_space.points if c != goal))
        mapped = dataclasses.replace(scn, test_space=MappedSpace(lambda x, t: allowed))
        assert_pruning_exact(mapped, x)
        assert_pruning_exact(mapped, x, 2, True)


def test_bounded_tests_are_counted_but_not_evaluated(gridworld79, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return predictive_difficulty(*args)

    monkeypatch.setattr(discrete, "predictive_difficulty", counted)
    bounded = synthesize_discrete(gridworld79, (3, 5))
    # the goal leads at 0.0 and every other test but the agent's cell is
    # bounded by 0.0
    assert calls == [(7, 9), (3, 5)]
    assert bounded.evaluations == 100
    for no_bound in (None, lambda x, d: math.nan):
        calls.clear()
        res = synthesize_discrete(dataclasses.replace(gridworld79, lower_bound=no_bound), (3, 5))
        assert len(calls) == 100
        assert result_fields(res) == result_fields(bounded)


def test_monotone_feasibility(gridworld79):
    extra = BarrierFunction(value=lambda x, d: (1.0 if x[0] >= 2 else -1.0))
    spec = gridworld79.spec
    wider = ReachAvoidSpec(
        reach=spec.reach,
        avoid=spec.avoid + (extra,),
        gains=spec.gains + (spec.gains[0],),
    )
    for x in [(2, 2), (3, 5), (0, 9)]:
        for d in [(5, 5), (2, 3)]:
            small = set(feasible_sequences(wider, gridworld79.dynamics, x, d, 1))
            big = set(feasible_sequences(spec, gridworld79.dynamics, x, d, 1))
            assert small <= big
            seq_small = set(feasible_sequences(wider, gridworld79.dynamics, x, d, 2))
            seq_big = set(feasible_sequences(spec, gridworld79.dynamics, x, d, 2))
            assert seq_small <= seq_big


def test_constrained_constant_map_matches(gridworld79):
    import dataclasses

    mapped = dataclasses.replace(
        gridworld79, test_space=MappedSpace(lambda x, t: gridworld79.test_space)
    )
    a = synthesize_predictive(gridworld79, (3, 5), n_steps=1)
    b = synthesize_discrete_constrained(mapped, (3, 5), 0.0, n_steps=1)
    assert a.d_star == b.d_star and a.difficulty == b.difficulty


def test_constrained_excluding_goal(gridworld79):
    import dataclasses

    allowed = tuple(c for c in gridworld79.test_space.points if c != (7, 9))
    mapped = dataclasses.replace(
        gridworld79, test_space=MappedSpace(lambda x, t: FiniteSpace(allowed))
    )
    res = synthesize_discrete_constrained(mapped, (3, 5), 0.0)
    assert res.d_star != (7, 9)
    brute = min(
        one_step_difficulty(gridworld79, (3, 5), d, floor=-15.0)[0] for d in allowed
    )
    assert res.difficulty == brute


def test_constrained_singleton(gridworld79):
    import dataclasses

    mapped = dataclasses.replace(
        gridworld79, test_space=MappedSpace(lambda x, t: FiniteSpace(((4, 4),)))
    )
    res = synthesize_discrete_constrained(mapped, (3, 5), 0.0)
    assert res.d_star == (4, 4)


def test_scenario_validation():
    with pytest.raises(ValueError):
        DiscreteScenario(
            dynamics=DiscreteDynamics(step=lambda x, u: x, alphabet=("a",)),
            spec=ReachAvoidSpec(
                reach=BarrierFunction(value=lambda x, d: 0.0), avoid=(), gains=()
            ),
            test_space=FiniteSpace(((0,),)),
            horizon=0,
        )


BOX = BoxSpace([0.0, 0.0], [9.0, 9.0])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda scn: dataclasses.replace(scn, test_space=BOX), ValueError,
         "discrete scenarios need a finite or mapped test space"),
        (lambda scn: synthesize_discrete(
            dataclasses.replace(scn, test_space=MappedSpace(lambda x, t: scn.test_space)), (3, 5)),
         ValueError, "scenario has a mapped test space; use synthesize_discrete_constrained"),
        (lambda scn: synthesize_discrete_constrained(
            dataclasses.replace(scn, test_space=MappedSpace(lambda x, t: BOX)), (3, 5), 0.0),
         ValueError, "discrete synthesis needs a finite realized test set"),
    ],
    ids=["box-space", "mapped-space", "realized-box"],
)
def test_invalid_discrete_input_raises(gridworld79, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(gridworld79)
