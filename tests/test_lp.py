import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from advsynth import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    LpProblem,
    Polytope,
    blocks_all_inputs,
    cli,
    continuous,
    core,
    lp,
    phase_one_feasible,
    scenarios,
    solve_lp,
)
from conftest import (
    reference_phase_one,
    assert_same_outcome,
    reference_phase_one_feasible,
    reference_solve_lp,
)


def brute_force_vertices(poly):
    """Independent oracle: intersect every dim-subset of rows as equalities,
    keep the feasible solutions.  Written apart from the solver on purpose."""
    m = poly.A.shape[1]
    found = []
    for idx in itertools.combinations(range(poly.A.shape[0]), m):
        sub = poly.A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, poly.b[list(idx)])
        if np.all(poly.A @ v <= poly.b + 1e-9):
            if not any(np.allclose(v, w, atol=1e-9) for w in found):
                found.append(v)
    return found


def stack(A, b, inputs):
    """The rows ``A u <= b`` stacked above ``inputs``'s, as a checked
    polytope."""
    return Polytope(np.vstack([A, inputs.A]), np.concatenate([b, inputs.b]))


def stacked_outcome(c, A, b, inputs):
    """``lp.maximize_stacked`` of ``c`` over the rows ``A u <= b`` stacked
    above ``inputs``, given as arrays, as the outcome ``solve_lp`` gives:
    the value is ``float(c @ u)``."""
    c = np.asarray(c, dtype=float)
    A, b = np.asarray(A, dtype=float).reshape(-1, inputs.dim), np.asarray(b, dtype=float)
    status, u = lp.maximize_stacked(c.tolist(), A.tolist(), b.tolist(), inputs)
    return LpOutcome(status) if u is None else LpOutcome(status, float(c @ u), u)


def random_bounded_problem(rng):
    m = int(rng.integers(2, 5))
    box = Polytope.box(-np.ones(m), np.ones(m))
    extra = int(rng.integers(0, 4))
    rows = [box.A]
    rhs = [box.b]
    for _ in range(extra):
        a = rng.uniform(-1, 1, size=m)
        rows.append(a[None, :])
        rhs.append(np.array([rng.uniform(-0.5, 1.0)]))
    poly = Polytope(np.vstack(rows), np.concatenate(rhs))
    c = rng.uniform(-1, 1, size=m)
    return LpProblem(c, poly)


def test_box_corner_exact():
    out = solve_lp(LpProblem(np.array([1.0, 1.0]), Polytope.box([-1, -1], [1, 1])))
    assert out.status == OPTIMAL
    assert out.value == 2.0
    assert np.array_equal(out.point, np.array([1.0, 1.0]))


def test_contradictory_halfspaces_infeasible():
    poly = Polytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert solve_lp(LpProblem(np.array([0.3]), poly)).status == INFEASIBLE
    assert not phase_one_feasible(poly)
    assert blocks_all_inputs(poly)


def test_contradictory_box_rows_empty():
    box = Polytope.box([-1.0], [1.0])
    extra = Polytope(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))
    assert blocks_all_inputs(stack(box.A, box.b, extra))
    assert stacked_outcome([0.3], box.A, box.b, extra).status == INFEASIBLE


def test_unit_box_feasible():
    assert phase_one_feasible(Polytope.box([-1, -1], [1, 1]))
    assert not blocks_all_inputs(Polytope.box([-1, -1], [1, 1]))


def test_unbounded_ray():
    poly = Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert solve_lp(LpProblem(np.array([0.0, 1.0]), poly)).status == UNBOUNDED


def test_no_rows_zero_objective():
    # no row: Phase-I is feasible and Phase-II finds no leaving row, so an
    # objective with an entry past the reduced-cost tolerance is UNBOUNDED
    # and any other is OPTIMAL at u = 0, as with rows that leave u free
    poly = Polytope(np.zeros((0, 3)), np.zeros(0))
    for c in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1e-10, -1e-10, 0.0]):
        problem = LpProblem(np.array(c), poly)
        out = solve_lp(problem)
        assert out.status == OPTIMAL and out.value == 0.0 and not np.signbit(out.value)
        assert np.array_equal(out.point, np.zeros(3)) and not np.signbit(out.point).any()
        assert_same_outcome(out, reference_solve_lp(problem))
    free = Polytope(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    assert solve_lp(LpProblem(np.array([0.0, 1e-10, 0.0]), free)).status == OPTIMAL
    for c in ([1.0, 0.0, 0.0], [0.0, 0.0, -2.0]):
        assert solve_lp(LpProblem(np.array(c), poly)).status == UNBOUNDED
    assert poly.contains(np.array([5.0, -1.0, 0.0]))
    assert phase_one_feasible(poly) and not blocks_all_inputs(poly)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        LpProblem(np.array([np.nan, 1.0]), Polytope.box([-1, -1], [1, 1]))
    with pytest.raises(ValueError):
        Polytope(np.array([[np.inf]]), np.array([1.0]))


def test_negative_rhs_needs_phase_one():
    # feasible region is the shifted box [2, 3]^2, all rhs rows force u >= 2
    poly = Polytope(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([3.0, 3.0, -2.0, -2.0]),
    )
    out = solve_lp(LpProblem(np.array([-1.0, -1.0]), poly))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(out.point, [2.0, 2.0], atol=1e-9)


def test_nonnegative_rhs_is_never_infeasible():
    # the continuous scan holds back the LPs of such polytopes until no
    # test blocks, because u = 0 lies in them and Phase-I needs no pivot
    rng = np.random.default_rng(31)
    for _ in range(300):
        rows = int(rng.integers(1, 8))
        A = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-6, 7, size=(rows, 1))
        b = np.abs(rng.normal(size=rows)) * 10.0 ** rng.integers(-9, 4, size=rows)
        b[rng.random(rows) < 0.3] = 0.0
        b[rng.random(rows) < 0.1] = -0.0
        box = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        assert phase_one_feasible(stack(A, b, box))
        assert stacked_outcome(rng.normal(size=2), A, b, box).status == OPTIMAL


def test_random_instances_match_vertex_oracle():
    rng = np.random.default_rng(42)
    checked_feasible = 0
    for _ in range(100):
        prob = random_bounded_problem(rng)
        out = solve_lp(prob)
        verts = brute_force_vertices(prob.constraints)
        feasible = phase_one_feasible(prob.constraints)
        # solve_lp and the Phase-I verdict must agree on every instance
        assert (out.status == OPTIMAL) == feasible
        if not feasible:
            assert not verts
            continue
        checked_feasible += 1
        oracle = max(float(prob.objective @ v) for v in verts)
        assert abs(out.value - oracle) <= 1e-6
        # returned point satisfies the constraints and reproduces the value
        assert np.all(prob.constraints.A @ out.point <= prob.constraints.b + 1e-8)
        assert abs(float(prob.objective @ out.point) - out.value) <= 1e-9
    assert checked_feasible >= 50  # the sampler must not degenerate


def test_determinism_including_point():
    rng = np.random.default_rng(7)
    for _ in range(20):
        prob = random_bounded_problem(rng)
        first = solve_lp(prob)
        second = solve_lp(prob)
        assert first.status == second.status
        if first.status == OPTIMAL:
            assert first.value == second.value
            assert np.array_equal(first.point, second.point)


def test_degenerate_ties_are_deterministic():
    # square box, objective along a face: many optimal vertices
    prob = LpProblem(np.array([1.0, 0.0]), Polytope.box([-1, -1], [1, 1]))
    pts = {tuple(solve_lp(prob).point) for _ in range(5)}
    assert len(pts) == 1
    assert solve_lp(prob).value == 1.0


def test_emptiness_monotone_under_added_rows():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 6))
        poly = Polytope(rng.uniform(-1, 1, size=(rows, m)), rng.uniform(-0.3, 0.5, size=rows))
        extra = Polytope(rng.uniform(-1, 1, size=(2, m)), rng.uniform(-0.3, 0.5, size=2))
        if blocks_all_inputs(poly):
            assert blocks_all_inputs(stack(poly.A, poly.b, extra))


def test_outcome_dataclass_defaults():
    out = LpOutcome(INFEASIBLE)
    assert out.value is None and out.point is None


# ---------------------------------------------------------------------------
# the list kernel against its numpy reference (conftest.py), bit for bit

def random_program(rng):
    """One program for the kernel differential: 1-4 variables and 1-12
    random rows of mixed scales, then, each with its own chance, rounded
    coefficients (ties and degenerate vertices), right-hand sides all >= 0
    (as the scan holds them), zero and -0.0 right-hand sides, a zero
    objective and a box under the rows.  Returns the program and whether
    it was rounded."""
    n, r = int(rng.integers(1, 5)), int(rng.integers(1, 13))
    A = rng.normal(size=(r, n)) * 10.0 ** rng.integers(-3, 4, size=(r, 1))
    b = rng.normal(size=r) * 10.0 ** rng.integers(-3, 2, size=r)
    if rng.random() < 0.5:
        b = np.abs(b)
    c = rng.normal(size=n)
    rounded = bool(rng.random() < 0.4)
    if rounded:
        A, b, c = np.round(3 * A), np.round(2 * b), np.round(2 * c)
    b[rng.random(r) < 0.2] = 0.0
    b[rng.random(r) < 0.1] = -0.0
    if rng.random() < 0.1:
        c[:] = 0.0
    if rng.random() < 0.5:
        eye = np.eye(n)
        A, b = np.vstack([A, eye, -eye]), np.concatenate([b, np.ones(2 * n)])
    return LpProblem(c, Polytope(A, b)), rounded


def test_list_kernel_matches_the_numpy_reference():
    rng = np.random.default_rng(2610)
    seen = Counter()
    for _ in range(20_000):
        problem, rounded = random_program(rng)
        want = reference_solve_lp(problem)
        assert_same_outcome(solve_lp(problem), want)
        # the reference's Phase-I verdict is its status: every program has rows
        poly = problem.constraints
        assert phase_one_feasible(poly) == (want.status != INFEASIBLE)
        if (poly.b < 0).any():
            # Phase-I pivots: the whole tableau keeps its bits, -0.0 included
            got = lp._phase_one(poly.A.tolist(), poly.b.tolist(), poly.dim)
            want_p1 = reference_phase_one(poly.A, poly.b)
            assert got[0] == want_p1[0] and got[2:] == want_p1[2:]
            assert np.array(got[1]).tobytes() == want_p1[1].tobytes()
        seen[want.status] += 1
        seen["rounded"] += rounded
        seen["signed rhs"] += bool(np.signbit(poly.b).any())
    assert seen["rounded"] >= 6_000 and seen["signed rhs"] >= 2_000
    assert min(seen[OPTIMAL], seen[INFEASIBLE], seen[UNBOUNDED]) >= 2_000


@pytest.mark.parametrize("case", ["simulate-quadgrid-on-agent", "simulate-unicycle"])
def test_pinned_simulations_solve_every_lp_as_the_reference(monkeypatch, tmp_path, capsys, case):
    # every LP the controller and the adversary solve in a pinned run,
    # the max-slack fallback's included
    from test_artifacts import CASES, _digests

    args, pinned = next(c[1:] for c in CASES if c[0] == case)
    solved = []

    def capture(problem):
        out = solve_lp(problem)
        solved.append((problem, out))
        return out

    def capture_lists(cs, A, b, inputs):
        # the controller's program, lists stacked above the actuator rows,
        # as the equivalent stacked LpProblem
        status, u = lp.maximize_stacked(cs, A, b, inputs)
        c = np.array(cs)
        out = LpOutcome(status) if u is None else LpOutcome(status, float(c @ u), u)
        solved.append((LpProblem(c, Polytope(A + inputs.A.tolist(), b + inputs.b.tolist())), out))
        return status, u

    monkeypatch.setattr(scenarios, "solve_lp", capture)
    monkeypatch.setattr(continuous, "solve_lp", capture)
    monkeypatch.setattr(continuous, "maximize_stacked", capture_lists)
    assert _digests(args, tmp_path, pinned) == pinned
    capsys.readouterr()
    for problem, out in solved:
        assert_same_outcome(out, reference_solve_lp(problem))
        poly = problem.constraints
        assert phase_one_feasible(poly) == reference_phase_one_feasible(poly)
    statuses = Counter(out.status for _, out in solved)
    assert statuses[OPTIMAL] >= 200
    if case == "simulate-quadgrid-on-agent":
        assert statuses[INFEASIBLE] >= 1  # the run reaches the fallback


def test_pivot_cap_stops_the_kernel(monkeypatch):
    # the box corner (1, 1) takes one Phase-II pivot per coordinate.  The
    # cap counts pivots: the pass after the last allowed one still reports
    # optimal, so two pivots need a cap of 2.
    box = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    c = np.ones(2)
    for cap in (0, 1):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", cap)
        with pytest.raises(RuntimeError, match="^simplex pivot cap exceeded$"):
            solve_lp(LpProblem(c, box))
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    assert solve_lp(LpProblem(c, box)).value == 2.0


@pytest.mark.parametrize("lead", [([0.1, 0.1], 10.0), ([0.0, 1.0], 0.5)], ids=["hit", "build"])
def test_pivot_cap_counts_the_pivots_made_on_the_trie(monkeypatch, lead):
    # the box corner takes two pivots, both on the trie for a leading row
    # that never binds; one that binds at the second leaves the trie
    # there, and the stacked tableau's pivots count on from the first
    box = Polytope.box([-1.0, -1.0], [1.0, 1.0])
    A, b = [lead[0]], [lead[1]]
    for cap in (0, 1):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", cap)
        with pytest.raises(RuntimeError, match="^simplex pivot cap exceeded$"):
            stacked_outcome(np.ones(2), A, b, box)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    assert_same_outcome(stacked_outcome(np.ones(2), A, b, box),
                        reference_solve_lp(LpProblem(np.ones(2), stack(A, b, box))))
    # the capped build of the second solve is counted: it raised in _bland
    trie = lp.pivot_trie(box)
    assert (trie.hits, trie.builds) == ((1, 0) if lead[1] == 10.0 else (0, 2))


def test_drop_artificials_pivots_out_and_drops_as_the_reference(monkeypatch):
    # u = 1 through u <= 1 and -u <= -1 (plus 0 u <= 1): Phase-I ends with
    # the last row's artificial basic at level zero, and a structural
    # column takes its place
    poly = Polytope(np.array([[0.0], [1.0], [-1.0]]), np.array([1.0, 1.0, -1.0]))
    feasible, T, basis, width = lp._phase_one(poly.A.tolist(), poly.b.tolist(), poly.dim)
    assert feasible and [bi >= width for bi in basis] == [False, False, True]
    pivot, pivots = lp._pivot, []

    def counted(T, r, c):
        pivots.append(r)
        pivot(T, r, c)

    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", counted)
        T, basis = lp._drop_artificials(T, basis, width)
    assert pivots == [2] and len(basis) == 3 and max(basis) < width
    for objective in ([1.0], [-1.0], [0.0]):
        problem = LpProblem(np.array(objective), poly)
        assert_same_outcome(solve_lp(problem), reference_solve_lp(problem))
    assert solve_lp(LpProblem(np.ones(1), poly)).value == 1.0


def test_phase_one_keeps_each_artificial_the_negated_slack():
    # _drop_artificials drops no row because of this invariant: a negated
    # row's slack column is -(its artificial column) in every constraint
    # row, through every Phase-I pivot, so a basic artificial always has a
    # structural entry to pivot on
    rng = np.random.default_rng(2610)
    negated = basic_artificials = 0
    for _ in range(20_000):
        problem, _ = random_program(rng)
        A, b = problem.constraints.A, problem.constraints.b
        if not (b < 0).any():
            continue
        negated += 1
        feasible, T, basis, width = lp._phase_one(A.tolist(), b.tolist(), A.shape[1])
        slacks = 2 * A.shape[1] + np.flatnonzero(b < 0)
        for row in T[:-1]:
            for art, slack in enumerate(slacks, start=width):
                assert row[slack] == -row[art]
        if feasible:
            basic_artificials += max(basis) >= width
            T, basis = lp._drop_artificials(T, basis, width)
            assert len(T) == A.shape[0] + 1 and len(basis) == A.shape[0]
            assert max(basis) < width
    # four of the feasible programs leave an artificial basic at level zero
    assert negated >= 5_000 and basic_artificials >= 1


# ---------------------------------------------------------------------------
# the held-candidate shortcut: the input box's Bland path, replayed by
# PivotTrie.replay

NO_ROWS = np.zeros((1, 1, 2)), np.zeros((1, 1))


def solve_on_path(c, inputs, A, b):
    """``PivotTrie.replay`` of ``c`` on the programs that stack the rows
    ``A u <= b`` above ``inputs``, and whether ``lp.maximize_stacked``
    gives each of them the walk's point and its value ``float(c @
    point)``, compared by bytes: ``(point, follows, same)``."""
    point, follows = lp.pivot_trie(inputs).replay(c.tolist(), A, b)
    value, same = float(c @ point), []
    for Ak, bk in zip(A, b):
        out = stacked_outcome(c, Ak, bk, inputs)
        assert out.status == OPTIMAL
        same.append(out.point.tobytes() == point.tobytes()
                    and np.float64(out.value).tobytes() == np.float64(value).tobytes())
    return point, follows, np.array(same, dtype=bool)


def test_bland_path_replay_gives_solve_lp_bits_on_both_scenarios():
    # the scan's held programs at many (x, d) pairs: the unicycle's 3-point
    # grid and quarter-rounded and uniform tests, and the quadgrid's corner
    # sets at random, half-integer and near-integer states, where ratios
    # tie.  A program that follows the path gets maximize_stacked's bits; a rule
    # that only asks u* to satisfy A u* <= b would take programs whose
    # avoid row cuts the path at an intermediate vertex, and get other bits
    rng = np.random.default_rng(2626)
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=4)))
    tally = Counter()

    def check(scn, x, D):
        cache = core.LieCache(scn.spec, scn.dynamics, x, scn.input_polytope.dim)
        A, b = cache.avoid_block(D)
        held = ~(b < 0).any(axis=1)
        A, b, c = A[held], b[held], cache.reach(D[0])[1]
        point, follows, same = solve_on_path(c, scn.input_polytope, A, b)
        feasible = (A @ point <= b).all(axis=1)
        tally.update(pairs=len(b), follows=int(follows.sum()),
                     mismatches=int((follows & ~same).sum()),
                     feasible_mismatches=int((feasible & ~same).sum()))

    unicycle = scenarios.build_unicycle(n_obstacles=2)
    for _ in range(60):
        x = rng.uniform(unicycle.state_lower, unicycle.state_upper)
        check(unicycle, x, grid)
        check(unicycle, x, np.round(rng.uniform(-1.0, 1.0, (200, 4)) * 4.0) / 4.0)
        check(unicycle, x, rng.uniform(-1.0, 1.0, (100, 4)))
    assert tally["pairs"] >= 20_000 and tally["follows"] >= 0.99 * tally["pairs"]
    quadgrid = scenarios.build_quadgrid()
    for i in range(1500):
        x = rng.uniform(quadgrid.state_lower, quadgrid.state_upper)
        if i % 3 == 1:
            x = np.round(x * 2.0) / 2.0
        elif i % 3 == 2:
            x = np.round(x) + rng.uniform(-1e-3, 1e-3, 2) * (i % 2)
        check(quadgrid, x, np.array(quadgrid.test_space.at(x, 0.0).points))
    assert tally["pairs"] >= 30_000 and tally["follows"] >= 25_000
    assert tally["mismatches"] == 0 and tally["feasible_mismatches"] >= 10


def test_bland_path_replay_rejects_a_row_at_the_tie_threshold():
    # max u over [-1, 1]: one pivot, ratio θ = 1, tie threshold 1 + 1e-12.
    # An avoid row u <= β with β = θ or θ + 5e-13 ties with the box row,
    # and its slack, of lower basic index, leaves in the kernel: the replay
    # must reject both, since the second gets other bits than u* = 1
    box = Polytope.box([-1.0], [1.0])
    c = np.ones(1)
    node, *_ = lp.pivot_trie(box).walk(c.tolist(), [], [])
    assert [(j, top) for j, top, _ in node.path] == [(0, 1.0 + 1e-12)]
    A, b = np.ones((3, 1, 1)), np.array([[1.0], [1.0 + 5e-13], [1.0 + 2e-12]])
    point, follows, same = solve_on_path(c, box, A, b)
    assert point.tolist() == [1.0] and float(c @ point) == 1.0
    assert follows.tolist() == [False, False, True]
    assert same.tolist() == [True, False, True]
    # the tied avoid row's slack leaves, so the kernel stops at u = β
    out = stacked_outcome(c, A[1], b[1], box)
    assert out.point.tolist() == [1.0 + 5e-13]


def test_bland_path_without_a_recordable_program():
    # only an optimal program is replayed: an unbounded one has no point
    # to take, and a negative right-hand side needs Phase-I pivots, so the
    # polytope's trie has no root
    half = Polytope(np.eye(2), np.ones(2))
    assert lp.pivot_trie(half).replay([0.0, -1.0], *NO_ROWS) is None
    negative = Polytope(np.eye(2), np.array([1.0, -1.0]))
    assert lp.pivot_trie(negative).root is None
    assert lp.pivot_trie(negative).replay([1.0, 1.0], *NO_ROWS) is None


# ---------------------------------------------------------------------------
# an independent oracle: scipy's HiGHS, where scipy is installed

def margin_program(rng, margin=1e-3):
    """A bounded program whose verdict is at least ``margin`` from a
    tangency: the box [-1, 1]^n, random rows with slack >= margin at an
    interior point p, and, in about a third of the programs, a row pair
    that leaves a gap of at least ``margin`` between two parallel
    half-spaces (so no point exists).  Returns the program on the
    stacked polytope, the verdict and the rows and box apart."""
    n = int(rng.integers(1, 5))
    p = rng.uniform(-0.5, 0.5, size=n)
    A = rng.normal(size=(int(rng.integers(0, 8)), n))
    b = A @ p + np.linalg.norm(A, axis=1) * rng.uniform(margin, 1.0, size=len(A))
    infeasible = rng.random() < 0.35
    if infeasible:
        a = rng.normal(size=n)
        t = float(rng.uniform(-1.0, 1.0))
        gap = np.linalg.norm(a) * rng.uniform(margin, 0.5)
        A, b = np.vstack([A, a, -a]), np.concatenate([b, [t, -t - gap]])
    box = Polytope.box(-np.ones(n), np.ones(n))
    A = A.reshape(-1, n)
    return LpProblem(rng.normal(size=n), stack(A, b, box)), infeasible, (A, b, box)


def test_solve_lp_agrees_with_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4)
    seen = Counter()
    for _ in range(400):
        problem, infeasible, rows = margin_program(rng)
        poly = problem.constraints
        ref = optimize.linprog(-problem.objective, A_ub=poly.A, b_ub=poly.b,
                               bounds=(None, None), method="highs")
        out = solve_lp(problem)
        assert_same_outcome(stacked_outcome(problem.objective, *rows), out)
        assert ref.status == (2 if infeasible else 0)
        assert out.status == (INFEASIBLE if infeasible else OPTIMAL)
        if not infeasible:
            value = -ref.fun
            assert abs(out.value - value) <= 1e-7 * (1.0 + abs(value))
        seen[out.status] += 1
    assert seen[OPTIMAL] >= 200 and seen[INFEASIBLE] >= 100


# ---------------------------------------------------------------------------
# the pivot trie: stacked programs solved along the actuator polytope's
# memoized pivots, against the numpy reference and the plain list kernel

def assert_trie_matches(c, A, b, actuator):
    """``lp.maximize_stacked`` of the rows ``A u <= b`` stacked above
    ``actuator`` has the bits of the reference kernel and of ``solve_lp``
    on the stacked polytope (the list kernel from Phase-I, without the
    trie); returns the outcome."""
    got = stacked_outcome(c, A, b, actuator)
    problem = LpProblem(c, stack(A, b, actuator))
    assert_same_outcome(got, solve_lp(problem))
    assert_same_outcome(got, reference_solve_lp(problem))
    return got


def test_trie_matches_the_kernels_on_the_differential_set():
    # random_program's rows split in two: the last k rows are the actuator
    # polytope and the rest lead.  A leading row with b < 0 takes Phase-I,
    # an actuator row with b < 0 leaves the polytope without a trie, and
    # the rest are solved along a fresh trie
    rng = np.random.default_rng(3261)
    seen = Counter()
    for _ in range(5_000):
        problem, _ = random_program(rng)
        A, b = problem.constraints.A, problem.constraints.b
        if len(b) < 2:
            continue
        k = int(rng.integers(1, len(b)))
        actuator = Polytope(A[-k:], b[-k:])
        out = assert_trie_matches(problem.objective, A[:-k], b[:-k], actuator)
        trie = lp.pivot_trie(actuator)
        seen[out.status] += 1
        seen["trie"] += trie.hits + trie.builds
    assert seen["trie"] >= 1_000 and min(seen[OPTIMAL], seen[UNBOUNDED]) >= 500
    assert seen[INFEASIBLE] >= 500


def actuator_pool():
    """Actuator polytopes with every right-hand side >= 0, shared by many
    programs so that their tries grow and are reused: boxes of 1-4
    inputs, one with a zero bound, integer polytopes with vertex ties, and
    polytopes unbounded along some direction."""
    pool = [Polytope.box(-np.ones(n), np.ones(n)) for n in (1, 2, 3, 4)]
    pool += [Polytope.box([-0.2, -1.0], [0.2, 1.0]), Polytope.box([0.0, -5.0], [5.0, 5.0]),
             Polytope(np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 0.0]]),
                      np.array([2.0, 2.0, 2.0, 2.0, 1.0])),
             Polytope(np.eye(2), np.ones(2)), Polytope(np.array([[1.0, 0.0, 0.0],
                      [0.0, -1.0, 0.0], [1.0, 1.0, 1.0]]), np.array([1.0, 0.0, 2.0]))]
    return pool


def stacked_program(rng, actuator):
    """0-5 random leading rows over ``actuator``, each with its own chance
    of: integer coefficients (exact ties with other rows), a copy of an
    actuator row (a tie at the least ratio), a unit row whose right-hand
    side is 1 + 1e-12 (a ratio equal to a unit box's tie threshold), a
    zero or -0.0 right-hand side; and zero objective entries.  Every
    right-hand side is >= 0.  Returns ``(c, A, b, actuator)``."""
    n = actuator.dim
    m = int(rng.integers(0, 6))
    A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-2, 3, size=(m, 1))
    b = np.abs(rng.normal(size=m)) * 10.0 ** rng.integers(-2, 2, size=m)
    c = rng.normal(size=n)
    if rng.random() < 0.5:
        A, b, c = np.round(3 * A), np.round(2 * b), np.round(2 * c)
    for i in range(m):
        pick = rng.random()
        if pick < 0.15:
            k = int(rng.integers(actuator.rows))
            A[i], b[i] = actuator.A[k], actuator.b[k]
        elif pick < 0.3:
            A[i] = 0.0
            A[i, rng.integers(n)] = rng.choice([1.0, -1.0])
            b[i] = 1.0 + 1e-12
    b[rng.random(m) < 0.15] = 0.0
    b[rng.random(m) < 0.1] = -0.0
    c[rng.random(n) < 0.2] = 0.0
    return c, A, b, actuator


def test_trie_matches_the_kernels_on_random_stacked_programs():
    rng = np.random.default_rng(3262)
    pool = actuator_pool()
    seen = Counter()
    for _ in range(40_000):
        out = assert_trie_matches(*stacked_program(rng, pool[int(rng.integers(len(pool)))]))
        seen[out.status] += 1
    tries = [lp.pivot_trie(poly) for poly in pool]
    hits, builds = sum(t.hits for t in tries), sum(t.builds for t in tries)
    assert hits + builds == 40_000 and min(hits, builds) >= 10_000
    assert seen[OPTIMAL] >= 30_000 and seen[UNBOUNDED] >= 1_000
    assert all(0 < t.nodes <= lp._TRIE_CAP for t in tries)


def test_trie_builds_the_tableau_the_list_kernel_has_there(monkeypatch):
    # where a solve leaves the trie, the stacked tableau it builds is the
    # list kernel's after the same pivots, entry for entry, signed zeros
    # included: a -0.0 in a built slack column fails here
    rng = np.random.default_rng(3266)
    pool, entered, real = actuator_pool(), [], lp._bland

    def spy(T, basis, width, done=0):
        entered.append((T, basis, done, [row[:] for row in T], list(basis)))
        return real(T, basis, width, done)

    monkeypatch.setattr(lp, "_bland", spy)
    builds = 0
    for _ in range(4_000):
        c, A, b, actuator = stacked_program(rng, pool[int(rng.integers(len(pool)))])
        trie = lp.pivot_trie(actuator)
        before = trie.builds
        stacked_outcome(c, A, b, actuator)
        if trie.builds == before:
            continue
        builds += 1
        _, _, done, built, built_basis = entered[-1]
        with monkeypatch.context() as m:
            m.setattr(lp, "_MAX_PIVOTS", done)  # the list kernel stops after `done` pivots
            try:
                solve_lp(LpProblem(c, stack(A, b, actuator)))
            except RuntimeError:
                pass
        T, basis = entered[-1][:2]
        assert np.array(built).tobytes() == np.array(T).tobytes() and built_basis == basis
    assert builds >= 1_000


def test_trie_matches_when_leading_rows_bound_a_direction_the_actuator_does_not():
    # u <= 1 alone leaves every u unbounded below: a column whose actuator
    # rows have no usable entry marks its child None, and a leading row
    # with a usable entry there bounds the program
    rng = np.random.default_rng(3263)
    half = Polytope(np.eye(2), np.ones(2))
    seen = Counter()
    for _ in range(2_000):
        A = np.round(rng.normal(size=(int(rng.integers(1, 4)), 2)) * 2.0)
        b = np.round(np.abs(rng.normal(size=len(A))) * 2.0)
        c = np.round(rng.normal(size=2) * 2.0)
        out = assert_trie_matches(c, A, b, half)
        seen[out.status] += 1
    trie = lp.pivot_trie(half)
    assert None in trie.root.children.values()
    assert min(seen[OPTIMAL], seen[UNBOUNDED]) >= 300
    assert trie.builds >= 1_000


def test_trie_never_passes_its_cap(monkeypatch):
    # past the cap a node is made for the solve at hand and dropped, so
    # solves keep their bits and the trie keeps its size
    monkeypatch.setattr(lp, "_TRIE_CAP", 3)
    rng = np.random.default_rng(3264)
    box = Polytope.box(-np.ones(3), np.ones(3))
    for _ in range(2_000):
        assert_trie_matches(*stacked_program(rng, box))
        assert lp.pivot_trie(box).nodes <= 3
    trie = lp.pivot_trie(box)
    assert trie.nodes == 3 and trie.hits >= 500


@pytest.mark.parametrize("case", ["actuator", "hit", "deviation"])
def test_trie_leaves_no_overflow_to_its_slack_columns(case):
    # the stacked kernel keeps a row whose multiplier overflowed non-finite
    # for good, NaN in its slack columns: an actuator row that overflows
    # is pivoted on the stacked tableau, and leading rows that overflow
    # send the solve back to Phase-I, on the trie's end or at a deviation
    big = Polytope(np.array([[1e-9, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                   np.array([1e300, 1.0, 1.0, 1.0]))
    box = Polytope.box([-10.0, -10.0], [10.0, 10.0])
    actuator, A, b, c = {
        "actuator": (big, [[0.0, 1.0]], [1.0], [1.0, 0.0]),
        "hit": (box, [[-1e308, 0.0]], [1.0], [1.0, 1.0]),
        "deviation": (box, [[-1e308, 0.0], [0.0, 1.0]], [1.0, 5.0], [1.0, 1.0]),
    }[case]
    with np.errstate(over="ignore", invalid="ignore"):  # the numpy reference overflows too
        out = assert_trie_matches(c, A, b, actuator)
    trie = lp.pivot_trie(actuator)
    assert (trie.hits, trie.builds) == ((0, 1) if case == "actuator" else (0, 0))
    assert out.status == OPTIMAL
    assert (trie.root.children[0] is None) == (case == "actuator")


def test_two_scenarios_never_share_a_trie():
    a, b = scenarios.build_quadgrid(), scenarios.build_quadgrid()
    assert lp.pivot_trie(a.input_polytope) is not lp.pivot_trie(b.input_polytope)
    scenarios.greedy_safe_controller(a, [2.2, 1.9], [2.0, 1.0, 3.0, 2.0])
    assert lp.pivot_trie(a.input_polytope).hits + lp.pivot_trie(a.input_polytope).builds == 1
    assert (lp.pivot_trie(b.input_polytope).hits, lp.pivot_trie(b.input_polytope).builds) == (0, 0)


def test_polytope_keeps_its_rows_when_the_callers_arrays_change():
    # a polytope holds read-only copies: writing into the arrays it was
    # built from changes neither its rows nor what its trie memoized, so
    # both entries keep agreeing, and a NaN written later cannot pass the
    # finiteness check
    A, b = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    poly = Polytope(A, b)
    assert lp.maximize_stacked([1.0, 1.0], [], [], poly)[1].tolist() == [1.0, 1.0]
    b[:2], A[0, 0] = 5.0, 2.0
    b[2] = np.nan
    status, u = lp.maximize_stacked([1.0, 1.0], [], [], poly)
    out = solve_lp(LpProblem(np.ones(2), poly))
    assert status == out.status == OPTIMAL
    assert u.tolist() == out.point.tolist() == [1.0, 1.0]
    assert poly.A.tolist() == np.vstack([np.eye(2), -np.eye(2)]).tolist()
    assert poly.b.tolist() == [1.0] * 4
    with pytest.raises(ValueError, match="read-only"):
        poly.b[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        poly.A[0, 0] = 2.0


def test_programs_with_nonnegative_rhs_finish_on_the_trie(monkeypatch, tmp_path, capsys):
    # a one-test program whose right-hand sides are all >= 0 finishes on
    # its actuator polytope's trie wherever its walk leaves, at the root
    # too: maximize_stacked hands only a negative right-hand side to the
    # plain two-phase kernel, in the closed loop's controller and scan
    # programs and in the refine trials' on-the-spot and held ones
    configs = Path(__file__).resolve().parent.parent / "bench" / "configs"
    runs = (
        ["simulate", "--config", str(configs / "quadgrid-loop.cfg"), "--horizon", "2.0",
         "--state=2.2,1.9"],
        ["trials", "--config", str(configs / "unicycle-refine.cfg"), "--count", "40",
         "--seed", "7"],
    )
    tries, two_phase, seen = {}, [], Counter()
    real_stacked, real_two_phase = continuous.maximize_stacked, lp._two_phase

    def spy_two_phase(*args):
        two_phase.append(args)
        return real_two_phase(*args)

    def maximize_stacked(cs, A, b, inputs):
        trie = tries[id(inputs)] = lp.pivot_trie(inputs)
        before = len(two_phase)
        out = real_stacked(cs, A, b, inputs)
        if min(b, default=0.0) >= 0:
            assert trie.root is not None and len(two_phase) == before
            seen["on trie"] += 1
        else:
            seen["phase one"] += 1
        return out

    monkeypatch.setattr(lp, "_two_phase", spy_two_phase)
    monkeypatch.setattr(continuous, "maximize_stacked", maximize_stacked)
    for k, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / str(k))]) == 0
    capsys.readouterr()
    assert sum(t.hits + t.builds for t in tries.values()) == seen["on trie"] >= 150
    assert seen["phase one"] >= 1


def test_bland_path_walked_from_the_trie_has_the_recorded_bits():
    # the numpy reference records the box's own Phase-II pivots, as the
    # list kernel's path argument once did; the trie's walk takes the same
    # steps, and its replay returns the same point
    rng = np.random.default_rng(3265)
    for poly in actuator_pool():
        trie = lp.pivot_trie(poly)
        for _ in range(60):
            c = np.round(rng.normal(size=poly.dim) * 2.0) if rng.random() < 0.5 \
                else rng.normal(size=poly.dim)
            steps = []
            want = reference_solve_lp(LpProblem(c, poly), steps)
            A, b = np.zeros((1, 1, poly.dim)), np.zeros((1, 1))
            if want.status != OPTIMAL:
                assert trie.replay(c.tolist(), A, b) is None
                continue
            node, *_ = trie.walk(c.tolist(), [], [])
            point, _ = trie.replay(c.tolist(), A, b)
            assert [(j, top) for j, top, _ in node.path] == [(j, top) for j, top, _ in steps]
            for (_, _, got), (_, _, row) in zip(node.path, steps):
                assert np.array(got).tobytes() == row.tobytes()
            assert point.tobytes() == want.point.tobytes()
            assert np.float64(float(c @ point)).tobytes() == np.float64(want.value).tobytes()
