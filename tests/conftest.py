import itertools
import math
import os

# One BLAS thread unless the caller sets another count: the pinned artifact
# bytes were recorded with one, and CI reruns tests/test_artifacts.py with
# two to show that none of them depends on it.  Set before numpy is first
# imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from advsynth import build_gridworld, build_quadgrid, build_unicycle


@pytest.fixture(scope="session")
def unicycle():
    return build_unicycle()


@pytest.fixture(scope="session")
def gridworld79():
    return build_gridworld((7, 9))


@pytest.fixture(scope="session")
def quadgrid():
    return build_quadgrid()


def central_difference_gradient(h, x, d, step=1e-6):
    """Central finite differences of h.value in the state argument."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (h.value(hi, d) - h.value(lo, d)) / (2.0 * step)
    return grad


def assert_gradient_consistent(h, x, d, rel_tol=1e-5, step=1e-6):
    analytic = np.asarray(h.gradient(x, d), dtype=float)
    numeric = central_difference_gradient(h, x, d, step)
    scale = max(1.0, float(np.linalg.norm(analytic)))
    assert np.linalg.norm(analytic - numeric) <= rel_tol * scale, (
        f"gradient mismatch at x={x}, d={d}: {analytic} vs {numeric}"
    )


# ---------------------------------------------------------------------------
# one-by-one reference scan of the continuous synthesizer

def _reference_grid(lower, upper, counts):
    from advsynth.continuous import _axis

    axes = [_axis(lower[i], upper[i], counts[i]) for i in range(lower.size)]
    for idx in np.ndindex(*(len(a) for a in axes)):
        yield np.array([axes[i][idx[i]] for i in range(len(axes))])


def _reference_refine(scn, x, space, d0, val0, u0, floor, search, evals):
    from advsynth.continuous import SynthesisResult, difficulty

    lower, upper = space.lower, space.upper
    diam = float(np.linalg.norm(upper - lower))
    span = upper - lower
    step = np.where(span > 0, span / max(search.grid_points - 1, 1), 0.0)
    d_cur = np.asarray(d0, dtype=float).copy()
    val_cur, u_cur = val0, u0
    for _ in range(search.refine_iterations):
        if step.size == 0 or step.max() <= search.step_tolerance * diam:
            break
        best_cand = best_u = None
        best_val = np.inf
        for i in range(d_cur.size):
            if step[i] == 0.0:
                continue
            for sign in (-1.0, 1.0):
                cand = d_cur.copy()
                cand[i] = float(np.clip(cand[i] + sign * step[i], lower[i], upper[i]))
                if cand[i] == d_cur[i]:
                    continue
                val, u = difficulty(scn, x, cand, floor)
                evals += 1
                if u is None:
                    return SynthesisResult(cand, float(floor), True, None, evals)
                if val < best_val:
                    best_val, best_cand, best_u = val, cand, u
        if best_cand is not None and best_val < val_cur:
            d_cur, val_cur, u_cur = best_cand, best_val, best_u
        else:
            step = step * 0.5
    return SynthesisResult(d_cur, val_cur, False, u_cur, evals)


def reference_synthesize_over(scn, x, space, floor, search):
    """The continuous scan evaluated one candidate at a time, each through
    ``difficulty``: the coarse grid (or finite set) in order, an exit at the
    first candidate in Γ, the earliest minimum kept, then compass
    refinement.  Drop-in for ``advsynth.continuous._synthesize_over``; the
    start-state warning is left out."""
    from advsynth.continuous import BoxSpace, FiniteSpace, SynthesisResult, difficulty

    if isinstance(space, FiniteSpace):
        candidates = list(space.points)
        box = None
    elif isinstance(space, BoxSpace):
        counts = (search.grid_points,) * space.dim
        candidates = _reference_grid(space.lower, space.upper, counts)
        box = space
    else:
        raise ValueError("mapped test spaces need synthesize_constrained")

    evals = 0
    best_d = best_u = None
    best_val = np.inf
    for d in candidates:
        val, u = difficulty(scn, x, d, floor)
        evals += 1
        if u is None:
            return SynthesisResult(d, float(floor), True, None, evals)
        if val < best_val:
            best_val, best_d, best_u = val, d, u
    if box is not None and best_d is not None:
        return _reference_refine(scn, x, box, best_d, best_val, best_u, floor, search, evals)
    return SynthesisResult(best_d, best_val, False, best_u, evals)


# ---------------------------------------------------------------------------
# numpy reference for the scalar simplex kernel in advsynth.lp

def _reference_pivot(T, r, c):
    T[r] = T[r] / T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, c] = 0.0
    T[r, c] = 1.0


def _reference_bland(T, basis, width, path=None):
    """Bland's rule on the numpy tableau; a ``path`` list gets each pivot's
    entering column, tie threshold and normalized pivot row."""
    from advsynth import lp

    for pivots in itertools.count():
        improving = np.nonzero(T[-1, :width] < -lp._RC_TOL)[0]
        if improving.size == 0:
            return lp.OPTIMAL
        j = int(improving[0])
        col = T[:-1, j]
        pos = np.nonzero(col > lp._PIVOT_TOL)[0]
        if pos.size == 0:
            return lp.UNBOUNDED
        if pivots == lp._MAX_PIVOTS:
            raise RuntimeError("simplex pivot cap exceeded")
        ratios = T[:-1, -1][pos] / col[pos]
        top = ratios.min() + 1e-12
        tied = pos[ratios <= top]
        r = int(min(tied, key=lambda i: basis[i]))
        if path is not None:
            path.append((j, float(top), T[r] / T[r, j]))
        _reference_pivot(T, r, j)
        basis[r] = j


def reference_phase_one(A, b):
    """``advsynth.lp._phase_one`` on a numpy tableau."""
    from advsynth.lp import INFEASIBILITY_TOL

    r, n = A.shape
    flip = b < 0
    As = np.where(flip[:, None], -A, A)
    bs = np.where(flip, -b, b)
    n_art = int(flip.sum())
    width = 2 * n + r
    T = np.zeros((r + 1, width + n_art + 1))
    T[:r, :n] = As
    T[:r, n:2 * n] = -As
    T[np.arange(r), 2 * n + np.arange(r)] = np.where(flip, -1.0, 1.0)
    T[:r, -1] = bs

    basis = []
    art = width
    for i in range(r):
        if flip[i]:
            T[i, art] = 1.0
            basis.append(art)
            art += 1
        else:
            basis.append(2 * n + i)
    if n_art:
        T[-1, width:width + n_art] = 1.0
        for i in range(r):
            if basis[i] >= width:
                T[-1] -= T[i]
        _reference_bland(T, basis, width + n_art)
    feasible = -T[-1, -1] <= INFEASIBILITY_TOL
    return feasible, T, basis, width


def reference_drop_artificials(T, basis, width):
    """``advsynth.lp._drop_artificials`` on a numpy tableau."""
    from advsynth.lp import _PIVOT_TOL

    keep = []
    for i in range(len(basis)):
        if basis[i] < width:
            keep.append(i)
            continue
        structural = np.nonzero(np.abs(T[i, :width]) > _PIVOT_TOL)[0]
        if structural.size:
            _reference_pivot(T, i, int(structural[0]))
            basis[i] = int(structural[0])
            keep.append(i)
    cols = np.concatenate([np.arange(width), [T.shape[1] - 1]])
    return np.ascontiguousarray(T[keep + [T.shape[0] - 1]][:, cols]), [basis[i] for i in keep]


def reference_solve_lp(problem, path=None):
    """``advsynth.lp.solve_lp`` on a numpy tableau: the kernel the list
    tableau replaced, kept to check that every status, value and point
    keeps its bits.  ``path`` records the Phase-II pivots as
    ``_reference_bland`` says."""
    from advsynth.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome

    c = problem.objective
    poly = problem.constraints
    n = c.size
    feasible, T, basis, width = reference_phase_one(poly.A, poly.b)
    if not feasible:
        return LpOutcome(INFEASIBLE)
    T, basis = reference_drop_artificials(T, basis, width)

    f = np.zeros(width)
    f[:n] = -c
    f[n:2 * n] = c
    T[-1, :width] = f
    T[-1, -1] = 0.0
    for i, bi in enumerate(basis):
        if f[bi] != 0.0:
            T[-1] -= f[bi] * T[i]
    status = _reference_bland(T, basis, width, path)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    z = np.zeros(width)
    for i, bi in enumerate(basis):
        z[bi] = T[i, -1]
    u = z[:n] - z[n:2 * n]
    return LpOutcome(OPTIMAL, float(c @ u), u)


def reference_phase_one_feasible(poly):
    """``advsynth.lp.phase_one_feasible`` on the numpy reference tableau."""
    return reference_phase_one(poly.A, poly.b)[0]


def assert_same_outcome(got, want):
    """Equal status, and equal bytes of the value and of the point."""
    assert got.status == want.status
    if want.value is None:
        assert got.value is None and got.point is None
    else:
        assert type(got.value) is float
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
        assert got.point.dtype == want.point.dtype and got.point.shape == want.point.shape
        assert got.point.tobytes() == want.point.tobytes()


# ---------------------------------------------------------------------------
# the one-test program on the numpy path that the list program replaced:
# the safe-input polytope from feasible_input_polytope, the LP from solve_lp

def _reference_program(scn, x, d):
    from advsynth.core import dynamics_at, feasible_input_polytope, lie_derivatives
    from advsynth.lp import LpProblem, solve_lp

    fg = dynamics_at(scn.dynamics, x, d)
    poly = feasible_input_polytope(scn.spec, scn.dynamics, x, d, scn.input_polytope, fg)
    drift_rate, input_row = lie_derivatives(scn.spec.reach, scn.dynamics, x, d, fg)
    return drift_rate, poly, solve_lp(LpProblem(input_row, poly))


def reference_difficulty(scn, x, d, floor, tau=0.0):
    """``advsynth.continuous.difficulty`` on the numpy path."""
    from advsynth.core import ScenarioError
    from advsynth.lp import INFEASIBLE, UNBOUNDED

    x = scn.check_state(x)
    drift_rate, _, out = _reference_program(scn, x, scn.check_test(d, x))
    if out.status == INFEASIBLE:
        return float(floor), None
    if out.status == UNBOUNDED:
        raise ScenarioError("unbounded")
    return drift_rate + out.value - tau, out.point


def reference_controller(scn, x, d):
    """``advsynth.scenarios.greedy_safe_controller`` on the numpy path,
    its max-slack fallback built with ``np.hstack``."""
    from advsynth.core import Polytope
    from advsynth.lp import OPTIMAL, LpProblem, solve_lp

    x = scn.check_state(x)
    _, poly, out = _reference_program(scn, x, scn.check_test(d, x))
    if out.status == OPTIMAL:
        return out.point
    m = scn.input_polytope.dim
    slack = np.zeros((poly.rows, 1))
    slack[:len(scn.spec.avoid)] = 1.0
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    out2 = solve_lp(LpProblem(objective, Polytope(np.hstack([poly.A, slack]), poly.b)))
    assert out2.status == OPTIMAL
    return out2.point[:m]


# ---------------------------------------------------------------------------
# the closed loop of advsynth.scenarios.simulate_adversarial, step by step
# with every copy and check it once made

def _reference_pursue(actual, target, max_step):
    out = actual.copy()
    chunk = 2 if actual.size % 2 == 0 else actual.size
    for k in range(0, actual.size, chunk):
        delta = target[k:k + chunk] - actual[k:k + chunk]
        dist = math.sqrt(delta.dot(delta))
        if dist <= max_step or dist == 0.0:
            out[k:k + chunk] = target[k:k + chunk]
        else:
            out[k:k + chunk] = actual[k:k + chunk] + (max_step / dist) * delta
    return out


def reference_simulate(scn, x0, controller, synth_period, dt=0.01, horizon=10.0,
                       obstacle_speed=1.0, search=None):
    """``simulate_adversarial``'s log, made by a plain loop: each array is
    copied before it is logged or passed on, and each state checked with
    ``np.isfinite``."""
    from advsynth.continuous import SearchConfig, synthesize_constrained
    from advsynth.core import min_avoid
    from advsynth.scenarios import SimulationLog

    search = search or SearchConfig()
    n_steps = int(round(horizon / dt))
    x = np.array(x0, dtype=float)
    cmd = np.array(synthesize_constrained(scn, x, 0.0, search=search).d_star, dtype=float)
    commands, obstacles = [(0.0, x.copy(), cmd.copy())], cmd.copy()
    times, states, obstacle_log = [0.0], [x.copy()], [obstacles.copy()]
    barrier_log = [min_avoid(scn.spec, x, obstacles)]
    next_synth, aborted = synth_period, False
    for k in range(n_steps):
        t = k * dt
        if k > 0 and t >= next_synth - 1e-9:
            cmd = np.array(synthesize_constrained(scn, x.copy(), t, search=search).d_star,
                           dtype=float)
            commands.append((t, x.copy(), cmd.copy()))
            next_synth += synth_period
        u = np.array(controller(scn, x.copy(), obstacles.copy()), dtype=float)
        f = np.array(scn.dynamics.f(x, obstacles), dtype=float)
        G = np.array(scn.dynamics.g(x, obstacles), dtype=float)
        x = x + dt * (f + G @ u)
        if not np.all(np.isfinite(x)):
            aborted = True
            break
        if scn.normalize_state is not None:
            x = scn.normalize_state(x.copy())
        obstacles = _reference_pursue(obstacles, cmd, obstacle_speed * dt)
        times.append((k + 1) * dt)
        states.append(x.copy())
        obstacle_log.append(obstacles.copy())
        barrier_log.append(min_avoid(scn.spec, x, obstacles))
    return SimulationLog(np.array(times), np.array(states), np.array(obstacle_log),
                         np.array(barrier_log), tuple(commands), aborted)
