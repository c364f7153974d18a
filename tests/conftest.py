import itertools
import os

# Pinned artifact bytes were recorded with one BLAS thread: a multithreaded
# LU solve moves the last bits of the grid-world reward grids.  Set before
# numpy is first imported, which is when OpenBLAS reads it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    if box is not None:
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


def _reference_bland(T, basis, width):
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
        tied = pos[ratios <= ratios.min() + 1e-12]
        r = int(min(tied, key=lambda i: basis[i]))
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


def reference_solve_lp(problem):
    """``advsynth.lp.solve_lp`` on a numpy tableau: the kernel the list
    tableau replaced, kept to check that every status, value and point
    keeps its bits."""
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
    status = _reference_bland(T, basis, width)
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
