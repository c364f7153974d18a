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
