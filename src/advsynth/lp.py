"""Dense exact linear programming by two-phase simplex with Bland's rule.

Sized for the tiny programs this package generates (a handful of variables,
tens of rows): no factorizations, no sparsity, and fully deterministic
including the returned point, because both the entering rule (lowest
improving column index) and the leaving rule (lowest basic-variable index
among minimum-ratio rows) are fixed.  Bland's rule also rules out cycling.

Free variables are split u = u+ - u-, so the returned maximizer is the
basic solution of the lifted standard-form program; with a zero objective
that is simply a feasible point, which is all downstream callers need.

Feasibility of a polytope is decided by the Phase-I program alone, against
the single tolerance ``INFEASIBILITY_TOL``, so the empty/nonempty verdict
used to partition test vectors is crisp and reproducible.

A program without rows takes the general steps too: Phase-I has no
artificial and is feasible, and Phase-II finds no leaving row.  So an
objective with an entry beyond the reduced-cost tolerance is UNBOUNDED,
and any other is OPTIMAL at u = +0.0 with value +0.0, as when rows leave
u free.

Phase-II has two paths: :func:`solve_lp` serves single solves and is the
oracle, and :func:`solve_lp_batch` the LPs the continuous scan holds.  The
README's design notes say why both are kept.

The two paths keep their tableaux differently, each for its size.  A
single solve here is a tableau of about 7 rows by 11 columns in two or
three pivots, where a numpy call costs more than its arithmetic, so
:func:`solve_lp` and :func:`phase_one_feasible` keep theirs as lists of
Python floats.  Each entry gets the float operations, in the order, that
a numpy row update would give it, so every outcome has the bits the numpy
tableau gave (``tests/conftest.py`` keeps that kernel as the reference);
only the returned value is still computed by numpy, as ``c @ u``.  Lists
lose from about 14 rows on (two inputs, a box and 10 obstacles); the
shipped configs build 6 rows.  :func:`solve_lp_batch` stays on numpy: it
pivots K tableaux in one step, so the stack shares each call's cost, and
it returns its K outcomes as arrays: K :class:`LpOutcome` objects, each
with its own 1-D dot product, cost more to build than the pivots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Polytope, objective_vector

__all__ = [
    "INFEASIBILITY_TOL",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LpProblem",
    "LpOutcome",
    "solve_lp",
    "solve_lp_batch",
    "phase_one_feasible",
    "blocks_all_inputs",
]

INFEASIBILITY_TOL = 1e-7  # Phase-I objective above this means "no point exists"
_RC_TOL = 1e-9            # reduced-cost threshold for optimality
_PIVOT_TOL = 1e-10        # smallest usable pivot magnitude
_MAX_PIVOTS = 20_000      # pivots per phase; Bland's rule precludes cycling

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Maximize objective @ u over u in constraints."""

    objective: np.ndarray
    constraints: Polytope

    def __post_init__(self):
        c = objective_vector(self.objective, self.constraints.dim)
        object.__setattr__(self, "objective", c)


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None


def _pivot(T: list, r: int, c: int) -> None:
    """Pivot the list tableau ``T`` on entry (r, c) with numpy's row update,
    entry by entry: normalize row r, set every row to ``row - m *
    pivot_row`` (row r with m = 0.0, which turns its -0.0 into +0.0, and
    rows with m = 0 too), then make column c a unit vector."""
    p = T[r][c]
    prow = [v / p for v in T[r]]
    for i, row in enumerate(T):
        if i == r:
            row = T[i] = [a - 0.0 * a for a in prow]
        else:
            m = row[c]
            row = T[i] = [a - m * v for a, v in zip(row, prow)]
        row[c] = 0.0
    T[r][c] = 1.0


def _bland(T: list, basis: list, width: int) -> str:
    """Minimize in place.  Objective row last, right-hand side column last;
    only the first ``width`` columns may enter."""
    for pivots in itertools.count():
        obj = T[-1]
        for j in range(width):
            if obj[j] < -_RC_TOL:
                break
        else:
            return OPTIMAL
        rows, ratios = [], []
        for i in range(len(T) - 1):
            if T[i][j] > _PIVOT_TOL:
                rows.append(i)
                ratios.append(T[i][-1] / T[i][j])
        if not rows:
            return UNBOUNDED
        if pivots == _MAX_PIVOTS:
            raise RuntimeError("simplex pivot cap exceeded")
        top = min(ratios) + 1e-12
        r = min((i for i, q in zip(rows, ratios) if q <= top), key=basis.__getitem__)
        _pivot(T, r, j)
        basis[r] = j


def _phase_one(A: np.ndarray, b: np.ndarray):
    """Feasibility tableau for {u : A u <= b} with u free (split u+ - u-).

    Returns (feasible, T, basis, width) where ``width`` counts the
    structural columns (u+, u-, slacks) preceding the artificials.  A row
    with b < 0 is negated and gets an artificial column.
    """
    r, n = A.shape
    b = b.tolist()
    n_art = sum(v < 0 for v in b)
    width = 2 * n + r
    T, basis, art, zeros = [], [], width, [0.0] * (r + n_art)
    for i, (a, v) in enumerate(zip(A.tolist(), b)):
        if v < 0:
            a = [-x for x in a]
            row = a + [-x for x in a] + zeros + [-v]
            row[2 * n + i] = -1.0
            row[art] = 1.0
            basis.append(art)
            art += 1
        else:
            row = a + [-x for x in a] + zeros + [v]
            row[2 * n + i] = 1.0
            basis.append(2 * n + i)
        T.append(row)
    obj = [0.0] * width + [1.0] * n_art + [0.0]
    for row, bi in zip(T, basis):
        if bi >= width:
            obj = [p - q for p, q in zip(obj, row)]
    T.append(obj)
    if n_art:
        _bland(T, basis, width + n_art)
    feasible = -T[-1][-1] <= INFEASIBILITY_TOL
    return feasible, T, basis, width


def _drop_artificials(T: list, basis: list, width: int):
    """Pivot zero-level artificials out of the basis and strip the
    artificial columns.  No row is ever redundant: every pivot keeps a
    negated row's artificial column the exact negative of its slack column,
    so a row whose basic variable is an artificial holds -1 in that slack
    column, a structural entry to pivot on."""
    if len(T[-1]) == width + 1:
        return T, basis
    for i, bi in enumerate(basis):
        if bi >= width:
            k = next(k for k in range(width) if abs(T[i][k]) > _PIVOT_TOL)
            _pivot(T, i, k)
            basis[i] = k
    return [row[:width] + row[-1:] for row in T], basis


def solve_lp(problem: LpProblem) -> LpOutcome:
    """Maximize the objective over the polytope.

    Outcomes: OPTIMAL with value and maximizing point, INFEASIBLE when the
    Phase-I optimum exceeds ``INFEASIBILITY_TOL``, UNBOUNDED when the
    objective improves along a feasible ray.  Identical inputs always yield
    identical outcomes, point included.  Without rows the polytope is the
    whole space: the outcome is UNBOUNDED when an objective entry lies
    beyond the reduced-cost tolerance, else OPTIMAL at u = 0.
    """
    c = problem.objective
    poly = problem.constraints
    n = c.size
    feasible, T, basis, width = _phase_one(poly.A, poly.b)
    if not feasible:
        return LpOutcome(INFEASIBLE)
    T, basis = _drop_artificials(T, basis, width)

    cs = c.tolist()
    f = [-v for v in cs] + cs + [0.0] * (width - 2 * n)
    obj = f + [0.0]
    for row, bi in zip(T, basis):
        if f[bi] != 0.0:
            obj = [p - f[bi] * q for p, q in zip(obj, row)]
    T[-1] = obj
    status = _bland(T, basis, width)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    z = [0.0] * width
    for row, bi in zip(T, basis):
        z[bi] = row[-1]
    u = np.array([p - q for p, q in zip(z[:n], z[n:2 * n])])
    return LpOutcome(OPTIMAL, float(c @ u), u)


def solve_lp_batch(C, A, b) -> tuple:
    """:func:`solve_lp` on K programs at once: maximize ``C[k] @ u`` over
    ``{u : A[k] u <= b[k]}``, with ``C``, ``A`` and ``b`` of shapes (K, n),
    (K, r, n) and (K, r).  Returns arrays ``(unbounded, values, points)``
    of shapes (K,), (K,) and (K, n): program k is UNBOUNDED where
    ``unbounded[k]``, its value and point then NaN, else OPTIMAL with value
    ``values[k]`` at ``points[k]``.

    Every right-hand side must be >= 0, so the slack basis is feasible,
    Phase-I has no artificial to drive out and no program is infeasible.
    Phase-II runs Bland's rule on a (K, r + 1, 2n + r + 1) stack of
    tableaux.  Each step applies the scalar entering rule, ratio test and
    elementwise :func:`_pivot` arithmetic to the tableaux still running, so
    every program gets the pivots and the point, bit for bit, that
    :func:`solve_lp` gives it.  The values come from one stacked
    ``np.matmul`` of (1, n) rows by (n, 1) columns, which runs per program
    the BLAS dot product that ``c @ u`` runs there, so they keep its bits
    too (an ``einsum`` or an elementwise sum does not).  Programs without
    rows (r = 0) take the same steps and get :func:`solve_lp`'s answers:
    UNBOUNDED, with NaN value and point, or OPTIMAL at u = 0.
    """
    C = np.asarray(C, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    K, r, n = A.shape
    if C.shape != (K, n) or b.shape != (K, r):
        raise ValueError(
            f"shapes {C.shape}, {A.shape}, {b.shape} are not (K, n), (K, r, n), (K, r)"
        )
    if not (np.isfinite(C).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("program coefficients must be finite")
    if (b < 0).any():
        raise ValueError("batched programs need right-hand sides >= 0")
    width = 2 * n + r
    T = np.zeros((K, r + 1, width + 1))
    T[:, :r, :n] = A
    T[:, :r, n:2 * n] = -A
    T[:, np.arange(r), 2 * n + np.arange(r)] = 1.0
    T[:, :r, -1] = b
    T[:, -1, :n] = -C
    T[:, -1, n:2 * n] = C
    basis = np.tile(2 * n + np.arange(r), (K, 1))
    unbounded = np.zeros(K, dtype=bool)
    run = np.arange(K)
    for pivots in itertools.count():
        improving = T[run, -1, :width] < -_RC_TOL
        going = improving.any(axis=1)
        if not going.all():
            run, improving = run[going], improving[going]
            if run.size == 0:
                break
        j = improving.argmax(axis=1)
        S = T[run]
        k = np.arange(run.size)
        col = S[k, :-1, j]
        pos = col > _PIVOT_TOL
        bounded = pos.any(axis=1)
        if not bounded.all():
            unbounded[run[~bounded]] = True
            run, j, S, col, pos = run[bounded], j[bounded], S[bounded], col[bounded], pos[bounded]
            if run.size == 0:
                break
            k = np.arange(run.size)
        if pivots == _MAX_PIVOTS:
            raise RuntimeError("simplex pivot cap exceeded")
        ratios = np.divide(S[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=pos)
        tied = pos & (ratios <= ratios.min(axis=1, keepdims=True) + 1e-12)
        rows = np.where(tied, basis[run], width).argmin(axis=1)
        # _pivot on every running tableau: normalize the pivot row, then
        # subtract its multiples and set the pivot column to a unit vector
        prow = S[k, rows] / col[k, rows][:, None]
        S[k, rows] = prow
        scale = S[k, :, j]
        scale[k, rows] = 0.0
        S -= scale[:, :, None] * prow[:, None, :]
        S[k, :, j] = 0.0
        S[k, rows, j] = 1.0
        T[run] = S
        basis[run, rows] = j

    z = np.zeros((K, width))
    z[np.arange(K)[:, None], basis] = T[:, :-1, -1]
    U = z[:, :n] - z[:, n:2 * n]
    values = np.matmul(C[:, None, :], U[:, :, None]).reshape(K)
    values[unbounded], U[unbounded] = np.nan, np.nan
    return unbounded, values, U


def phase_one_feasible(poly: Polytope) -> bool:
    """True when the polytope contains at least one point; a polytope
    without rows gives a Phase-I program with no artificial, so True."""
    feasible, _, _, _ = _phase_one(poly.A, poly.b)
    return feasible


def blocks_all_inputs(feasible_inputs: Polytope) -> bool:
    """True when the safe-input polytope is empty, i.e. the test that
    produced it leaves the system with no admissible input.  Such tests are
    maximally difficult by construction."""
    return not phase_one_feasible(feasible_inputs)

