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

Every LP this package solves goes through :func:`solve_lp`, the one
kernel.  A solve here is a tableau of about 7 rows by 11 columns in two
or three pivots, where a numpy call costs more than its arithmetic, so
:func:`solve_lp` and :func:`phase_one_feasible` keep their tableaux as
lists of Python floats.
Each entry gets the float operations, in the order, that a numpy row
update would give it, so every outcome has the bits the numpy tableau
gave (``tests/conftest.py`` keeps that kernel as the reference); only the
returned value is still computed by numpy, as ``c @ u``.  Lists lose from
about 14 rows on (two inputs, a box and 10 obstacles); the shipped configs
build 6 rows.

Most programs the continuous scan holds need no pivots of their own.
:class:`BlandPath` records the list kernel's Phase-II pivots on the input
polytope alone: each pivot's entering column, tie threshold (least ratio
plus 1e-12) and normalized pivot row.  :meth:`BlandPath.follows` replays
them on each program's extra rows only.  A program none of whose extra
rows has a usable pivot entry with a ratio at or below the threshold, at
any step, is pivoted by :func:`solve_lp` on the same path: the same
entering columns, since the extra rows' slack columns stay 0 in the
objective row, and the same leaving rows, since no extra row ties.  So it
gets the recorded point and value, bit for bit.  That the recorded point
merely satisfies the extra rows is not enough: an extra row can cut the
path at an intermediate vertex, and :func:`solve_lp` then reaches the
point, or another optimum, with other last bits.
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


def _pivot(T: list, r: int, c: int) -> list:
    """Pivot the list tableau ``T`` on entry (r, c) with numpy's row update,
    entry by entry: normalize row r, set every row to ``row - m *
    pivot_row`` (row r with m = 0.0, which turns its -0.0 into +0.0, and
    rows with m = 0 too), then make column c a unit vector.  Returns the
    normalized row, ``pivot_row``."""
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
    return prow


def _bland(T: list, basis: list, width: int, path: Optional[list] = None) -> str:
    """Minimize in place.  Objective row last, right-hand side column last;
    only the first ``width`` columns may enter.  A ``path`` list gets each
    pivot's entering column, tie threshold and normalized pivot row."""
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
        prow = _pivot(T, r, j)
        basis[r] = j
        if path is not None:
            path.append((j, top, prow))


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
    status, u = _maximize(c, problem.constraints)
    if status != OPTIMAL:
        return LpOutcome(status)
    return LpOutcome(OPTIMAL, float(c @ u), u)


def _maximize(c: np.ndarray, poly: Polytope, path: Optional[list] = None):
    """:func:`solve_lp`'s status and point, the point None unless OPTIMAL;
    ``path`` records the Phase-II pivots as :func:`_bland` says."""
    n = c.size
    feasible, T, basis, width = _phase_one(poly.A, poly.b)
    if not feasible:
        return INFEASIBLE, None
    T, basis = _drop_artificials(T, basis, width)

    cs = c.tolist()
    f = [-v for v in cs] + cs + [0.0] * (width - 2 * n)
    obj = f + [0.0]
    for row, bi in zip(T, basis):
        if f[bi] != 0.0:
            obj = [p - f[bi] * q for p, q in zip(obj, row)]
    T[-1] = obj
    if _bland(T, basis, width, path) == UNBOUNDED:
        return UNBOUNDED, None

    z = [0.0] * width
    for row, bi in zip(T, basis):
        z[bi] = row[-1]
    return OPTIMAL, np.array([p - q for p, q in zip(z[:n], z[n:2 * n])])


class BlandPath:
    """The Phase-II pivots of ``maximize c @ u`` over ``inputs``, whose
    right-hand sides must all be >= 0, as :func:`solve_lp` makes them, for
    :meth:`follows` to replay: ``steps`` holds one ``(entering column, tie
    threshold, normalized pivot row)`` per pivot.  ``point`` is
    :func:`solve_lp`'s maximizer and ``value`` its value, ``float(c @
    point)``; both are None when the program is unbounded."""

    def __init__(self, c: np.ndarray, inputs: Polytope):
        if (inputs.b < 0).any():
            raise ValueError("a recorded path needs right-hand sides >= 0")
        steps = []
        _, self.point = _maximize(c, inputs, steps)
        self.value = None if self.point is None else float(c @ self.point)
        self.steps = [(j, top, np.array(prow)) for j, top, prow in steps]
        self.columns = 2 * c.size + inputs.rows + 1

    def follows(self, A, b) -> np.ndarray:
        """Which of K programs :func:`solve_lp` solves on this path:
        program k maximizes the recorded objective over the rows ``A[k] u
        <= b[k]`` (shapes (K, m, n) and (K, m), every ``b[k] >= 0``)
        stacked above the recorded polytope's rows.

        It does when, at every recorded step, none of its first m rows
        has an entry above the pivot tolerance in the entering column
        together with a ratio at or below the step's tie threshold; such a
        row would leave or tie.  Those rows are followed with the list
        kernel's own elementwise update, ``a - m * v``, as ``R -= col *
        prow``, so they carry its bits.  Then the entering columns are the
        recorded ones (the new rows' slack columns stay 0 in the objective
        row, since none of those rows pivots), and so are the leaving rows
        (the recorded rows' basic indices keep their order, and no new row
        ties).  So :func:`solve_lp` returns :attr:`point` and
        :attr:`value`, bit for bit.
        Returns a (K,) mask of the programs that pass, all False when the
        recorded program is unbounded."""
        K, m, n = A.shape
        keep = np.arange(K if self.point is not None else 0)
        R = np.zeros((keep.size, m, self.columns))
        R[:, :, :n], R[:, :, n:2 * n], R[:, :, -1] = A[keep], -A[keep], b[keep]
        for j, top, prow in self.steps:
            col = R[:, :, j]
            ratios = np.divide(R[:, :, -1], col, out=np.full(col.shape, np.inf),
                               where=col > _PIVOT_TOL)
            cut = (ratios <= top).any(axis=1)
            if cut.any():
                keep, R, col = keep[~cut], R[~cut], col[~cut]
            R -= col[:, :, None] * prow
            R[:, :, j] = 0.0
        follows = np.zeros(K, dtype=bool)
        follows[keep] = True
        return follows


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

