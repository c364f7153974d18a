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

Most programs this package solves stack a few avoid rows above the same
actuator polytope (:func:`core.stack_rows` marks them so), and when every
right-hand side is >= 0 their Phase-II pivots start alike.  Each actuator
polytope grows a :class:`PivotTrie` of its own rows' pivots, keyed by
entering column: a node holds the actuator rows' tableau after the
pivots on its way, the tie threshold (least ratio plus 1e-12) and the
normalized pivot row of the last one.  :func:`solve_lp` follows it,
updating only the objective row and the avoid rows, with the list
kernel's own ``a - m * v``.  At the first step where an avoid row would
leave or tie (ratio at or below the threshold), or where the actuator
rows alone are unbounded, it builds the stacked tableau there and
:func:`_bland` finishes.  The bits are those of the stacked solve: the
avoid rows' slack columns stay +0.0 in the objective row, so the same
columns enter; no avoid row ties, so the same rows leave, in the same
basis order; and the actuator rows never read the avoid rows (see
:class:`PivotTrie`).  A negative right-hand side takes Phase-I as
before.  A trie holds at most ``_TRIE_CAP`` (256) nodes; a solve that
needs one more makes it for itself and drops it.

:class:`BlandPath` reads a walk of the trie without avoid rows: each
pivot's entering column, tie threshold and normalized pivot row.
:meth:`BlandPath.follows` replays them on many programs' extra rows at
once, with numpy, by the same rule: a program none of whose extra rows
has a usable pivot entry with a ratio at or below the threshold, at any
step, gets the recorded point and value, bit for bit.  That the recorded
point merely satisfies the extra rows is not enough: an extra row can cut
the path at an intermediate vertex, and :func:`solve_lp` then reaches the
point, or another optimum, with other last bits.
"""

from __future__ import annotations

import itertools
import math
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
_TRIE_CAP = 256           # nodes of one actuator polytope's PivotTrie

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
    _eliminate(T, c, prow, r)
    T[r][c] = 1.0
    return prow


def _eliminate(T: list, c: int, prow: list, r: int = -1) -> None:
    """:func:`_pivot`'s row update of every row of ``T`` with the
    normalized row ``prow`` of row ``r`` (none when -1)."""
    for i, row in enumerate(T):
        if i == r:
            row = T[i] = [a - 0.0 * a for a in prow]
        else:
            m = row[c]
            row = T[i] = [a - m * v for a, v in zip(row, prow)]
        row[c] = 0.0


def _leaving(rows: list, j: int, basis: list):
    """Bland's leaving row for column ``j`` among ``rows`` and its tie
    threshold, the least ratio plus 1e-12: of the rows whose entry is
    above ``_PIVOT_TOL`` and whose ratio is at or below the threshold, the
    one of lowest basic index.  None when no row's entry is usable."""
    usable, ratios = [], []
    for i, row in enumerate(rows):
        if row[j] > _PIVOT_TOL:
            usable.append(i)
            ratios.append(row[-1] / row[j])
    if not usable:
        return None
    top = min(ratios) + 1e-12
    return min((i for i, q in zip(usable, ratios) if q <= top), key=basis.__getitem__), top


def _bland(T: list, basis: list, width: int, done: int = 0) -> str:
    """Minimize in place.  Objective row last, right-hand side column last;
    only the first ``width`` columns may enter.  ``done`` pivots count
    against the cap already."""
    for pivots in itertools.count(done):
        obj = T[-1]
        for j in range(width):
            if obj[j] < -_RC_TOL:
                break
        else:
            return OPTIMAL
        leaving = _leaving(T[:-1], j, basis)
        if leaving is None:
            return UNBOUNDED
        if pivots == _MAX_PIVOTS:
            raise RuntimeError("simplex pivot cap exceeded")
        _pivot(T, leaving[0], j)
        basis[leaving[0]] = j


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
    beyond the reduced-cost tolerance, else OPTIMAL at u = 0.  A polytope
    from :func:`core.stack_rows` whose right-hand sides are all >= 0 is
    solved along its actuator polytope's :class:`PivotTrie`, with the same
    bits.
    """
    c = problem.objective
    status, u = _maximize(c, problem.constraints)
    if status != OPTIMAL:
        return LpOutcome(status)
    return LpOutcome(OPTIMAL, float(c @ u), u)


def _point(T: list, basis: list, width: int, n: int) -> list:
    """The basic solution's u = u+ - u-, as a list."""
    z = [0.0] * width
    for row, bi in zip(T, basis):
        z[bi] = row[-1]
    return [p - q for p, q in zip(z[:n], z[n:2 * n])]


def _phase_two(T: list, basis: list, width: int, n: int, done: int = 0):
    """:func:`_bland` on a Phase-II tableau: the status and the point,
    None unless OPTIMAL."""
    if _bland(T, basis, width, done) == UNBOUNDED:
        return UNBOUNDED, None
    return OPTIMAL, np.array(_point(T, basis, width, n))


def _maximize(c: np.ndarray, poly: Polytope):
    """:func:`solve_lp`'s status and point, the point None unless OPTIMAL."""
    cs = c.tolist()
    if poly._lead is not None:
        out = pivot_trie(poly._lead[0]).solve(cs, poly.A.tolist(), poly.b.tolist(), poly._lead[1])
        if out is not None:
            return out
    n = c.size
    feasible, T, basis, width = _phase_one(poly.A, poly.b)
    if not feasible:
        return INFEASIBLE, None
    T, basis = _drop_artificials(T, basis, width)

    f = [-v for v in cs] + cs + [0.0] * (width - 2 * n)
    obj = f + [0.0]
    for row, bi in zip(T, basis):
        if f[bi] != 0.0:
            obj = [p - f[bi] * q for p, q in zip(obj, row)]
    T[-1] = obj
    return _phase_two(T, basis, width, n)


class _Node:
    """A trie node: the actuator rows' tableau ``rows`` and ``basis`` after
    the pivots ``path`` from the root, each ``(entering column, tie
    threshold, normalized pivot row)``.  ``children`` maps an entering column to
    the next node, or to None when the walk must leave the trie there
    (see :meth:`PivotTrie._child`).  ``u`` is the point there, the
    maximizer of every objective that enters no column at the node."""

    def __init__(self, rows, basis, n, path=()):
        self.rows, self.basis, self.path = rows, basis, path
        self.children, self.u = {}, _point(rows, basis, 2 * n + len(rows), n)


class PivotTrie:
    """The Phase-II pivots of :func:`solve_lp` on an actuator polytope's
    rows, memoized.  A program from :func:`core.stack_rows` puts m leading
    rows above those rows; when every right-hand side is >= 0, Phase-I adds
    no artificial and Phase-II starts from the slack basis, so its pivots
    can be followed here and the stacked tableau need not be built.

    The tableau is kept in the actuator layout, without the leading rows'
    slack columns: u+, u-, the actuator slacks, the right-hand side.  A
    node is reached by its entering columns, one per pivot (see
    :class:`_Node`).  :meth:`walk` updates only the objective row and the
    leading rows, with :func:`_pivot`'s ``a - m * v``.  Its bits are
    :func:`solve_lp`'s on the stacked tableau, step for step:

    - the entering column is the same: the leading rows' slack columns
      stay +0.0 in the objective row while no leading row pivots, and
      Bland's rule reads the other columns in the same order;
    - the leaving row is the same: the stacked tableau takes the least
      ratio plus 1e-12 over all rows, so while no leading row has a usable
      entry with a ratio at or below the node's tie threshold, the actuator rows
      alone decide, in the same basis order (the slack indices only shift);
    - the actuator rows never read the leading rows, so their tableau is
      the node's, and so is the point when no column enters.

    At the first step where a leading row would leave or tie, or the
    actuator rows alone are unbounded, :meth:`solve` builds the stacked
    tableau there, its leading rows' slack columns the exact +0.0 and 1.0
    that every update with a finite multiplier leaves them, and
    :func:`_bland` finishes.

    All of this holds while every right-hand side stays finite: a
    non-finite multiplier leaves its row's right-hand side non-finite for
    good (and NaN in its slack columns in the stacked tableau), and a NaN
    ratio would make the least ratio depend on row order.  So a pivot that
    leaves an actuator row's right-hand side non-finite is never kept as a
    node (the walk leaves the trie before it, and :func:`_bland` makes it
    on the stacked tableau), and a solve whose leading rows or objective
    row end with one is made again from Phase-I.

    ``hits`` counts solves that finished on the trie, ``builds`` the
    tableaux built where a solve left it, and ``nodes`` the nodes and
    None marks held, at most ``_TRIE_CAP``; a node past the cap is made
    for the solve at hand and dropped, so such a solve pivots the actuator
    rows itself, with the same bits.  Two threads growing one node each
    make the same node from the same parent, and one keeps it: every
    solve gets the same bits, but the counts may drift and the cap may be
    passed by one node per thread."""

    def __init__(self, poly: Polytope):
        self.n2, self.width = 2 * poly.dim, 2 * poly.dim + poly.rows
        self.nodes = self.hits = self.builds = 0
        # Phase-I's slack tableau, without its objective row; an actuator
        # row with b < 0 needs Phase-I pivots, so no trie then
        _, T, basis, _ = _phase_one(poly.A, poly.b)
        self.root = None if (poly.b < 0).any() else _Node(T[:-1], basis, poly.dim)

    def _child(self, node: _Node, j: int):
        """The node after entering column ``j`` at ``node``, kept while
        the trie holds fewer than ``_TRIE_CAP`` entries; None when no
        actuator row may leave, or when the pivot leaves a right-hand side
        non-finite."""
        child, leaving = None, _leaving(node.rows, j, node.basis)
        if leaving is not None:
            (r, top), T, basis = leaving, list(node.rows), list(node.basis)
            prow = _pivot(T, r, j)
            basis[r] = j
            if all(math.isfinite(row[-1]) for row in T):
                child = _Node(T, basis, self.n2 // 2, node.path + ((j, top, prow),))
        if self.nodes < _TRIE_CAP:
            node.children[j], self.nodes = child, self.nodes + 1
        return child

    def walk(self, cs: list, A: list, b: list):
        """Follow the objective ``cs`` from the root with the leading rows
        ``A u <= b``, kept in the actuator layout.  Returns the last node,
        the objective and leading rows there, the pivots made, and the
        column where the walk leaves the trie, None when no column
        enters."""
        pad, node = [0.0] * (self.width - self.n2), self.root
        obj, lead = [-v for v in cs] + cs + pad + [0.0], [a + [-x for x in a] + pad + [v]
                                                         for a, v in zip(A, b)]
        for pivots in itertools.count():
            for j in range(self.width):
                if obj[j] < -_RC_TOL:
                    break
            else:
                return node, obj, lead, pivots, None
            child = node.children[j] if j in node.children else self._child(node, j)
            if child is None or any(row[j] > _PIVOT_TOL and row[-1] / row[j] <= child.path[-1][1]
                                    for row in lead):
                return node, obj, lead, pivots, j
            if pivots == _MAX_PIVOTS:
                raise RuntimeError("simplex pivot cap exceeded")
            rows, node = [obj] + lead, child
            _eliminate(rows, j, child.path[-1][2])
            obj, *lead = rows

    def solve(self, cs: list, A: list, b: list, m: int):
        """:func:`_maximize` of ``cs`` over the rows ``A u <= b``, the
        first m stacked above the actuator rows; None when the trie does
        not apply (an actuator or leading right-hand side is < 0) or a
        leading or objective row overflowed (see the class docstring)."""
        if self.root is None or min(b[:m]) < 0:
            return None
        node, obj, lead, pivots, j = self.walk(cs, A[:m], b[:m])
        if not all(math.isfinite(row[-1]) for row in lead + [obj]):
            return None
        if j is None:
            self.hits += 1
            return OPTIMAL, np.array(node.u)
        self.builds += 1
        n2, zeros = self.n2, [0.0] * m
        T = [row[:n2] + zeros[:i] + [1.0] + zeros[i + 1:] + row[n2:] for i, row in enumerate(lead)]
        T += [row[:n2] + zeros + row[n2:] for row in node.rows + [obj]]
        basis = list(range(n2, n2 + m)) + [bi + m if bi >= n2 else bi for bi in node.basis]
        return _phase_two(T, basis, self.width + m, n2 // 2, pivots)


def pivot_trie(poly: Polytope) -> PivotTrie:
    """``poly``'s :class:`PivotTrie`, made on first use.  Its counters
    read the solves of every program stacked on ``poly``."""
    if poly._trie is None:
        object.__setattr__(poly, "_trie", PivotTrie(poly))
    return poly._trie


class BlandPath:
    """The Phase-II pivots of ``maximize c @ u`` over ``inputs``, as
    :func:`solve_lp` makes them, for :meth:`follows` to replay: ``steps``
    holds one ``(entering column, tie threshold, normalized pivot row)``
    per pivot, the path of a node of ``inputs``'s :class:`PivotTrie`.
    ``point`` is :func:`solve_lp`'s maximizer and ``value`` its value,
    ``float(c @ point)``.

    ``c`` is checked by :func:`core.objective_vector`.  Only an optimal
    program is recorded: ``inputs`` must have every right-hand side >= 0
    (so u = 0 is in it) and the program must be bounded, else
    ``ValueError``.  The continuous scan records the reach
    row over a scenario's input polytope, which construction proves
    nonempty and bounded."""

    def __init__(self, c: np.ndarray, inputs: Polytope):
        trie, c = pivot_trie(inputs), objective_vector(c, inputs.dim)
        if trie.root is None:
            raise ValueError("a recorded path needs right-hand sides >= 0")
        node, *_, j = trie.walk(c.tolist(), [], [])
        if j is not None:
            raise ValueError(f"a recorded path needs an optimal program, got {UNBOUNDED}")
        self.point = np.array(node.u)
        self.value = float(c @ self.point)
        self.steps, self.columns = [(j, q, np.array(p)) for j, q, p in node.path], trie.width + 1

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
        Returns a (K,) mask of the programs that pass.  A program that
        fails a step is still updated, with its own rows only, and its
        mask entry stays False."""
        K, m, n = A.shape
        R = np.zeros((K, m, self.columns))
        R[:, :, :n], R[:, :, n:2 * n], R[:, :, -1] = A, -A, b
        follows = np.ones(K, dtype=bool)
        for j, top, prow in self.steps:
            col = R[:, :, j]
            ratios = np.divide(R[:, :, -1], col, out=np.full(col.shape, np.inf),
                               where=col > _PIVOT_TOL)
            follows &= ~(ratios <= top).any(axis=1)
            R -= col[:, :, None] * prow
            R[:, :, j] = 0.0
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

