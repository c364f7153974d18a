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

Phase-II has two paths: :func:`solve_lp` serves single solves and is the
oracle, and :func:`solve_lp_batch` the LPs the continuous scan holds.  The
README's design notes say why both are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Polytope, as_vector

__all__ = [
    "INFEASIBILITY_TOL",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LpProblem",
    "LpOutcome",
    "solve_lp",
    "solve_lp_batch",
    "objective_vector",
    "phase_one_feasible",
    "blocks_all_inputs",
]

INFEASIBILITY_TOL = 1e-7  # Phase-I objective above this means "no point exists"
_RC_TOL = 1e-9            # reduced-cost threshold for optimality
_PIVOT_TOL = 1e-10        # smallest usable pivot magnitude
_MAX_PIVOTS = 20_000      # defensive cap; Bland's rule precludes cycling

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


def objective_vector(objective, dim: int) -> np.ndarray:
    """The objective as a finite float vector of length ``dim``, with the
    errors :class:`LpProblem` raises."""
    c = as_vector(objective, "objective")
    if c.size != dim:
        raise ValueError(f"objective dim {c.size} does not match polytope dim {dim}")
    return c


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None


def _pivot(T: np.ndarray, r: int, c: int) -> None:
    T[r] = T[r] / T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, c] = 0.0
    T[r, c] = 1.0


def _bland(T: np.ndarray, basis: list, width: int) -> str:
    """Minimize in place.  Objective row last, right-hand side column last;
    only the first ``width`` columns may enter."""
    for _ in range(_MAX_PIVOTS):
        improving = np.nonzero(T[-1, :width] < -_RC_TOL)[0]
        if improving.size == 0:
            return OPTIMAL
        j = int(improving[0])
        col = T[:-1, j]
        pos = np.nonzero(col > _PIVOT_TOL)[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = T[:-1, -1][pos] / col[pos]
        tied = pos[ratios <= ratios.min() + 1e-12]
        r = int(min(tied, key=lambda i: basis[i]))
        _pivot(T, r, j)
        basis[r] = j
    raise RuntimeError("simplex pivot cap exceeded")


def _phase_one(A: np.ndarray, b: np.ndarray):
    """Feasibility tableau for {u : A u <= b} with u free (split u+ - u-).

    Returns (feasible, T, basis, width) where ``width`` counts the
    structural columns (u+, u-, slacks) preceding the artificials.
    """
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
        _bland(T, basis, width + n_art)
    feasible = -T[-1, -1] <= INFEASIBILITY_TOL
    return feasible, T, basis, width


def _drop_artificials(T: np.ndarray, basis: list, width: int):
    """Pivot zero-level artificials out of the basis (dropping redundant
    rows) and strip the artificial columns."""
    keep = []
    for i in range(len(basis)):
        if basis[i] < width:
            keep.append(i)
            continue
        structural = np.nonzero(np.abs(T[i, :width]) > _PIVOT_TOL)[0]
        if structural.size:
            _pivot(T, i, int(structural[0]))
            basis[i] = int(structural[0])
            keep.append(i)
    cols = np.concatenate([np.arange(width), [T.shape[1] - 1]])
    return np.ascontiguousarray(T[keep + [T.shape[0] - 1]][:, cols]), [basis[i] for i in keep]


def solve_lp(problem: LpProblem) -> LpOutcome:
    """Maximize the objective over the polytope.

    Outcomes: OPTIMAL with value and maximizing point, INFEASIBLE when the
    Phase-I optimum exceeds ``INFEASIBILITY_TOL``, UNBOUNDED when the
    objective improves along a feasible ray.  Identical inputs always yield
    identical outcomes, point included.
    """
    c = problem.objective
    poly = problem.constraints
    n = c.size
    if poly.rows == 0:
        if np.any(np.abs(c) > 0.0):
            return LpOutcome(UNBOUNDED)
        return LpOutcome(OPTIMAL, 0.0, np.zeros(n))

    feasible, T, basis, width = _phase_one(poly.A, poly.b)
    if not feasible:
        return LpOutcome(INFEASIBLE)
    T, basis = _drop_artificials(T, basis, width)

    f = np.zeros(width)
    f[:n] = -c
    f[n:2 * n] = c
    T[-1, :width] = f
    T[-1, -1] = 0.0
    for i, bi in enumerate(basis):
        if f[bi] != 0.0:
            T[-1] -= f[bi] * T[i]
    status = _bland(T, basis, width)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    z = np.zeros(width)
    for i, bi in enumerate(basis):
        z[bi] = T[i, -1]
    u = z[:n] - z[n:2 * n]
    return LpOutcome(OPTIMAL, float(c @ u), u)


def solve_lp_batch(C, A, b) -> list:
    """:func:`solve_lp` on K programs at once: maximize ``C[k] @ u`` over
    ``{u : A[k] u <= b[k]}``, with ``C``, ``A`` and ``b`` of shapes (K, n),
    (K, r, n) and (K, r).  Returns one :class:`LpOutcome` per program.

    Every right-hand side must be >= 0, so the slack basis is feasible,
    Phase-I has no artificial to drive out and no program is infeasible.
    Phase-II runs Bland's rule on a (K, r + 1, 2n + r + 1) stack of
    tableaux.  Each step applies the scalar entering rule, ratio test and
    elementwise :func:`_pivot` arithmetic to the tableaux still running, so
    every program gets the pivots, the point and the value, bit for bit,
    that :func:`solve_lp` gives it.
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
    if r == 0:
        return [solve_lp(LpProblem(c, Polytope(np.zeros((0, n)), np.zeros(0)))) for c in C]

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
    for _ in range(_MAX_PIVOTS):
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
    else:
        raise RuntimeError("simplex pivot cap exceeded")

    z = np.zeros((K, width))
    z[np.arange(K)[:, None], basis] = T[:, :-1, -1]
    U = z[:, :n] - z[:, n:2 * n]
    return [
        LpOutcome(UNBOUNDED) if unbounded[k] else LpOutcome(OPTIMAL, float(C[k] @ U[k]), U[k])
        for k in range(K)
    ]


def phase_one_feasible(poly: Polytope) -> bool:
    """True when the polytope contains at least one point."""
    if poly.rows == 0:
        return True
    feasible, _, _, _ = _phase_one(poly.A, poly.b)
    return feasible


def blocks_all_inputs(feasible_inputs: Polytope) -> bool:
    """True when the safe-input polytope is empty, i.e. the test that
    produced it leaves the system with no admissible input.  Such tests are
    maximally difficult by construction."""
    return not phase_one_feasible(feasible_inputs)

