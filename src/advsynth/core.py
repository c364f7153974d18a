"""Shared primitives for barrier-based adversarial test synthesis.

Domain types (polytopes, barrier functions, dynamics, reach-avoid tasks,
admissible test sets) plus the operations every synthesizer needs: Lie
derivatives along control-affine dynamics, the feasibility filter, assembly
of the safe-input polytope, and an offline trajectory monitor.

Continuous states, inputs and test vectors are plain 1-D float ndarrays.
Discrete scenarios use hashable tuples for states/tests and opaque labels
(strings work well) for actions.  All types here are immutable after
construction and safe to share between concurrent evaluations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ScenarioError",
    "BudgetError",
    "DEFAULT_BUDGET",
    "Polytope",
    "BarrierFunction",
    "ClassKappaFn",
    "ContinuousDynamics",
    "DiscreteDynamics",
    "ReachAvoidSpec",
    "BoxSpace",
    "FiniteSpace",
    "MappedSpace",
    "TestSpace",
    "SynthesisResult",
    "MonitorResult",
    "as_vector",
    "satisfaction_floor",
    "lie_derivatives",
    "feasibility_filter",
    "avoid_rows",
    "stack_rows",
    "feasible_input_polytope",
    "monitor_trajectory",
]


class ScenarioError(RuntimeError):
    """A scenario violated an assumption the synthesizers rely on."""


class BudgetError(ValueError):
    """A search would need more evaluations than its budget allows."""


# evaluations a search may plan before it raises BudgetError: sequence
# evaluations for the discrete enumeration, candidate tests for the
# continuous scan
DEFAULT_BUDGET = 10_000_000


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, rejecting NaN/inf entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Polytope:
    """Linear-inequality set {u : A u <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"constraint matrix must be 2-D, got shape {A.shape}")
        if b.ndim != 1 or b.size != A.shape[0]:
            raise ValueError(
                f"right-hand side length {b.shape} does not match {A.shape[0]} rows"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("polytope coefficients must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        """Axis-aligned box {u : lower <= u <= upper}."""
        lo = as_vector(lower, "lower bound")
        hi = as_vector(upper, "upper bound")
        if lo.size != hi.size or np.any(lo > hi):
            raise ValueError("box needs lower <= upper elementwise")
        eye = np.eye(lo.size)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, u, tol: float = 1e-8) -> bool:
        if self.rows == 0:
            return True
        u = np.asarray(u, dtype=float)
        return bool(np.all(self.A @ u <= self.b + tol))

    def stack(self, other: "Polytope") -> "Polytope":
        """Intersection, expressed by stacking the inequality rows."""
        if other.dim != self.dim:
            raise ValueError("cannot intersect polytopes of different dimension")
        return Polytope(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]))


def _reads(reads) -> Optional[tuple]:
    """A ``reads`` declaration as a tuple of distinct nonnegative ints."""
    if reads is None:
        return None
    try:
        reads = tuple(reads)
    except TypeError:
        raise ValueError(f"reads must be a sequence of indices, got {reads!r}") from None
    for i in reads:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral) or i < 0:
            raise ValueError(f"reads entries must be nonnegative integers, got {i!r}")
    if len(set(reads)) != len(reads):
        raise ValueError(f"reads entries must be distinct, got {reads}")
    return tuple(int(i) for i in reads)


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar task barrier h(x, d) with an optional analytic state gradient.

    The zero-superlevel set in x encodes the predicate the barrier stands
    for.  Discrete scenarios leave ``gradient`` as None.

    ``reads`` declares the test coordinates ``value`` and ``gradient``
    read; None means all of them.  Continuous synthesis computes a
    declared barrier's row once per distinct value of those coordinates,
    so a declaration that leaves out a coordinate the callbacks read gives
    wrong results.
    """

    value: Callable[[object, object], float]
    gradient: Optional[Callable[[object, object], np.ndarray]] = None
    reads: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "reads", _reads(self.reads))


@dataclass(frozen=True)
class ClassKappaFn:
    """Strictly increasing gain with alpha(0) = 0.

    Linear form gain * r by default; pass ``form`` for another monotone
    shape.  alpha(h) enters only the right-hand side of a safe-input row,
    so every form keeps the rows linear in u.
    """

    gain: float
    form: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not (self.gain > 0 and math.isfinite(self.gain)):
            raise ValueError("gain must be a positive finite number")

    def __call__(self, r: float) -> float:
        if self.form is not None:
            return float(self.form(r))
        return self.gain * float(r)


@dataclass(frozen=True)
class ContinuousDynamics:
    """Control-affine dynamics xdot = f(x, d) + g(x, d) u (+ C d).

    f and g always receive the active test vector so dynamics perturbations
    (actuator failures, drift offsets) are expressible; nominal scenarios
    simply ignore it.  C couples the test vector additively and defaults to
    zero (None).  ``reads`` declares the test coordinates f and g read,
    as :class:`BarrierFunction` does; a non-None C reads every coordinate
    whatever the declaration.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    C: Optional[np.ndarray] = None
    reads: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "reads", _reads(self.reads))
        if self.C is not None:
            C = np.asarray(self.C, dtype=float)
            if C.ndim != 2 or not np.all(np.isfinite(C)):
                raise ValueError("perturbation matrix must be a finite 2-D array")
            object.__setattr__(self, "C", C)

    def drift(self, x, d) -> np.ndarray:
        """f(x, d) plus the additive test coupling."""
        fx = as_vector(self.f(x, d), "drift f(x, d)")
        if self.C is None:
            return fx
        d = np.asarray(d, dtype=float)
        if self.C.shape != (fx.size, d.size):
            raise ValueError(
                f"perturbation matrix shape {self.C.shape} does not match "
                f"state dim {fx.size} and test dim {d.size}"
            )
        return fx + self.C @ d

    def xdot(self, x, u, d) -> np.ndarray:
        return self.drift(x, d) + np.asarray(self.g(x, d), dtype=float) @ np.asarray(u, dtype=float)


@dataclass(frozen=True)
class DiscreteDynamics:
    """Discrete transition system x' = step(x, u) over a finite action alphabet."""

    step: Callable[[object, object], object]
    alphabet: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("action alphabet must be nonempty")


@dataclass(frozen=True)
class ReachAvoidSpec:
    """Reach the goal barrier's zero-superlevel set by the deadline
    ``t_max`` while every avoid barrier stays nonnegative.

    The synthesizers read the barriers and gains; only
    :func:`monitor_trajectory` reads the deadline.
    """

    reach: BarrierFunction
    avoid: tuple
    gains: tuple
    t_max: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "avoid", tuple(self.avoid))
        object.__setattr__(self, "gains", tuple(self.gains))
        if len(self.avoid) != len(self.gains):
            raise ValueError("need one gain per avoid barrier")
        if not self.t_max > 0:
            raise ValueError("deadline must be positive")


@dataclass(frozen=True, eq=False)
class BoxSpace:
    """Axis-aligned compact box of admissible test vectors."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, "test-space lower bound")
        hi = as_vector(self.upper, "test-space upper bound")
        if lo.size != hi.size or np.any(lo > hi):
            raise ValueError("test box needs lower <= upper elementwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, d, tol: float = 1e-9) -> bool:
        d = np.asarray(d, dtype=float)
        return bool(np.all(d >= self.lower - tol) and np.all(d <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Explicit, ordered, nonempty collection of admissible test vectors.

    The stored order is the canonical enumeration order; tie-breaking in the
    discrete synthesizers follows it.
    """

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("finite test space must be nonempty")

    def __len__(self) -> int:
        return len(self.points)

    def contains(self, d) -> bool:
        return any(np.array_equal(np.asarray(p), np.asarray(d)) for p in self.points)


@dataclass(frozen=True)
class MappedSpace:
    """State/time-dependent admissible test sets.

    ``map(x, t)`` must return a BoxSpace or FiniteSpace; the constructors of
    those types enforce compactness/nonemptiness, so every realized set is
    valid by construction.
    """

    map: Callable[[object, float], Union[BoxSpace, FiniteSpace]]

    def at(self, x, t: float) -> Union[BoxSpace, FiniteSpace]:
        space = self.map(x, float(t))
        if not isinstance(space, (BoxSpace, FiniteSpace)):
            raise ValueError(
                f"test-space map returned {type(space).__name__}, "
                "expected BoxSpace or FiniteSpace"
            )
        return space


TestSpace = Union[BoxSpace, FiniteSpace, MappedSpace]


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Outcome of one synthesis call.

    ``in_gamma`` marks a test under which no safe input exists, the hardest
    possible outcome; ``difficulty`` then equals the satisfaction floor and
    ``inner_maximizer`` is None.  ``early_exit`` records that the search
    stopped at the first such test, which is already globally optimal.
    """

    d_star: object
    difficulty: float
    in_gamma: bool
    inner_maximizer: Optional[object]
    evaluations: int
    early_exit: bool = False


def satisfaction_floor(scn, floor: Optional[float] = None) -> float:
    """The satisfaction floor of a synthesis call: the explicit ``floor``,
    else the one pinned on the scenario.  The floor is a modelling input,
    so with neither there is none to guess."""
    if floor is None:
        floor = scn.floor
    if floor is None:
        raise ValueError("no satisfaction floor: pass one or pin it on the scenario")
    return float(floor)


@dataclass(frozen=True)
class MonitorResult:
    satisfied: bool
    reach_time: Optional[float]
    min_avoid_value: float


def lie_derivatives(h: BarrierFunction, dyn: ContinuousDynamics, x, d, fg=None):
    """Rate decomposition of h along the dynamics.

    Returns ``(drift_rate, input_row)`` so that the barrier rate under input
    u is ``drift_rate + input_row @ u``.  The drift part includes any
    additive test coupling C d.  ``fg`` passes ``(dyn.drift(x, d),
    dyn.g(x, d))`` already evaluated, in place of calling f and g.
    """
    if h.gradient is None:
        raise ValueError("barrier has no gradient; Lie derivatives undefined")
    grad = as_vector(h.gradient(x, d), "barrier gradient")
    drift_vec = dyn.drift(x, d) if fg is None else fg[0]
    if drift_vec.size != grad.size:
        raise ValueError(
            f"gradient dim {grad.size} does not match drift dim {drift_vec.size}"
        )
    G = np.asarray(dyn.g(x, d), dtype=float) if fg is None else fg[1]
    if G.ndim != 2 or G.shape[0] != grad.size:
        raise ValueError(
            f"actuation matrix shape {G.shape} does not match gradient dim {grad.size}"
        )
    return float(grad @ drift_vec), grad @ G


def feasibility_filter(value, point, member, fallback):
    """Two-branch select: ``value`` when ``point`` belongs to ``member``,
    else ``fallback``.

    ``member`` may be anything with a ``contains`` method (Polytope, test
    spaces), a membership predicate, or a plain container.
    """
    if hasattr(member, "contains"):
        inside = member.contains(point)
    elif callable(member):
        inside = member(point)
    else:
        inside = point in member
    return value if inside else fallback


def _key_index(h: BarrierFunction, dyn: ContinuousDynamics, test_dim: int):
    """What selects the test coordinates the Lie derivatives of ``h`` read:
    a slice, or an index array when they are not contiguous.  None when a
    declaration is missing, the dynamics carry a coupling C, or the row
    reads every coordinate: grid points never repeat, so such a row would
    seldom be found again."""
    if h.reads is None or dyn.reads is None or dyn.C is not None:
        return None
    reads = sorted(set(h.reads + dyn.reads))
    if len(reads) >= test_dim:
        return None
    lo = reads[0] if reads else 0
    if reads == list(range(lo, lo + len(reads))):
        return slice(lo, lo + len(reads))
    return np.array(reads)


class LieCache:
    """The Lie-derivative pieces of one synthesis call at a fixed state x.

    The reach barrier's ``(drift_rate, input_row)`` and each avoid
    barrier's safe-input row are kept by the bytes of the test coordinates
    they read, as declared by the barrier's and the dynamics' ``reads``,
    and computed once per distinct value.  When the dynamics read no
    coordinate, f and g are evaluated once.  A piece whose declarations
    are missing, or that reads every coordinate, is computed afresh for
    every test, so an undeclared scenario makes the calls it would make
    without the cache.  Misses go through :func:`lie_derivatives`; when
    the declarations hold, a kept piece is the float a fresh call returns.

    Memory: one entry per barrier and distinct value of the coordinates
    it reads, so never more than one per barrier and candidate examined;
    an entry takes about 300 bytes with two inputs.  On a grid with g
    points per axis, a barrier that reads r coordinates keeps at most g^r
    grid entries: 625 per obstacle for the two-obstacle unicycle on a
    25^4 grid, about 0.4 MB in all, against 19 MB of held rows.

    Every declared index must lie below ``test_dim``; one that does not
    raises ``ValueError`` here, before any callback runs.
    """

    def __init__(self, spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, test_dim: int,
                 input_dim: int):
        barriers = (spec.reach,) + spec.avoid
        for reads in [h.reads for h in barriers] + [dyn.reads]:
            for i in reads or ():
                if i >= test_dim:
                    raise ValueError(
                        f"reads index {i} is out of range for test dimension {test_dim}"
                    )
        self._spec, self._dyn, self._x, self._input_dim = spec, dyn, x, input_dim
        self._fixed = dyn.reads == () and dyn.C is None
        self._fg = None
        self._keys = [_key_index(h, dyn, test_dim) for h in barriers]
        self._memo = [{} for _ in barriers]

    def _lie(self, h: BarrierFunction, d):
        if self._fixed and self._fg is None:
            self._fg = (self._dyn.drift(self._x, d),
                        np.asarray(self._dyn.g(self._x, d), dtype=float))
        return lie_derivatives(h, self._dyn, self._x, d, self._fg)

    def _get(self, k: int, d: np.ndarray, compute, *args):
        """``compute(*args)``, kept for piece k (0 the reach rate, 1 + j
        avoid row j) by the coordinates of d it reads."""
        ix = self._keys[k]
        if ix is None:
            return compute(*args)
        key = d[ix].tobytes()
        memo = self._memo[k]
        out = memo.get(key)
        if out is None:
            out = memo[key] = compute(*args)
        return out

    def _avoid_row(self, j: int, d: np.ndarray) -> list:
        """Avoid barrier j's safe-input row ``-input_row`` followed by its
        right-hand side ``drift_rate + alpha(h)``, as floats."""
        h = self._spec.avoid[j]
        drift_rate, input_row = self._lie(h, d)
        if input_row.size != self._input_dim:
            raise ValueError(
                f"input row dim {input_row.size} does not match "
                f"polytope dim {self._input_dim}"
            )
        rhs = drift_rate + self._spec.gains[j](h.value(self._x, d))
        return [-v for v in input_row.tolist()] + [rhs]

    def reach(self, d: np.ndarray):
        """``lie_derivatives`` of the reach barrier at (x, d)."""
        return self._get(0, d, self._lie, self._spec.reach, d)

    def avoid_rows(self, d: np.ndarray):
        """:func:`avoid_rows` at (x, d); ``A`` and ``b`` are views of one
        array that holds each row with its right-hand side."""
        n, dim = len(self._spec.avoid), self._input_dim
        Ab = np.array([self._get(j + 1, d, self._avoid_row, j, d) for j in range(n)])
        Ab = Ab.reshape(n, dim + 1)
        if not np.isfinite(Ab).all():
            raise ValueError("polytope coefficients must be finite")
        return Ab[:, :dim], Ab[:, dim]


def avoid_rows(spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, d, input_dim: int,
               cache: Optional[LieCache] = None):
    """Safe-input rows of the avoid barriers at (x, d).

    Returns ``(A, b)`` with one row per avoid barrier, ``A`` of shape
    (barriers, input_dim), such that ``A @ u <= b`` holds exactly when every
    avoid barrier's rate is at least ``-alpha(h)``.  Non-finite coefficients
    raise here, with the message :class:`Polytope` would give.  The rows
    come from ``cache``, a :class:`LieCache` of the same (spec, dyn, x),
    or else from a one-shot one, so a ``reads`` index out of range of
    ``d`` raises ``ValueError``.
    """
    d = np.asarray(d, dtype=float)
    if cache is None:
        cache = LieCache(spec, dyn, x, d.size, input_dim)
    return cache.avoid_rows(d)


def stack_rows(A: np.ndarray, b: np.ndarray, input_polytope: Polytope) -> Polytope:
    """The avoid rows ``A u <= b`` stacked ahead of the actuator rows, so
    dropping them recovers the actuator polytope exactly.  With no avoid
    rows the actuator polytope itself is returned."""
    if b.size == 0:
        return input_polytope
    return Polytope(np.vstack([A, input_polytope.A]), np.concatenate([b, input_polytope.b]))


def feasible_input_polytope(
    spec: ReachAvoidSpec,
    dyn: ContinuousDynamics,
    x,
    d,
    input_polytope: Polytope,
) -> Polytope:
    """Inputs keeping every avoid barrier's rate above its -alpha(h) bound,
    intersected with the actuator polytope: :func:`avoid_rows` stacked by
    :func:`stack_rows`.

    The result may be empty; emptiness is meaningful (the test admits no
    safe input).
    """
    A, b = avoid_rows(spec, dyn, x, d, input_polytope.dim)
    return stack_rows(A, b, input_polytope)


def monitor_trajectory(
    spec: ReachAvoidSpec,
    trajectory: Sequence,
    d_sequence: Sequence,
) -> MonitorResult:
    """Offline reach-avoid verdict over a sampled run.

    ``trajectory`` is a sequence of (time, state) with strictly increasing
    times; ``d_sequence`` is a sequence of (time, test vector) with
    nondecreasing times.  Barriers are evaluated only at the trajectory's
    own timestamps, with the test vector held at the latest one issued at or
    before each sample (the first entry applies before any are issued).

    Satisfied means every avoid barrier stayed nonnegative at every sample
    and the reach barrier was nonnegative at some sample no later than the
    deadline.  ``min_avoid_value`` is +inf when there are no avoid barriers.
    """
    trajectory = list(trajectory)
    if not trajectory:
        raise ValueError("trajectory must be nonempty")
    d_sequence = list(d_sequence)
    if not d_sequence:
        raise ValueError("test-vector sequence must be nonempty")
    times = [t for t, _ in trajectory]
    if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
        raise ValueError("trajectory timestamps must be strictly increasing")
    d_times = [t for t, _ in d_sequence]
    if any(t1 > t2 for t1, t2 in zip(d_times, d_times[1:])):
        raise ValueError("test-vector timestamps must be nondecreasing")

    min_avoid = math.inf
    reach_time = None
    j = 0
    for t, x in trajectory:
        while j + 1 < len(d_sequence) and d_sequence[j + 1][0] <= t:
            j += 1
        d = d_sequence[j][1]
        for h in spec.avoid:
            min_avoid = min(min_avoid, float(h.value(x, d)))
        if reach_time is None and t <= spec.t_max and float(spec.reach.value(x, d)) >= 0.0:
            reach_time = float(t)
    satisfied = (min_avoid >= 0.0) and (reach_time is not None)
    return MonitorResult(satisfied, reach_time, float(min_avoid))
