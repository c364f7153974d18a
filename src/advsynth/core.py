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

import itertools
import math
from dataclasses import dataclass
from functools import reduce
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
    "dim_at",
    "SynthesisResult",
    "MonitorResult",
    "as_vector",
    "objective_vector",
    "satisfaction_floor",
    "lie_derivatives",
    "feasibility_filter",
    "dynamics_at",
    "avoid_rows",
    "avoid_lists",
    "feasible_input_polytope",
    "least",
    "min_avoid",
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


def _finite(arr: np.ndarray) -> bool:
    """True when every entry of the float array is finite.  The arrays
    checked per solve hold a few entries, where a pass over Python floats
    costs a fraction of numpy's reduction call."""
    return all(map(math.isfinite, arr.ravel().tolist()))


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array, rejecting NaN/inf entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not _finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def objective_vector(objective, dim: int) -> np.ndarray:
    """The objective as a finite float vector of length ``dim``, with the
    errors :class:`lp.LpProblem` raises."""
    c = as_vector(objective, "objective")
    if c.size != dim:
        raise ValueError(f"objective dim {c.size} does not match polytope dim {dim}")
    return c


@dataclass(frozen=True, eq=False)
class Polytope:
    """Linear-inequality set {u : A u <= b}."""

    A: np.ndarray
    b: np.ndarray

    # the lp.PivotTrie of these rows, once made
    _trie = None

    def __post_init__(self):
        # read-only copies: the caller's arrays may change, and the trie
        # memoizes these
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        A.flags.writeable = b.flags.writeable = False
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

    def contains(self, u) -> bool:
        """True when ``u`` has the shape ``(dim,)`` and satisfies every row."""
        u = np.asarray(u, dtype=float)
        return u.shape == (self.dim,) and bool(np.all(self.A @ u <= self.b + 1e-8))


def _check_declaration(reads) -> None:
    if not (reads is None or (isinstance(reads, tuple) and not reads)):
        raise ValueError(f"reads must be None (no claim) or () (no test coordinate), got {reads!r}")


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar task barrier h(x, d) with an optional analytic state gradient.

    The zero-superlevel set in x encodes the predicate the barrier stands
    for.  Discrete scenarios leave ``gradient`` as None.

    ``reads=()`` declares that ``value`` and ``gradient`` read no test
    coordinate; None makes no claim, and any other value raises
    ``ValueError``.  Only the reach barrier's is used (see :class:`LieCache`),
    and it must be true: a false one gives wrong results.

    ``batch(x, D)``, optional, returns the values (K,) and gradients
    (K, n) at the K tests in the rows of D.  It must be pure and give the
    bits of ``value`` and ``gradient`` at each test.  The rows
    :meth:`LieCache.avoid_block` builds from it keep the per-test bits
    only where ``tests/test_block_rows.py`` checks them (the shipped
    scenarios); run that check for a custom ``batch``'s shapes.
    """

    value: Callable[[object, object], float]
    gradient: Optional[Callable[[object, object], np.ndarray]] = None
    reads: Optional[tuple] = None
    batch: Optional[Callable[[object, np.ndarray], tuple]] = None

    def __post_init__(self):
        _check_declaration(self.reads)


@dataclass(frozen=True)
class ClassKappaFn:
    """Linear class-K gain alpha(r) = gain * r, the gain positive and finite.

    Any other strictly increasing alpha with alpha(0) = 0 is a plain
    callable in :attr:`ReachAvoidSpec.gains`: alpha(h) enters only the
    right-hand side of a safe-input row, so every gain keeps the rows
    linear in u.
    """

    gain: float

    def __post_init__(self):
        if not (self.gain > 0 and math.isfinite(self.gain)):
            raise ValueError("gain must be a positive finite number")

    def __call__(self, r: float) -> float:
        return self.gain * float(r)


@dataclass(frozen=True)
class ContinuousDynamics:
    """Control-affine dynamics xdot = f(x, d) + g(x, d) u.

    f and g always receive the active test vector, so dynamics perturbations
    (actuator failures, drift offsets) are written into them; nominal
    scenarios simply ignore it.  An additive coupling C d is part of f:
    ``f=lambda x, d: f0(x, d) + C @ np.asarray(d, dtype=float)``.
    ``reads`` declares, as on :class:`BarrierFunction`, that f and g read no
    test coordinate.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reads: Optional[tuple] = None

    def __post_init__(self):
        _check_declaration(self.reads)

    def xdot(self, x, u, d) -> np.ndarray:
        f, G = dynamics_at(self, x, d)
        return f + G @ np.asarray(u, dtype=float)


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
        if not lo.size:
            raise ValueError("test box needs at least one coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, d) -> bool:
        """True when ``d`` has the box's shape ``(dim,)`` and lies in it."""
        d = np.asarray(d, dtype=float)
        return d.shape == self.lower.shape and bool(
            np.all(d >= self.lower - 1e-9) and np.all(d <= self.upper + 1e-9))


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


def dim_at(space: TestSpace, x) -> int:
    """The length of ``space``'s test vectors: a box's dimension, or a
    finite set's first point's size, with a mapped space realized at
    (x, 0) first."""
    if isinstance(space, MappedSpace):
        space = space.at(x, 0.0)
    if isinstance(space, BoxSpace):
        return space.dim
    return np.asarray(space.points[0]).size


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Outcome of one synthesis call.

    ``in_gamma`` marks a test under which no safe input exists, the hardest
    possible outcome; ``difficulty`` then equals the satisfaction floor and
    ``inner_maximizer`` is None.  Every search stops at its first such
    test, which is already globally optimal, so :attr:`early_exit` is
    ``in_gamma``.
    """

    d_star: object
    difficulty: float
    in_gamma: bool
    inner_maximizer: Optional[object]
    evaluations: int

    @property
    def early_exit(self) -> bool:
        return self.in_gamma


def satisfaction_floor(scn) -> float:
    """The satisfaction floor pinned on the scenario, checked by
    :func:`_finite_floor`.  The floor is a modelling input, so without one
    there is none to guess."""
    if scn.floor is None:
        raise ValueError("no satisfaction floor: pin one on the scenario")
    return _finite_floor(scn.floor)


def _finite_floor(floor, name: str = "satisfaction floor") -> float:
    """``floor`` as a float, the one rule for a satisfaction floor, which
    every difficulty measure applies before any callback runs: it must be
    finite.  It is the difficulty of a test in Γ, the hardest, and an
    infinite or NaN one would rank that test with the easiest.  A shift
    of the other values, ``name`` in the error, follows the same rule."""
    floor = float(floor)
    if not math.isfinite(floor):
        raise ValueError(f"{name} must be finite, got {floor}")
    return floor


@dataclass(frozen=True)
class MonitorResult:
    satisfied: bool
    reach_time: Optional[float]
    min_avoid_value: float


def lie_derivatives(h: BarrierFunction, dyn: ContinuousDynamics, x, d, fg=None):
    """Rate decomposition of h along the dynamics.

    Returns ``(drift_rate, input_row)`` so that the barrier rate under input
    u is ``drift_rate + input_row @ u``.  ``fg`` passes
    :func:`dynamics_at`'s checked ``(f, G)`` already evaluated, in place of
    calling it.
    """
    if h.gradient is None:
        raise ValueError("barrier has no gradient; Lie derivatives undefined")
    grad = as_vector(h.gradient(x, d), "barrier gradient")
    f, G = dynamics_at(dyn, x, d) if fg is None else fg
    if f.size != grad.size:
        raise ValueError(f"gradient dim {grad.size} does not match drift dim {f.size}")
    return float(grad @ f), grad @ G


def feasibility_filter(value, point, member, fallback):
    """Two-branch select: ``value`` when ``member.contains(point)``, else
    ``fallback``.  ``member`` is anything with a ``contains`` method: a
    :class:`Polytope` or a test space."""
    return value if member.contains(point) else fallback


class LieCache:
    """The Lie-derivative pieces of one synthesis call at a fixed state x.

    f and g are evaluated once when the dynamics declare ``reads=()`` (see
    :class:`BarrierFunction`), and so is the reach rate
    when the reach barrier declares it too; otherwise each is built afresh
    per test, f and g once per test: :meth:`avoid_block` keeps a test's
    ``(f, G)``, keyed by its bytes, until :meth:`reach` takes it (about
    0.4 KB per test whose reach row waits).  Avoid rows come a block of
    tests at a time from the
    barriers' ``batch`` when f and g are evaluated once and every avoid
    barrier has one (:attr:`batched`), else one test at a time through
    :func:`avoid_rows`.  :attr:`keep_reach` says whether the reach rate and
    row are taken once; when they are, the continuous scan replays the
    walk of the kept row over the input polytope, by that polytope's
    pivot trie, once per block of held tests.
    """

    def __init__(self, spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, input_dim: int):
        self._spec, self._dyn, self._x, self._input_dim = spec, dyn, x, input_dim
        self._fixed = dyn.reads == ()
        self._reach, self._kept = None, {}
        self.keep_reach = self._fixed and spec.reach.reads == ()
        self.batched = self._fixed and all(h.batch is not None for h in spec.avoid)

    def _f_g(self, d, keep=False):
        """``dynamics_at`` at (x, d): the synthesis's one evaluation under
        ``reads=()``, else the one ``keep`` left for ``d``, or a new one."""
        key = None if self._fixed else d.tobytes()
        fg = self._kept.pop(key, None) or dynamics_at(self._dyn, self._x, d)
        if keep or self._fixed:
            self._kept[key] = fg
        return fg

    def reach(self, d: np.ndarray):
        """``lie_derivatives`` of the reach barrier at (x, d).  Its input
        row is checked where it becomes an LP objective, once: by
        :func:`continuous._best_rate`, or by the continuous scan for a
        kept row, before :meth:`lp.PivotTrie.replay`."""
        if self._reach is not None:
            return self._reach
        out = lie_derivatives(self._spec.reach, self._dyn, self._x, d, self._f_g(d))
        if self.keep_reach:
            self._reach = out
        return out

    def avoid_block(self, D: np.ndarray):
        """:func:`avoid_rows` of each test in the rows of ``D`` (one test
        without :attr:`batched`), stacked to shapes (k, barriers, inputs)
        and (k, barriers), for the leading k tests whose rows are valid;
        the first test's error is raised, so a caller that resumes at test
        k raises where a one-by-one scan would.  A block takes one product
        ``grads @ [G | f]`` per barrier."""
        if not self.batched:
            A, b = avoid_rows(self._spec, self._dyn, self._x, D[0], self._input_dim,
                              self._f_g(D[0], keep=True))
            return A[None], b[None]
        K, dim, x = len(D), self._input_dim, self._x
        f, G = self._f_g(D[0])
        if G.shape[1] != dim:
            raise ValueError(f"input row dim {G.shape[1]} does not match polytope dim {dim}")
        Gf = np.column_stack([G, f])
        Ab = np.empty((K, len(self._spec.avoid), dim + 1))
        bad_grad = np.zeros(K, dtype=bool)
        for j, (h, alpha) in enumerate(zip(self._spec.avoid, self._spec.gains)):
            values, grads = (np.asarray(a, dtype=float) for a in h.batch(x, D))
            if values.shape != (K,) or grads.shape != (K, f.size):
                raise ValueError(
                    f"batch of avoid barrier {j} gave shapes {values.shape} and "
                    f"{grads.shape} for {K} tests and state dim {f.size}"
                )
            bad_grad |= ~np.isfinite(grads).all(axis=1)
            rates = grads @ Gf
            Ab[:, j, :dim] = -rates[:, :dim]
            if isinstance(alpha, ClassKappaFn):
                kappa = alpha.gain * values  # gain * float(v)'s bits, one call per block
            else:
                kappa = [alpha(v) for v in values.tolist()]
            Ab[:, j, dim] = rates[:, dim] + kappa
        bad = bad_grad | ~np.isfinite(Ab.reshape(K, -1)).all(axis=1)
        k = int(bad.argmax()) if bad.any() else K
        if k == 0:
            raise ValueError("barrier gradient contains non-finite entries" if bad_grad[0]
                             else "polytope coefficients must be finite")
        return Ab[:k, :, :dim], Ab[:k, :, dim]


def dynamics_at(dyn: ContinuousDynamics, x, d) -> tuple:
    """``(f(x, d), G)`` with ``G = g(x, d)``: the one place f and g are
    evaluated and checked.  f must give a finite vector and G a 2-D array
    with one row per entry of f.  Every row built at (x, d) shares it as
    the ``fg`` that :func:`lie_derivatives` and :func:`avoid_rows` take;
    synthesis reuses it across tests as :class:`LieCache` says."""
    f = as_vector(dyn.f(x, d), "drift f(x, d)")
    G = np.asarray(dyn.g(x, d), dtype=float)
    if G.ndim != 2 or G.shape[0] != f.size:
        raise ValueError(f"actuation matrix shape {G.shape} does not match state dim {f.size}")
    return f, G


def avoid_rows(spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, d, input_dim: int,
               fg: Optional[tuple] = None):
    """Safe-input rows of the avoid barriers at (x, d).

    Returns ``(A, b)`` with one row per avoid barrier, ``A`` of shape
    (barriers, input_dim), such that ``A @ u <= b`` holds exactly when every
    avoid barrier's rate is at least ``-alpha(h)``.  Non-finite coefficients
    raise here, with the message :class:`Polytope` would give.  f and g are
    evaluated once, as by :func:`dynamics_at`, unless ``fg`` passes them.
    """
    d = np.asarray(d, dtype=float)
    if fg is None and spec.avoid:
        fg = dynamics_at(dyn, x, d)
    A, b = avoid_lists(spec, dyn, x, d, input_dim, fg)
    return np.array(A).reshape(len(b), input_dim), np.array(b, dtype=float)


def avoid_lists(spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, d, input_dim: int, fg):
    """:func:`avoid_rows` as Python floats, with f and g passed as ``fg``:
    ``A`` a list of rows and ``b`` their right-hand sides, every entry
    checked finite once, after every row is built."""
    A, b = [], []
    for h, alpha in zip(spec.avoid, spec.gains):
        drift_rate, input_row = lie_derivatives(h, dyn, x, d, fg)
        if input_row.size != input_dim:
            raise ValueError(
                f"input row dim {input_row.size} does not match polytope dim {input_dim}"
            )
        A.append([-v for v in input_row.tolist()])
        b.append(float(drift_rate + alpha(h.value(x, d))))
    if not all(map(math.isfinite, itertools.chain(b, *A))):
        raise ValueError("polytope coefficients must be finite")
    return A, b


def feasible_input_polytope(
    spec: ReachAvoidSpec, dyn: ContinuousDynamics, x, d, input_polytope: Polytope
) -> Polytope:
    """Inputs keeping every avoid barrier's rate above its -alpha(h) bound,
    intersected with the actuator polytope: the rows of :func:`avoid_rows`
    stacked ahead of the actuator rows, so dropping them recovers the
    actuator polytope exactly.  With no avoid rows the actuator polytope
    itself is returned.

    The result may be empty; emptiness is meaningful (the test admits no
    safe input).  The synthesizers solve the same program from lists, by
    :func:`lp.maximize_stacked`, without building this polytope.
    """
    A, b = avoid_rows(spec, dyn, x, d, input_polytope.dim)
    if not b.size:
        return input_polytope
    return Polytope(np.concatenate([A, input_polytope.A]), np.concatenate([b, input_polytope.b]))


def least(a: float, b: float) -> float:
    """``min(a, b)``, except that a NaN in either place is the result
    (``min`` keeps or drops a NaN by its place)."""
    return b if b < a or b != b else a


def min_avoid(spec: ReachAvoidSpec, x, d) -> float:
    """The avoid barriers' values at (x, d) folded with :func:`least` from
    ``inf``: the least of them, or NaN when any is NaN."""
    return reduce(least, (float(h.value(x, d)) for h in spec.avoid), math.inf)


def monitor_trajectory(
    spec: ReachAvoidSpec,
    trajectory: Sequence,
    d_sequence: Sequence,
    min_avoid_values: Optional[Sequence] = None,
) -> MonitorResult:
    """Offline reach-avoid verdict over a sampled run.

    ``trajectory`` is a sequence of (time, state) with strictly increasing
    times; ``d_sequence`` is a sequence of (time, test vector) with
    nondecreasing times.  Barriers are evaluated only at the trajectory's
    own timestamps, with the test vector held at the latest one issued at or
    before each sample (the first entry applies before any are issued).

    Satisfied means every avoid barrier stayed nonnegative at every sample
    and the reach barrier was nonnegative at some sample no later than the
    deadline.  ``min_avoid_value`` folds each sample's :func:`min_avoid`
    with :func:`least`, so a NaN anywhere shows as NaN and fails the
    verdict.  ``min_avoid_values``, when given, holds each sample's
    :func:`min_avoid` already evaluated (a closed loop's
    ``SimulationLog.min_barrier``): those are folded instead, so only the
    reach barrier is evaluated, and only up to the first sample that
    reaches.
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
    if min_avoid_values is not None and len(min_avoid_values) != len(trajectory):
        raise ValueError("need one min_avoid value per sample")

    lowest = math.inf
    reach_time = None
    j = 0
    for k, (t, x) in enumerate(trajectory):
        while j + 1 < len(d_sequence) and d_sequence[j + 1][0] <= t:
            j += 1
        d = d_sequence[j][1]
        lowest = least(lowest, min_avoid(spec, x, d) if min_avoid_values is None
                       else min_avoid_values[k])
        if reach_time is None and t <= spec.t_max and float(spec.reach.value(x, d)) >= 0.0:
            reach_time = float(t)
    satisfied = (lowest >= 0.0) and (reach_time is not None)
    return MonitorResult(satisfied, reach_time, lowest)
