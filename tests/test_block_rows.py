"""Block rows against the per-test rows they replace.

``LieCache.avoid_block`` builds a block of tests' avoid rows from the
barriers' ``batch`` callbacks with one matrix product per barrier; the
continuous scan relies on those rows having the bits of ``avoid_rows`` at
each test.  The differential check runs in process with one BLAS thread
(see conftest.py) and again in a fresh interpreter with the default
thread count.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advsynth import ClassKappaFn, ContinuousDynamics, build_unicycle
from advsynth.core import LieCache, avoid_rows
from advsynth.scenarios import _scalar_squares

HERE = Path(__file__).resolve().parent


def _variants(obstacles: int, rng):
    """The shipped unicycle, one with a constant nonzero drift (so the
    drift column of the product is not all zeros) and one whose gains have
    a nonlinear form (so alpha runs per test)."""
    scn = build_unicycle(n_obstacles=obstacles)
    f0 = rng.normal(size=3) * 10.0 ** rng.integers(-3, 3, size=3)
    drift = ContinuousDynamics(lambda x, d: f0, scn.dynamics.g, reads=())
    cubic = tuple(ClassKappaFn(7.5, form=lambda r: r * abs(r) + r) for _ in scn.spec.gains)
    return [
        (scn.spec, scn.dynamics),
        (scn.spec, drift),
        (dataclasses.replace(scn.spec, gains=cubic), scn.dynamics),
    ]


def block_row_mismatches(seed: int, pairs: int):
    """``(checked, mismatched)``: (x, d) pairs whose block row differs in
    any byte, signed zeros included, from ``avoid_rows`` at that test.

    Each block draws its tests uniformly from the box, with some
    coordinates moved onto a face of it and some obstacles put on the
    agent; some states are put on an obstacle center.  One to three
    obstacles, each with the three variants of :func:`_variants`."""
    rng = np.random.default_rng(seed)
    checked = mismatched = 0
    while checked < pairs:
        obstacles = int(rng.integers(1, 4))
        for spec, dyn in _variants(obstacles, rng):
            K = int(rng.integers(1, 300))
            D = rng.uniform(-1.0, 1.0, size=(K, 2 * obstacles))
            face = rng.random(D.shape) < 0.15
            D[face] = rng.choice([-1.0, 1.0], size=int(face.sum()))
            x = np.array([*rng.uniform(-1.2, 1.2, size=2), rng.uniform(0.0, 2.0 * math.pi)])
            if rng.random() < 0.2:
                x[2] = rng.choice([0.0, math.pi / 2, math.pi])
            for k in np.flatnonzero(rng.random(K) < 0.1):
                j = rng.integers(obstacles)
                D[k, 2 * j:2 * j + 2] = x[:2]
            if rng.random() < 0.3:
                k, j = rng.integers(K), rng.integers(obstacles)
                x[:2] = D[k, 2 * j:2 * j + 2]
            A, b = LieCache(spec, dyn, x, D.shape[1], 2).avoid_block(D)
            assert len(b) == K
            for k in range(K):
                A1, b1 = avoid_rows(spec, dyn, x, D[k], 2)
                mismatched += A[k].tobytes() != A1.tobytes() or b[k].tobytes() != b1.tobytes()
            checked += K
    return checked, mismatched


def test_block_rows_have_the_bits_of_scalar_rows():
    checked, mismatched = block_row_mismatches(2024, 100_000)
    assert checked >= 100_000
    assert mismatched == 0


def test_block_rows_have_the_bits_of_scalar_rows_with_default_blas_threads():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(HERE.parent / "src")])
    code = ("from test_block_rows import block_row_mismatches; "
            "print(*block_row_mismatches(2025, 100_000))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    checked, mismatched = map(int, out.stdout.split())
    assert checked >= 100_000
    assert mismatched == 0


def test_scalar_squares_have_the_bits_of_float64_power():
    rng = np.random.default_rng(5)
    a = np.concatenate([rng.uniform(-3.0, 3.0, 4000), [0.0, -0.0, 1e200, -1e200, 5e-324]])
    with np.errstate(over="ignore"):
        want = np.array([v ** 2 for v in a])
    got = _scalar_squares(a)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[-3:-1]).all()
    # an array's own square is not the same function
    assert (a[:4000] * a[:4000] != want[:4000]).any()


def _with_nan(h, bad, where):
    """Avoid barrier ``h`` whose batch gives a NaN value or gradient at the
    tests in the rows of ``bad``."""
    def batch(x, D):
        values, grads = h.batch(x, D)
        hit = (D[:, None, :] == bad[None]).all(axis=2).any(axis=1)
        if where == "value":
            values[hit] = np.nan
        else:
            grads[hit, 0] = np.nan
        return values, grads
    return dataclasses.replace(h, batch=batch)


@pytest.mark.parametrize("where,message", [
    ("value", "polytope coefficients must be finite"),
    ("gradient", "barrier gradient contains non-finite entries"),
])
def test_block_stops_before_the_first_invalid_test(where, message):
    # rows up to the first invalid test come back; asked again from that
    # test, the block raises what avoid_rows raises there
    scn = build_unicycle(n_obstacles=2)
    h0, h1 = scn.spec.avoid
    x = np.array([0.1, -0.3, 1.0])
    D = np.random.default_rng(3).uniform(-1.0, 1.0, size=(12, 4))
    spec = dataclasses.replace(scn.spec, avoid=(h0, _with_nan(h1, D[[5, 9]], where)))
    cache = LieCache(spec, scn.dynamics, x, 4, 2)
    A, b = cache.avoid_block(D)
    assert A.shape == (5, 2, 2) and b.shape == (5, 2)
    want_A, want_b = LieCache(scn.spec, scn.dynamics, x, 4, 2).avoid_block(D[:5])
    assert A.tobytes() == want_A.tobytes() and b.tobytes() == want_b.tobytes()
    with pytest.raises(ValueError, match=message):
        cache.avoid_block(D[5:])


@pytest.mark.parametrize("returned", [
    lambda v, g: (v[:-1], g),
    lambda v, g: (v, g[:, :2]),
    lambda v, g: (v, g[None]),
])
def test_block_rejects_batch_shapes_that_do_not_match(returned):
    scn = build_unicycle()
    h = scn.spec.avoid[0]
    bad = dataclasses.replace(h, batch=lambda x, D: returned(*h.batch(x, D)))
    spec = dataclasses.replace(scn.spec, avoid=(bad,))
    cache = LieCache(spec, scn.dynamics, np.zeros(3), 2, 2)
    with pytest.raises(ValueError, match="batch of avoid barrier 0 gave shapes"):
        cache.avoid_block(np.zeros((3, 2)))


def test_blocks_need_a_batch_on_every_avoid_barrier_and_fixed_dynamics():
    scn = build_unicycle(n_obstacles=2)
    h0, h1 = scn.spec.avoid
    x = np.zeros(3)

    def batched(spec, dyn):
        return LieCache(spec, dyn, x, 4, 2).batched

    assert batched(scn.spec, scn.dynamics)
    one_missing = dataclasses.replace(scn.spec, avoid=(h0, dataclasses.replace(h1, batch=None)))
    assert not batched(one_missing, scn.dynamics)
    reads_test = dataclasses.replace(scn.dynamics, reads=(0,))
    assert not batched(scn.spec, reads_test)
    undeclared = dataclasses.replace(scn.dynamics, reads=None)
    assert not batched(scn.spec, undeclared)
    coupled = dataclasses.replace(scn.dynamics, C=np.zeros((3, 4)))
    assert not batched(scn.spec, coupled)
