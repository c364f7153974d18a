"""Block rows against the per-test rows they replace.

``LieCache.avoid_block`` builds a block of tests' avoid rows from the
barriers' ``batch`` callbacks with one matrix product per barrier; the
continuous scan relies on those rows having the bits of ``avoid_rows`` at
each test.  The differential check covers both shipped continuous
scenarios, in process with one BLAS thread (see conftest.py) and again in
a fresh interpreter with the default thread count.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advsynth import ContinuousDynamics, build_quadgrid, build_unicycle
from advsynth.core import LieCache, avoid_rows
from advsynth.scenarios import _scalar_squares, unit_cell_corners

HERE = Path(__file__).resolve().parent


def _variants(scn, rng):
    """The shipped dynamics and gains, a constant nonzero drift (so the
    drift column of the product is not all zeros), and nonlinear gains
    as plain callables (so alpha runs per test)."""
    n = scn.state_lower.size
    f0 = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    drift = ContinuousDynamics(lambda x, d: f0, scn.dynamics.g, reads=())
    cubic = tuple((lambda r: r * abs(r) + r) for _ in scn.spec.gains)
    return [
        (scn.spec, scn.dynamics),
        (scn.spec, drift),
        (dataclasses.replace(scn.spec, gains=cubic), scn.dynamics),
    ]


def _meet(rng, x, D):
    """Put some obstacles on the agent and, now and then, the agent on an
    obstacle center."""
    obstacles = D.shape[1] // 2
    for k in np.flatnonzero(rng.random(len(D)) < 0.1):
        j = rng.integers(obstacles)
        D[k, 2 * j:2 * j + 2] = x[:2]
    if rng.random() < 0.3:
        k, j = rng.integers(len(D)), rng.integers(obstacles)
        x[:2] = D[k, 2 * j:2 * j + 2]


def _unicycle_tests(rng):
    """One to three obstacles, drawn uniformly from the box with some
    coordinates moved onto a face of it; some headings axis-aligned."""
    obstacles = int(rng.integers(1, 4))
    D = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 300)), 2 * obstacles))
    face = rng.random(D.shape) < 0.15
    D[face] = rng.choice([-1.0, 1.0], size=int(face.sum()))
    x = np.array([*rng.uniform(-1.2, 1.2, size=2), rng.uniform(0.0, 2.0 * math.pi)])
    if rng.random() < 0.2:
        x[2] = rng.choice([0.0, math.pi / 2, math.pi])
    _meet(rng, x, D)
    return build_unicycle(n_obstacles=obstacles), x, D


def _quadgrid_tests(rng):
    """States in the state box, some on integer coordinates; tests from the
    corners of the agent's unit cell (its admissible set), or drawn around
    it with some coordinates on integers."""
    scn = build_quadgrid()
    x = rng.uniform(scn.state_lower, scn.state_upper)
    if rng.random() < 0.3:
        x = np.round(x)
    K = int(rng.integers(1, 300))
    if rng.random() < 0.5:
        corners = np.array(unit_cell_corners(x))
        D = corners[rng.integers(len(corners), size=(K, 2))].reshape(K, 4)
    else:
        D = rng.uniform(-2.0, 5.0, size=(K, 4))
        on_grid = rng.random(D.shape) < 0.3
        D[on_grid] = np.round(D[on_grid])
    _meet(rng, x, D)
    return scn, x, D


TESTS = {"unicycle": _unicycle_tests, "quadgrid": _quadgrid_tests}
# (x, d) pairs checked per scenario: quadgrid has one shape (two states,
# two inputs, two obstacles), the unicycle three
PAIRS = {"unicycle": 100_000, "quadgrid": 50_000}


def block_row_mismatches(scenario: str, seed: int, pairs: int):
    """``(checked, mismatched)``: (x, d) pairs of a shipped scenario whose
    block row differs in any byte, signed zeros included, from
    ``avoid_rows`` at that test, each block of tests with the three
    variants of :func:`_variants`."""
    rng = np.random.default_rng(seed)
    checked = mismatched = 0
    while checked < pairs:
        scn, x, D = TESTS[scenario](rng)
        for spec, dyn in _variants(scn, rng):
            A, b = LieCache(spec, dyn, x, 2).avoid_block(D)
            assert len(b) == len(D)
            for k in range(len(D)):
                A1, b1 = avoid_rows(spec, dyn, x, D[k], 2)
                mismatched += A[k].tobytes() != A1.tobytes() or b[k].tobytes() != b1.tobytes()
            checked += len(D)
    return checked, mismatched


def test_block_rows_have_the_bits_of_scalar_rows():
    for scenario, pairs in sorted(PAIRS.items()):
        checked, mismatched = block_row_mismatches(scenario, 2024, pairs)
        assert checked >= pairs, scenario
        assert mismatched == 0, scenario


def test_block_rows_have_the_bits_of_scalar_rows_with_default_blas_threads():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(HERE.parent / "src")])
    code = ("from test_block_rows import PAIRS, block_row_mismatches\n"
            "for s, n in sorted(PAIRS.items()): print(*block_row_mismatches(s, 2025, n))")
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == len(PAIRS)
    for line, (scenario, pairs) in zip(lines, sorted(PAIRS.items())):
        checked, mismatched = map(int, line.split())
        assert checked >= pairs, scenario
        assert mismatched == 0, scenario


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
    cache = LieCache(spec, scn.dynamics, x, 2)
    A, b = cache.avoid_block(D)
    assert A.shape == (5, 2, 2) and b.shape == (5, 2)
    want_A, want_b = LieCache(scn.spec, scn.dynamics, x, 2).avoid_block(D[:5])
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
    cache = LieCache(spec, scn.dynamics, np.zeros(3), 2)
    with pytest.raises(ValueError, match="batch of avoid barrier 0 gave shapes"):
        cache.avoid_block(np.zeros((3, 2)))


def test_blocks_need_a_batch_on_every_avoid_barrier_and_fixed_dynamics():
    scn = build_unicycle(n_obstacles=2)
    h0, h1 = scn.spec.avoid
    x = np.zeros(3)

    def batched(spec, dyn):
        return LieCache(spec, dyn, x, 2).batched

    assert batched(scn.spec, scn.dynamics)
    one_missing = dataclasses.replace(scn.spec, avoid=(h0, dataclasses.replace(h1, batch=None)))
    assert not batched(one_missing, scn.dynamics)
    undeclared = dataclasses.replace(scn.dynamics, reads=None)
    assert not batched(scn.spec, undeclared)
    coupled = dataclasses.replace(scn.dynamics, C=np.zeros((3, 4)))
    assert not batched(scn.spec, coupled)
    # every shipped continuous scenario builds its rows in blocks
    quad = build_quadgrid()
    assert LieCache(quad.spec, quad.dynamics, np.zeros(2), 2).batched
