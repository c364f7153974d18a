"""The pure-Python generator against numpy's own, bit for bit."""

import random

import numpy as np

from advsynth import build_quadgrid, build_unicycle
from advsynth._pcg64 import Generator

# seed word counts of 1, 2, 3 and 5 (one past SeedSequence's pool of 4)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**128 + 3, 2**160 - 1]


def test_generator_matches_default_rng():
    pick = random.Random(0)
    seeds = EDGE_SEEDS + [pick.getrandbits(pick.randint(1, 200)) for _ in range(3000)]
    boxes = [(s.state_lower, s.state_upper) for s in (build_unicycle(), build_quadgrid())]
    # odd draw counts leave a kept 32-bit half for the next integers call,
    # across uniform draws; 3 * 2**30 rejects a quarter of its draws
    draws = [(10, 2), (10, 3), (7, 1), (1000, 3), (3 * 2**30, 3)]
    for seed in seeds:
        want, got = np.random.default_rng(seed), Generator(seed)
        for high, size in draws:
            for lo, hi in boxes:
                assert [v.hex() for v in got.uniform(lo, hi)] == [
                    v.hex() for v in want.uniform(lo, hi).tolist()], seed
            assert got.integers(high, size=size) == want.integers(high, size=size).tolist(), seed
