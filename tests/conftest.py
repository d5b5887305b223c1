import random

import pytest

from morasslab.forcing import Condition, BlockMap, build_fragment, extend_to_cover, seed_condition
from morasslab.morass import LevelData, MorassFragment
from morasslab.ordinal import OMEGA, ZERO, OrdinalCNF, omega_times, parse_ordinal


def o(text: str):
    return parse_ordinal(text)


@pytest.fixture(scope="session")
def frag0():
    """Two-level fragment: theta_0 = w split at 0, top w*2."""
    return MorassFragment(1, (LevelData(OMEGA, ZERO, OMEGA),), o("w*2"))


@pytest.fixture(scope="session")
def tower3():
    """Three direct-extension steps: thetas w, w*2, w*4, top w*8, all splits at 0."""
    levels = (
        LevelData(o("w"), ZERO, o("w")),
        LevelData(o("w*2"), ZERO, o("w*2")),
        LevelData(o("w*4"), ZERO, o("w*4")),
    )
    return MorassFragment(3, levels, o("w*8"))


@pytest.fixture(scope="session")
def mixed_fragment():
    """Fragment with a nonzero split point, from an overlapping amalgamation."""
    from morasslab.forcing import amalgamate

    p = Condition(
        MorassFragment(0, (), o("w*2")),
        BlockMap(((0, OMEGA), (1, OMEGA))),
    )
    q = Condition(p.frag, BlockMap(((0, OMEGA), (2, OMEGA))))
    return amalgamate(p, q).frag


def random_tasks(rng: random.Random, max_block: int = 8, max_tail: int = 10):
    count = rng.randint(1, 4)
    return [
        (rng.randrange(max_block), omega_times(rng.randrange(4), rng.randrange(max_tail)))
        for _ in range(count)
    ]


@pytest.fixture(scope="session")
def built_conditions():
    """A small pool of driver-built conditions for module tests."""
    rng = random.Random(20240817)
    out = []
    for _ in range(12):
        out.append(build_fragment(seed_condition(), random_tasks(rng), 16))
    return out


def grown_condition(rng: random.Random, height: int, max_top: int = 80):
    """A condition of the given height and a top of at most w*max_top.

    It grows from the seed one random covering target at a time and starts
    again when it jumps over the height or outgrows the top.
    """
    limit = omega_times(max_top)
    while True:
        cond = seed_condition()
        for _ in range(4 * height):
            if cond.frag.height >= height or cond.top_theta > limit:
                break
            target = (rng.randrange(8), omega_times(rng.randrange(4), rng.randrange(12)))
            cond = extend_to_cover(cond, target, 16)
        if cond.frag.height == height and cond.top_theta <= limit:
            return cond


def block_points(frag):
    """Points in every w-block of a universe w*k, and at and just above every split and theta."""
    ((exp, k),) = frag.top_theta.terms
    assert exp == 1, "grown universes are w*k"
    points = {omega_times(j, i) for j in range(k) for i in (0, 1, 5)}
    for level in frag.levels:
        for bound in (level.gamma, level.theta):
            points.update(x for x in (bound, bound + OrdinalCNF.from_int(1)) if x < frag.top_theta)
    return sorted(points, key=lambda x: x.terms)
