import random

from morasslab.intervals import intersect, normalize
from morasslab.ordinal import omega_times
from oracles import oracle_intersect


def random_intervals(rng: random.Random) -> list:
    """Up to eight intervals below w*4 + 6, possibly empty, overlapping, adjacent or unsorted."""
    out = []
    for _ in range(rng.randrange(9)):
        lo = omega_times(rng.randrange(4), rng.randrange(6))
        hi = omega_times(rng.randrange(4), rng.randrange(6))
        out.append((lo, hi))
    return out


def test_intersect_matches_pairwise_oracle():
    rng = random.Random(31)
    nonempty = 0
    for _ in range(3000):
        a, b = random_intervals(rng), random_intervals(rng)
        got = intersect(a, b)
        assert got == oracle_intersect(a, b), (a, b)
        assert got == normalize(got)
        assert intersect(normalize(a), normalize(b)) == got
        nonempty += bool(got)
    assert nonempty > 1000

