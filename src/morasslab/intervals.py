"""Half-open ordinal intervals [lo, hi) and unions thereof.

Interval unions are kept normalized: nonempty, sorted by lower endpoint,
pairwise disjoint and non-adjacent.  They represent subsets of a level
exactly, which is what the boundedness decision procedure relies on.
"""

from __future__ import annotations

from typing import Iterable

from .ordinal import OrdinalCNF

Interval = tuple[OrdinalCNF, OrdinalCNF]


def normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    items = sorted((lo, hi) for lo, hi in intervals if lo < hi)
    out: list[Interval] = []
    for lo, hi in items:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def intersect(a: Iterable[Interval], b: Iterable[Interval]) -> tuple[Interval, ...]:
    """Intersection by one merge pass over the two normalized unions.

    The pieces come out sorted and disjoint, and two of them are separated
    by a gap of one union or the other, so the result is normalized.
    """
    na, nb = normalize(a), normalize(b)
    out = []
    i = j = 0
    while i < len(na) and j < len(nb):
        (alo, ahi), (blo, bhi) = na[i], nb[j]
        lo = max(alo, blo)
        hi = min(ahi, bhi)
        if lo < hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return tuple(out)


def intersect_all(unions: Iterable[Iterable[Interval]]) -> tuple[Interval, ...]:
    items = list(unions)
    if not items:
        return ()
    acc = normalize(items[0])
    for nxt in items[1:]:
        acc = intersect(acc, nxt)
        if not acc:
            break
    return acc


def first_point(intervals: Iterable[Interval]) -> OrdinalCNF | None:
    norm = normalize(intervals)
    return norm[0][0] if norm else None

