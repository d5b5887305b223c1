"""Independent oracles used by the tests and the acceptance suite.

Everything here recomputes expected values along a different route than
the library: ordinal arithmetic through explicit block-sequence well
orders, predecessors and cover levels through exhaustive word enumeration
or preimages under the successor maps, fullness through interval
propagation, boundedness through grid search, layer catalogs by testing
every candidate function for membership, and both games through
exhaustive tree search.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import product
from operator import le

from morasslab.intervals import normalize
from morasslab.morass import MapNF, MorassError, MorassFragment, compose, identity_map
from morasslab.ordinal import OrdinalCNF, ZERO, add, left_subtract, omega_times
from morasslab.persistency import PFunc, in_family
from morasslab.structures import check_partial_iso, check_partial_iso_report, element_sort_key


# ---------------------------------------------------------------------------
# Ordinals below w*8 as explicit well orders.
#
# An order is a finite sequence of blocks, each either "N" (one copy of the
# order type of the naturals) or a positive integer (that many isolated
# points).  Concatenation of sequences realizes ordinal addition; the order
# type is read off by counting: finite blocks sitting before some "N" block
# are absorbed into it, so the type is w * (number of "N" blocks) plus the
# number of isolated points after the last "N" block.


def blocks_of(k: int, m: int) -> tuple:
    return ("N",) * k + ((m,) if m else ())


def order_type_of_blocks(blocks: tuple) -> tuple[int, int]:
    k = sum(1 for b in blocks if b == "N")
    m = 0
    for b in blocks:
        if b == "N":
            m = 0
        else:
            m += b
    return k, m


@lru_cache(maxsize=None)
def pair_of_cnf(x: OrdinalCNF) -> tuple[int, int]:
    k = m = 0
    for exp, coeff in x:
        if exp == 1:
            k = coeff
        elif exp == 0:
            m = coeff
        else:
            raise ValueError(f"{x} is not below w*8 territory")
    return k, m


@lru_cache(maxsize=None)
def cnf_of_pair(k: int, m: int) -> OrdinalCNF:
    return omega_times(k, m)


@lru_cache(maxsize=None)
def oracle_add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    ka, ma = pair_of_cnf(a)
    kb, mb = pair_of_cnf(b)
    k, m = order_type_of_blocks(blocks_of(ka, ma) + blocks_of(kb, mb))
    return cnf_of_pair(k, m)


def oracle_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    pa, pb = pair_of_cnf(a), pair_of_cnf(b)
    return (pa > pb) - (pa < pb)


def oracle_left_subtract(a: OrdinalCNF, b: OrdinalCNF, k_max: int = 9, m_max: int = 40):
    """All c in a finite grid with a + c = b, computed by block concatenation."""
    return list(_grid_sums(a, k_max, m_max).get(b, ()))


@lru_cache(maxsize=None)
def _grid_sums(a: OrdinalCNF, k_max: int, m_max: int) -> dict:
    """Every sum a + c over the grid of c = w*k + m, to the c giving it, in grid order."""
    sums: dict = {}
    for k in range(k_max):
        for m in range(m_max):
            c = cnf_of_pair(k, m)
            sums.setdefault(oracle_add(a, c), []).append(c)
    return sums


# ---------------------------------------------------------------------------
# Interval unions.


def oracle_intersect(a, b):
    """Intersection of two interval unions by comparing every pair of intervals."""
    out = []
    for alo, ahi in normalize(a):
        for blo, bhi in normalize(b):
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if lo < hi:
                out.append((lo, hi))
    return normalize(out)


# ---------------------------------------------------------------------------
# Exhaustive word enumeration over the successor families.


def family_words(frag: MorassFragment, alpha: int, beta: int):
    """Every composite of successor choices, duplicates kept."""
    words = [identity_map(frag.theta_at(alpha))]
    for step in range(alpha, beta):
        succ = frag.successor_family(step)
        words = [compose(g, f) for f in words for g in succ]
    return words


def oracle_predecessors(frag: MorassFragment, alpha: int, xi: OrdinalCNF) -> set:
    values = set()
    for f in family_words(frag, alpha, frag.height):
        pre = f.preimage(xi)
        if pre is not None:
            values.add(pre)
    return values


def oracle_predecessor(frag: MorassFragment, alpha: int, xi: OrdinalCNF) -> OrdinalCNF:
    values = oracle_predecessors(frag, alpha, xi)
    assert len(values) == 1, f"predecessor not unique at level {alpha} for {xi}: {values}"
    return next(iter(values))


@lru_cache(maxsize=1 << 16)
def oracle_predecessor_vector(frag: MorassFragment, xi: OrdinalCNF) -> tuple[OrdinalCNF, ...]:
    """The family-search predecessors of xi at levels 0..height."""
    return tuple(oracle_predecessor(frag, a, xi) for a in range(frag.height + 1))


def oracle_preceq(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    return all(map(le, oracle_predecessor_vector(frag, xi), oracle_predecessor_vector(frag, eta)))


def oracle_preceq_at(frag: MorassFragment, alpha: int, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    pin = min(alpha, frag.height)
    vx, vy = oracle_predecessor_vector(frag, xi), oracle_predecessor_vector(frag, eta)
    return vx[pin] == vy[pin] and all(map(le, vx, vy))


def oracle_mu(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> int:
    for alpha in range(frag.height + 1):
        for f in family_words(frag, alpha, frag.height):
            if f.preimage(xi) is not None and f.preimage(eta) is not None:
                return alpha
    raise AssertionError("top level must cover everything")


def _step_witnesses(frag: MorassFragment, beta: int, values: frozenset) -> frozenset:
    """Pull a set of level-(beta+1) elements back one successor step."""
    out = set()
    for m in frag.successor_family(beta):
        for val in values:
            pre = m.preimage(val)
            if pre is not None:
                out.add(pre)
    return frozenset(out)


def predecessor_witness_vector(frag: MorassFragment, xi: OrdinalCNF) -> tuple[frozenset, ...]:
    """For each level alpha, the set of preimages of xi through the family.

    Entry alpha equals { f^{-1}(xi) : f in family(alpha, height), xi in ran f };
    every family map factors through successor steps, so pulling the witness
    set down one step at a time enumerates exactly those values.  A valid
    fragment yields singletons everywhere.
    """
    frag.check_element(xi)
    vecs: list[frozenset] = [frozenset((xi,))]
    current = frozenset((xi,))
    for beta in range(frag.height - 1, -1, -1):
        current = _step_witnesses(frag, beta, current)
        vecs.append(current)
    vecs.reverse()
    return tuple(vecs)


def mu_by_step_maps(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> int:
    """mu by descending the successor maps themselves.

    Below the top, the descent continues past a step while one of the
    step's maps has both current predecessors in its range.
    """
    # unpacking each witness set checks that it is a singleton
    vx = [v for (v,) in predecessor_witness_vector(frag, xi)]
    vy = [v for (v,) in predecessor_witness_vector(frag, eta)]
    least = frag.height
    for beta in range(frag.height - 1, -1, -1):
        x, y = vx[beta + 1], vy[beta + 1]
        if not any(
            m.preimage(x) is not None and m.preimage(y) is not None
            for m in frag.successor_family(beta)
        ):
            break
        least = beta
    return least


def _image_of_intervals(m: MapNF, ivs) -> tuple:
    out = []
    for a, b in ivs:
        for lo, hi, img in m.pieces:
            s, e = max(a, lo), min(b, hi)
            if s < e:
                out.append((add(img, left_subtract(lo, s)), add(img, left_subtract(lo, e))))
    return normalize(out)


def fullness_violations(frag: MorassFragment) -> list[tuple[int, int]]:
    """The pairs (alpha, beta) whose family maps do not cover [0, theta_beta).

    The union of the ranges of the maps from alpha is pushed up one
    successor step at a time as an interval union (the image of a union is
    the union of the images); a step whose family is ill-formed ends the
    propagation from every level below it.
    """
    violations = []
    for alpha in range(frag.height):
        covered = normalize([(ZERO, frag.theta_at(alpha))])
        for beta in range(alpha + 1, frag.height + 1):
            try:
                step = frag.successor_family(beta - 1)
            except MorassError:
                break
            covered = normalize(iv for m in step for iv in _image_of_intervals(m, covered))
            if covered != normalize([(ZERO, frag.theta_at(beta))]):
                violations.append((alpha, beta))
    return violations


def oracle_in_family(frag: MorassFragment, f: PFunc, grid) -> bool:
    """Transcription of the membership definition with family-search predecessors."""
    entries = f.entries
    for eta, alpha in entries:
        for xi, val in entries:
            if xi != eta and oracle_preceq_at(frag, alpha, xi, eta) and val != alpha:
                return False
    fibers: dict[int, list] = {}
    for k, v in entries:
        fibers.setdefault(v, []).append(k)
    for members in fibers.values():
        if not any(
            all(oracle_preceq(frag, x, z) for x in members) for z in grid
        ):
            return False
    return True


def sample_grid(frag: MorassFragment, per_block: int = 24):
    """Deterministic dense sample of the universe: w*j + i below top_theta."""
    k, m = pair_of_cnf(frag.top_theta)
    assert m == 0, "built universes are limit ordinals"
    return [omega_times(j, i) for j in range(k) for i in range(per_block)]


def oracle_layer_catalog(frag: MorassFragment, u, cap: int) -> tuple[PFunc, ...]:
    """Every function on the sorted domain u with values at most cap that
    ``in_family`` accepts, in lexicographic order of the values."""
    candidates = (
        PFunc(tuple(zip(u, values))) for values in product(range(cap + 1), repeat=len(u))
    )
    return tuple(f for f in candidates if in_family(frag, f))


# ---------------------------------------------------------------------------
# Exhaustive persistency game tree.


def persistency_game_solver(frag: MorassFragment, pool, rounds: int, value_cap: int):
    """Winning-region test for positions whose domain is the challenged set."""
    pool = tuple(pool)

    @lru_cache(maxsize=None)
    def win(entries: tuple, r: int) -> bool:
        if r == rounds:
            return True
        position = PFunc(entries)
        for xi in pool:
            if position.get(xi) is not None:
                if not win(entries, r + 1):
                    return False
                continue
            movable = False
            for v in range(value_cap + 1):
                cand = PFunc.from_pairs(entries + ((xi, v),))
                if in_family(frag, cand) and win(cand.entries, r + 1):
                    movable = True
                    break
            if not movable:
                return False
        return True

    return win


def all_challenge_sequences(pool, rounds: int):
    return product(pool, repeat=rounds)


# ---------------------------------------------------------------------------
# Exhaustive back-and-forth game tree on a finite element pool.


def ef_game_solver(a_struct, b_struct, pool, rounds: int):
    """Winning-region test: singleton challenges per side, images within the pool."""
    pool = tuple(pool)

    def freeze(psi: dict) -> tuple:
        return tuple(sorted(psi.items(), key=lambda kv: element_sort_key(kv[0])))

    @lru_cache(maxsize=None)
    def win(psi_items: tuple, r: int) -> bool:
        if r == rounds:
            return True
        psi = dict(psi_items)
        taken = set(psi.values())
        for e in pool:
            if e in psi:
                if not win(psi_items, r + 1):
                    return False
            else:
                if not any(
                    img not in taken
                    and check_partial_iso({**psi, e: img}, a_struct, b_struct)
                    and win(freeze({**psi, e: img}), r + 1)
                    for img in pool
                ):
                    return False
            if e in taken:
                if not win(psi_items, r + 1):
                    return False
            else:
                if not any(
                    src not in psi
                    and check_partial_iso({**psi, src: e}, a_struct, b_struct)
                    and win(freeze({**psi, src: e}), r + 1)
                    for src in pool
                ):
                    return False
        return True

    return win, freeze


def oracle_ef_round_reason(prev: dict, psi, ca, cb, a_struct, b_struct):
    """The back-and-forth referee's verdict on one round, checking the whole map.

    None for a legal response, else the reason the round is lost.
    """
    if not isinstance(psi, Mapping):
        return "response is not a mapping"
    if any(psi.get(x) != y for x, y in prev.items()):
        return "response does not extend the previous one"
    if any(x not in psi for x in ca):
        return "challenge on the first structure not covered by the domain"
    if any(y not in set(psi.values()) for y in cb):
        return "challenge on the second structure not covered by the range"
    problems = check_partial_iso_report(psi, a_struct, b_struct)
    return problems[0] if problems else None
