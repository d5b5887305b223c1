"""The layered relational structure over a fragment's persistent family.

The base set has an ordinal part (the fragment's universe, carrying only
its order) and, for each finite subset u of the universe, a layer: finite
sets of catalog functions with domain u.  Layers carry the affine
structure of symmetric difference through bit relations on singleton
differences, and are linked by restriction homomorphisms.  Two expansions
of the same structure by a constant, one naming the empty set of the base
layer and one naming the singleton of the strategy function, are the
game's protagonists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .jsonshape import expect
from .morass import MorassFragment, predecessor_vector
from .ordinal import OrdinalCNF, parse_ordinal, render_ordinal
from .persistency import PFunc, fiber_bound, morass_strategy


class StructureError(ValueError):
    pass


class LayerTooLargeError(StructureError):
    pass


class ValueCapError(StructureError):
    """A needed function exceeds the structure's value cap."""


class CatalogClosureError(StructureError):
    """A restriction of a catalog member is missing below: the catalogs are inconsistent."""


@dataclass(frozen=True)
class OrdElement:
    value: OrdinalCNF

    def __repr__(self) -> str:
        return f"Ord({render_ordinal(self.value)})"


@dataclass(frozen=True)
class SetElement:
    u: tuple[OrdinalCNF, ...]
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        keys = [x.terms for x in self.u]
        if sorted(set(keys)) != keys:
            raise StructureError("layer domains must be sorted and duplicate-free")
        if any(i < 0 for i in self.members):
            raise StructureError("catalog indices are naturals")

    def __repr__(self) -> str:
        u = ",".join(render_ordinal(x) for x in self.u)
        return f"Set[{u}]{sorted(self.members)}"


CElement = OrdElement | SetElement


def element_sort_key(e: CElement):
    if isinstance(e, OrdElement):
        return (0, e.value.terms, ())
    return (1, tuple(x.terms for x in e.u), tuple(sorted(e.members)))


class Layer:
    """Catalog of the functions with a fixed finite domain, canonically indexed.

    Entry i is stored as one integer code: its values read as a
    base-(cap+1) number, the first domain element being the most
    significant digit.  The catalog is in lexicographic order of values,
    so the codes ascend, an index is found by bisection and a function is
    decoded only when asked for.
    """

    def __init__(self, u: tuple[OrdinalCNF, ...], cap: int, codes: array):
        self.u = u
        self.cap = cap
        self.codes = codes
        self.bits = (len(codes) - 1).bit_length() if len(codes) > 1 else 0

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def catalog(self) -> tuple[PFunc, ...]:
        return tuple(self.func_at(i) for i in range(len(self.codes)))

    def index_of(self, f: PFunc) -> int | None:
        if len(f.entries) != len(self.u):
            return None
        base = self.cap + 1
        code = 0
        for (k, v), x in zip(f.entries, self.u):
            if k != x or v > self.cap:
                return None
            code = code * base + v
        i = bisect_left(self.codes, code)
        if i < len(self.codes) and self.codes[i] == code:
            return i
        return None

    def func_at(self, i: int) -> PFunc:
        code = self.codes[i]
        base = self.cap + 1
        values = []
        for _ in self.u:
            code, v = divmod(code, base)
            values.append(v)
        return PFunc(tuple(zip(self.u, reversed(values))))

    def bitstring(self, i: int) -> str:
        return "".join("1" if (i >> n) & 1 else "0" for n in range(self.bits))

    def index_of_bitstring(self, s: str) -> int:
        if len(s) != self.bits:
            raise StructureError(f"bitstring length {len(s)} != layer bits {self.bits}")
        return sum(1 << n for n, ch in enumerate(s) if ch == "1")


def normalize_u(u: Iterable[OrdinalCNF]) -> tuple[OrdinalCNF, ...]:
    return tuple(sorted(set(u), key=lambda x: x.terms))


class LayerCache:
    """Memoized layers, restriction indices and projections, shareable between expansions.

    Restrictions and projections are kept per pair (u, v) of layers: the
    restriction index in u of each catalog index of v, and the members of
    the projection of each member set of v.
    """

    def __init__(self):
        self.layers: dict[tuple, Layer] = {}
        self.restrictions: dict[tuple, dict[int, int]] = {}
        self.projections: dict[tuple, dict[frozenset[int], frozenset[int]]] = {}


class CStructure:
    """One of the two expansions: shared fragment, value cap, and a constant.

    Layers are materialized lazily and memoized in a cache that both
    expansions share, so element identity agrees across them.
    """

    def __init__(
        self,
        frag: MorassFragment,
        value_cap: int,
        constant: SetElement,
        cache: LayerCache | None = None,
        max_layer_candidates: int = 60000,
    ):
        if isinstance(constant, OrdElement):
            raise StructureError("the constant must be a layer element")
        self.frag = frag
        self.value_cap = value_cap
        self.constant = constant
        self.max_layer_candidates = max_layer_candidates
        self._cache = cache if cache is not None else LayerCache()

    def layer_cache(self) -> LayerCache:
        return self._cache

    def empty(self, u: Iterable[OrdinalCNF]) -> SetElement:
        return SetElement(normalize_u(u))

    def singleton(self, u: Iterable[OrdinalCNF], f: PFunc) -> SetElement:
        uu = normalize_u(u)
        layer = enumerate_layer(self, uu)
        idx = layer.index_of(f)
        if idx is None:
            raise StructureError(f"{f} is not in the layer catalog over {uu}")
        return SetElement(uu, frozenset((idx,)))


def enumerate_layer(struct: CStructure, u: Iterable[OrdinalCNF]) -> Layer:
    """Materialize the catalog over u: all family members with that exact domain.

    Functions are generated in lexicographic (element order, value) order by
    a DFS that prunes value-propagation conflicts and unbounded fibers as
    soon as they appear, so the indexing is deterministic across runs.  The
    DFS builds each function's code digit by digit, so the codes it appends
    are sorted.
    """
    if isinstance(u, tuple):
        cached = struct._cache.layers.get(u)
        if cached is not None:
            return cached
    uu = normalize_u(u)
    cached = struct._cache.layers.get(uu)
    if cached is not None:
        return cached
    frag = struct.frag
    cap = struct.value_cap
    for x in uu:
        frag.check_element(x)
    if (cap + 1) ** len(uu) > struct.max_layer_candidates:
        raise LayerTooLargeError(
            f"layer over {len(uu)} elements with values <= {cap} exceeds the configured limit"
        )
    es = uu
    n = len(es)
    height = frag.height
    vecs = [predecessor_vector(frag, x) for x in es]

    base = cap + 1

    def forced(i: int, j: int) -> frozenset[int]:
        """The values a at which f(x_j) = a forces f(x_i) = a."""
        if any(a > b for a, b in zip(vecs[i], vecs[j])):
            return frozenset()
        eq_levels = {b for b in range(height + 1) if vecs[i][b] == vecs[j][b]}
        return frozenset(a for a in range(base) if min(a, height) in eq_levels)

    # rules[k]: for each earlier element j that constrains element k, the
    # values element k may take, as a bit mask indexed by element j's value
    rules = []
    for k in range(n):
        rule = []
        for j in range(k):
            above, below = forced(k, j), forced(j, k)
            if above or below:
                masks = [
                    sum(
                        1 << v
                        for v in range(base)
                        if v == vj or (vj not in above and v not in below)
                    )
                    for vj in range(base)
                ]
                rule.append((j, masks))
        rules.append(rule)

    # within one layer a fiber is named by its sorted domain indices
    bounded: dict[tuple[int, ...], bool] = {}

    def fiber_ok(indices: tuple[int, ...]) -> bool:
        hit = bounded.get(indices)
        if hit is None:
            hit = fiber_bound(frag, frozenset(es[i] for i in indices)) is not None
            bounded[indices] = hit
        return hit

    codes = array("q")
    values = [0] * n
    fibers = [()] * base  # fibers[v]: the earlier elements with value v

    def rec(k: int, code: int) -> None:
        allowed = -1
        for j, masks in rules[k]:
            allowed &= masks[values[j]]
        last = k == n - 1
        for v in range(base):
            if not allowed >> v & 1:
                continue
            prior = fibers[v]
            fiber = prior + (k,)
            if prior and not fiber_ok(fiber):
                continue
            if last:
                codes.append(code * base + v)
                continue
            values[k] = v
            fibers[v] = fiber
            rec(k + 1, code * base + v)
            fibers[v] = prior

    if n:
        rec(0, 0)
    else:
        codes.append(0)
    layer = Layer(uu, cap, codes)
    struct._cache.layers[uu] = layer
    return layer


# ---------------------------------------------------------------------------
# Relations


def rel_le(struct: CStructure, a: CElement, b: CElement) -> bool:
    """The order relation; holds only between ordinal-part elements."""
    return isinstance(a, OrdElement) and isinstance(b, OrdElement) and a.value <= b.value


def rel_e(struct: CStructure, a: CElement, b: CElement) -> bool:
    """Membership link: an ordinal is E-related to the layer elements indexed by it."""
    return (
        isinstance(a, OrdElement)
        and isinstance(b, SetElement)
        and a.value in b.u
    )


def _singleton_difference(a: SetElement, b: SetElement) -> int | None:
    d = a.members ^ b.members
    if len(d) == 1:
        return next(iter(d))
    return None


def rel_r(struct: CStructure, n: int, i: int, a: CElement, b: CElement) -> bool:
    """Bit relation: same layer, singleton symmetric difference, bit n equal to i.

    Bit n of a catalog index x is its n-th binary digit (least significant
    first); for n at or beyond the layer's bit width no relation holds.
    """
    if i not in (0, 1) or n < 0:
        raise StructureError(f"bad relation R_{n},{i}")
    if not (isinstance(a, SetElement) and isinstance(b, SetElement)):
        return False
    if a.u != b.u:
        return False
    x = _singleton_difference(a, b)
    if x is None:
        return False
    layer = enumerate_layer(struct, a.u)
    if n >= layer.bits:
        return False
    return (x >> n) & 1 == i


def rel_s(struct: CStructure, a: CElement, b: CElement) -> bool:
    """Projection link: a is the restriction image of b one layer down."""
    if not (isinstance(a, SetElement) and isinstance(b, SetElement)):
        return False
    if not set(a.u) <= set(b.u):
        return False
    return project(struct, a.u, b.u, b) == a


def rel(struct: CStructure, name: str, args: tuple) -> bool:
    """Generic dispatcher; R relations are addressed as "R_<n>_<i>"."""
    if name == "le":
        return rel_le(struct, *args)
    if name == "E":
        return rel_e(struct, *args)
    if name == "S":
        return rel_s(struct, *args)
    if name.startswith("R_"):
        _, n, i = name.split("_")
        return rel_r(struct, int(n), int(i), *args)
    raise StructureError(f"unknown relation {name!r}")


def project(
    struct: CStructure,
    u: Iterable[OrdinalCNF],
    v: Iterable[OrdinalCNF],
    b: SetElement,
) -> SetElement:
    """Restriction homomorphism from layer v to layer u <= v.

    Members restrict one by one and accumulate by symmetric difference, so
    members with equal restrictions cancel; the empty result is the lower
    layer's empty token.
    """
    uu = u if isinstance(u, tuple) else normalize_u(u)
    vv = v if isinstance(v, tuple) else normalize_u(v)
    if b.u != vv:
        raise StructureError("element does not belong to the upper layer")
    return SetElement(uu, _projected_members(struct, uu, vv, b.members))


def _projected_members(
    struct: CStructure, uu: tuple, vv: tuple, members: frozenset[int]
) -> frozenset[int]:
    """The members of the projection from layer vv to layer uu of an element with these members."""
    memo = struct._cache.projections.get((uu, vv))
    if memo is None:
        if not set(uu) <= set(vv):
            raise StructureError("projection requires u to be a subset of v")
        memo = struct._cache.projections[(uu, vv)] = {}
    hit = memo.get(members)
    if hit is not None:
        return hit
    restrictions = struct._cache.restrictions.setdefault((uu, vv), {})
    acc = 0
    for idx in members:
        j = restrictions.get(idx)
        if j is None:
            layer_v = enumerate_layer(struct, vv)
            layer_u = enumerate_layer(struct, uu)
            j = layer_u.index_of(layer_v.func_at(idx).restrict(uu))
            if j is None:
                raise CatalogClosureError(
                    f"restriction of catalog member {idx} missing from the lower catalog"
                )
            restrictions[idx] = j
        acc ^= 1 << j
    hit = memo[members] = frozenset(n for n in range(acc.bit_length()) if (acc >> n) & 1)
    return hit


def shift_map(struct: CStructure, u: Iterable[OrdinalCNF], a: SetElement):
    """The involution b -> b symmetric-difference a within one layer."""
    uu = normalize_u(u)
    if not isinstance(a, SetElement) or a.u != uu:
        raise StructureError("shift element must belong to the layer")

    def shifted(b: SetElement) -> SetElement:
        if not isinstance(b, SetElement) or b.u != uu:
            raise StructureError("cross-layer application of a shift")
        return SetElement(uu, b.members ^ a.members)

    return shifted


def make_ab(
    frag: MorassFragment,
    base_u: Iterable[OrdinalCNF],
    value_cap: int | None = None,
    max_layer_candidates: int = 60000,
) -> tuple[CStructure, CStructure, PFunc]:
    """Build the two constant expansions over a common base layer.

    The defender strategy is run against the increasing enumeration of the
    base domain; the resulting function interprets the constant of the
    second structure as a singleton, the first names the empty token.
    """
    uu = normalize_u(base_u)
    player = morass_strategy(frag)
    for x in uu:
        player.respond(x)
    f_star = PFunc.from_pairs(player.history)
    cap = frag.height + len(uu) + 2 if value_cap is None else value_cap
    if f_star.max_value() > cap:
        raise ValueCapError(
            f"value cap {cap} too small: the base run needs {f_star.max_value()}"
        )
    shared = LayerCache()
    a_struct = CStructure(
        frag, cap, SetElement(uu), shared, max_layer_candidates=max_layer_candidates
    )
    layer = enumerate_layer(a_struct, uu)
    idx = layer.index_of(f_star)
    if idx is None:
        raise ValueCapError("the base-run function is missing from its own layer catalog")
    b_struct = CStructure(
        frag,
        cap,
        SetElement(uu, frozenset((idx,))),
        shared,
        max_layer_candidates=max_layer_candidates,
    )
    return a_struct, b_struct, f_star


# ---------------------------------------------------------------------------
# Partial isomorphisms


def _r_signature(struct: CStructure, a: CElement, b: CElement) -> frozenset | None:
    """The set of bit relations holding between a and b, None when there are none."""
    if not (isinstance(a, SetElement) and isinstance(b, SetElement)) or a.u != b.u:
        return None
    x = _singleton_difference(a, b)
    if x is None:
        return None
    layer = enumerate_layer(struct, a.u)
    if layer.bits == 0:
        return None
    return frozenset((n, (x >> n) & 1) for n in range(layer.bits))


def _validate_element(struct: CStructure, e: CElement) -> str | None:
    if isinstance(e, OrdElement):
        if not e.value < struct.frag.top_theta:
            return f"{e!r} outside the ordinal part"
        return None
    layer = enumerate_layer(struct, e.u)
    if any(i < 0 or i >= len(layer) for i in e.members):
        return f"{e!r} has members outside the layer catalog"
    return None


def _relation_breaks(a_struct: CStructure, b_struct: CStructure, x1, y1, x2, y2):
    """The relations that hold on (x1, x2) in one expansion and not on (y1, y2) in the other."""
    if rel_le(a_struct, x1, x2) != rel_le(b_struct, y1, y2):
        yield f"order relation broken on ({x1!r}, {x2!r})"
    if rel_e(a_struct, x1, x2) != rel_e(b_struct, y1, y2):
        yield f"membership link broken on ({x1!r}, {x2!r})"
    if rel_s(a_struct, x1, x2) != rel_s(b_struct, y1, y2):
        yield f"projection link broken on ({x1!r}, {x2!r})"
    if _r_signature(a_struct, x1, x2) != _r_signature(b_struct, y1, y2):
        yield f"bit relations broken on ({x1!r}, {x2!r})"


def check_partial_iso_report(
    psi: Mapping[CElement, CElement], a_struct: CStructure, b_struct: CStructure
) -> list[str]:
    """All violations of psi being a partial isomorphism between the expansions."""
    problems: list[str] = []
    items = list(psi.items())
    images = [y for _, y in items]
    if len(set(images)) != len(images):
        problems.append("map is not injective")
    for x, y in items:
        err = _validate_element(a_struct, x) or _validate_element(b_struct, y)
        if err:
            problems.append(err)
    if problems:
        return problems
    c_a, c_b = a_struct.constant, b_struct.constant
    for x, y in items:
        if (x == c_a) != (y == c_b):
            problems.append(f"constant not respected at {x!r} -> {y!r}")
    for x1, y1 in items:
        for x2, y2 in items:
            problems.extend(_relation_breaks(a_struct, b_struct, x1, y1, x2, y2))
    return problems


def extends_partial_iso(
    prev: Mapping[CElement, CElement],
    psi: Mapping[CElement, CElement],
    a_struct: CStructure,
    b_struct: CStructure,
) -> bool:
    """For a partial isomorphism prev and a map psi extending it: whether psi is one.

    Only what the new pairs can break is checked: their validity, that
    their images keep the map injective, the constant, and the relations
    on every pair of elements that contains a new one.  Each relation is
    checked through its own structure instead of pair by pair, exactly
    for any map: on the diagonal only the order tells the two kinds of
    element apart, so a new pair must keep its kind; the order relation
    is a chain; membership links an ordinal to a layer element; the bit
    relations need a shared layer; and projection is a function.
    Elements are validated in the order ``check_partial_iso_report``
    uses, so an element whose layer cannot be built raises the same error
    there and here.
    """
    old: list[tuple[CElement, CElement]] = []
    new: list[tuple[CElement, CElement]] = []
    for x, y in psi.items():
        (old if x in prev else new).append((x, y))
    images = set(prev.values())
    for _, y in new:
        if y in images:
            return False
        images.add(y)
    for x, y in new:
        if _validate_element(a_struct, x) or _validate_element(b_struct, y):
            return False
    c_a, c_b = a_struct.constant, b_struct.constant
    if any((x == c_a) != (y == c_b) for x, y in new):
        return False
    if any(isinstance(x, OrdElement) != isinstance(y, OrdElement) for x, y in new):
        return False
    old_ords = [(x, y) for x, y in old if isinstance(x, OrdElement)]
    new_ords = [(x, y) for x, y in new if isinstance(x, OrdElement)]
    old_sets = [(x, y) for x, y in old if isinstance(x, SetElement)]
    new_sets = [(x, y) for x, y in new if isinstance(x, SetElement)]
    return (
        _order_kept(old_ords + new_ords)
        and _membership_kept(old_ords, new_ords, old_sets, new_sets)
        and _bits_kept(old_sets, new_sets, a_struct, b_struct)
        and _projections_kept(old_sets, new_sets, a_struct, b_struct)
    )


def _order_kept(ords: list[tuple[OrdElement, OrdElement]]) -> bool:
    """On distinct ordinals le is strict, so sorted by source the images must ascend."""
    images = [y.value.terms for _, y in sorted(ords, key=lambda pair: pair[0].value.terms)]
    return all(a < b for a, b in zip(images, images[1:]))


def _membership_kept(old_ords, new_ords, old_sets, new_sets) -> bool:
    """E holds on (ordinal, layer element) exactly when the ordinal is in the layer's domain."""
    return all(
        (o.value in s.u) == (o_image.value in s_image.u)
        for ords, sets in ((new_ords, old_sets + new_sets), (old_ords, new_sets))
        for o, o_image in ords
        for s, s_image in sets
    )


def _bits_kept(old_sets, new_sets, a_struct: CStructure, b_struct: CStructure) -> bool:
    """The bit relations hold only within a layer, on a singleton difference, and symmetrically.

    So a new element is compared with the elements that share its layer
    in either expansion, and only where one side differs from it in one
    member.
    """
    by_a: dict[tuple, list] = {}
    by_b: dict[tuple, list] = {}
    for x, y in old_sets + new_sets:
        by_a.setdefault(x.u, []).append((x, y))
        by_b.setdefault(y.u, []).append((x, y))
    return all(
        _r_signature(a_struct, x1, x2) == _r_signature(b_struct, y1, y2)
        for x1, y1 in new_sets
        for x2, y2 in by_a[x1.u] + by_b[y1.u]
        if len(x1.members ^ x2.members) == 1 or len(y1.members ^ y2.members) == 1
    )


def _projection_links(
    struct: CStructure, old: list[SetElement], new: list[SetElement]
) -> set[tuple[SetElement, SetElement]]:
    """The pairs (a, b) of the elements, one of them new, on which S holds.

    S(a, b) holds exactly when a is the projection of b onto a's layer, so
    b has one candidate partner in each lower layer present.
    """
    by_layer: dict[tuple, dict[frozenset[int], tuple[SetElement, bool]]] = {}
    for elems, is_new in ((old, False), (new, True)):
        for e in elems:
            by_layer.setdefault(e.u, {})[e.members] = (e, is_new)
    fresh_layers = {e.u for e in new}
    lower = {
        v: [u for u in by_layer if u != v and set(u).issubset(v)] for v in by_layer
    }
    links = set()
    for v, elems in by_layer.items():
        for b, b_new in elems.values():
            for u in lower[v]:
                if not (b_new or u in fresh_layers):
                    continue
                members = _projected_members(struct, u, v, b.members)
                a, a_new = by_layer[u].get(members, (None, False))
                if a is not None and (b_new or a_new):
                    links.add((a, b))
    return links


def _projections_kept(old_sets, new_sets, a_struct: CStructure, b_struct: CStructure) -> bool:
    """The projection links with a new end, carried over by the map, are those of the images."""
    image = dict(old_sets + new_sets)
    links_a = _projection_links(a_struct, [x for x, _ in old_sets], [x for x, _ in new_sets])
    links_b = _projection_links(b_struct, [y for _, y in old_sets], [y for _, y in new_sets])
    return {(image[a], image[b]) for a, b in links_a} == links_b


def check_partial_iso(
    psi: Mapping[CElement, CElement], a_struct: CStructure, b_struct: CStructure
) -> bool:
    return not check_partial_iso_report(psi, a_struct, b_struct)


@dataclass(frozen=True)
class IsoClassification:
    identity_on_ord: bool
    layer_shifts: tuple[tuple[tuple[OrdinalCNF, ...], frozenset | None], ...]
    is_shift_family: bool
    coherent: bool
    top_u: tuple[OrdinalCNF, ...] | None
    a_top: frozenset | None
    n_psi: int | None
    notes: tuple[str, ...] = ()

    def shift_of(self, u: tuple[OrdinalCNF, ...]) -> frozenset | None:
        for uu, shift in self.layer_shifts:
            if uu == u:
                return shift
        return None


def classify_partial_iso(
    psi: Mapping[CElement, CElement], a_struct: CStructure, b_struct: CStructure
) -> IsoClassification:
    """Describe the shape of a partial isomorphism.

    Reports whether the ordinal part is fixed pointwise; per touched layer,
    whether the restriction is a shift and by which element; whether the
    shift family is coherent under projections; and the size of the top
    coherent element when one exists (directly, or by gluing singleton
    shifts over the union of the touched layers).
    """
    notes: list[str] = []
    identity_on_ord = all(
        psi[x] == x for x in psi if isinstance(x, OrdElement)
    )
    by_layer: dict[tuple[OrdinalCNF, ...], list[tuple[SetElement, CElement]]] = {}
    for x, y in psi.items():
        if isinstance(x, SetElement):
            by_layer.setdefault(x.u, []).append((x, y))

    shifts: list[tuple[tuple[OrdinalCNF, ...], frozenset | None]] = []
    is_shift_family = True
    for u, pairs in sorted(by_layer.items(), key=lambda kv: tuple(x.terms for x in kv[0])):
        witnesses = set()
        for x, y in pairs:
            if not isinstance(y, SetElement) or y.u != u:
                witnesses = None
                break
            witnesses.add(x.members ^ y.members)
        if witnesses is None or len(witnesses) != 1:
            shifts.append((u, None))
            is_shift_family = False
        else:
            shifts.append((u, frozenset(next(iter(witnesses)))))

    coherent = is_shift_family
    if is_shift_family:
        for u, a_u in shifts:
            for v, a_v in shifts:
                if u == v or not set(u) <= set(v):
                    continue
                image = project(a_struct, u, v, SetElement(v, a_v))
                if image.members != a_u:
                    coherent = False
                    notes.append("projection incompatibility between touched layers")

    top_u = None
    a_top = None
    n_psi = None
    if is_shift_family and coherent and shifts:
        maximal = [
            (u, s)
            for u, s in shifts
            if not any(set(u) < set(v) for v, _ in shifts)
        ]
        if len(maximal) == 1:
            top_u, a_top = maximal[0]
            n_psi = len(a_top)
        elif all(len(s) == 0 for _, s in shifts):
            top_u = normalize_u(x for u, _ in shifts for x in u)
            a_top = frozenset()
            n_psi = 0
        elif all(len(s) == 1 for _, s in shifts):
            glued: dict[OrdinalCNF, int] = {}
            consistent = True
            for u, s in shifts:
                layer = enumerate_layer(a_struct, u)
                f = layer.func_at(next(iter(s)))
                for k, v in f.entries:
                    if glued.get(k, v) != v:
                        consistent = False
                glued.update(f.entries)
            if consistent:
                union_u = normalize_u(glued.keys())
                try:
                    layer_top = enumerate_layer(a_struct, union_u)
                except LayerTooLargeError:
                    notes.append("top layer too large to materialize; size left open")
                else:
                    idx = layer_top.index_of(PFunc.from_pairs(glued.items()))
                    if idx is not None:
                        top_u = union_u
                        a_top = frozenset((idx,))
                        n_psi = 1
                    else:
                        notes.append("glued singleton shifts leave the family")
            else:
                notes.append("singleton shifts do not glue to one function")
        else:
            notes.append("touched layers have no unique maximum")

    return IsoClassification(
        identity_on_ord=identity_on_ord,
        layer_shifts=tuple(shifts),
        is_shift_family=is_shift_family,
        coherent=coherent,
        top_u=top_u,
        a_top=a_top,
        n_psi=n_psi,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# JSON encoding


def element_to_json(struct: CStructure, e: CElement):
    if isinstance(e, OrdElement):
        return {"ord": render_ordinal(e.value)}
    layer = enumerate_layer(struct, e.u)
    return {
        "layer": [render_ordinal(x) for x in e.u],
        "members": sorted(layer.bitstring(i) for i in e.members),
    }


def element_from_json(struct: CStructure, obj) -> CElement:
    expect(obj, dict, "an element", StructureError)
    if "ord" in obj:
        return OrdElement(parse_ordinal(obj["ord"]))
    u = normalize_u(
        parse_ordinal(s) for s in expect(obj["layer"], list, "an element's layer", StructureError)
    )
    layer = enumerate_layer(struct, u)
    members = frozenset(
        layer.index_of_bitstring(expect(s, str, "a member bitstring", StructureError))
        for s in expect(obj["members"], list, "an element's members", StructureError)
    )
    return SetElement(u, members)


def layer_to_json(struct: CStructure, u: Iterable[OrdinalCNF]) -> dict:
    layer = enumerate_layer(struct, u)
    return {
        "u": [render_ordinal(x) for x in layer.u],
        "value_cap": struct.value_cap,
        "size": len(layer),
        "bits": layer.bits,
        "catalog": [
            {
                "index": i,
                "bits": layer.bitstring(i),
                "pairs": [[render_ordinal(k), v] for k, v in f.entries],
            }
            for i, f in enumerate(layer.catalog)
        ],
    }
