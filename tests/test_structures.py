import random
from itertools import product

import pytest

from morasslab.persistency import EMPTY_PFUNC, PFunc, in_family
from morasslab.structures import (
    CStructure,
    LayerTooLargeError,
    OrdElement,
    SetElement,
    StructureError,
    ValueCapError,
    check_partial_iso,
    check_partial_iso_report,
    classify_partial_iso,
    element_from_json,
    element_to_json,
    enumerate_layer,
    make_ab,
    normalize_u,
    project,
    rel,
    rel_e,
    rel_le,
    rel_r,
    rel_s,
    shift_map,
)

from conftest import block_points, grown_condition, o
from oracles import oracle_layer_catalog


@pytest.fixture
def frag0_struct(frag0):
    return CStructure(frag0, 2, SetElement(()))


@pytest.fixture
def ab(frag0):
    return make_ab(frag0, [o("0"), o("1")])


def test_empty_layer(frag0_struct):
    layer = enumerate_layer(frag0_struct, ())
    assert layer.catalog == (EMPTY_PFUNC,)
    assert layer.bits == 0
    assert SetElement(()) != SetElement((o("0"),))  # empty tokens differ per layer


def test_frag0_layer_catalog(frag0, frag0_struct):
    layer = enumerate_layer(frag0_struct, [o("3"), o("w+3")])
    expected = [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    got = [tuple(v for _, v in f.entries) for f in layer.catalog]
    assert got == expected
    assert layer.bits == 3
    # hand check: the two excluded assignments break value propagation
    for bad in ((1, 0), (2, 0)):
        f = PFunc.from_pairs(zip((o("3"), o("w+3")), bad))
        assert not in_family(frag0, f)


def test_layer_catalog_matches_oracle():
    rng = random.Random(1311)
    caps, rejected = set(), 0
    for height in range(1, 5):
        frag = grown_condition(rng, height).frag
        points = block_points(frag)
        for n in range(1, 5):
            cap = 1 + (4 * (height - 1) + n - 1) % 6
            caps.add(cap)
            u = normalize_u(rng.sample(points, n))
            layer = enumerate_layer(CStructure(frag, cap, SetElement(())), u)
            expected = oracle_layer_catalog(frag, u, cap)
            assert layer.catalog == expected, (height, u, cap)
            assert [layer.index_of(layer.func_at(i)) for i in range(len(layer))] == list(
                range(len(layer))
            )
            f = layer.func_at(rng.randrange(len(layer)))
            # a wrong domain: one element fewer, or one element swapped for another point
            assert layer.index_of(f.restrict(u[1:])) is None
            outsider = next(x for x in points if x not in u)
            assert layer.index_of(PFunc.from_pairs(((outsider, 0),) + f.entries[1:])) is None
            # a value above the cap, first or last, whose code would name another entry
            for k in (0, n - 1):
                entries = list(f.entries)
                entries[k] = (entries[k][0], cap + 1)
                assert layer.index_of(PFunc(tuple(entries))) is None
            # every function with values within the cap that the family rejects
            for values in product(range(cap + 1), repeat=n):
                g = PFunc(tuple(zip(u, values)))
                if g not in expected:
                    rejected += 1
                    assert layer.index_of(g) is None
    assert caps == set(range(1, 7)) and rejected > 0


def test_layer_too_large_guard(frag0):
    struct = CStructure(frag0, 9, SetElement(()), max_layer_candidates=50)
    with pytest.raises(LayerTooLargeError):
        enumerate_layer(struct, [o("1"), o("2"), o("3")])


def test_catalog_closure_under_restriction(frag0_struct):
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    layer_v = enumerate_layer(frag0_struct, v)
    layer_u = enumerate_layer(frag0_struct, u)
    for f in layer_v.catalog:
        assert layer_u.index_of(f.restrict(u)) is not None


def test_rel_r_examples(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    empty = SetElement(u)
    single = SetElement(u, frozenset({1}))
    assert rel_r(frag0_struct, 0, 1, empty, single)
    assert not rel_r(frag0_struct, 0, 0, empty, single)
    other_layer = SetElement(normalize_u([o("3")]), frozenset({1}))
    assert not rel_r(frag0_struct, 0, 1, empty, other_layer)
    assert not rel_r(frag0_struct, 0, 1, empty, empty)
    # beyond the layer's bit width nothing holds
    assert not rel_r(frag0_struct, 7, 1, empty, single)


def test_rel_r_exclusive_exhaustive(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    layer = enumerate_layer(frag0_struct, u)
    a = SetElement(u, frozenset({2}))
    b = SetElement(u, frozenset({2, 5}))
    for n in range(layer.bits):
        holds = [rel_r(frag0_struct, n, i, a, b) for i in (0, 1)]
        assert sum(holds) == 1


def test_rel_le_and_e(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    assert rel_le(frag0_struct, OrdElement(o("3")), OrdElement(o("w")))
    assert not rel_le(frag0_struct, OrdElement(o("w")), OrdElement(o("3")))
    assert not rel_le(frag0_struct, OrdElement(o("3")), SetElement(u))
    assert rel_e(frag0_struct, OrdElement(o("3")), SetElement(u))
    assert not rel_e(frag0_struct, OrdElement(o("5")), SetElement(u))


def test_rel_s_homomorphism_on_empties(frag0_struct):
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    assert rel_s(frag0_struct, SetElement(u), SetElement(v))
    assert not rel_s(frag0_struct, SetElement(v), SetElement(u))


def test_rel_dispatcher(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    assert rel(frag0_struct, "le", (OrdElement(o("1")), OrdElement(o("2"))))
    assert rel(frag0_struct, "E", (OrdElement(o("3")), SetElement(u)))
    assert rel(frag0_struct, "R_0_1", (SetElement(u), SetElement(u, frozenset({1}))))
    assert rel(frag0_struct, "S", (SetElement(()), SetElement(u)))
    with pytest.raises(StructureError):
        rel(frag0_struct, "nope", ())


def test_project_examples(frag0_struct):
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    assert project(frag0_struct, u, v, SetElement(v)) == SetElement(u)
    layer_v = enumerate_layer(frag0_struct, v)
    # members 1 and 2 agree on u={3}: their pair cancels
    f1, f2 = layer_v.func_at(1), layer_v.func_at(2)
    assert f1 != f2 and f1.restrict(u) == f2.restrict(u)
    assert project(frag0_struct, u, v, SetElement(v, frozenset({1, 2}))) == SetElement(u)
    single = project(frag0_struct, u, v, SetElement(v, frozenset({1})))
    layer_u = enumerate_layer(frag0_struct, u)
    assert single.members == frozenset({layer_u.index_of(f1.restrict(u))})


def test_project_is_delta_homomorphism(frag0_struct):
    rng = random.Random(4)
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    size = len(enumerate_layer(frag0_struct, v))
    for _ in range(100):
        b1 = SetElement(v, frozenset(rng.sample(range(size), rng.randint(0, 3))))
        b2 = SetElement(v, frozenset(rng.sample(range(size), rng.randint(0, 3))))
        lhs = project(frag0_struct, u, v, SetElement(v, b1.members ^ b2.members))
        rhs = project(frag0_struct, u, v, b1).members ^ project(frag0_struct, u, v, b2).members
        assert lhs.members == rhs


def test_project_composition_law(frag0_struct):
    rng = random.Random(6)
    u = normalize_u(())
    v = normalize_u([o("3")])
    w = normalize_u([o("3"), o("w+3")])
    size = len(enumerate_layer(frag0_struct, w))
    for _ in range(50):
        b = SetElement(w, frozenset(rng.sample(range(size), rng.randint(0, 3))))
        via = project(frag0_struct, u, v, project(frag0_struct, v, w, b))
        direct = project(frag0_struct, u, w, b)
        assert via == direct


def test_shift_map(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    a = SetElement(u, frozenset({3}))
    shift = shift_map(frag0_struct, u, a)
    x = SetElement(u, frozenset({1, 5}))
    assert shift(shift(x)) == x
    assert shift(SetElement(u)) == a
    y = SetElement(u, frozenset({1, 3}))
    assert shift(x).members ^ shift(y).members == x.members ^ y.members
    with pytest.raises(StructureError):
        shift(SetElement(normalize_u([o("3")])))


def test_make_ab(frag0, ab):
    a_struct, b_struct, f_star = ab
    assert [(str(k), v) for k, v in f_star.entries] == [("0", 0), ("1", 1)]
    assert in_family(frag0, f_star)
    assert a_struct.constant.members == frozenset()
    layer = enumerate_layer(b_struct, a_struct.constant.u)
    (idx,) = b_struct.constant.members
    assert layer.func_at(idx) == f_star
    with pytest.raises(ValueCapError):
        make_ab(frag0, [o("0"), o("1")], value_cap=0)


def test_make_ab_degenerate_base(frag0):
    a_struct, b_struct, f_star = make_ab(frag0, [])
    assert f_star == EMPTY_PFUNC
    assert a_struct.constant == SetElement(())
    assert b_struct.constant == SetElement((), frozenset({0}))


def test_check_partial_iso_basics(ab):
    a_struct, b_struct, _ = ab
    assert check_partial_iso({}, a_struct, b_struct)
    assert check_partial_iso({a_struct.constant: b_struct.constant}, a_struct, b_struct)
    # moving an ordinal breaks a membership link once a layer witness is present
    witness = SetElement(normalize_u([o("3")]))
    psi = {OrdElement(o("3")): OrdElement(o("5")), witness: witness}
    assert not check_partial_iso(psi, a_struct, b_struct)
    # and it also breaks the order relation against a fixed point
    psi2 = {
        OrdElement(o("3")): OrdElement(o("5")),
        OrdElement(o("4")): OrdElement(o("4")),
    }
    assert not check_partial_iso(psi2, a_struct, b_struct)


def test_check_partial_iso_constant_reflection(ab):
    a_struct, b_struct, _ = ab
    u = a_struct.constant.u
    other = SetElement(u, frozenset({2}))
    # something other than the first constant may not hit the second one
    assert not check_partial_iso({other: b_struct.constant}, a_struct, b_struct)
    report = check_partial_iso_report({other: b_struct.constant}, a_struct, b_struct)
    assert any("constant" in p for p in report)


def test_check_partial_iso_rejects_noninjective(ab):
    a_struct, b_struct, _ = ab
    u = a_struct.constant.u
    x1 = SetElement(u, frozenset({2}))
    x2 = SetElement(u, frozenset({3}))
    y = SetElement(u, frozenset({4}))
    assert not check_partial_iso({x1: y, x2: y}, a_struct, b_struct)


def test_classify_shift_family(ab):
    a_struct, b_struct, f_star = ab
    base = a_struct.constant.u
    layer = enumerate_layer(a_struct, base)
    star = layer.index_of(f_star)
    psi = {}
    for e in (SetElement(base), SetElement(base, frozenset({2}))):
        psi[e] = SetElement(base, e.members ^ {star})
    psi[OrdElement(o("0"))] = OrdElement(o("0"))
    assert check_partial_iso(psi, a_struct, b_struct)
    cls = classify_partial_iso(psi, a_struct, b_struct)
    assert cls.identity_on_ord and cls.is_shift_family and cls.coherent
    assert cls.n_psi == 1 and cls.shift_of(base) == frozenset({star})


def test_classify_identity_is_rejected_between_expansions(ab):
    a_struct, b_struct, _ = ab
    base = a_struct.constant.u
    psi = {SetElement(base): SetElement(base)}
    cls = classify_partial_iso(psi, a_struct, a_struct)
    assert cls.is_shift_family and cls.n_psi == 0
    # but as a map between the two expansions it violates the constants
    assert not check_partial_iso(psi, a_struct, b_struct)


def test_classify_non_shift(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    psi = {
        SetElement(u): SetElement(u, frozenset({1})),
        SetElement(u, frozenset({2})): SetElement(u, frozenset({4})),
    }
    cls = classify_partial_iso(psi, frag0_struct, frag0_struct)
    assert not cls.is_shift_family


def test_coherent_shift_family_is_partial_iso(frag0_struct):
    rng = random.Random(8)
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    size = len(enumerate_layer(frag0_struct, v))
    size_u = len(enumerate_layer(frag0_struct, u))
    for _ in range(20):
        a_v = SetElement(v, frozenset(rng.sample(range(size), rng.randint(0, 3))))
        a_u = project(frag0_struct, u, v, a_v)
        psi = {}
        for _ in range(4):
            x = SetElement(v, frozenset(rng.sample(range(size), rng.randint(0, 3))))
            psi[x] = SetElement(v, x.members ^ a_v.members)
            psi[SetElement(u, frozenset({rng.randrange(size_u)}))] = None
        # rebuild the lower layer images through the projected shift
        for x in [k for k in psi if k.u == u]:
            psi[x] = SetElement(u, x.members ^ a_u.members)
        psi[OrdElement(o("w+1"))] = OrdElement(o("w+1"))
        assert check_partial_iso(psi, frag0_struct, frag0_struct)


def test_layer_size_measurement_only(frag0_struct):
    # measured, not asserted: how the catalog size moves as the domain grows
    sizes = []
    chain = [(), (o("3"),), (o("3"), o("w+3"))]
    for u in chain:
        sizes.append(len(enumerate_layer(frag0_struct, u)))
    print(f"catalog sizes along nested domains: {sizes}")
    assert len(sizes) == len(chain)


def test_element_json_round_trip(frag0_struct):
    u = normalize_u([o("3"), o("w+3")])
    for e in (
        OrdElement(o("w+1")),
        SetElement(u),
        SetElement(u, frozenset({0, 5})),
        SetElement(()),
    ):
        assert element_from_json(frag0_struct, element_to_json(frag0_struct, e)) == e
