import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from morasslab.ordinal import (
    OMEGA,
    ZERO,
    OrdinalCNF,
    OrdinalError,
    OrdinalParseError,
    OrdinalUnderflowError,
    add,
    compare,
    is_limit,
    is_successor,
    left_subtract,
    nat_multiply,
    omega_times,
    parse_ordinal,
    render_ordinal,
)
from oracles import oracle_add, oracle_compare, oracle_left_subtract

from conftest import o

ordinals = st.builds(
    lambda pairs: OrdinalCNF(
        tuple(sorted({e: max(c, 1) for e, c in pairs}.items(), reverse=True))
    ),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), max_size=4),
)


def test_compare_examples():
    assert compare(OMEGA, OMEGA) == 0
    assert compare(o("3"), OMEGA) == -1
    assert compare(o("w*2+1"), o("w*2")) == 1


def test_add_examples():
    assert o("1") + OMEGA == OMEGA
    assert OMEGA + o("1") == o("w+1")
    # checked against the block-sequence order-type oracle
    assert oracle_add(o("w*2+3"), OMEGA) == o("w*3")
    assert o("w*2+3") + OMEGA == o("w*3")


def test_left_subtract_examples():
    assert left_subtract(o("w*2"), o("w*2+3")) == o("3")
    assert left_subtract(ZERO, OMEGA) == OMEGA
    assert left_subtract(o("3"), OMEGA) == OMEGA
    with pytest.raises(OrdinalUnderflowError):
        left_subtract(OMEGA, o("3"))


def test_nat_multiply_examples():
    assert nat_multiply(OMEGA, 2) == o("w*2")
    assert nat_multiply(ZERO, 5) == ZERO
    # repeated addition cross-checked by the concatenation oracle
    assert oracle_add(o("w+1"), o("w+1")) == o("w*2+1")
    assert nat_multiply(o("w+1"), 2) == o("w*2+1")
    # the closed form is repeated addition
    for a in (ZERO, o("1"), OMEGA, o("w+2"), o("w^2*3+w+1")):
        total = ZERO
        for n in range(7):
            assert nat_multiply(a, n) == total
            total = add(total, a)


def test_is_limit_examples():
    assert is_limit(OMEGA)
    assert not is_limit(o("w+1"))
    assert not is_limit(ZERO)
    assert not is_successor(ZERO)
    assert is_successor(o("w+1"))


def test_canonical_form_rejected_when_invalid():
    for bad in (((1, 1), (1, 2)), ((0, 0),), ((-1, 1),), ((0, 1), (1, 1)), ((2, 1), (1, -3))):
        with pytest.raises(OrdinalError):
            OrdinalCNF(bad)


def test_tuple_order_equality_and_hash_are_ordinal():
    """On the criterion-8 grid, tuple <, ==, hash and sorted agree with compare and the oracle."""
    grid = [omega_times(j, i) for j in range(8) for i in range(25)]
    copies = [parse_ordinal(render_ordinal(a)) for a in grid]
    for a in grid:
        for b in copies:
            c = compare(a, b)
            assert c == oracle_compare(a, b)
            assert (a < b) == (c < 0) and (a == b) == (c == 0)
            if c == 0:
                assert hash(a) == hash(b)
    shuffled = random.Random(8).sample(grid, len(grid))
    assert sorted(shuffled) == sorted(shuffled, key=cmp_to_key(oracle_compare)) == grid
    assert len(set(shuffled)) == len(grid)


def test_operators_are_ordinal_arithmetic():
    sample = [ZERO, o("1"), o("5"), OMEGA, o("w+2"), o("w^2*3+w"), o("w^3+4")]
    for x in sample:
        for y in sample:
            assert x + y == add(x, y)
            assert type(x + y) is OrdinalCNF
        assert x * 3 == nat_multiply(x, 3)
        with pytest.raises(TypeError):
            3 * x
    # a plain tuple on the left still concatenates, as add and left_subtract need
    assert () + OMEGA == ((1, 1),) and type(() + OMEGA) is tuple


def test_zero_is_the_empty_tuple():
    assert not ZERO and ZERO.is_zero() and len(ZERO) == 0 and ZERO == ()
    assert OMEGA and not OMEGA.is_zero() and len(o("w*2+3")) == 2


@settings(derandomize=True, max_examples=200)
@given(ordinals, ordinals, ordinals)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(derandomize=True, max_examples=200)
@given(ordinals, ordinals)
def test_subtraction_round_trip(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    assert lo + left_subtract(lo, hi) == hi


@settings(derandomize=True, max_examples=200)
@given(ordinals, ordinals, ordinals)
def test_right_monotonicity(a, b, c):
    if b < c:
        assert a + b < a + c


@settings(derandomize=True, max_examples=200)
@given(ordinals, ordinals)
def test_total_order(a, b):
    assert (compare(a, b) == 0) == (a == b)
    assert compare(a, b) == -compare(b, a)


@settings(derandomize=True, max_examples=200)
@given(ordinals)
def test_render_parse_round_trip(a):
    assert parse_ordinal(render_ordinal(a)) == a


@pytest.mark.parametrize("bad", ["", "w^", "3 + w", "w*0", "x", "w + w", "1 + 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(OrdinalParseError):
        parse_ordinal(bad)


def test_oracle_agreement_small():
    sample = [o("0"), o("1"), o("5"), o("w"), o("w+2"), o("w*3"), o("w*7+24")]
    for a in sample:
        for b in sample:
            assert compare(a, b) == oracle_compare(a, b)
            assert a + b == oracle_add(a, b)
            if a <= b:
                hits = oracle_left_subtract(a, b)
                assert hits == [left_subtract(a, b)]
