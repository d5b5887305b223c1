import random
from functools import lru_cache

import pytest

import oracles

from morasslab.morass import (
    ElementRangeError,
    LevelData,
    MapNF,
    MorassError,
    MorassFragment,
    compose,
    dominates,
    family,
    fragment_from_json,
    fragment_to_json,
    identity_map,
    make_shift,
    map_from_json,
    map_to_json,
    mu,
    preceq,
    preceq_at,
    predecessor,
    predecessor_vector,
    validate_fragment,
)
from morasslab.ordinal import OMEGA, ZERO, random_ordinal_below
from oracles import (
    family_words,
    fullness_violations,
    mu_by_step_maps,
    oracle_mu,
    oracle_preceq,
    oracle_predecessors,
    predecessor_witness_vector,
    sample_grid,
)

from conftest import block_points, grown_condition, o


def test_make_shift_examples():
    s = make_shift(OMEGA, ZERO)
    assert s.apply(o("3")) == o("w+3")
    assert s.target_theta == o("w*2")
    degenerate = make_shift(OMEGA, OMEGA)
    assert degenerate.is_identity() and degenerate.target_theta == OMEGA
    s2 = make_shift(o("w*2"), OMEGA)
    assert s2.apply(o("w+1")) == o("w*2+1")
    assert s2.apply(o("3")) == o("3")
    with pytest.raises(MorassError):
        make_shift(OMEGA, o("w+1"))


def test_compose_identity_laws():
    f = make_shift(OMEGA, ZERO)
    assert compose(identity_map(f.target_theta), f) == f
    assert compose(f, identity_map(OMEGA)) == f


def test_compose_example_with_pointwise_oracle():
    inner = make_shift(OMEGA, ZERO)
    outer = make_shift(o("w*2"), ZERO)
    comp = compose(outer, inner)
    assert comp.apply(o("2")) == o("w*3+2")
    for n in range(12):
        x = o(str(n))
        assert comp.apply(x) == outer.apply(inner.apply(x))


def test_compose_endpoint_mismatch():
    with pytest.raises(MorassError):
        compose(make_shift(OMEGA, ZERO), make_shift(OMEGA, ZERO))


def test_family_frag0(frag0):
    fam = family(frag0, 0, 1)
    assert set(fam) == {identity_map(OMEGA, o("w*2")), make_shift(OMEGA, ZERO)}


def test_family_degenerate_level():
    frag = MorassFragment(1, (LevelData(OMEGA, OMEGA, ZERO),), OMEGA)
    assert family(frag, 0, 1) == (identity_map(OMEGA),)


def test_family_word_enumeration(tower3):
    words = family_words(tower3, 0, 3)
    assert len(words) == 8
    assert set(family(tower3, 0, 3)) == set(words)
    assert len(family(tower3, 0, 3)) == 8


def test_validate_pass(frag0, tower3, mixed_fragment):
    for frag in (frag0, tower3, mixed_fragment):
        report = validate_fragment(frag)
        assert report.ok, report.violations


def test_validate_successor_violation():
    frag = MorassFragment(1, (LevelData(OMEGA, ZERO, OMEGA),), o("w*3"))
    report = validate_fragment(frag)
    assert "level 0: successor violation theta_1 != theta + eta" in report.violations
    assert not any("successor family ill-formed" in v for v in report.violations)


def test_ill_formed_step_breaks_level_arithmetic():
    """Every step whose successor family is ill-formed has an arithmetic violation at its level."""
    rng = random.Random(2044)
    pool = [o(t) for t in ("0", "w", "w*2", "w*3", "w*4", "w^2", "w^2+w", "w^2*2")]
    ill_formed = 0
    for _ in range(3000):
        height = rng.randint(1, 3)
        levels = []
        theta = rng.choice(pool[1:])
        for _ in range(height):
            gamma, eta = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5:
                theta = gamma + eta
            levels.append(LevelData(theta, gamma, eta))
            theta = theta + eta if rng.random() < 0.5 else rng.choice(pool[1:])
        frag = MorassFragment(height, tuple(levels), theta)
        violations = validate_fragment(frag).violations
        for alpha, error in enumerate(frag._step_errors):
            if error is not None:
                ill_formed += 1
                assert f"level {alpha}: theta != gamma + eta" in violations or (
                    f"level {alpha}: successor violation theta_{alpha + 1} != theta + eta" in violations
                )
    assert ill_formed > 1000


def test_validate_fullness_failure_when_shift_omitted(monkeypatch):
    frag = MorassFragment(1, (LevelData(OMEGA, ZERO, OMEGA),), o("w*2"))
    ident = identity_map(OMEGA, o("w*2"))
    # a family without its shift is refused when loaded
    with pytest.raises(MorassError, match="only the canonical successor family"):
        fragment_from_json({**fragment_to_json(frag), "successor_families": [[map_to_json(ident)]]})
    # and the fullness oracle sees the gap it would leave, at every pair of levels
    monkeypatch.setattr(
        MorassFragment,
        "successor_family",
        lambda self, alpha: (identity_map(self.theta_at(alpha), self.theta_at(alpha + 1)),),
    )
    assert fullness_violations(frag) == [(0, 1)]
    tallest = grown_condition(random.Random(1310), 8).frag
    assert fullness_violations(tallest) == [
        (alpha, beta) for alpha in range(tallest.height) for beta in range(alpha + 1, tallest.height + 1)
    ]


def test_predecessor_examples(frag0):
    assert predecessor(frag0, 0, o("w+3")) == o("3")
    assert predecessor(frag0, 0, o("3")) == o("3")
    assert predecessor(frag0, 1, o("w+3")) == o("w+3")
    with pytest.raises(ElementRangeError):
        predecessor(frag0, 0, o("w*2"))


def test_predecessor_uniqueness_against_word_search(tower3, mixed_fragment):
    rng = random.Random(5)
    for frag in (tower3, mixed_fragment):
        for _ in range(40):
            xi = random_ordinal_below(frag.top_theta, rng)
            for alpha in range(frag.height + 1):
                values = oracle_predecessors(frag, alpha, xi)
                assert values == {predecessor(frag, alpha, xi)}
                assert predecessor_witness_vector(frag, xi)[alpha] == frozenset(values)


def test_preceq_examples(frag0):
    assert preceq(frag0, o("3"), o("w+3"))
    assert preceq_at(frag0, 0, o("3"), o("w+3"))
    assert not preceq(frag0, o("w+1"), o("3"))
    # beyond the top level the pinned relation degenerates to equality
    assert preceq_at(frag0, 5, o("3"), o("3"))
    assert not preceq_at(frag0, 5, o("3"), o("w+3"))


def test_preceq_matches_oracle(mixed_fragment):
    grid = sample_grid(mixed_fragment, per_block=6)
    for xi in grid:
        for eta in grid:
            assert preceq(mixed_fragment, xi, eta) == oracle_preceq(mixed_fragment, xi, eta)


def test_preceq_partial_order(built_conditions):
    rng = random.Random(11)
    for cond in built_conditions[:4]:
        frag = cond.frag
        xs = [random_ordinal_below(frag.top_theta, rng) for _ in range(12)]
        for x in xs:
            assert preceq(frag, x, x)
        for x in xs:
            for y in xs:
                if preceq(frag, x, y):
                    assert x <= y  # refines the ordinal order
                    if preceq(frag, y, x):
                        assert x == y
                for z in xs:
                    if preceq(frag, x, y) and preceq(frag, y, z):
                        assert preceq(frag, x, z)


def test_monotonicity_past_mu(built_conditions):
    rng = random.Random(13)
    for cond in built_conditions[:4]:
        frag = cond.frag
        for _ in range(30):
            x = random_ordinal_below(frag.top_theta, rng)
            y = random_ordinal_below(frag.top_theta, rng)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            level = mu(frag, x, y)
            vx, vy = predecessor_vector(frag, x), predecessor_vector(frag, y)
            for beta in range(level, frag.height + 1):
                assert vx[beta] < vy[beta]


def test_mu_examples(frag0):
    assert mu(frag0, o("3"), o("w+3")) == 1
    assert mu(frag0, o("3"), o("5")) == 0
    assert mu(frag0, o("w+3"), o("w+3")) == 0  # fullness forces level 0


def test_mu_matches_exhaustive_search(tower3, mixed_fragment):
    rng = random.Random(7)
    for frag in (tower3, mixed_fragment):
        for _ in range(40):
            x = random_ordinal_below(frag.top_theta, rng)
            y = random_ordinal_below(frag.top_theta, rng)
            assert mu(frag, x, y) == oracle_mu(frag, x, y)


def test_mu_canonical_matches_successor_maps_and_oracle(monkeypatch):
    words = oracles.family_words
    monkeypatch.setattr(
        oracles, "family_words", lru_cache(maxsize=None)(lambda f, a, b: tuple(words(f, a, b)))
    )
    rng = random.Random(1308)
    levels_seen = set()
    for height in range(1, 11):
        for _ in range(2):
            frag = grown_condition(rng, height).frag
            points = block_points(frag)
            points += [random_ordinal_below(frag.top_theta, rng) for _ in range(10)]
            for _ in range(40):
                x, y = rng.choice(points), rng.choice(points)
                level = mu(frag, x, y)
                assert level == mu_by_step_maps(frag, x, y) == oracles.oracle_mu(frag, x, y), (x, y)
                levels_seen.add((height, level))
    # the descent stops at every level somewhere, the bottom and the top included
    assert {level for _, level in levels_seen} == set(range(11))


def test_mu_raises_when_declared_eta_disagrees():
    # level 0 is w split at 0, so its shift reaches w*2, but theta_1 is declared w*3
    levels = (LevelData(o("w"), ZERO, o("w")), LevelData(o("w*3"), ZERO, o("w*3")))
    frag = MorassFragment(2, levels, o("w*6"))
    for _ in range(2):
        with pytest.raises(MorassError):
            mu(frag, o("1"), o("2"))
    # a descent that stops above the broken step never reaches it
    assert mu(frag, o("1"), o("w*4")) == 2
    top_broken = MorassFragment(1, (LevelData(o("w"), ZERO, o("w")),), o("w*3"))
    with pytest.raises(MorassError):
        mu(top_broken, o("1"), o("w*2"))


def test_predecessor_raises_where_an_ill_formed_step_has_no_preimage():
    # level 0 is w split at 0, so its shift reaches w*2, but theta_1 is declared w*3
    frag = MorassFragment(1, (LevelData(OMEGA, ZERO, OMEGA),), o("w*3"))
    for _ in range(2):  # the error is not hidden by the cache
        with pytest.raises(MorassError, match=r"shift target w\*2 != theta_1 w\*3"):
            predecessor(frag, 0, o("w*2+3"))
    # the points that the shift and the identity do reach keep their predecessors
    assert predecessor(frag, 0, o("w+3")) == o("3")
    assert predecessor_vector(frag, o("3")) == (o("3"), o("3"))


def test_dominates(frag0):
    s = (o("3"), o("w+1"))
    assert dominates(frag0, s, s)
    assert dominates(frag0, (o("3"),), (o("w+3"),))
    assert not dominates(frag0, (o("3"), o("w+1")), (o("w+3"), o("3")))
    with pytest.raises(MorassError):
        dominates(frag0, (o("3"),), (o("3"), o("5")))


def test_fullness_cover_invariant(built_conditions):
    for cond in built_conditions[:4]:
        report = validate_fragment(cond.frag)
        assert report.ok, report.violations


def test_fullness_holds_on_built_and_grown_fragments(built_conditions):
    rng = random.Random(1310)
    frags = [cond.frag for cond in built_conditions]
    frags += [grown_condition(rng, height).frag for height in range(1, 9)]
    for frag in frags:
        assert validate_fragment(frag).ok
        assert fullness_violations(frag) == []


def test_fragment_json_round_trip(tower3, mixed_fragment):
    for frag in (tower3, mixed_fragment):
        assert fragment_from_json(fragment_to_json(frag)) == frag
    obj = fragment_to_json(mixed_fragment)
    families = [mixed_fragment.successor_family(alpha) for alpha in range(mixed_fragment.height)]
    spelled_out = [[map_to_json(m) for m in fam] for fam in families]
    assert fragment_from_json({**obj, "successor_families": spelled_out}) == mixed_fragment
    without_shift = [[map_to_json(m) for m in fam if m.is_identity()] for fam in families]
    with pytest.raises(MorassError):
        fragment_from_json({**obj, "successor_families": without_shift})


def test_map_json_round_trip():
    m = compose(make_shift(o("w*2"), OMEGA), make_shift(OMEGA, ZERO))
    assert map_from_json(map_to_json(m)) == m
