import random
from typing import Callable

import pytest

from morasslab.morass import ElementRangeError, preceq_at
from morasslab.ordinal import OMEGA, ZERO, OrdinalCNF, random_ordinal_below
from morasslab.persistency import (
    EMPTY_PFUNC,
    PFunc,
    PersistencyError,
    admits_key,
    claim_check,
    fiber_bound,
    in_family,
    morass_strategy,
    play_persistency,
    random_challenges,
    scripted_challenges,
    transcript_from_json,
)
from oracles import oracle_in_family, oracle_preceq, sample_grid

from conftest import block_points, grown_condition, o

# A sampler maps (position, challenge) to the next response, or None.
Sampler = Callable[[PFunc, OrdinalCNF], "PFunc | None"]


class GreedyExistsPlayer:
    """Plays whatever the sampler produces; legality is left to the referee."""

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.position = EMPTY_PFUNC

    def respond(self, xi):
        nxt = self.sampler(self.position, xi)
        if nxt is not None:
            self.position = nxt
        return nxt


def greedy_strategy(sampler: Sampler) -> GreedyExistsPlayer:
    return GreedyExistsPlayer(sampler)


def family_extension_sampler(frag, max_value: int) -> Sampler:
    """Sampler over the whole family: first legal extension by value order."""

    def sample(position, xi):
        if position.get(xi) is not None:
            return position
        for v in range(max_value + 1):
            cand = PFunc.from_pairs(tuple(position.entries) + ((xi, v),))
            if in_family(frag, cand):
                return cand
        return None

    return sample


def broken_player() -> GreedyExistsPlayer:
    """A defender that always answers with the empty function (always illegal)."""
    return greedy_strategy(lambda position, xi: EMPTY_PFUNC)


def downward_closed_check(frag, f: PFunc, g: PFunc) -> bool:
    """With f a subfunction of g: membership of g implies membership of f."""
    if not g.extends(f):
        raise PersistencyError("f must be a subfunction of g")
    return in_family(frag, f) or not in_family(frag, g)


def test_pfunc_basics():
    f = PFunc.from_pairs([(o("w+3"), 0), (o("3"), 0)])
    assert f.domain() == (o("3"), o("w+3"))
    assert f.restrict([o("3")]).entries == ((o("3"), 0),)
    assert f.extends(EMPTY_PFUNC) and f.extends(f)
    with pytest.raises(PersistencyError):
        PFunc.from_pairs([(o("3"), 0), (o("3"), 1)])


def test_in_family_examples(frag0):
    assert in_family(frag0, EMPTY_PFUNC)
    assert in_family(frag0, PFunc.from_pairs([(o("w+3"), 0), (o("3"), 0)]))
    assert not in_family(frag0, PFunc.from_pairs([(o("w+3"), 0), (o("3"), 1)]))
    with pytest.raises(ElementRangeError):
        in_family(frag0, PFunc.from_pairs([(o("w*2"), 0)]))


def test_in_family_against_definition_oracle(frag0):
    grid = sample_grid(frag0, per_block=12)
    elements = [o("1"), o("3"), o("w+1"), o("w+3")]
    values = [None, 0, 1, 2, 3]
    total = checked = 0
    for v0 in values:
        for v1 in values:
            for v2 in values:
                for v3 in values:
                    pairs = [
                        (x, v)
                        for x, v in zip(elements, (v0, v1, v2, v3))
                        if v is not None
                    ]
                    f = PFunc.from_pairs(pairs)
                    total += 1
                    got = in_family(frag0, f)
                    expected = oracle_in_family(frag0, f, grid)
                    assert got == expected, (pairs, got, expected)
                    checked += 1
    assert total == checked == 5 ** 4


def test_fiber_bound_witness_is_honest(mixed_fragment):
    rng = random.Random(3)
    grid = sample_grid(mixed_fragment, per_block=10)
    for _ in range(60):
        members = frozenset(
            random_ordinal_below(mixed_fragment.top_theta, rng) for _ in range(rng.randint(1, 3))
        )
        bound = fiber_bound(mixed_fragment, members)
        if bound is not None:
            assert all(oracle_preceq(mixed_fragment, x, bound) for x in members)
        else:
            assert not any(
                all(oracle_preceq(mixed_fragment, x, z) for x in members) for z in grid
            )


def test_downward_closure(frag0):
    member = PFunc.from_pairs([(o("w+3"), 0), (o("3"), 0)])
    assert downward_closed_check(frag0, EMPTY_PFUNC, member)
    assert downward_closed_check(frag0, member, member)
    rng = random.Random(9)
    for _ in range(50):
        pairs = [
            (x, rng.randint(0, 3))
            for x in {random_ordinal_below(frag0.top_theta, rng) for _ in range(4)}
        ]
        g = PFunc.from_pairs(pairs)
        keep = [k for k, _ in g.entries if rng.random() < 0.5]
        assert downward_closed_check(frag0, g.restrict(keep), g)


def test_admits_key_matches_in_family_on_extension_chains():
    rng = random.Random(77)
    accepted = rejected = 0
    for height in range(1, 9):
        frag = grown_condition(rng, height).frag
        points = block_points(frag)
        points += [random_ordinal_below(frag.top_theta, rng) for _ in range(20)]
        f = EMPTY_PFUNC
        for _ in range(40):
            key = rng.choice(points)
            if f.get(key) is not None:
                continue
            used = sorted({v for _, v in f.entries})
            if used and rng.random() < 0.5:
                value = rng.choice(used)  # grows a fiber, whose bound is then checked
            else:
                value = rng.randint(0, f.max_value() + 2)
            extended = PFunc.from_pairs(f.entries + ((key, value),))
            verdict = admits_key(frag, f, key, value)
            assert verdict == in_family(frag, extended), (f.entries, key, value)
            if verdict:
                f = extended
                accepted += 1
            else:
                rejected += 1
    assert accepted >= 100 and rejected >= 50


def test_referee_one_key_and_wider_responses(frag0):
    # {w+3: 0, 3: 1} is outside the family: 3 sits below w+3 with equal level-0 predecessors
    script = scripted_challenges([o("w+3"), o("3")])
    responses = {
        "one key, legal": [[(o("w+3"), 0)], [(o("w+3"), 0), (o("3"), 0)]],
        "one key, illegal": [[(o("w+3"), 0)], [(o("w+3"), 0), (o("3"), 1)]],
        "two keys, legal": [[(o("w+3"), 0), (o("3"), 0)]] * 2,
        "two keys, illegal": [[(o("w+3"), 0), (o("3"), 1)]] * 2,
    }
    for name, answers in responses.items():
        moves = iter(PFunc.from_pairs(pairs) for pairs in answers)
        t = play_persistency(frag0, script, greedy_strategy(lambda pos, xi: next(moves)), 2)
        expected = next(
            (j for j, pairs in enumerate(answers) if not in_family(frag0, PFunc.from_pairs(pairs))),
            None,
        )
        assert t.stuck_at == expected, name


def test_degenerate_zero_round_game(frag0):
    t = play_persistency(frag0, scripted_challenges([ZERO]), morass_strategy(frag0), 0)
    assert t.won and t.rounds == ()


def test_two_round_trace(frag0):
    t = play_persistency(
        frag0, scripted_challenges([o("w+3"), o("3")]), morass_strategy(frag0), 2
    )
    assert t.won
    assert t.final_position() == PFunc.from_pairs([(o("w+3"), 0), (o("3"), 0)])


def test_fresh_value_trace(frag0):
    player = morass_strategy(frag0)
    play_persistency(frag0, scripted_challenges([o("3"), o("w+1")]), player, 2)
    assert player.history == [(o("3"), 0), (o("w+1"), 2)]


def test_repeated_challenge_reuses_value(frag0):
    player = morass_strategy(frag0)
    play_persistency(frag0, scripted_challenges([o("w+1"), o("w+1")]), player, 2)
    assert player.history[0][1] == player.history[1][1]


def test_broken_player_stuck_at_zero(frag0):
    t = play_persistency(frag0, scripted_challenges([o("1")]), broken_player(), 1)
    assert not t.won and t.stuck_at == 0


def test_claim_check(frag0):
    assert claim_check([], frag0)
    assert claim_check([(o("3"), 0)], frag0)
    for script in ([o("w+3"), o("3")], [o("3"), o("w+1")]):
        player = morass_strategy(frag0)
        play_persistency(frag0, scripted_challenges(script), player, len(script))
        assert claim_check(player.history, frag0)


def test_claim_check_fuzzed(built_conditions):
    rng = random.Random(21)
    for cond in built_conditions[:5]:
        frag = cond.frag
        player = morass_strategy(frag)
        t = play_persistency(frag, random_challenges(frag, rng.randrange(10**6)), player, 48)
        assert t.won
        assert claim_check(player.history, frag)


def test_fiber_witness_invariant(built_conditions):
    # the earliest challenge carrying a value bounds that value's whole fiber
    for seed, cond in enumerate(built_conditions[:5]):
        frag = cond.frag
        player = morass_strategy(frag)
        t = play_persistency(frag, random_challenges(frag, 100 + seed), player, 32)
        assert t.won
        history = player.history
        for alpha in {a for _, a in history}:
            first = next(xi for xi, a in history if a == alpha)
            fiber = [xi for xi, a in history if a == alpha]
            assert all(preceq_at(frag, alpha, x, first) for x in fiber)


def test_greedy_strategy(frag0):
    sampler = family_extension_sampler(frag0, max_value=4)
    t = play_persistency(
        frag0, scripted_challenges([o("w+3"), o("3"), o("w+1")]), greedy_strategy(sampler), 3
    )
    assert t.won
    t2 = play_persistency(
        frag0, scripted_challenges([o("1")]), greedy_strategy(lambda pos, xi: None), 1
    )
    assert t2.stuck_at == 0


def test_transcript_json_round_trip(frag0):
    t = play_persistency(
        frag0, scripted_challenges([o("w+3"), o("3")]), morass_strategy(frag0), 2
    )
    assert transcript_from_json(t.to_json()) == t
    t2 = play_persistency(frag0, scripted_challenges([o("1")]), broken_player(), 1)
    assert transcript_from_json(t2.to_json()) == t2
