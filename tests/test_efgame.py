import json
import random

import pytest

from morasslab.efgame import (
    EFConfig,
    EFGameError,
    WEIGHT_PRESETS,
    ef_exists_strategy,
    play_ef,
    random_forall,
    scripted_forall,
    transcript_to_json,
)
from morasslab.structures import (
    OrdElement,
    SetElement,
    check_partial_iso_report,
    classify_partial_iso,
    enumerate_layer,
    extends_partial_iso,
    make_ab,
    normalize_u,
    project,
)
from oracles import all_challenge_sequences, ef_game_solver, oracle_ef_round_reason

from conftest import o


@pytest.fixture
def ab(frag0):
    return make_ab(frag0, [o("0"), o("1")])


def test_config_validation():
    with pytest.raises(EFGameError):
        EFConfig(rounds=0, move_cap=1)
    with pytest.raises(EFGameError):
        EFConfig(rounds=1, move_cap=0)


def test_first_move_maps_constant(ab):
    a_struct, b_struct, f_star = ab
    config = EFConfig(rounds=1, move_cap=2)
    adv = scripted_forall([((a_struct.constant,), (b_struct.constant,))])
    t = play_ef(a_struct, b_struct, adv, ef_exists_strategy(a_struct, b_struct), config)
    assert t.won
    psi = t.final_map()
    assert psi[a_struct.constant] == b_struct.constant
    assert psi[b_struct.constant] == a_struct.constant


def test_ord_challenges_get_identity(ab):
    a_struct, b_struct, _ = ab
    config = EFConfig(rounds=1, move_cap=3)
    elems = (OrdElement(o("0")), OrdElement(o("w+1")))
    t = play_ef(
        a_struct,
        b_struct,
        scripted_forall([(elems, ())]),
        ef_exists_strategy(a_struct, b_struct),
        config,
    )
    assert t.won
    psi = t.final_map()
    assert all(psi[e] == e for e in elems)


def test_two_round_nested_layers(ab):
    a_struct, b_struct, _ = ab
    base = a_struct.constant.u
    bigger = normalize_u(base + (o("w+1"),))
    config = EFConfig(rounds=2, move_cap=2)
    moves = [
        ((a_struct.constant,), (b_struct.constant,)),
        ((SetElement(bigger),), (SetElement(bigger, frozenset({1})),)),
    ]
    t = play_ef(
        a_struct, b_struct, scripted_forall(moves), ef_exists_strategy(a_struct, b_struct), config
    )
    assert t.won
    first, second = (dict(r.response) for r in t.rounds)
    assert all(second.get(k) == v for k, v in first.items())
    for rnd in t.rounds:
        cls = classify_partial_iso(dict(rnd.response), a_struct, b_struct)
        assert cls.is_shift_family and cls.coherent and cls.n_psi == 1


def test_empty_round_is_legal(ab):
    a_struct, b_struct, _ = ab
    config = EFConfig(rounds=2, move_cap=2)
    moves = [((a_struct.constant,), ()), ((), ())]
    t = play_ef(
        a_struct, b_struct, scripted_forall(moves), ef_exists_strategy(a_struct, b_struct), config
    )
    assert t.won and len(t.rounds) == 2


class _NonExtendingPlayer:
    def __init__(self, a_struct, b_struct):
        self.inner = ef_exists_strategy(a_struct, b_struct)
        self.round = 0

    def respond(self, ca, cb):
        self.round += 1
        if self.round == 2:
            return {}
        return self.inner.respond(ca, cb)


def test_referee_flags_non_extension(ab):
    a_struct, b_struct, _ = ab
    config = EFConfig(rounds=2, move_cap=2)
    adv = scripted_forall(
        [((a_struct.constant,), ()), ((OrdElement(o("0")),), ())]
    )
    t = play_ef(a_struct, b_struct, adv, _NonExtendingPlayer(a_struct, b_struct), config)
    assert not t.won and t.loss_at == 1
    assert "extend" in t.reason


def test_scripted_pads_with_empty_rounds(ab):
    a_struct, b_struct, _ = ab
    config = EFConfig(rounds=3, move_cap=2)
    adv = scripted_forall([((a_struct.constant,), (b_struct.constant,))])
    t = play_ef(a_struct, b_struct, adv, ef_exists_strategy(a_struct, b_struct), config)
    assert t.won and len(t.rounds) == 3
    assert t.rounds[2].challenge_a == ()


def test_random_adversary_deterministic(frag0):
    def run():
        a_struct, b_struct, _ = make_ab(frag0, [o("0"), o("1")])
        config = EFConfig(rounds=6, move_cap=4)
        adv = random_forall(a_struct, b_struct, config, seed=99)
        t = play_ef(a_struct, b_struct, adv, ef_exists_strategy(a_struct, b_struct), config)
        return json.dumps(transcript_to_json(t, a_struct), sort_keys=True)

    assert run() == run()


def test_strategy_soundness_sampled(built_conditions):
    rng = random.Random(2024)
    for cond in built_conditions[:3]:
        a_struct, b_struct, _ = make_ab(cond.frag, [o("0"), o("1")])
        for preset in WEIGHT_PRESETS:
            config = EFConfig(rounds=rng.randint(2, 8), move_cap=rng.randint(1, 6))
            adv = random_forall(
                a_struct, b_struct, config, seed=rng.randrange(10**6), weights=WEIGHT_PRESETS[preset]
            )
            t = play_ef(a_struct, b_struct, adv, ef_exists_strategy(a_struct, b_struct), config)
            assert t.won, (t.loss_at, t.reason)
            for rnd in t.rounds:
                cls = classify_partial_iso(dict(rnd.response), a_struct, b_struct)
                assert cls.identity_on_ord and cls.is_shift_family and cls.coherent
                assert cls.n_psi == 1


def test_simulation_chain_is_monotone(ab, frag0):
    from morasslab.persistency import in_family

    a_struct, b_struct, _ = ab
    config = EFConfig(rounds=6, move_cap=4)
    player = ef_exists_strategy(a_struct, b_struct)
    adv = random_forall(a_struct, b_struct, config, seed=31)
    previous = player.current_function()
    for j in range(config.rounds):
        ca, cb = adv(j, {})
        player.respond(ca, cb)
        current = player.current_function()
        assert current.extends(previous)
        assert in_family(frag0, current)
        previous = current


def test_exhaustive_tree_confirms_winning_strategy(ab):
    a_struct, b_struct, f_star = ab
    base = a_struct.constant.u
    layer = enumerate_layer(a_struct, base)
    star = layer.index_of(f_star)
    g = next(i for i in range(len(layer)) if i != star)
    pool = (
        a_struct.constant,
        b_struct.constant,
        SetElement(base, frozenset({g})),
        SetElement(base, frozenset({g, star})),
        OrdElement(o("0")),
        OrdElement(o("1")),
    )
    rounds = 2
    win, freeze = ef_game_solver(a_struct, b_struct, pool, rounds)
    assert win((), 0)
    # the implemented defender never leaves the winning region
    moves = [(e, side) for e in pool for side in "ab"]
    for seq in all_challenge_sequences(moves, rounds):
        player = ef_exists_strategy(a_struct, b_struct)
        position = ()
        for r, (elem, side) in enumerate(seq):
            ca, cb = ((elem,), ()) if side == "a" else ((), (elem,))
            psi = player.respond(ca, cb)
            position = freeze(psi)
            assert win(position, r + 1), (seq, r)


def test_referee_checks_old_elements_against_new_ones(frag0):
    # only the pair (old ordinal, new layer element) tells the two maps apart
    a_struct, b_struct, _ = make_ab(frag0, [o("0"), o("1")])
    w, on_w = OrdElement(o("w")), SetElement((o("w"),))
    responses = iter([{w: w}, {w: w, on_w: SetElement((o("w+1"),))}])

    class Player:
        def respond(self, ca, cb):
            return next(responses)

    adv = scripted_forall([((w,), ()), ((on_w,), ())])
    t = play_ef(a_struct, b_struct, adv, Player(), EFConfig(rounds=2, move_cap=1))
    assert (t.loss_at, t.reason) == (1, "membership link broken on (Ord(w), Set[w][])")


def test_referee_finds_each_relation_broken_alone(ab):
    # each map breaks one relation on one pair with a new element, and nothing else
    a_struct, b_struct, _ = ab
    u, v = normalize_u([o("3")]), normalize_u([o("3"), o("w+3")])
    upper = SetElement(v, frozenset({1}))
    below = project(a_struct, u, v, upper)
    other = SetElement(u, frozenset({1}))
    x1, x2 = SetElement(v, frozenset({2, 3})), SetElement(v, frozenset({1, 2}))
    cases = [
        # the new ordinal's image is above the old one's
        ({OrdElement(o("4")): OrdElement(o("4"))}, OrdElement(o("3")), OrdElement(o("5")),
         "order relation"),
        # a singleton difference only among the images
        ({upper: upper}, x1, x2, "bit relations"),
        # an old element's projection is new, on either side
        ({upper: upper}, below, other, "projection link"),
        ({upper: upper}, other, below, "projection link"),
    ]
    for prev, x, y, phrase in cases:
        psi = {**prev, x: y}
        assert not extends_partial_iso(prev, psi, a_struct, b_struct), phrase
        assert check_partial_iso_report(psi, a_struct, b_struct)[0].startswith(phrase)
    assert extends_partial_iso({upper: upper}, {upper: upper, below: below}, a_struct, b_struct)


class _PlantingPlayer:
    """The defender, with its response at round ``at`` replaced by ``plant(prev, psi)``.

    Every round's challenges and response are recorded.
    """

    def __init__(self, a_struct, b_struct, at, plant):
        self.inner = ef_exists_strategy(a_struct, b_struct)
        self.at, self.plant = at, plant
        self.rounds = []

    def respond(self, ca, cb):
        psi = self.inner.respond(ca, cb)
        if len(self.rounds) == self.at:
            prev = dict(self.rounds[-1][2]) if self.rounds else {}
            psi = self.plant(prev, psi)
        self.rounds.append((ca, cb, psi))
        return psi


def _planters(a_struct, rng):
    """Ways to spoil a response; each returns the response unchanged when it cannot."""

    def new_keys(prev, psi):
        return [x for x in psi if x not in prev]

    def swap_images(prev, psi):
        new = new_keys(prev, psi)
        if len(new) < 2:
            return psi
        x1, x2 = rng.sample(new, 2)
        return {**psi, x1: psi[x2], x2: psi[x1]}

    def collide(prev, psi):
        new = new_keys(prev, psi)
        if not new or len(psi) < 2:
            return psi
        x = rng.choice(new)
        return {**psi, x: psi[rng.choice([k for k in psi if k != x])]}

    def break_constant(prev, psi):
        c = a_struct.constant
        others = [x for x in new_keys(prev, psi) if x != c]
        if c not in psi or c in prev or not others:
            return psi
        x = rng.choice(others)
        return {**psi, c: psi[x], x: psi[c]}

    def invalid_image(prev, psi):
        new = new_keys(prev, psi)
        if not new:
            return psi
        x = rng.choice(new)
        y = psi[x]
        if isinstance(y, OrdElement):
            bad = OrdElement(a_struct.frag.top_theta)
        else:
            bad = SetElement(y.u, y.members | {len(enumerate_layer(a_struct, y.u))})
        return {**psi, x: bad}

    def new_set_keys(prev, psi):
        return [x for x in new_keys(prev, psi) if isinstance(psi[x], SetElement)]

    def relayer(prev, psi):
        new = new_set_keys(prev, psi)
        if not new:
            return psi
        x = rng.choice(new)
        y = psi[x]
        others = sorted({z.u for z in psi.values() if isinstance(z, SetElement)} - {y.u})
        if not others:
            return psi
        u = rng.choice(others)
        size = len(enumerate_layer(a_struct, u))
        return {**psi, x: SetElement(u, frozenset(i for i in y.members if i < size))}

    def flip(prev, psi):
        new = new_set_keys(prev, psi)
        if not new:
            return psi
        x = rng.choice(new)
        y = psi[x]
        i = rng.randrange(len(enumerate_layer(a_struct, y.u)))
        return {**psi, x: SetElement(y.u, y.members ^ {i})}

    return {
        "none": lambda prev, psi: psi,
        "swap": swap_images,
        "collide": collide,
        "constant": break_constant,
        "invalid": invalid_image,
        "relayer": relayer,
        "flip": flip,
    }


def test_delta_referee_matches_full_check(frag0, built_conditions):
    rng = random.Random(1309)
    reasons = set()
    for frag in [frag0] + [cond.frag for cond in built_conditions[:3]]:
        a_struct, b_struct, _ = make_ab(frag, [o("0"), o("1")])
        for kind, plant in _planters(a_struct, rng).items():
            for _ in range(3):
                config = EFConfig(rounds=rng.randint(3, 6), move_cap=rng.randint(2, 4))
                adv = random_forall(a_struct, b_struct, config, seed=rng.randrange(10**6))
                at = 0 if kind == "constant" else rng.randrange(config.rounds)
                player = _PlantingPlayer(a_struct, b_struct, at, plant)
                t = play_ef(a_struct, b_struct, adv, player, config)
                # replay every round with the referee that checks the whole map
                expected = (None, None)
                prev = {}
                for j, (ca, cb, psi) in enumerate(player.rounds):
                    if all(psi.get(x) == y for x, y in prev.items()):
                        full = not check_partial_iso_report(psi, a_struct, b_struct)
                        assert extends_partial_iso(prev, psi, a_struct, b_struct) == full
                    reason = oracle_ef_round_reason(prev, psi, ca, cb, a_struct, b_struct)
                    if reason is not None:
                        expected = (j, reason)
                        break
                    prev = dict(psi)
                assert (t.loss_at, t.reason) == expected, kind
                reasons.add(t.reason)
    for phrase in (
        "map is not injective",
        "outside the layer catalog",
        "constant not respected",
        "order relation broken on",
        "membership link broken on",
        "projection link broken on",
        "bit relations broken on",
    ):
        assert any(phrase in r for r in reasons if r), phrase
    assert None in reasons
