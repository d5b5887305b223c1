"""Back-and-forth game engine over the two constant expansions.

Each round the challenger names small subsets of both structures; the
defender must answer with a growing partial isomorphism covering them.
The implemented defender keeps one simulated persistency play alive:
whenever a challenge mentions a layer, the layer's missing domain
elements are fed to the simulation in increasing order and the round is
answered by the per-layer involutions that toggle the current simulation
function's restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .jsonshape import expect
from .ordinal import OrdinalCNF, parse_ordinal, random_ordinal_below, render_ordinal
from .persistency import PFunc, morass_strategy
from .structures import (
    CElement,
    CStructure,
    OrdElement,
    SetElement,
    StructureError,
    ValueCapError,
    check_partial_iso_report,
    element_from_json,
    element_sort_key,
    element_to_json,
    enumerate_layer,
    extends_partial_iso,
    normalize_u,
    project,
)


class EFGameError(ValueError):
    pass


@dataclass(frozen=True)
class EFConfig:
    rounds: int
    move_cap: int

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.move_cap < 1:
            raise EFGameError("rounds and move_cap must be at least 1")


@dataclass(frozen=True)
class EFRound:
    challenge_a: tuple[CElement, ...]
    challenge_b: tuple[CElement, ...]
    response: tuple[tuple[CElement, CElement], ...]


@dataclass(frozen=True)
class EFTranscript:
    rounds: tuple[EFRound, ...]
    loss_at: int | None = None
    reason: str | None = None

    @property
    def won(self) -> bool:
        return self.loss_at is None

    def final_map(self) -> dict:
        return dict(self.rounds[-1].response) if self.rounds else {}


ForallPlayer = Callable[[int, dict], tuple[Sequence[CElement], Sequence[CElement]]]


def play_ef(
    a_struct: CStructure,
    b_struct: CStructure,
    forall_player: ForallPlayer,
    exists_player,
    config: EFConfig,
) -> EFTranscript:
    """Referee the game; any illegal response loses at that round with a reason.

    The previous map has passed the full check, so each round checks only
    the new pairs with ``extends_partial_iso``; when they break the map,
    ``check_partial_iso_report`` on the whole map gives the reason.
    """
    if a_struct.frag is not b_struct.frag and a_struct.frag != b_struct.frag:
        raise EFGameError("the two structures must share a fragment")
    played: list[EFRound] = []
    prev: dict[CElement, CElement] = {}
    for j in range(config.rounds):
        ca, cb = forall_player(j, dict(prev))
        ca, cb = tuple(ca), tuple(cb)
        if len(ca) > config.move_cap or len(cb) > config.move_cap:
            raise EFGameError(f"challenger exceeded the move cap at round {j}")
        psi = exists_player.respond(ca, cb)
        reason = None
        if not isinstance(psi, Mapping):
            reason = "response is not a mapping"
        elif any(psi.get(x) != y for x, y in prev.items()):
            reason = "response does not extend the previous one"
        elif any(x not in psi for x in ca):
            reason = "challenge on the first structure not covered by the domain"
        elif any(y not in set(psi.values()) for y in cb):
            reason = "challenge on the second structure not covered by the range"
        elif not extends_partial_iso(prev, psi, a_struct, b_struct):
            reason = check_partial_iso_report(psi, a_struct, b_struct)[0]
        if reason is not None:
            return EFTranscript(tuple(played), loss_at=j, reason=reason)
        response = tuple(sorted(psi.items(), key=lambda kv: element_sort_key(kv[0])))
        played.append(EFRound(ca, cb, response))
        prev = dict(psi)
    return EFTranscript(tuple(played))


class EFExistsPlayer:
    """Defender driven by a simulated persistency play shared across rounds."""

    def __init__(self, a_struct: CStructure, b_struct: CStructure):
        if a_struct.frag != b_struct.frag:
            raise EFGameError("structures must share a fragment")
        self.a_struct = a_struct
        self.b_struct = b_struct
        base_u = a_struct.constant.u
        self.sim = morass_strategy(a_struct.frag)
        for x in base_u:
            self.sim.respond(x)
        self.fed = set(base_u)
        self.psi: dict[CElement, CElement] = {}

    def current_function(self) -> PFunc:
        return PFunc.from_pairs(self.sim.history)

    def respond(
        self, ca: Sequence[CElement], cb: Sequence[CElement]
    ) -> dict[CElement, CElement]:
        merged = sorted(set(ca) | set(cb), key=element_sort_key)
        ords = [e for e in merged if isinstance(e, OrdElement)]
        sets = [e for e in merged if isinstance(e, SetElement)]
        fresh = sorted(
            {x for e in sets for x in e.u} - self.fed, key=lambda x: x.terms
        )
        for x in fresh:
            self.sim.respond(x)
            self.fed.add(x)
        f = self.current_function()
        response = dict(self.psi)
        for e in ords:
            response[e] = e
        for e in sets:
            restriction = f.restrict(e.u)
            if restriction.max_value() > self.a_struct.value_cap:
                raise ValueCapError(
                    "simulation values exceed the structures' value cap;"
                    " rebuild with a larger cap"
                )
            layer = enumerate_layer(self.a_struct, e.u)
            idx = layer.index_of(restriction)
            if idx is None:
                raise StructureError(
                    "persistency simulation produced a function outside its layer"
                )
            for elem in (e, SetElement(e.u, e.members ^ {idx})):
                response[elem] = SetElement(e.u, elem.members ^ {idx})
        self.psi = response
        return dict(response)


def ef_exists_strategy(a_struct: CStructure, b_struct: CStructure) -> EFExistsPlayer:
    return EFExistsPlayer(a_struct, b_struct)


# ---------------------------------------------------------------------------
# Challengers


def scripted_forall(
    moves: Sequence[tuple[Sequence[CElement], Sequence[CElement]]]
) -> ForallPlayer:
    """Replays a fixed list of rounds, padding with empty challenges after it."""

    def player(j: int, _psi: dict):
        if j < len(moves):
            ca, cb = moves[j]
            return tuple(ca), tuple(cb)
        return (), ()

    return player


WEIGHT_PRESETS: dict[str, dict[str, int]] = {
    "default": {"const": 2, "ord": 2, "set": 4, "s_linked": 3},
    "constant-heavy": {"const": 6, "ord": 1, "set": 2, "s_linked": 4},
}


def random_forall(
    a_struct: CStructure,
    b_struct: CStructure,
    config: EFConfig,
    seed: int,
    weights: Mapping[str, int] | None = None,
    extra_ordinals: int = 2,
) -> ForallPlayer:
    """Seeded challenger biased toward projection-linked elements and the constants.

    Round 0 always includes both constants so the base layer is in play
    from the start.  Layers are drawn from a small chain above the base
    domain, sized to stay within the structures' enumeration limit.
    """
    import random as _random

    rng = _random.Random(seed)
    picked = dict(WEIGHT_PRESETS["default"] if weights is None else weights)
    frag = a_struct.frag
    base_u = a_struct.constant.u

    extras: list[OrdinalCNF] = []
    cap = a_struct.value_cap
    max_extra = 0
    size = len(base_u)
    while (cap + 1) ** (size + max_extra + 1) <= a_struct.max_layer_candidates and max_extra < extra_ordinals:
        max_extra += 1
    guard = 0
    while len(extras) < max_extra and guard < 64:
        guard += 1
        cand = random_ordinal_below(frag.top_theta, rng)
        if cand not in base_u and cand not in extras:
            extras.append(cand)
    layer_chain: list[tuple[OrdinalCNF, ...]] = [base_u]
    for k in range(len(extras)):
        layer_chain.append(normalize_u(base_u + tuple(extras[: k + 1])))

    ord_pool = sorted(set(base_u) | set(extras), key=lambda x: x.terms)
    kinds = [k for k, w in picked.items() for _ in range(w)]

    def random_member_set(u: tuple[OrdinalCNF, ...]) -> frozenset[int]:
        layer = enumerate_layer(a_struct, u)
        k = rng.randint(0, min(3, len(layer)))
        if k == 0 or len(layer) == 0:
            return frozenset()
        return frozenset(rng.sample(range(len(layer)), k))

    def one_element() -> list[tuple[str, CElement]]:
        kind = rng.choice(kinds)
        if kind == "const":
            return [("a", a_struct.constant), ("b", b_struct.constant)]
        if kind == "ord" and ord_pool:
            return [(rng.choice("ab"), OrdElement(rng.choice(ord_pool)))]
        if kind == "s_linked" and len(layer_chain) >= 2:
            hi = rng.randrange(1, len(layer_chain))
            lo = rng.randrange(hi)
            u, v = layer_chain[lo], layer_chain[hi]
            b_elem = SetElement(v, random_member_set(v))
            a_elem = project(a_struct, u, v, b_elem)
            return [("a", a_elem), ("b", b_elem)]
        u = layer_chain[rng.randrange(len(layer_chain))]
        return [(rng.choice("ab"), SetElement(u, random_member_set(u)))]

    def player(j: int, _psi: dict):
        ca: list[CElement] = []
        cb: list[CElement] = []
        if j == 0:
            ca.append(a_struct.constant)
            cb.append(b_struct.constant)
        budget = rng.randint(1, config.move_cap)
        attempts = 0
        while (len(ca) < budget or len(cb) < budget) and attempts < 4 * budget:
            attempts += 1
            for side, elem in one_element():
                target = ca if side == "a" else cb
                if len(target) < config.move_cap and elem not in target:
                    target.append(elem)
        return tuple(ca[: config.move_cap]), tuple(cb[: config.move_cap])

    return player


def interactive_forall(
    a_struct: CStructure,
    b_struct: CStructure,
    config: EFConfig,
    input_fn=input,
    print_fn=print,
) -> ForallPlayer:
    """Terminal challenger: a small command menu per round, re-prompting on bad input."""

    menu = (
        "challenge commands (one per line):\n"
        "  const a | const b      the named constants\n"
        "  ord <ordinal>          ordinal-part element, e.g. ord w+1\n"
        "  empty <u>              empty token of a layer, e.g. empty 0,1\n"
        "  set <u> <bits;...>     layer element from member bitstrings\n"
        "  side a | side b        choose which structure the next elements challenge\n"
        "  done                   end this round"
    )

    def parse_u(text: str) -> tuple[OrdinalCNF, ...]:
        return normalize_u(parse_ordinal(t) for t in text.split(",") if t.strip())

    def player(j: int, psi: dict):
        print_fn(f"-- round {j}: current map has {len(psi)} pairs")
        print_fn(menu)
        ca: list[CElement] = []
        cb: list[CElement] = []
        side = "a"
        while True:
            try:
                line = input_fn("> ").strip()
            except EOFError:
                break
            if not line:
                continue
            if line == "done":
                break
            try:
                parts = line.split(None, 1)
                cmd = parts[0]
                rest = parts[1] if len(parts) > 1 else ""
                if cmd == "side" and rest in ("a", "b"):
                    side = rest
                    continue
                if cmd == "const":
                    elem = a_struct.constant if rest == "a" else b_struct.constant
                elif cmd == "ord":
                    elem = OrdElement(parse_ordinal(rest))
                elif cmd == "empty":
                    elem = SetElement(parse_u(rest))
                elif cmd == "set":
                    u_text, bits_text = rest.split(None, 1)
                    u = parse_u(u_text)
                    layer = enumerate_layer(a_struct, u)
                    members = frozenset(
                        layer.index_of_bitstring(tok.strip())
                        for tok in bits_text.split(";")
                        if tok.strip() or layer.bits == 0
                    )
                    elem = SetElement(u, members)
                else:
                    raise EFGameError(f"unknown command {cmd!r}")
            except Exception as exc:  # re-prompt on any malformed input
                print_fn(f"illegal input ({exc}); try again")
                continue
            target = ca if side == "a" else cb
            if len(target) >= config.move_cap:
                print_fn("move cap reached on that side; say 'done' or switch sides")
                continue
            target.append(elem)
            print_fn(f"added to side {side}: {elem!r}")
        return tuple(ca), tuple(cb)

    return player


# ---------------------------------------------------------------------------
# JSON encoding


def transcript_to_json(transcript: EFTranscript, struct: CStructure) -> dict:
    return {
        "rounds": [
            {
                "challenge_a": [element_to_json(struct, e) for e in rnd.challenge_a],
                "challenge_b": [element_to_json(struct, e) for e in rnd.challenge_b],
                "response": [
                    [element_to_json(struct, x), element_to_json(struct, y)]
                    for x, y in rnd.response
                ],
            }
            for rnd in transcript.rounds
        ],
        "outcome": "win"
        if transcript.won
        else {"loss_at": transcript.loss_at, "reason": transcript.reason},
    }


def script_from_json(struct: CStructure, obj) -> list[tuple[tuple, tuple]]:
    """Parse a challenge script: a list of {"a": [elements], "b": [elements]}."""
    moves = []
    for rnd in expect(obj, list, "a challenge script", EFGameError):
        expect(rnd, dict, "a scripted round", EFGameError)
        ca, cb = (
            tuple(
                element_from_json(struct, e)
                for e in expect(rnd.get(side, []), list, "a round's challenge", EFGameError)
            )
            for side in ("a", "b")
        )
        moves.append((ca, cb))
    return moves
