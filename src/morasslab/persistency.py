"""The persistent function family and the persistency game engine.

Members of the family are finite partial functions from the fragment's
universe into level indices, subject to two constraints: values propagate
downward along ``preceq_at``, and every fiber has a common ``preceq``
upper bound inside the universe.  The challenger names universe elements;
the defender answers with growing family members covering them.  The
defender implemented here follows the explicit two-rule strategy whose
soundness rests on the at-most-one-candidate claim checked by
:func:`claim_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import intervals
from .morass import (
    MorassFragment,
    mu,
    preceq_at,
    predecessor_pieces,
    predecessor_vector,
    preimage_of_interval,
)
from .ordinal import OrdinalCNF, parse_ordinal, random_ordinal_below, render_ordinal


class PersistencyError(ValueError):
    pass


@dataclass(frozen=True)
class PFunc:
    """A finite partial function from universe elements to level indices."""

    entries: tuple[tuple[OrdinalCNF, int], ...] = ()

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.entries]
        if sorted(keys) != list(keys) or len(set(keys)) != len(keys):
            raise PersistencyError("entries must be sorted by key, without repeats")
        if any(v < 0 for _, v in self.entries):
            raise PersistencyError("values are level indices (naturals)")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[OrdinalCNF, int]]) -> "PFunc":
        seen: dict[OrdinalCNF, int] = {}
        for k, v in pairs:
            if k in seen and seen[k] != v:
                raise PersistencyError(f"conflicting values for {k}")
            seen[k] = v
        return cls(tuple(sorted(seen.items(), key=lambda kv: kv[0].terms)))

    def as_dict(self) -> dict[OrdinalCNF, int]:
        return dict(self.entries)

    def domain(self) -> tuple[OrdinalCNF, ...]:
        return tuple(k for k, _ in self.entries)

    def get(self, key: OrdinalCNF) -> int | None:
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def restrict(self, keys: Iterable[OrdinalCNF]) -> "PFunc":
        keep = set(keys)
        return PFunc(tuple((k, v) for k, v in self.entries if k in keep))

    def extends(self, other: "PFunc") -> bool:
        mine = self.as_dict()
        return all(mine.get(k) == v for k, v in other.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def max_value(self) -> int:
        return max((v for _, v in self.entries), default=-1)


EMPTY_PFUNC = PFunc()


@lru_cache(maxsize=65536)
def fiber_bound(
    frag: MorassFragment, fiber: frozenset[OrdinalCNF]
) -> OrdinalCNF | None:
    """Least common preceq-upper bound of a finite set within the universe.

    At each level the bound's predecessor must dominate the fiber's maximum
    there; the admissible elements per level form a finite interval union
    (predecessor maps are piecewise translations), and the fiber is bounded
    iff the intersection over all levels is nonempty.
    """
    if not fiber:
        return None
    vecs = [predecessor_vector(frag, x) for x in fiber]
    constraints = []
    for beta in range(frag.height + 1):
        m = max(v[beta] for v in vecs)
        theta_b = frag.theta_at(beta)
        if beta == frag.height:
            constraints.append(((m, theta_b),))
        else:
            constraints.append(
                preimage_of_interval(predecessor_pieces(frag, beta), m, theta_b)
            )
    return intervals.first_point(intervals.intersect_all(constraints))


def _terms_vector(frag: MorassFragment, xi: OrdinalCNF) -> tuple:
    return tuple(x.terms for x in predecessor_vector(frag, xi))


def _preceq_at_vectors(height: int, alpha: int, vx: tuple, vy: tuple) -> bool:
    """preceq_at on two predecessor vectors of CNF terms."""
    if any(a > b for a, b in zip(vx, vy)):
        return False
    pin = min(alpha, height)
    return vx[pin] == vy[pin]


def in_family(frag: MorassFragment, f: PFunc) -> bool:
    """Membership test for the fragment's persistent family.

    (1) whenever f(eta) = a and xi sits below eta with equal level-a
        predecessors, then f(xi) = a too;
    (2) every fiber has a common preceq-upper bound within the universe.
    """
    for k, _ in f.entries:
        frag.check_element(k)
    vecs = {k: _terms_vector(frag, k) for k, _ in f.entries}
    height = frag.height
    for eta, alpha in f.entries:
        for xi, val in f.entries:
            if xi == eta:
                continue
            if _preceq_at_vectors(height, alpha, vecs[xi], vecs[eta]) and val != alpha:
                return False
    fibers: dict[int, set[OrdinalCNF]] = {}
    for k, v in f.entries:
        fibers.setdefault(v, set()).add(k)
    for members in fibers.values():
        if len(members) > 1 and fiber_bound(frag, frozenset(members)) is None:
            return False
    return True


def admits_key(frag: MorassFragment, f: PFunc, key: OrdinalCNF, value: int) -> bool:
    """For f in the family and key outside its domain: whether f plus key -> value is in it.

    Only what the new pair can break is checked: rule (1) in both
    directions between the key and each old key, and the bound of the
    key's fiber; ``in_family`` decides the same on the whole extension.
    """
    frag.check_element(key)
    height = frag.height
    vk = _terms_vector(frag, key)
    fiber = {key}
    for xi, val in f.entries:
        if val == value:
            fiber.add(xi)
            continue
        vx = _terms_vector(frag, xi)
        if _preceq_at_vectors(height, value, vx, vk) or _preceq_at_vectors(height, val, vk, vx):
            return False
    return len(fiber) == 1 or fiber_bound(frag, frozenset(fiber)) is not None


@dataclass(frozen=True)
class PersistencyTranscript:
    rounds: tuple[tuple[OrdinalCNF, PFunc], ...]
    stuck_at: int | None = None

    @property
    def won(self) -> bool:
        return self.stuck_at is None

    def final_position(self) -> PFunc:
        return self.rounds[-1][1] if self.rounds else EMPTY_PFUNC

    def to_json(self) -> dict:
        return {
            "rounds": [
                {
                    "challenge": render_ordinal(xi),
                    "response": {
                        "pairs": [[render_ordinal(k), v] for k, v in resp.entries]
                    },
                }
                for xi, resp in self.rounds
            ],
            "outcome": "win" if self.won else {"stuck_at": self.stuck_at},
        }


def transcript_from_json(obj: dict) -> PersistencyTranscript:
    rounds = tuple(
        (
            parse_ordinal(rnd["challenge"]),
            PFunc.from_pairs(
                (parse_ordinal(k), int(v)) for k, v in rnd["response"]["pairs"]
            ),
        )
        for rnd in obj["rounds"]
    )
    outcome = obj["outcome"]
    stuck = None if outcome == "win" else int(outcome["stuck_at"])
    return PersistencyTranscript(rounds, stuck)


ForallPlayer = Callable[[int, tuple], OrdinalCNF]


def play_persistency(
    frag: MorassFragment,
    forall_player: ForallPlayer,
    exists_player,
    rounds: int,
) -> PersistencyTranscript:
    """Referee the persistency game for a fixed number of rounds.

    Each response must belong to the family, extend every previous
    response, and cover the round's challenge; any failure (including a
    None response) ends the game as stuck at that round.  The previous
    response is already a member, so a response adding no key needs no
    check, one adding one key is checked with ``admits_key``, and one
    adding several with ``in_family``.
    """
    played: list[tuple[OrdinalCNF, PFunc]] = []
    previous = EMPTY_PFUNC
    for j in range(rounds):
        xi = forall_player(j, tuple(played))
        frag.check_element(xi)
        response = exists_player.respond(xi)
        legal = (
            isinstance(response, PFunc)
            and response.get(xi) is not None
            and response.extends(previous)
            and _extension_in_family(frag, previous, response)
        )
        if not legal:
            return PersistencyTranscript(tuple(played), stuck_at=j)
        played.append((xi, response))
        previous = response
    return PersistencyTranscript(tuple(played))


def _extension_in_family(frag: MorassFragment, previous: PFunc, response: PFunc) -> bool:
    """Membership of a response that extends the member ``previous``."""
    added = len(response) - len(previous)
    if added == 0:
        # a repeated challenge: the response is the previous member itself
        return True
    if added > 1:
        return in_family(frag, response)
    old = previous.as_dict()
    ((key, value),) = [(k, v) for k, v in response.entries if k not in old]
    return admits_key(frag, previous, key, value)


class MorassExistsPlayer:
    """The explicit defender strategy.

    On challenge xi: if some earlier challenge dominates it at that
    challenge's assigned value (take the earliest), reuse the value;
    otherwise pick the least natural strictly above every value used so
    far and every least-common-cover level with an earlier challenge.
    """

    def __init__(self, frag: MorassFragment):
        self.frag = frag
        self.history: list[tuple[OrdinalCNF, int]] = []

    def respond(self, xi: OrdinalCNF) -> PFunc:
        choice = None
        for xi_i, alpha_i in self.history:
            if preceq_at(self.frag, alpha_i, xi, xi_i):
                choice = alpha_i
                break
        if choice is None:
            floor = -1
            for xi_i, alpha_i in self.history:
                floor = max(floor, alpha_i, mu(self.frag, xi_i, xi))
            choice = floor + 1
        self.history.append((xi, choice))
        return PFunc.from_pairs(self.history)


def morass_strategy(frag: MorassFragment) -> MorassExistsPlayer:
    return MorassExistsPlayer(frag)


def claim_check(history: Sequence[tuple[OrdinalCNF, int]], frag: MorassFragment) -> bool:
    """At every stage, at most one already-used value admits a dominating witness."""
    for j in range(len(history)):
        xi_j = history[j][0]
        candidates = set()
        for i in range(j):
            xi_i, alpha_i = history[i]
            if preceq_at(frag, alpha_i, xi_j, xi_i):
                candidates.add(alpha_i)
        if len(candidates) > 1:
            return False
    return True


def random_challenges(frag: MorassFragment, seed: int) -> ForallPlayer:
    """Deterministic pseudo-random challenger over the fragment's universe."""
    import random as _random

    rng = _random.Random(seed)

    def player(_j: int, _prior: tuple) -> OrdinalCNF:
        return random_ordinal_below(frag.top_theta, rng)

    return player


def scripted_challenges(moves: Sequence[OrdinalCNF]) -> ForallPlayer:
    """Replays a fixed list; repeats the final move if the script runs out."""
    if not moves:
        raise PersistencyError("script must contain at least one challenge")

    def player(j: int, _prior: tuple) -> OrdinalCNF:
        return moves[min(j, len(moves) - 1)]

    return player
