"""Finite-height morass fragments.

A fragment is a tower of levels, each carrying an order type ``theta``
split as ``theta = gamma + eta``; the step from one level to the next is
generated by the identity and the shift that fixes ``[0, gamma)`` and
translates the tail ``[gamma, theta)`` up by ``theta``.  Map families
between arbitrary levels arise by composing successor steps; from them we
derive unique predecessors, the orderings ``preceq`` / ``preceq_at`` and
the least common cover level ``mu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le
from typing import Iterable, Sequence

from . import intervals
from .intervals import Interval
from .jsonshape import expect
from .ordinal import (
    ZERO,
    OrdinalCNF,
    add,
    is_limit,
    left_subtract,
    parse_ordinal,
    render_ordinal,
)


class MorassError(ValueError):
    pass


class EndpointMismatchError(MorassError):
    """Composition of maps whose endpoints do not line up."""


class LevelIndexError(MorassError):
    pass


class ElementRangeError(MorassError):
    """An element outside the fragment's universe [0, top_theta)."""


# A piece (lo, hi, image_lo) translates [lo, hi) by: x -> image_lo + (x - lo).
Piece = tuple[OrdinalCNF, OrdinalCNF, OrdinalCNF]


def _piece_image_end(piece: Piece) -> OrdinalCNF:
    lo, hi, img = piece
    return add(img, left_subtract(lo, hi))


def merge_pieces(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """Merge adjacent pieces with contiguous images; input must be sorted by lo."""
    out: list[Piece] = []
    for lo, hi, img in pieces:
        if lo == hi:
            continue
        if out and out[-1][1] == lo and _piece_image_end(out[-1]) == img:
            out[-1] = (out[-1][0], hi, out[-1][2])
        else:
            out.append((lo, hi, img))
    return tuple(out)


def apply_pieces(pieces: Sequence[Piece], xi: OrdinalCNF) -> OrdinalCNF | None:
    for lo, hi, img in pieces:
        if lo <= xi < hi:
            return add(img, left_subtract(lo, xi))
    return None


def compose_piece_lists(outer: Sequence[Piece], inner: Sequence[Piece]) -> tuple[Piece, ...]:
    """Pieces of outer-after-inner; inner pieces must be sorted by lo."""
    result: list[Piece] = []
    for lo, hi, img in inner:
        span_end = _piece_image_end((lo, hi, img))
        for olo, ohi, oimg in outer:
            s = max(img, olo)
            e = min(span_end, ohi)
            if s < e:
                src_lo = add(lo, left_subtract(img, s))
                src_hi = add(lo, left_subtract(img, e))
                dst = add(oimg, left_subtract(olo, s))
                result.append((src_lo, src_hi, dst))
    result.sort()
    return merge_pieces(result)


def preimage_of_interval(pieces: Sequence[Piece], a: OrdinalCNF, b: OrdinalCNF) -> tuple[Interval, ...]:
    out = []
    for lo, hi, img in pieces:
        end = _piece_image_end((lo, hi, img))
        s = max(img, a)
        e = min(end, b)
        if s < e:
            out.append((add(lo, left_subtract(img, s)), add(lo, left_subtract(img, e))))
    return intervals.normalize(out)


@dataclass(frozen=True)
class MapNF:
    """A piecewise-translation order embedding between two levels.

    Pieces cover [0, source_theta) contiguously, images are strictly
    increasing and stay below target_theta.  The normal form is canonical
    (adjacent pieces with contiguous images are merged), so structural
    equality decides extensional equality.
    """

    pieces: tuple[Piece, ...]
    source_theta: OrdinalCNF
    target_theta: OrdinalCNF

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", merge_pieces(self.pieces))
        cursor = ZERO
        prev_end: OrdinalCNF | None = None
        ends = []
        for lo, hi, img in self.pieces:
            if lo != cursor:
                raise MorassError("pieces must cover the source contiguously from 0")
            if not lo < hi:
                raise MorassError("empty piece")
            if prev_end is not None and img < prev_end:
                raise MorassError("map is not order preserving")
            prev_end = _piece_image_end((lo, hi, img))
            ends.append(prev_end)
            cursor = hi
        if cursor != self.source_theta:
            raise MorassError("pieces do not cover [0, source_theta)")
        if prev_end is not None and prev_end > self.target_theta:
            raise MorassError("image exceeds target_theta")
        object.__setattr__(self, "_image_ends", tuple(ends))

    def apply(self, xi: OrdinalCNF) -> OrdinalCNF:
        val = apply_pieces(self.pieces, xi)
        if val is None:
            raise ElementRangeError(f"{xi} outside [0, {self.source_theta})")
        return val

    def preimage(self, xi: OrdinalCNF) -> OrdinalCNF | None:
        """The point sent to xi, or None; the images are disjoint, so there is at most one."""
        ends: tuple[OrdinalCNF, ...] = self._image_ends  # type: ignore[attr-defined]
        for (lo, _, img), end in zip(self.pieces, ends):
            if img <= xi < end:
                return add(lo, left_subtract(img, xi))
        return None

    def is_identity(self) -> bool:
        return self.pieces == ((ZERO, self.source_theta, ZERO),) or not self.pieces


def identity_map(theta: OrdinalCNF, target: OrdinalCNF | None = None) -> MapNF:
    tgt = theta if target is None else target
    pieces = ((ZERO, theta, ZERO),) if not theta.is_zero() else ()
    return MapNF(pieces, theta, tgt)


def make_shift(theta: OrdinalCNF, gamma: OrdinalCNF) -> MapNF:
    """The shift fixing [0, gamma) and sending gamma + xi to theta + xi."""
    if gamma > theta:
        raise MorassError(f"shift split point {gamma} exceeds {theta}")
    eta = left_subtract(gamma, theta)
    target = add(theta, eta)
    pieces: list[Piece] = []
    if not gamma.is_zero():
        pieces.append((ZERO, gamma, ZERO))
    if not eta.is_zero():
        pieces.append((gamma, theta, theta))
    return MapNF(tuple(pieces), theta, target)


def compose(g: MapNF, f: MapNF) -> MapNF:
    """The composite g after f."""
    if f.target_theta != g.source_theta:
        raise EndpointMismatchError(
            f"cannot compose: inner target {f.target_theta} != outer source {g.source_theta}"
        )
    return MapNF(compose_piece_lists(g.pieces, f.pieces), f.source_theta, g.target_theta)


@dataclass(frozen=True)
class LevelData:
    theta: OrdinalCNF
    gamma: OrdinalCNF
    eta: OrdinalCNF


@dataclass(frozen=True)
class MorassFragment:
    """A finite tower of levels; the top level stands in for the whole universe.

    ``levels[alpha]`` describes level alpha for alpha < height; the top
    order type is ``top_theta``.  The successor family of every level is
    {identity, shift at gamma}, so the levels determine the fragment.
    """

    height: int
    levels: tuple[LevelData, ...]
    top_theta: OrdinalCNF

    def __post_init__(self) -> None:
        if self.height < 0 or len(self.levels) != self.height:
            raise MorassError("height must match the number of levels")
        object.__setattr__(self, "_hash", hash((self.height, self.levels, self.top_theta)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def theta_at(self, alpha: int) -> OrdinalCNF:
        if alpha == self.height:
            return self.top_theta
        if 0 <= alpha < self.height:
            return self.levels[alpha].theta
        raise LevelIndexError(f"no level {alpha} in a height-{self.height} fragment")

    def successor_family(self, alpha: int) -> tuple[MapNF, ...]:
        if not 0 <= alpha < self.height:
            raise LevelIndexError(f"no successor step at level {alpha}")
        level = self.levels[alpha]
        target = self.theta_at(alpha + 1)
        ident = identity_map(level.theta, target)
        shift = make_shift(level.theta, level.gamma)
        if shift.target_theta != target:
            # declared eta and split point disagree; let the validator report it
            raise MorassError(
                f"level {alpha}: shift target {shift.target_theta} != theta_{alpha + 1} {target}"
            )
        if shift == ident:
            return (ident,)
        return tuple(sorted({ident, shift}, key=lambda m: m.pieces))

    @cached_property
    def _step_errors(self) -> tuple[str | None, ...]:
        """Per successor step, the message successor_family raises there, or None."""
        errors: list[str | None] = []
        for alpha in range(self.height):
            try:
                self.successor_family(alpha)
            except MorassError as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        return tuple(errors)

    def check_element(self, xi: OrdinalCNF) -> None:
        if not xi < self.top_theta:
            raise ElementRangeError(f"{xi} outside the universe [0, {self.top_theta})")


def family(frag: MorassFragment, alpha: int, beta: int) -> tuple[MapNF, ...]:
    """All composites of successor-family choices from level alpha to beta.

    Deduplicated by canonical map equality and returned in a fixed canonical
    order, so downstream witness searches are deterministic.
    """
    if not 0 <= alpha <= beta <= frag.height:
        raise LevelIndexError(f"bad level pair ({alpha}, {beta})")
    if alpha == beta:
        return (identity_map(frag.theta_at(alpha)),)
    maps = {identity_map(frag.theta_at(alpha))}
    for step in range(alpha, beta):
        succ = frag.successor_family(step)
        maps = {compose(g, f) for f in maps for g in succ}
    return tuple(sorted(maps, key=lambda m: m.pieces))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"valid": self.ok, "violations": list(self.violations), "notes": list(self.notes)}


def validate_fragment(frag: MorassFragment) -> ValidationReport:
    """Check the level arithmetic of every level.

    An ill-formed successor family needs no line of its own: the level's
    arithmetic then fails too.  ``successor_family`` raises only when
    gamma > theta, and then theta < gamma + eta; or when
    theta + (theta - gamma) != theta_{alpha+1}, which covers an identity
    overshooting theta_{alpha+1}.  Then either theta != gamma + eta, or
    eta = theta - gamma (the unique c with gamma + c = theta) and so
    theta_{alpha+1} != theta + eta.

    Fullness, that the maps from level alpha to level beta jointly cover
    [0, theta_beta), needs no check either: it holds at every pair whose
    steps have well-formed families.  At such a step the identity covers
    [0, theta_alpha), and the shift covers [theta_alpha, theta_{alpha+1})
    because ``successor_family`` checks that its target is theta_{alpha+1};
    so the step's maps cover the whole next level.  By induction on beta,
    if the maps from alpha cover [0, theta_beta), their composites with the
    step at beta cover the ranges of that step's maps, which is
    [0, theta_{beta+1}).  ``tests/oracles.fullness_violations`` checks the
    same by propagating interval unions.
    """
    violations: list[str] = []
    for alpha, level in enumerate(frag.levels):
        if not is_limit(level.theta):
            violations.append(f"level {alpha}: theta {level.theta} is not a limit ordinal")
        if add(level.gamma, level.eta) != level.theta:
            violations.append(f"level {alpha}: theta != gamma + eta")
        if frag.theta_at(alpha + 1) != add(level.theta, level.eta):
            violations.append(f"level {alpha}: successor violation theta_{alpha + 1} != theta + eta")
    if frag.height >= 0 and not is_limit(frag.top_theta) and not frag.top_theta.is_zero():
        violations.append(f"top theta {frag.top_theta} is not a limit ordinal")
    notes = ("factoring: vacuously true at finite height (no limit level indices)",)
    return ValidationReport(tuple(violations), notes)


@lru_cache(maxsize=262144)
def predecessor_vector(frag: MorassFragment, xi: OrdinalCNF) -> tuple[OrdinalCNF, ...]:
    """Vector of the unique predecessors of xi, one per level 0..height.

    One step down, a point below theta_beta is its own preimage (under the
    identity) and a point theta_beta + zeta comes from gamma_beta + zeta
    (under the shift).  At a well-formed step that preimage is below
    theta_beta.  At an ill-formed one a point may have none, and then the
    step's error is raised, as ``mu`` raises when its descent reaches the
    step.
    """
    frag.check_element(xi)
    out = [xi]
    cur = xi
    for beta in range(frag.height - 1, -1, -1):
        level = frag.levels[beta]
        if not cur < level.theta:
            cur = add(level.gamma, left_subtract(level.theta, cur))
            if not cur < level.theta:
                raise MorassError(frag._step_errors[beta])
        out.append(cur)
    out.reverse()
    return tuple(out)


def predecessor(frag: MorassFragment, alpha: int, xi: OrdinalCNF) -> OrdinalCNF:
    """The unique eta with f(eta) = xi for some f in family(alpha, height)."""
    if not 0 <= alpha <= frag.height:
        raise LevelIndexError(f"no level {alpha}")
    return predecessor_vector(frag, xi)[alpha]


def preceq(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    """xi below eta at every level: predecessor(a, xi) <= predecessor(a, eta) for all a."""
    return all(map(le, predecessor_vector(frag, xi), predecessor_vector(frag, eta)))


def preceq_at(frag: MorassFragment, alpha: int, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    """preceq plus equality of the level-alpha predecessors.

    For alpha >= height the predecessor map is the identity, so the relation
    degenerates to xi == eta.
    """
    if alpha < 0:
        raise LevelIndexError("negative level")
    vx, vy = predecessor_vector(frag, xi), predecessor_vector(frag, eta)
    return preceq_at_vectors(frag.height, alpha, vx, vy)


def preceq_at_vectors(height: int, alpha: int, vx: tuple, vy: tuple) -> bool:
    """preceq_at on the predecessor vectors of two elements of a height-``height`` fragment."""
    pin = min(alpha, height)
    return vx[pin] == vy[pin] and all(map(le, vx, vy))


def mu(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> int:
    """Least level from which a single family map covers both elements.

    Descend from the top: at each successor step the pair of current
    predecessors must lie in the range of one common map to continue;
    the least reachable level is returned (at worst the top itself).
    The step beta -> beta+1 covers a pair exactly when both lie below
    theta_beta (the identity's range) or both lie in the union of
    [0, gamma_beta) and [theta_beta, theta_{beta+1}) (the shift's range).
    A step whose family is ill-formed raises when the descent reaches it.
    """
    frag.check_element(xi)
    frag.check_element(eta)
    vx = predecessor_vector(frag, xi)
    vy = predecessor_vector(frag, eta)
    least = frag.height
    for beta in range(frag.height - 1, -1, -1):
        error = frag._step_errors[beta]
        if error is not None:
            raise MorassError(error)
        level = frag.levels[beta]
        theta, gamma = level.theta, level.gamma
        x, y = vx[beta + 1], vy[beta + 1]
        in_identity = x < theta and y < theta
        in_shift = (x < gamma or x >= theta) and (y < gamma or y >= theta)
        if not (in_identity or in_shift):
            break
        least = beta
    return least


def dominates(
    frag: MorassFragment,
    s: Sequence[OrdinalCNF],
    t: Sequence[OrdinalCNF],
) -> bool:
    """Pointwise preceq on two equal-length sequences."""
    if len(s) != len(t):
        raise MorassError(f"length mismatch: {len(s)} vs {len(t)}")
    return all(preceq(frag, a, b) for a, b in zip(s, t))


@lru_cache(maxsize=4096)
def predecessor_pieces(frag: MorassFragment, beta: int) -> tuple[Piece, ...]:
    """The level-beta predecessor map on the whole universe, as translation pieces.

    Used by the boundedness decision procedure, which needs exact preimages
    of intervals.
    """
    if not 0 <= beta <= frag.height:
        raise LevelIndexError(f"no level {beta}")
    pieces: tuple[Piece, ...] = ((ZERO, frag.top_theta, ZERO),) if not frag.top_theta.is_zero() else ()
    for step in range(frag.height - 1, beta - 1, -1):
        level = frag.levels[step]
        step_pieces: list[Piece] = []
        if not level.theta.is_zero():
            step_pieces.append((ZERO, level.theta, ZERO))
        nxt = frag.theta_at(step + 1)
        if level.theta < nxt:
            step_pieces.append((level.theta, nxt, level.gamma))
        pieces = compose_piece_lists(tuple(step_pieces), pieces)
    return pieces


# ---------------------------------------------------------------------------
# JSON encoding


def map_to_json(m: MapNF) -> dict:
    return {
        "source": render_ordinal(m.source_theta),
        "target": render_ordinal(m.target_theta),
        "pieces": [
            [render_ordinal(lo), render_ordinal(hi), render_ordinal(img)]
            for lo, hi, img in m.pieces
        ],
    }


def map_from_json(obj: dict) -> MapNF:
    expect(obj, dict, "a map", MorassError)
    pieces = []
    for piece in expect(obj["pieces"], list, "a map's pieces", MorassError):
        lo, hi, img = expect(piece, list, "a map piece", MorassError)
        pieces.append((parse_ordinal(lo), parse_ordinal(hi), parse_ordinal(img)))
    return MapNF(
        tuple(pieces),
        parse_ordinal(obj["source"]),
        parse_ordinal(obj["target"]),
    )


def fragment_to_json(frag: MorassFragment) -> dict:
    return {
        "height": frag.height,
        "levels": [
            {
                "theta": render_ordinal(lv.theta),
                "gamma": render_ordinal(lv.gamma),
                "eta": render_ordinal(lv.eta),
            }
            for lv in frag.levels
        ],
        "top_theta": render_ordinal(frag.top_theta),
    }


def fragment_from_json(obj: dict) -> MorassFragment:
    """A fragment; a ``successor_families`` key is accepted only when it is canonical."""
    expect(obj, dict, "a fragment", MorassError)
    levels = []
    for lv in expect(obj["levels"], list, "a fragment's levels", MorassError):
        expect(lv, dict, "a level", MorassError)
        levels.append(
            LevelData(
                parse_ordinal(lv["theta"]),
                parse_ordinal(lv["gamma"]),
                parse_ordinal(lv["eta"]),
            )
        )
    frag = MorassFragment(
        expect(obj["height"], int, "a fragment's height", MorassError),
        tuple(levels),
        parse_ordinal(obj["top_theta"]),
    )
    if "successor_families" in obj:
        families = expect(obj["successor_families"], list, "the successor families", MorassError)
        if len(families) != frag.height:
            raise MorassError("one successor family per level required")
        for alpha, fam in enumerate(families):
            maps = {map_from_json(m) for m in expect(fam, list, "a successor family", MorassError)}
            if frag._step_errors[alpha] is not None or maps != set(frag.successor_family(alpha)):
                raise MorassError(
                    f"level {alpha}: only the canonical successor family {{identity, shift}} is supported"
                )
    return frag
