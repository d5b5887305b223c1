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
from typing import Iterable, Mapping, Sequence

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


class PredecessorError(MorassError):
    """No, or several, predecessor values: the fragment is not a valid morass."""


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


def preimages_in_pieces(pieces: Sequence[Piece], xi: OrdinalCNF) -> list[OrdinalCNF]:
    out = []
    for lo, hi, img in pieces:
        end = _piece_image_end((lo, hi, img))
        if img <= xi < end:
            out.append(add(lo, left_subtract(img, xi)))
    return out


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
    result.sort(key=lambda p: p[0].terms)
    return merge_pieces(result)


def image_of_intervals(pieces: Sequence[Piece], ivs: Iterable[Interval]) -> tuple[Interval, ...]:
    out = []
    for a, b in ivs:
        for lo, hi, img in pieces:
            s = max(a, lo)
            e = min(b, hi)
            if s < e:
                out.append((add(img, left_subtract(lo, s)), add(img, left_subtract(lo, e))))
    return intervals.normalize(out)


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
        hits = preimages_in_pieces(self.pieces, xi)
        return hits[0] if hits else None

    def range_intervals(self) -> tuple[Interval, ...]:
        ends: tuple[OrdinalCNF, ...] = self._image_ends  # type: ignore[attr-defined]
        return intervals.normalize(
            (piece[2], end) for piece, end in zip(self.pieces, ends)
        )

    def covers(self, xi: OrdinalCNF) -> bool:
        ends: tuple[OrdinalCNF, ...] = self._image_ends  # type: ignore[attr-defined]
        return any(
            piece[2].terms <= xi.terms < end.terms
            for piece, end in zip(self.pieces, ends)
        )

    def is_identity(self) -> bool:
        return self.pieces == ((ZERO, self.source_theta, ZERO),) or not self.pieces

    def sort_key(self):
        return tuple((lo.terms, hi.terms, img.terms) for lo, hi, img in self.pieces)


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
    order type is ``top_theta``.  Successor families default to
    {identity, shift at gamma}; they can be overridden for validator tests.
    """

    height: int
    levels: tuple[LevelData, ...]
    top_theta: OrdinalCNF
    successor_families: tuple[tuple[MapNF, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.height < 0 or len(self.levels) != self.height:
            raise MorassError("height must match the number of levels")
        if self.successor_families is not None and len(self.successor_families) != self.height:
            raise MorassError("one successor family per level required")
        object.__setattr__(
            self,
            "_hash",
            hash((self.height, self.levels, self.top_theta, self.successor_families)),
        )

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
        if self.successor_families is not None:
            return self.successor_families[alpha]
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
        return tuple(sorted({ident, shift}, key=MapNF.sort_key))

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


@lru_cache(maxsize=4096)
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
    return tuple(sorted(maps, key=MapNF.sort_key))


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
    """Check level arithmetic, successor families, and fullness at every pair.

    Fullness is decided exactly: the union of the ranges of the maps from
    alpha to beta is propagated as an interval union one successor step at
    a time (the image of a union is the union of the images), and compared
    with [0, theta_beta).
    """
    violations: list[str] = []
    notes: list[str] = []
    for alpha, level in enumerate(frag.levels):
        if not is_limit(level.theta):
            violations.append(f"level {alpha}: theta {level.theta} is not a limit ordinal")
        if add(level.gamma, level.eta) != level.theta:
            violations.append(f"level {alpha}: theta != gamma + eta")
        if frag.theta_at(alpha + 1) != add(level.theta, level.eta):
            violations.append(f"level {alpha}: successor violation theta_{alpha + 1} != theta + eta")
    if frag.height >= 0 and not is_limit(frag.top_theta) and not frag.top_theta.is_zero():
        violations.append(f"top theta {frag.top_theta} is not a limit ordinal")

    families: list[tuple[MapNF, ...] | None] = []
    for alpha in range(frag.height):
        try:
            fam = frag.successor_family(alpha)
        except MorassError as exc:
            violations.append(f"level {alpha}: successor family ill-formed: {exc}")
            fam = None
        else:
            source = frag.theta_at(alpha)
            target = frag.theta_at(alpha + 1)
            for m in fam:
                if m.source_theta != source or m.target_theta != target:
                    violations.append(f"level {alpha}: family map endpoints disagree with levels")
        families.append(fam)

    for alpha in range(frag.height):
        if families[alpha] is None:
            continue
        covered = intervals.normalize(
            iv for m in families[alpha] for iv in m.range_intervals()
        )
        for beta in range(alpha + 1, frag.height + 1):
            if beta > alpha + 1:
                step = families[beta - 1]
                if step is None:
                    break
                covered = intervals.normalize(
                    iv for m in step for iv in image_of_intervals(m.pieces, covered)
                )
            if not intervals.covers_exactly(covered, ZERO, frag.theta_at(beta)):
                violations.append(
                    f"fullness violated at pair ({alpha}, {beta}):"
                    f" ranges do not cover [0, {frag.theta_at(beta)})"
                )
    notes.append("factoring: vacuously true at finite height (no limit level indices)")
    return ValidationReport(tuple(violations), tuple(notes))


def check_factoring(
    families_by_pair: Mapping[tuple[int, int], Iterable[MapNF]],
    limit_indices: Iterable[int],
) -> list[str]:
    """Generic factoring checker for explicitly supplied families.

    For each designated "limit" index g and each pair f, g0 of maps into it,
    search for an intermediate level b and maps f', g' and h with
    f = h o f' and g0 = h o g'.  Pairs with no strictly intermediate level
    are skipped: at a true limit index the intermediate range is never
    empty.  Finite-height builders never produce limit indices, so this is
    exercised only on hand-made inputs.
    """
    failures = []
    pairs = dict(families_by_pair)
    for gamma in sorted(set(limit_indices)):
        for (alpha, beta), fam in pairs.items():
            if beta != gamma or alpha >= gamma - 1:
                continue
            fam = tuple(fam)
            for f in fam:
                for g0 in fam:
                    found = False
                    for mid in range(alpha + 1, gamma):
                        lower = tuple(pairs.get((alpha, mid), ()))
                        upper = tuple(pairs.get((mid, gamma), ()))
                        for h in upper:
                            lows_f = [lf for lf in lower if compose(h, lf) == f]
                            lows_g = [lg for lg in lower if compose(h, lg) == g0]
                            if lows_f and lows_g:
                                found = True
                                break
                        if found:
                            break
                    if not found:
                        failures.append(
                            f"no factoring of a pair in family ({alpha}, {gamma})"
                        )
    return failures


def _step_witnesses(frag: MorassFragment, beta: int, values: frozenset) -> frozenset:
    """Pull a set of level-(beta+1) elements back one successor step."""
    out = set()
    for m in frag.successor_family(beta):
        for val in values:
            pre = m.preimage(val)
            if pre is not None:
                out.add(pre)
    return frozenset(out)


def predecessor_witness_vector(
    frag: MorassFragment, xi: OrdinalCNF
) -> tuple[frozenset, ...]:
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


@lru_cache(maxsize=262144)
def predecessor_vector(frag: MorassFragment, xi: OrdinalCNF) -> tuple[OrdinalCNF, ...]:
    """Vector of the unique predecessors of xi, one per level 0..height."""
    if frag.successor_families is None:
        # canonical shift towers: the step preimage has a closed form
        frag.check_element(xi)
        out = [xi]
        cur = xi
        for beta in range(frag.height - 1, -1, -1):
            level = frag.levels[beta]
            if cur < level.theta:
                pass
            else:
                cur = add(level.gamma, left_subtract(level.theta, cur))
            out.append(cur)
        out.reverse()
        return tuple(out)
    witnesses = predecessor_witness_vector(frag, xi)
    out = []
    for alpha, wset in enumerate(witnesses):
        if len(wset) != 1:
            raise PredecessorError(
                f"{len(wset)} predecessor values for {xi} at level {alpha}"
            )
        out.append(next(iter(wset)))
    return tuple(out)


def predecessor(frag: MorassFragment, alpha: int, xi: OrdinalCNF) -> OrdinalCNF:
    """The unique eta with f(eta) = xi for some f in family(alpha, height)."""
    if not 0 <= alpha <= frag.height:
        raise LevelIndexError(f"no level {alpha}")
    return predecessor_vector(frag, xi)[alpha]


def preceq(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    """xi below eta at every level: predecessor(a, xi) <= predecessor(a, eta) for all a."""
    vx = predecessor_vector(frag, xi)
    vy = predecessor_vector(frag, eta)
    return all(x.terms <= y.terms for x, y in zip(vx, vy))


def preceq_at(frag: MorassFragment, alpha: int, xi: OrdinalCNF, eta: OrdinalCNF) -> bool:
    """preceq plus equality of the level-alpha predecessors.

    For alpha >= height the predecessor map is the identity, so the relation
    degenerates to xi == eta.
    """
    if alpha < 0:
        raise LevelIndexError("negative level")
    vx = predecessor_vector(frag, xi)
    vy = predecessor_vector(frag, eta)
    if any(x.terms > y.terms for x, y in zip(vx, vy)):
        return False
    pin = min(alpha, frag.height)
    return vx[pin] == vy[pin]


def mu(frag: MorassFragment, xi: OrdinalCNF, eta: OrdinalCNF) -> int:
    """Least level from which a single family map covers both elements.

    Descend from the top: at each successor step the pair of current
    predecessors must lie in the range of one common map to continue;
    the least reachable level is returned (at worst the top itself).
    On canonical fragments the step beta -> beta+1 covers a pair exactly
    when both lie below theta_beta (the identity's range) or both lie in
    the union of [0, gamma_beta) and [theta_beta, theta_{beta+1}) (the
    shift's range).
    """
    frag.check_element(xi)
    frag.check_element(eta)
    vx = predecessor_vector(frag, xi)
    vy = predecessor_vector(frag, eta)
    least = frag.height
    for beta in range(frag.height - 1, -1, -1):
        x, y = vx[beta + 1], vy[beta + 1]
        if frag.successor_families is None:
            covered = _canonical_step_covers(frag, beta, x, y)
        else:
            covered = any(m.covers(x) and m.covers(y) for m in frag.successor_family(beta))
        if not covered:
            break
        least = beta
    return least


def _canonical_step_covers(frag: MorassFragment, beta: int, x: OrdinalCNF, y: OrdinalCNF) -> bool:
    """Whether the identity or the shift of step beta has both x and y in its range."""
    error = frag._step_errors[beta]
    if error is not None:
        raise MorassError(error)
    level = frag.levels[beta]
    theta, gamma = level.theta.terms, level.gamma.terms
    x, y = x.terms, y.terms
    return (x < theta and y < theta) or (
        (x < gamma or x >= theta) and (y < gamma or y >= theta)
    )


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

    Only defined for canonical fragments; used by the boundedness decision
    procedure, which needs exact preimages of intervals.
    """
    if frag.successor_families is not None:
        raise MorassError("piecewise predecessor maps need canonical successor families")
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
    obj: dict = {
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
    if frag.successor_families is not None:
        obj["successor_families"] = [
            [map_to_json(m) for m in fam] for fam in frag.successor_families
        ]
    return obj


def fragment_from_json(obj: dict) -> MorassFragment:
    expect(obj, dict, "a fragment", MorassError)
    families = None
    if "successor_families" in obj:
        families = tuple(
            tuple(map_from_json(m) for m in expect(fam, list, "a successor family", MorassError))
            for fam in expect(obj["successor_families"], list, "the successor families", MorassError)
        )
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
    return MorassFragment(
        expect(obj["height"], int, "a fragment's height", MorassError),
        tuple(levels),
        parse_ordinal(obj["top_theta"]),
        families,
    )
