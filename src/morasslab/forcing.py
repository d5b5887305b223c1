"""The forcing poset of conditions that build morass fragments.

A condition is a fragment together with a block map: the subset
``A = union over beta of {(beta, xi) : xi < rho_beta}`` of the big
universe, where pairs are ordered lexicographically and block beta stands
for the interval I_beta.  Every block is an initial segment of its
interval, so conditions are full by construction; the derived embedding
``i`` is the order isomorphism from [0, top_theta) onto A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .jsonshape import expect
from .morass import (
    LevelData,
    MapNF,
    MorassFragment,
    ValidationReport,
    family,
    fragment_from_json,
    fragment_to_json,
    validate_fragment,
)
from .ordinal import OMEGA, ZERO, OrdinalCNF, add, left_subtract, nat_multiply, parse_ordinal, render_ordinal


class ForcingError(ValueError):
    pass


class AmalgamationError(ForcingError):
    pass


class NotIsomorphicError(AmalgamationError):
    pass


class OverlapNotInitialError(AmalgamationError):
    pass


class InterleavedDifferencesError(AmalgamationError):
    pass


class BudgetExhaustedError(ForcingError):
    """extend_to_cover cannot reach the target: too few steps, or none would do."""


class InvalidConditionError(ForcingError):
    pass


@dataclass(frozen=True)
class BlockMap:
    """Finite map block index -> positive order type rho; blocks sorted by index."""

    blocks: tuple[tuple[int, OrdinalCNF], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for beta, rho in self.blocks:
            if beta < 0:
                raise ForcingError("negative block index")
            if rho.is_zero():
                raise ForcingError("block order types must be positive")
            if prev is not None and beta <= prev:
                raise ForcingError("blocks must be sorted by index, without repeats")
            prev = beta

    @classmethod
    def from_dict(cls, mapping: Mapping[int, OrdinalCNF]) -> "BlockMap":
        return cls(tuple(sorted((b, r) for b, r in mapping.items() if not r.is_zero())))

    def rho(self, beta: int) -> OrdinalCNF:
        for b, r in self.blocks:
            if b == beta:
                return r
        return ZERO

    def block_indices(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.blocks)

    def contains(self, beta: int, xi: OrdinalCNF) -> bool:
        return xi < self.rho(beta)

    def order_type(self) -> OrdinalCNF:
        total = ZERO
        for _, rho in self.blocks:
            total = add(total, rho)
        return total

    def union(self, other: "BlockMap") -> "BlockMap":
        keys = sorted(set(self.block_indices()) | set(other.block_indices()))
        return BlockMap(tuple((b, max(self.rho(b), other.rho(b))) for b in keys))

    def intersection(self, other: "BlockMap") -> "BlockMap":
        out = []
        for b, r in self.blocks:
            m = min(r, other.rho(b))
            if not m.is_zero():
                out.append((b, m))
        return BlockMap(tuple(out))

    def difference_intervals(self, other: "BlockMap") -> tuple[tuple[int, OrdinalCNF, OrdinalCNF], ...]:
        """Self minus other, as (block, lo, hi) interval triples in block order."""
        out = []
        for b, r in self.blocks:
            cut = min(r, other.rho(b))
            if cut < r:
                out.append((b, cut, r))
        return tuple(out)

    def contains_blockmap(self, other: "BlockMap") -> bool:
        return all(self.rho(b) >= r for b, r in other.blocks)


def _intervals_order_type(diff: Sequence[tuple[int, OrdinalCNF, OrdinalCNF]]) -> OrdinalCNF:
    total = ZERO
    for _, lo, hi in diff:
        total = add(total, left_subtract(lo, hi))
    return total


def _all_below(
    first: Sequence[tuple[int, OrdinalCNF, OrdinalCNF]],
    second: Sequence[tuple[int, OrdinalCNF, OrdinalCNF]],
) -> bool:
    """Every pair of `first` lexicographically below every pair of `second`.

    Empty differences are read as vacuously ordered (sup of the empty set
    below inf of the empty set).
    """
    if not first or not second:
        return True
    b1, _, hi1 = first[-1]
    b2, lo2, _ = second[0]
    return b1 < b2 or (b1 == b2 and hi1 <= lo2)


def _intersection_initial_in(a: BlockMap, b: BlockMap) -> bool:
    """Is A intersect B an initial segment of A (downward closed in A's order)?"""
    diff = a.difference_intervals(b)
    if not diff:
        return True
    first_gap_block = diff[0][0]
    inter = a.intersection(b)
    return all(blk <= first_gap_block for blk in inter.block_indices())


@dataclass(frozen=True)
class PairEmbedding:
    """Order isomorphism from [0, order_type) onto a block set, in pieces.

    Piece (lo, hi, block, zeta0) sends x in [lo, hi) to the pair
    (block, zeta0 + (x - lo)); pieces never cross block boundaries and the
    form is canonical, so structural equality is extensional equality.
    """

    pieces: tuple[tuple[OrdinalCNF, OrdinalCNF, int, OrdinalCNF], ...]

    @classmethod
    def of_blockmap(cls, blocks: BlockMap) -> "PairEmbedding":
        pieces = []
        cursor = ZERO
        for beta, rho in blocks.blocks:
            nxt = add(cursor, rho)
            pieces.append((cursor, nxt, beta, ZERO))
            cursor = nxt
        return cls(tuple(pieces))

    def order_type(self) -> OrdinalCNF:
        return self.pieces[-1][1] if self.pieces else ZERO

    def pair_at(self, t: OrdinalCNF) -> tuple[int, OrdinalCNF]:
        for lo, hi, beta, zeta0 in self.pieces:
            if lo <= t < hi:
                return beta, add(zeta0, left_subtract(lo, t))
        raise ForcingError(f"{t} outside [0, {self.order_type()})")

    def index_of(self, beta: int, xi: OrdinalCNF) -> OrdinalCNF | None:
        for lo, hi, b, zeta0 in self.pieces:
            if b != beta:
                continue
            end = add(zeta0, left_subtract(lo, hi))
            if zeta0 <= xi < end:
                return add(lo, left_subtract(zeta0, xi))
        return None

    def compose_map(self, h: MapNF) -> "PairEmbedding":
        """The embedding x -> self(h(x)), canonical."""
        out = []
        for lo, hi, img in h.pieces:
            span_end = add(img, left_subtract(lo, hi))
            for plo, phi, beta, zeta0 in self.pieces:
                s = max(img, plo)
                e = min(span_end, phi)
                if s < e:
                    out.append(
                        (
                            add(lo, left_subtract(img, s)),
                            add(lo, left_subtract(img, e)),
                            beta,
                            add(zeta0, left_subtract(plo, s)),
                        )
                    )
        out.sort()
        merged: list[tuple[OrdinalCNF, OrdinalCNF, int, OrdinalCNF]] = []
        for lo, hi, beta, zeta0 in out:
            if merged:
                mlo, mhi, mbeta, mz = merged[-1]
                if mhi == lo and mbeta == beta and add(mz, left_subtract(mlo, mhi)) == zeta0:
                    merged[-1] = (mlo, hi, mbeta, mz)
                    continue
            merged.append((lo, hi, beta, zeta0))
        return PairEmbedding(tuple(merged))


@dataclass(frozen=True)
class Condition:
    """A forcing condition: fragment plus block map; the embedding is derived."""

    frag: MorassFragment
    blocks: BlockMap

    @property
    def delta(self) -> int:
        return self.frag.height

    @property
    def top_theta(self) -> OrdinalCNF:
        return self.frag.top_theta

    def embedding(self) -> PairEmbedding:
        return _embedding_of(self.blocks)


@lru_cache(maxsize=4096)
def _embedding_of(blocks: BlockMap) -> PairEmbedding:
    return PairEmbedding.of_blockmap(blocks)


def seed_condition(block: int = 0, theta: OrdinalCNF = OMEGA) -> Condition:
    """The minimal condition: a one-level fragment with a single block of type theta."""
    return Condition(MorassFragment(0, (), theta), BlockMap(((block, theta),)))


def validate_condition(p: Condition) -> ValidationReport:
    base = validate_fragment(p.frag)
    violations = list(base.violations)
    ot = p.blocks.order_type()
    if ot != p.top_theta:
        violations.append(f"order type of A is {ot}, expected theta_delta = {p.top_theta}")
    return ValidationReport(tuple(violations), base.notes)


def isomorphic(p: Condition, q: Condition) -> bool:
    """Same fragment; the block maps may differ."""
    return p.frag == q.frag


def leq(q: Condition, p: Condition) -> bool:
    """Is q an extension of p (q stronger, q <= p)?

    Requires the level data of p to be an initial segment of q's, and some
    h in family(q.frag, delta_p, delta_q) with i_p = i_q o h.  The witness
    search runs over the finite family in canonical order.
    """
    if p.delta > q.delta:
        return False
    if p.frag.levels != q.frag.levels[: p.delta]:
        return False
    if p.top_theta != q.frag.theta_at(p.delta):
        return False
    target = p.embedding()
    iq = q.embedding()
    return any(iq.compose_map(h) == target for h in family(q.frag, p.delta, q.delta))


def amalgamate(p: Condition, q: Condition) -> Condition:
    """One-step combination of two isomorphic conditions.

    Preconditions: the overlap of the block sets is an initial segment of
    both, and everything p has beyond the overlap sits strictly below
    everything q has beyond it.  The result adds one level whose successor
    family is {identity, shift of theta_delta at gamma} with gamma the
    order type of the overlap.
    """
    if not isomorphic(p, q):
        raise NotIsomorphicError("conditions have different fragments")
    inter = p.blocks.intersection(q.blocks)
    if not _intersection_initial_in(p.blocks, q.blocks):
        raise OverlapNotInitialError("overlap is not an initial segment of A_p")
    if not _intersection_initial_in(q.blocks, p.blocks):
        raise OverlapNotInitialError("overlap is not an initial segment of A_q")
    d_p = p.blocks.difference_intervals(q.blocks)
    d_q = q.blocks.difference_intervals(p.blocks)
    if not _all_below(d_p, d_q):
        raise InterleavedDifferencesError(
            "sup(A_p \\ A_q) does not sit below inf(A_q \\ A_p)"
        )
    gamma = inter.order_type()
    eta = _intervals_order_type(d_p)
    if eta != _intervals_order_type(d_q):
        raise AmalgamationError("difference order types disagree; inputs are not valid conditions")
    theta = p.top_theta
    new_level = LevelData(theta, gamma, eta)
    new_top = add(theta, eta)
    frag_r = MorassFragment(p.delta + 1, p.frag.levels + (new_level,), new_top)
    return Condition(frag_r, p.blocks.union(q.blocks))


def extend_to_cover(
    p: Condition, target: tuple[int, OrdinalCNF], budget: int
) -> Condition:
    """Extend p until the target pair (block, xi) enters its block set.

    Each step follows the covering construction: when p owns material in
    blocks above the target block, build the companion condition that
    relocates that material into the target block and amalgamate;
    otherwise extend the target block directly by theta_delta, doubling
    the top order type.  Raises BudgetExhaustedError when `budget` steps
    do not suffice, and before the first step when no number would: neither
    step changes the top's leading exponent, and no block exceeds the top.
    """
    beta, xi = target
    if budget < 1:
        raise ForcingError("budget must be at least 1")
    if beta < 0:
        raise ForcingError("negative target block")
    target_exp, top_exp = _leading_exponent(xi), _leading_exponent(p.top_theta)
    if target_exp > top_exp and not p.blocks.contains(beta, xi):
        raise BudgetExhaustedError(
            f"target ({beta}, {xi}) is never covered: its leading exponent {target_exp}"
            f" is above {top_exp}, that of the top {p.top_theta}"
        )
    current = p
    for _ in range(budget):
        if current.blocks.contains(beta, xi):
            return current
        upper = [(b, r) for b, r in current.blocks.blocks if b > beta]
        rho = current.blocks.rho(beta)
        if upper:
            eta = ZERO
            for _, r in upper:
                eta = add(eta, r)
            companion_blocks = {b: r for b, r in current.blocks.blocks if b < beta}
            companion_blocks[beta] = add(rho, eta)
            companion = Condition(current.frag, BlockMap.from_dict(companion_blocks))
            current = amalgamate(companion, current)
        else:
            theta = current.top_theta
            new_blocks = {b: r for b, r in current.blocks.blocks}
            new_blocks[beta] = add(rho, theta)
            new_level = LevelData(theta, ZERO, theta)
            frag_r = MorassFragment(
                current.delta + 1, current.frag.levels + (new_level,), nat_multiply(theta, 2)
            )
            current = Condition(frag_r, BlockMap.from_dict(new_blocks))
    if current.blocks.contains(beta, xi):
        return current
    raise BudgetExhaustedError(
        f"target ({beta}, {xi}) not covered after {budget} steps;"
        f" block reaches {current.blocks.rho(beta)}"
    )


def _leading_exponent(x: OrdinalCNF) -> int:
    return x[0][0] if x else 0


def verify_lower_bound(q: Condition, chain: Sequence[Condition]) -> ValidationReport:
    """Check q against a finite decreasing chain: q below all, block union covered.

    This is a checker, not a constructor: true limits of infinite chains are
    out of reach, and for a finite chain the union of the block sets equals
    the last element's.
    """
    if not chain:
        raise ForcingError("chain must be nonempty")
    violations = []
    for n in range(len(chain) - 1):
        if not leq(chain[n + 1], chain[n]):
            violations.append(f"chain not decreasing at position {n}")
    for n, p in enumerate(chain):
        if not leq(q, p):
            violations.append(f"q is not below chain element {n}")
    union = chain[0].blocks
    for p in chain[1:]:
        union = union.union(p.blocks)
    if not q.blocks.contains_blockmap(union):
        violations.append("A_q does not contain the union of the chain's block sets")
    return ValidationReport(tuple(violations))


def delta_system_pair(
    conds: Sequence[Condition],
) -> tuple[Condition, Condition] | None:
    """Some ordered pair of distinct isomorphic conditions ready to amalgamate.

    Identical block sets are excluded: the degenerate pair is not useful to
    the antichain argument.  Returns the first hit in input order.
    """
    items = list(conds)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            for x, y in ((items[i], items[j]), (items[j], items[i])):
                if x.blocks == y.blocks or not isomorphic(x, y):
                    continue
                if not _intersection_initial_in(x.blocks, y.blocks):
                    continue
                if not _intersection_initial_in(y.blocks, x.blocks):
                    continue
                if _all_below(
                    x.blocks.difference_intervals(y.blocks),
                    y.blocks.difference_intervals(x.blocks),
                ):
                    return x, y
    return None


def fragment_of(p: Condition) -> tuple[MorassFragment, PairEmbedding]:
    """The working morass of a valid condition, with the embedding for rendering pairs."""
    report = validate_condition(p)
    if not report.ok:
        raise InvalidConditionError("; ".join(report.violations))
    return p.frag, p.embedding()


def build_fragment(
    seed: Condition, tasks: Iterable[tuple[int, OrdinalCNF]], budget: int
) -> Condition:
    """Fold extend_to_cover over a task list; budget applies per task."""
    current = seed
    for target in tasks:
        current = extend_to_cover(current, target, budget)
    return current


# ---------------------------------------------------------------------------
# JSON encoding


def condition_to_json(p: Condition) -> dict:
    return {
        "frag": fragment_to_json(p.frag),
        "blocks": {str(b): render_ordinal(r) for b, r in p.blocks.blocks},
    }


def condition_from_json(obj: dict) -> Condition:
    expect(obj, dict, "a condition", InvalidConditionError)
    raw_blocks = expect(obj["blocks"], dict, "a condition's blocks", InvalidConditionError)
    blocks = BlockMap.from_dict({int(b): parse_ordinal(r) for b, r in raw_blocks.items()})
    return Condition(fragment_from_json(obj["frag"]), blocks)


def tasks_from_json(obj: list) -> list[tuple[int, OrdinalCNF]]:
    """A task list: a JSON array of [block, ordinal] pairs."""
    tasks = []
    for task in expect(obj, list, "a task list", ForcingError):
        block, target = expect(task, list, "a task", ForcingError)
        tasks.append((expect(block, int, "a task's block", ForcingError), parse_ordinal(target)))
    return tasks


def embedding_to_json(emb: PairEmbedding) -> list:
    return [
        [render_ordinal(lo), render_ordinal(hi), beta, render_ordinal(z0)]
        for lo, hi, beta, z0 in emb.pieces
    ]
