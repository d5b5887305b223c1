"""Exact arithmetic for ordinals below w^w in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck`` with strictly
decreasing natural exponents and positive integer coefficients; zero is
the empty sum.  The representation is canonical: equal ordinals have
identical term sequences, so structural equality is value equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from .jsonshape import expect


class OrdinalError(ValueError):
    pass


class OrdinalUnderflowError(OrdinalError):
    """Raised by left_subtract(a, b) when a > b."""


class OrdinalParseError(OrdinalError):
    """Raised on text that is not a canonical ordinal expression."""


@total_ordering
@dataclass(frozen=True)
class OrdinalCNF:
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise OrdinalError(f"bad CNF term ({exp}, {coeff})")
            if prev is not None and exp >= prev:
                raise OrdinalError("CNF exponents must be strictly decreasing")
            prev = exp

    @classmethod
    def from_int(cls, n: int) -> "OrdinalCNF":
        if n < 0:
            raise OrdinalError("ordinals are nonnegative")
        return cls(((0, n),)) if n else cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __lt__(self, other: "OrdinalCNF") -> bool:
        return self.terms < other.terms

    def __add__(self, other: "OrdinalCNF") -> "OrdinalCNF":
        return add(self, other)

    def __mul__(self, n: int) -> "OrdinalCNF":
        return nat_multiply(self, n)

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return f"OrdinalCNF({render_ordinal(self)!r})"


ZERO = OrdinalCNF()
ONE = OrdinalCNF.from_int(1)
OMEGA = OrdinalCNF(((1, 1),))


def compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """Total order on CNF term sequences: -1, 0 or 1.

    Term-by-term lexicographic comparison is ordinal comparison: a higher
    exponent dominates, then a higher coefficient, and an extension of a
    common prefix is strictly larger.
    """
    if a.terms == b.terms:
        return 0
    return -1 if a.terms < b.terms else 1


def add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """Ordinal sum; terms of `a` below the lead exponent of `b` are absorbed."""
    if not b.terms:
        return a
    lead = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > lead]
    carry = 0
    if len(kept) < len(a.terms) and a.terms[len(kept)][0] == lead:
        carry = a.terms[len(kept)][1]
    merged = (lead, carry + b.terms[0][1])
    return OrdinalCNF(tuple(kept) + (merged,) + b.terms[1:])


def left_subtract(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """The unique c with a + c = b, defined for a <= b."""
    if a.terms > b.terms:
        raise OrdinalUnderflowError(f"left_subtract: {a} > {b}")
    if a.terms == b.terms:
        return ZERO
    i = 0
    while i < len(a.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return OrdinalCNF(b.terms[i:])
    (ea, ca), (eb, cb) = a.terms[i], b.terms[i]
    if ea == eb:
        # ca < cb here since a < b at the first differing term
        return OrdinalCNF(((eb, cb - ca),) + b.terms[i + 1:])
    return OrdinalCNF(b.terms[i:])


def nat_multiply(a: OrdinalCNF, n: int) -> OrdinalCNF:
    """`a` added to itself n times (n a natural number)."""
    if n < 0:
        raise OrdinalError("multiplier must be a natural number")
    out = ZERO
    for _ in range(n):
        out = add(out, a)
    return out


def is_limit(a: OrdinalCNF) -> bool:
    """True iff a != 0 and a has no finite tail.  Zero is neither limit nor successor."""
    return bool(a.terms) and a.terms[-1][0] >= 1


def is_successor(a: OrdinalCNF) -> bool:
    return bool(a.terms) and a.terms[-1][0] == 0


_TERM_RE = re.compile(r"w(?:\^(\d+))?(?:\*(\d+))?\Z")


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse the rendering grammar ``w^k*c + ... + n``; strict about canonical form."""
    s = expect(text, str, "an ordinal", OrdinalParseError).strip()
    if s == "0":
        return ZERO
    if not s:
        raise OrdinalParseError("empty ordinal string")
    terms: list[tuple[int, int]] = []
    for part in s.split("+"):
        tok = part.strip()
        m = _TERM_RE.match(tok)
        if m:
            exp = int(m.group(1)) if m.group(1) else 1
            coeff = int(m.group(2)) if m.group(2) else 1
            if exp < 1 or coeff < 1:
                raise OrdinalParseError(f"bad term {tok!r} in {text!r}")
        elif tok.isdigit():
            exp, coeff = 0, int(tok)
            if coeff < 1:
                raise OrdinalParseError(f"zero term in sum: {text!r}")
        else:
            raise OrdinalParseError(f"cannot parse term {tok!r} in {text!r}")
        terms.append((exp, coeff))
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise OrdinalParseError(f"non-canonical exponent order in {text!r}")
    return OrdinalCNF(tuple(terms))


def render_ordinal(a: OrdinalCNF) -> str:
    if not a.terms:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp == 0:
            parts.append(str(coeff))
        else:
            head = "w" if exp == 1 else f"w^{exp}"
            parts.append(head if coeff == 1 else f"{head}*{coeff}")
    return " + ".join(parts)


def omega_times(k: int, plus: int = 0) -> OrdinalCNF:
    """Convenience constructor for w*k + plus."""
    return add(nat_multiply(OMEGA, k), OrdinalCNF.from_int(plus))


def random_ordinal_below(theta: OrdinalCNF, rng, attempts: int = 64) -> OrdinalCNF:
    """A pseudo-random ordinal strictly below `theta`, reproducible from `rng`."""
    if theta.is_zero():
        raise OrdinalError("no ordinal below 0")
    if rng.random() < 0.15:
        cand = OrdinalCNF.from_int(rng.randrange(6))
        if cand < theta:
            return cand
    lead = theta.terms[0][0]
    for _ in range(attempts):
        width = rng.randint(1, min(2, lead + 1))
        exps = sorted(rng.sample(range(lead + 1), width), reverse=True)
        cand = OrdinalCNF(tuple((e, rng.randint(1, 4)) for e in exps))
        if cand < theta:
            return cand
    return ZERO
