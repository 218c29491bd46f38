"""Exact symbolic arithmetic on finite sums of monomials u v*.

The involutive algebra generated by a k-graph presentation (letters as
isometries, each color family defect free) is spanned by monomials u v*
with u, v words.  This module implements enough of its arithmetic to
verify identities at the level of relations: products, formal adjoints,
and exact equality.  The relations carry no scalars, so every coefficient
is an integer.

A product reduces v* x by the complementary-degree expansion: v* x is the
sum of a b* over v a = x b, with deg a = join(deg v, deg x) - deg v.  The
expansion sees x only through its degree d, so one cached factor table per
(v, d) maps each normal-form prefix x to its pairs (a, b), and multiply
looks the x's of its right factor up in that table.  An x that is not a
normal form matches no key, so a right factor must hold normal forms.

Equality needs care because of the defect-free relation
u v* = sum_{deg a = d} (u a)(v a)*: two merged sums with different keys
can be equal (e.g. the full family sum_f f f* over a fixed degree equals
the empty monomial).  star_equal therefore expands both sums until every
u-part has the same degree (monomials with fixed u-degree and fixed
grading are linearly independent) and compares the integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .kgraph import (
    Degree,
    Presentation,
    Word,
    check_word,
    deg_join,
    deg_sub,
    degree,
    extract_prefix,
    normal_form,
    words_of_degree,
)

Key = tuple[Word, Word]


@dataclass(frozen=True)
class StarSum:
    """A canonically merged finite sum  sum  c_(u,v) * u v*.

    terms maps (u, v) pairs of normal-form words to nonzero integer
    coefficients.  The empty sum is zero; {((), ()): 1} is the identity.
    StarSum.of keeps keys as given; multiply and star_equal need normal forms.
    """

    terms: tuple[tuple[Key, int], ...]

    @staticmethod
    def of(mapping: dict[Key, int]) -> "StarSum":
        return StarSum(tuple(sorted((k, c) for k, c in mapping.items() if c)))

    def is_zero(self) -> bool:
        return not self.terms


def identity_sum() -> StarSum:
    return StarSum.of({((), ()): 1})


def monomial(P: Presentation, u: Word, v: Word) -> StarSum:
    """The single monomial u v* (words normalized)."""
    check_word(P, u)
    check_word(P, v)
    return StarSum.of({(normal_form(P, u), normal_form(P, v)): 1})


def adjoint(A: StarSum) -> StarSum:
    """The formal adjoint: swap u and v; integer coefficients are real."""
    return StarSum.of({(v, u): c for (u, v), c in A.terms})


@lru_cache(maxsize=65536)
def _reduce_adjoint_cached(P: Presentation, v: Word, d: Degree
                           ) -> MappingProxyType[Word, tuple[tuple[Word, Word], ...]]:
    """v* x for every x of degree d at once: the read-only table
    {x: ((a, b), ...)} of v a = x b, with a running in order over the words
    of degree join(deg v, d) - deg v; an x absent from it has v* x = 0."""
    table: dict[Word, list[tuple[Word, Word]]] = {}
    for a in words_of_degree(P, deg_sub(deg_join(degree(P, v), d), degree(P, v))):
        px, b = extract_prefix(P, v + a, d)
        table.setdefault(px, []).append((a, b))
    return MappingProxyType({px: tuple(pairs) for px, pairs in table.items()})


def multiply(P: Presentation, A: StarSum, B: StarSum) -> StarSum:
    """Bilinear product: (u v*)(x y*) = sum u a (y b)* over v a = x b.

    B's terms are grouped by the degree of x, then by x; each term of A
    looks its factor table per degree up among those x's.  The table's
    keys are prefixes in normal form, so B's keys must be normal forms."""
    by_degree: dict[Degree, dict[Word, list[tuple[Word, int]]]] = {}
    for (x, y), c2 in B.terms:
        by_degree.setdefault(degree(P, x), {}).setdefault(x, []).append((y, c2))
    out: dict[Key, int] = {}
    for (u, v), c1 in A.terms:
        for d, xs in by_degree.items():
            for px, pairs in _reduce_adjoint_cached(P, v, d).items():
                ys = xs.get(px)
                if ys is None:
                    continue
                for a, b in pairs:
                    ua = normal_form(P, u + a)
                    for y, c2 in ys:
                        key = (ua, normal_form(P, y + b))
                        out[key] = out.get(key, 0) + c1 * c2
    return StarSum.of(out)


def _expanded(P: Presentation, A: StarSum, target: Degree) -> dict[Key, int]:
    # Rewrite every monomial so its u-part has degree exactly `target`,
    # using u v* = sum_{deg a = target - deg u} (u a)(v a)*.
    out: dict[Key, int] = {}
    for (u, v), c in A.terms:
        da = deg_sub(target, degree(P, u))
        for a in words_of_degree(P, da):
            key = (normal_form(P, u + a), normal_form(P, v + a))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def star_equal(P: Presentation, A: StarSum, B: StarSum) -> bool:
    """Exact equality in the algebra (not just key-by-key of merged sums)."""
    if A.terms == B.terms:
        return True
    degs = [degree(P, u) for (u, _), _ in A.terms] + [degree(P, u) for (u, _), _ in B.terms]
    target = P.zero()
    for d in degs:
        target = deg_join(target, d)
    return _expanded(P, A, target) == _expanded(P, B, target)


def render_word(w: Word) -> str:
    return ".".join(f"{c}:{s}" for c, s in w) if w else "1"


def render(A: StarSum) -> str:
    """Text form: a sum of coeff*u*v^* terms, words as color:index chains.
    The coefficients 1 and -1 are written as the phases p/q of
    exp(2 pi i p/q), +(0/1) and +(1/2); any other c as [+c*(0/1)] or
    [-|c|*(0/1)]."""
    if A.is_zero():
        return "0"
    parts = []
    for (u, v), c in A.terms:
        coeff = {1: "+(0/1)", -1: "+(1/2)"}.get(c, f"[{c:+d}*(0/1)]")
        parts.append(f"{coeff}*{render_word(u)}*{render_word(v)}^*")
    return " ".join(parts)
