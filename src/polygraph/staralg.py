"""Exact symbolic arithmetic on finite sums of monomials u v*.

The involutive algebra generated by a k-graph presentation (letters as
isometries, each color family defect free) is spanned by monomials u v*
with u, v words.  This module implements enough of its arithmetic to
verify identities at the level of relations: products via the
complementary-degree expansion of v* x, formal adjoints, and exact
equality.

Equality needs care because of the defect-free relation
u v* = sum_{deg a = d} (u a)(v a)*: two merged sums with different keys
can be equal (e.g. the full family sum_f f f* over a fixed degree equals
the empty monomial).  star_equal therefore expands both sums until every
u-part has the same degree (monomials with fixed u-degree and fixed
grading are linearly independent) and compares coefficients exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
from .phases import PHASE_ONE, Phase, PhaseInt

Key = tuple[Word, Word]


@dataclass(frozen=True)
class StarSum:
    """A canonically merged finite sum  sum  c_(u,v) * u v*.

    terms maps (u, v) pairs of normal-form words to nonzero exact
    coefficients.  The empty sum is zero; {((), ()): 1} is the identity.
    StarSum.of keeps keys as given; multiply and star_equal need normal forms.
    """

    terms: tuple[tuple[Key, PhaseInt], ...]

    @staticmethod
    def of(mapping: dict[Key, PhaseInt]) -> "StarSum":
        items = tuple(sorted((k, c) for k, c in mapping.items() if not c.is_zero()))
        return StarSum(items)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "StarSum") -> "StarSum":
        out = dict(self.terms)
        for key, c in other.terms:
            out[key] = out[key] + c if key in out else c
        return StarSum.of(out)

    def __len__(self) -> int:
        return len(self.terms)


def identity_sum() -> StarSum:
    return StarSum.of({((), ()): PHASE_ONE})


def monomial(P: Presentation, u: Word, v: Word, coefficient: Phase | PhaseInt = None
             ) -> StarSum:
    """The single monomial coefficient * u v* (words normalized)."""
    check_word(P, u)
    check_word(P, v)
    if coefficient is None:
        coefficient = PHASE_ONE
    elif not isinstance(coefficient, PhaseInt):
        coefficient = PhaseInt.from_phase(coefficient)
    key = (normal_form(P, u), normal_form(P, v))
    return StarSum.of({key: coefficient})


def adjoint(A: StarSum) -> StarSum:
    """The formal adjoint: swap u and v, conjugate coefficients."""
    return StarSum.of({(v, u): c.conj() for (u, v), c in A.terms})


@lru_cache(maxsize=65536)
def _reduce_adjoint_cached(P: Presentation, v: Word, x: Word) -> tuple[tuple[Word, Word], ...]:
    dv, dx = degree(P, v), degree(P, x)
    join = deg_join(dv, dx)
    da = deg_sub(join, dv)
    out = []
    for a in words_of_degree(P, da):
        w = normal_form(P, v + a)
        px, b = extract_prefix(P, w, dx)
        if px == x:
            out.append((a, b))
    return tuple(out)


def multiply(P: Presentation, A: StarSum, B: StarSum) -> StarSum:
    """Bilinear product: (u v*)(x y*) = sum u a (y b)* over v a = x b;
    x is matched against normal forms, so B's keys must be normal forms."""
    out: dict[Key, PhaseInt] = {}
    for (u, v), c1 in A.terms:
        for (x, y), c2 in B.terms:
            pairs = _reduce_adjoint_cached(P, v, x)
            if not pairs:
                continue
            c = c1 * c2
            for a, b in pairs:
                key = (normal_form(P, u + a), normal_form(P, y + b))
                out[key] = out[key] + c if key in out else c
    return StarSum.of(out)


def _expanded(P: Presentation, A: StarSum, target: Degree) -> dict[Key, PhaseInt]:
    # Rewrite every monomial so its u-part has degree exactly `target`,
    # using u v* = sum_{deg a = target - deg u} (u a)(v a)*.
    out: dict[Key, PhaseInt] = {}
    for (u, v), c in A.terms:
        da = deg_sub(target, degree(P, u))
        for a in words_of_degree(P, da):
            key = (normal_form(P, u + a), normal_form(P, v + a))
            out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def star_equal(P: Presentation, A: StarSum, B: StarSum) -> bool:
    """Exact equality in the algebra (not just key-by-key of merged sums)."""
    if A.terms == B.terms:
        return True
    degs = [degree(P, u) for (u, _), _ in A.terms] + [degree(P, u) for (u, _), _ in B.terms]
    target = P.zero()
    for d in degs:
        target = deg_join(target, d)
    ea, eb = _expanded(P, A, target), _expanded(P, B, target)
    if set(ea) != set(eb):
        return False
    return all(ea[k].value_eq(eb[k]) for k in ea)


def render_word(w: Word) -> str:
    return ".".join(f"{c}:{s}" for c, s in w) if w else "1"


def render(A: StarSum) -> str:
    """Text form: sum of +-(p/q)*u*v^* terms, words as color:index chains."""
    if A.is_zero():
        return "0"
    parts = []
    for (u, v), c in A.terms:
        p = c.single_phase()
        coeff = f"+({p.numerator}/{p.denominator})" if p is not None else f"[{c}]"
        parts.append(f"{coeff}*{render_word(u)}*{render_word(v)}^*")
    return " ".join(parts)
