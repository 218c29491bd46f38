"""Exact arithmetic with roots of unity.

A *phase* is a rational p/q taken mod 1, denoting exp(2*pi*i*p/q).  Sums
of monomials need integer combinations of phases (cancellation, merged
coefficients), so coefficients live in the group ring Z[Q/Z]: a mapping
{phase: integer multiplicity}.  Equality of two such elements as complex
numbers is decided exactly by reducing both modulo the N-th cyclotomic
polynomial at a common level N (the lcm of the phase denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

Phase = Fraction  # always reduced mod 1


def phase(p: int | Fraction, q: int | None = None) -> Phase:
    """The phase p/q (or the Fraction p) reduced into [0, 1); a Fraction
    already in [0, 1) is returned as it is."""
    if q is None and isinstance(p, Fraction) and 0 <= p.numerator < p.denominator:
        return p
    f = Fraction(p, q) if q is not None else Fraction(p)
    return f % 1


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials of
    the proper divisors of n.
    """
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, low degree first.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1] // den[-1]
        out[shift] = coef
        if coef:
            for i, c in enumerate(den):
                num[shift + i] -= coef * c
    assert not any(num), "non-exact polynomial division"
    return out


def _polymod(poly: list[int], mod: tuple[int, ...]) -> list[int]:
    # Remainder of an integer polynomial modulo a monic integer polynomial.
    poly = list(poly)
    deg_mod = len(mod) - 1
    for shift in range(len(poly) - 1 - deg_mod, -1, -1):
        coef = poly[shift + deg_mod]
        if coef:
            for i, c in enumerate(mod):
                poly[shift + i] -= coef * c
    return poly[:deg_mod]


@dataclass(frozen=True)
class PhaseInt:
    """An integer combination of phases (element of Z[Q/Z]), exact.

    terms maps each phase to its nonzero integer multiplicity.  Stored
    uncanonicalized; value equality and the zero test reduce modulo a
    common cyclotomic polynomial.
    """

    terms: tuple[tuple[Phase, int], ...]

    @staticmethod
    def from_phase(p: Phase) -> "PhaseInt":
        return PhaseInt(((p % 1, 1),))

    @staticmethod
    def of(mapping: dict[Phase, int]) -> "PhaseInt":
        items = tuple(sorted((p % 1, c) for p, c in mapping.items() if c))
        return PhaseInt(items)

    def as_dict(self) -> dict[Phase, int]:
        out: dict[Phase, int] = {}
        for p, c in self.terms:
            out[p] = out.get(p, 0) + c
        return {p: c for p, c in out.items() if c}

    def __add__(self, other: "PhaseInt") -> "PhaseInt":
        out = self.as_dict()
        for p, c in other.terms:
            out[p] = out.get(p, 0) + c
        return PhaseInt.of(out)

    def __neg__(self) -> "PhaseInt":
        return PhaseInt(tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: "PhaseInt") -> "PhaseInt":
        return self + (-other)

    def __mul__(self, other: "PhaseInt") -> "PhaseInt":
        out: dict[Phase, int] = {}
        for p1, c1 in self.terms:
            for p2, c2 in other.terms:
                p = (p1 + p2) % 1
                out[p] = out.get(p, 0) + c1 * c2
        return PhaseInt.of(out)

    def conj(self) -> "PhaseInt":
        return PhaseInt.of({(-p) % 1: c for p, c in self.as_dict().items()})

    def _vector(self, level: int) -> tuple[int, ...]:
        # Exponent vector of the element in Z[x]/(Phi_level), low degree first.
        poly = [0] * level
        for p, c in self.terms:
            e = p * level
            assert e.denominator == 1, (p, level)
            poly[int(e) % level] += c
        if level == 1:
            return (poly[0],)
        return tuple(_polymod(poly, cyclotomic_polynomial(level)))

    def _level(self) -> int:
        return lcm(1, *(p.denominator for p, _ in self.terms)) if self.terms else 1

    def is_zero(self) -> bool:
        return not any(self._vector(self._level()))

    def value_eq(self, other: "PhaseInt") -> bool:
        """Equality as complex numbers (exact)."""
        level = lcm(self._level(), other._level())
        return self._vector(level) == other._vector(level)

    def single_phase(self) -> Phase | None:
        """The phase p if this element equals exp(2*pi*i*p), else None."""
        d = self.as_dict()
        if len(d) == 1:
            p, c = next(iter(d.items()))
            if c == 1:
                return p
        candidates = set(d) | {(p + Fraction(1, 2)) % 1 for p in d}
        for p in sorted(candidates):
            if self.value_eq(PhaseInt.from_phase(p)):
                return p
        return None

    def __str__(self) -> str:
        d = self.as_dict()
        if not d:
            return "0"
        parts = []
        for p, c in sorted(d.items()):
            sign = "+" if c >= 0 else "-"
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign}{coeff}({p.numerator}/{p.denominator})")
        return "".join(parts)


PHASE_ONE = PhaseInt(((Fraction(0), 1),))
