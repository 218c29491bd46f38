"""Phases for the scalars of group constructions.

A *phase* is a rational p/q taken mod 1, denoting exp(2*pi*i*p/q); the
scalars alpha of a group construction are phases.
"""

from __future__ import annotations

from fractions import Fraction

Phase = Fraction  # always reduced mod 1


def phase(p: int | Fraction, q: int | None = None) -> Phase:
    """The phase p/q (or the Fraction p) reduced into [0, 1); a Fraction
    already in [0, 1) is returned as it is."""
    if q is None and isinstance(p, Fraction) and 0 <= p.numerator < p.denominator:
        return p
    f = Fraction(p, q) if q is not None else Fraction(p)
    return f % 1
