"""A small catalog of named presentations used in tests, docs and the CLI.

Tables are written out explicitly (the library stores tables, never
formulas); builders with parameters generate the tables on the fly.
"""

from __future__ import annotations

import itertools

from .kgraph import Presentation, cells, validate_presentation


def _perm_from_cycle(domain: tuple[tuple[int, int], ...], cycle: list[tuple[int, int]]
                     ) -> dict[tuple[int, int], tuple[int, int]]:
    table = {p: p for p in domain}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        table[a] = b
    return table


def flip_table(m_i: int, m_j: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(s, t) -> (t, s); needs m_i = m_j."""
    return {(s, t): (t, s) for s, t in cells(m_i, m_j)}


def identity_table(m_i: int, m_j: int) -> dict[tuple[int, int], tuple[int, int]]:
    return {(s, t): (s, t) for s, t in cells(m_i, m_j)}


def square_table() -> dict[tuple[int, int], tuple[int, int]]:
    """The 4-cycle (1,1) -> (1,2) -> (2,2) -> (2,1) on {1,2}^2."""
    return _perm_from_cycle(cells(2, 2), [(1, 1), (1, 2), (2, 2), (2, 1)])


def cycle3_forward_table() -> dict[tuple[int, int], tuple[int, int]]:
    """The 3-cycle (1,1) -> (1,2) -> (2,1) on {1,2}^2, fixing (2,2)."""
    return _perm_from_cycle(cells(2, 2), [(1, 1), (1, 2), (2, 1)])


def cycle3_reverse_table() -> dict[tuple[int, int], tuple[int, int]]:
    """The 3-cycle (1,1) -> (2,1) -> (1,2) on {1,2}^2, fixing (2,2)."""
    return _perm_from_cycle(cells(2, 2), [(1, 1), (2, 1), (1, 2)])


def flip_2graph() -> Presentation:
    """m = (2,2), theta the transposition: e_s f_t = f_s e_t."""
    return validate_presentation(2, (2, 2), {(1, 2): flip_table(2, 2)})


def square_2graph() -> Presentation:
    """m = (2,2), theta the 4-cycle."""
    return validate_presentation(2, (2, 2), {(1, 2): square_table()})


def cycle3_forward_2graph() -> Presentation:
    return validate_presentation(2, (2, 2), {(1, 2): cycle3_forward_table()})


def cycle3_reverse_2graph() -> Presentation:
    return validate_presentation(2, (2, 2), {(1, 2): cycle3_reverse_table()})


def transposition_kgraph(k: int, n: int) -> Presentation:
    """All multiplicities n, every theta[i,j] the transposition (s,t) -> (t,s)."""
    theta = {(i, j): flip_table(n, n)
             for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    return validate_presentation(k, (n,) * k, theta)


def flip_cycle_cycle_3graph() -> Presentation:
    """m = (2,2,2); theta_12 the flip, theta_13 = theta_23 the forward 3-cycle.

    The 3-cycle acts as (s, t) -> (t, s+t) mod 2 on {1,2} (with 2 playing
    the role of 0), which is what makes the cubic condition hold.
    """
    return validate_presentation(3, (2, 2, 2), {
        (1, 2): flip_table(2, 2),
        (1, 3): cycle3_forward_table(),
        (2, 3): cycle3_forward_table(),
    })


def flip_square_square_3graph() -> Presentation:
    """m = (2,2,2); theta_12 the flip, theta_13 = theta_23 the square."""
    return validate_presentation(3, (2, 2, 2), {
        (1, 2): flip_table(2, 2),
        (1, 3): square_table(),
        (2, 3): square_table(),
    })


def product_periodic_3graph(l: int = 2, m: int = 2) -> Presentation:
    """3-graph on multiplicities (l, m, l*m) built to be (1,1,-1)-periodic.

    Colors 1 and 2 commute letterwise (theta_12 = id); with the pairing
    gamma(i, j) = (i-1)*m + j of {1..l} x {1..m} with {1..l*m}, the
    remaining tables are

        e_i g_{gamma(i',j')} = g_{gamma(i,j')} e_{i'}
        f_j g_{gamma(i',j')} = g_{gamma(i',j)} f_{j'}

    so a color-3 letter absorbs the (color-1, color-2) index pair one slot
    at a time.  The symmetry lattice is Z(1,1,-1).
    """
    theta13 = {}
    theta23 = {}
    for i, j in itertools.product(range(1, l + 1), range(1, m + 1)):
        for i2, j2 in itertools.product(range(1, l + 1), range(1, m + 1)):
            theta13[(i, (i2 - 1) * m + j2)] = (i2, (i - 1) * m + j2)
            theta23[(j, (i2 - 1) * m + j2)] = (j2, (i2 - 1) * m + j)
    return validate_presentation(3, (l, m, l * m), {
        (1, 2): identity_table(l, m),
        (1, 3): theta13,
        (2, 3): theta23,
    })


def twisted_periodic_3graph(m: int = 2) -> Presentation:
    """3-graph on multiplicities (m, m, m^2) with colors 1, 2 transposed.

    theta_12 is the transposition e_i f_j = f_i e_j; with the pairing
    gamma(i, j) = (i-1)*m + j of {1..m}^2 with {1..m^2} the color-3 tables
    are

        e_i g_{gamma(j,k)} = g_{gamma(i,j)} e_k
        f_i g_{gamma(j,k)} = g_{gamma(i,j)} f_k

    (a color-3 letter acts as a two-slot shift register).  The symmetry
    lattice is Z(1,-1,0) + Z(1,1,-1).
    """
    table = {}
    for i in range(1, m + 1):
        for j, kk in itertools.product(range(1, m + 1), range(1, m + 1)):
            table[(i, (j - 1) * m + kk)] = (kk, (i - 1) * m + j)
    return validate_presentation(3, (m, m, m * m), {
        (1, 2): flip_table(m, m),
        (1, 3): dict(table),
        (2, 3): dict(table),
    })


def broken_cubic_triple() -> dict:
    """Raw data (not a k-graph): theta_12 = theta_13 = flip, theta_23 the
    forward 3-cycle.  Fails the cubic condition at indices (1,1,1)."""
    return {
        "k": 3,
        "m": (2, 2, 2),
        "theta": {
            (1, 2): flip_table(2, 2),
            (1, 3): flip_table(2, 2),
            (2, 3): cycle3_forward_table(),
        },
    }
