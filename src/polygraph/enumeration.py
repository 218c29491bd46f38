"""Exhaustive generation of presentations and classification up to isomorphism.

Enumeration walks the color pairs depth first, choosing one table per
pair in lexicographic order, and checks the cubic condition of each
color triple as soon as its last pair is chosen, so a failed triple cuts
off its whole branch (see _candidates).  Every survivor is still
validated in full by presentation_from_codes.

An isomorphism of single-vertex k-graphs is a color permutation pi
(allowed only between colors of equal multiplicity) together with one
index relabeling per color, carrying the commutation tables of one
presentation onto the other.  The class representative is the
presentation whose flattened table encoding is lexicographically least
over the relabeling orbit.  Both the search and the orbits work on table
codes (see kgraph), which are what a Presentation stores: the relabelings
of a multiplicity vector are compiled once into maps on codes, and only
presentations handed back to a caller are validated (by
presentation_from_codes).

The least image is found pair by pair: every relabeling maps color pair
0, those reaching the least code survive to pair 1, and so on, so most
relabelings are dropped after one pair.  Classification goes by orbits:
the first member of an orbit is mapped through every relabeling, and
each image's codes are recorded, so a later member costs one dict lookup
(every member of an orbit has the same orbit, hence the same least
image).  Everything here is desk scale: the table combinations and the
relabeling group are counted, and guarded by the "tables" and
"relabelings" budgets, before either is built.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .budget import budget
from .kgraph import (
    Code,
    Presentation,
    _charge_triples,
    _color_triples,
    _lift,
    color_pairs,
    presentation_from_codes,
)


def _factorial_factors(ns: Iterable[int]) -> Iterator[int]:
    """The factors 2..n of n! for each n in ns: their product is that of n! over ns."""
    return (x for n in ns for x in range(2, n + 1))


def enumerate_presentations(m: Sequence[int]) -> Iterator[Presentation]:
    """Yield every valid presentation with multiplicities m exactly once,
    in lexicographic order of the flattened tables.

    Raises ValueError unless every entry of m is at least 1, and
    BudgetExceeded when the C(k, 3) color triples are above the "color
    triples" limit, 1M, or the raw table count, the product of (m_i m_j)!
    over the color pairs, is above the "tables" limit, 10M.
    """
    m = tuple(m)
    if not m or min(m) < 1:
        raise ValueError(f"multiplicities {list(m)} must be at least 1")
    _charge_triples(len(m))
    budget("tables", 10_000_000,
           _factorial_factors(m[i - 1] * m[j - 1] for i, j in color_pairs(len(m))))
    for codes in _candidates(m):
        yield presentation_from_codes(len(m), m, codes)


def _candidates(m: tuple[int, ...]) -> Iterator[tuple[Code, ...]]:
    """The table codes of every presentation with multiplicities m, in
    lexicographic order, by a depth-first walk over the color pairs.

    Each pair's table runs over the permutations of its cell numbers, so
    the walk visits combinations in itertools.product order.  Each color
    triple i < j < l not of three ones is checked once its last pair jl is chosen:
    with A = t_ij t_il and B = t_il t_ij composed once from the chosen
    lifted tables, a lifted jl table T passes when A T = T B, which is
    _cubic_failure's left == right, so a failed triple cuts off the rest of
    its branch.  The lifted tables come from _lift's cache, once per call.
    For k <= 2 no triple is due and the walk is the plain product.  The
    walk keeps each chosen pair's untaken survivors on an explicit stack,
    so the pair count is not bounded by the recursion limit.
    enumerate_presentations still validates every survivor in full, cubic
    check included, with presentation_from_codes.
    """
    pairs = color_pairs(len(m))
    tables = [list(itertools.permutations(range(m[i - 1] * m[j - 1]))) for i, j in pairs]
    # per pair number, the triples whose last pair it is, as the numbers
    # of their pairs ij and il and the lifts of every ij, il and jl table
    due: list[list] = [[] for _ in pairs]
    for (i, j, l), ij, il, jl in _color_triples(m):
        shape = m[i - 1], m[j - 1], m[l - 1]
        lifts = [[_lift(factor, *shape, code) for code in tables[n]]
                 for factor, n in (("ij", ij), ("il", il), ("jl", jl))]
        due[jl].append((ij, il, *lifts))
    if not pairs:  # k = 1: one presentation, with no tables
        yield ()
        return
    chosen: list[int] = []  # the table picked for each pair so far, by position
    stack: list[Iterator[int]] = []  # per pair but the last, its untaken survivors
    while True:
        depth = len(chosen)
        survivors: Sequence[int] = range(len(tables[depth]))
        for ij, il, lifts_ij, lifts_il, lifts_jl in due[depth]:
            t_ij, t_il = lifts_ij[chosen[ij]], lifts_il[chosen[il]]
            A = [t_ij[x] for x in t_il]
            B = [t_il[x] for x in t_ij]
            b0, kept = B[0], []
            for c in survivors:
                T = lifts_jl[c]
                if A[T[0]] == T[b0] and [A[x] for x in T] == [T[x] for x in B]:
                    kept.append(c)
            survivors = kept
        if depth + 1 < len(pairs):
            stack.append(iter(survivors))
        else:
            head = tuple([tables[n][c] for n, c in enumerate(chosen)])
            for c in survivors:
                yield (*head, tables[depth][c])
        # back up to the deepest pair with a survivor left, and take it
        while stack and (c := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        chosen[len(stack) - 1:] = [c]


@dataclass(frozen=True)
class Relabeling:
    """A candidate isomorphism: color permutation + per-color index maps.

    color_perm[i-1] is the image color of i; index_maps[i-1] maps old
    index s (of old color i) to the new index, 1-based tuples.
    """

    color_perm: tuple[int, ...]
    index_maps: tuple[tuple[int, ...], ...]

    def image_color(self, i: int) -> int:
        return self.color_perm[i - 1]


def relabeling_group(m_src: Sequence[int], m_dst: Sequence[int]) -> Iterator[Relabeling]:
    """All color permutations carrying multiplicities m_src onto m_dst,
    with all per-color index relabelings."""
    k = len(m_src)
    for perm in itertools.permutations(range(1, k + 1)):
        if any(m_dst[perm[i] - 1] != m_src[i] for i in range(k)):
            continue
        index_choices = [list(itertools.permutations(range(1, m_src[i] + 1))) for i in range(k)]
        for maps in itertools.product(*index_choices):
            yield Relabeling(tuple(perm), tuple(maps))


# A relabeling compiled against the source multiplicities: for each image
# color pair, in color-pair order, (source pair number, inverted, tau,
# tau^-1).  tau sends the cell of (s, t) in the source pair (i, j) to the
# cell of its image in the image pair: (rho_i s, rho_j t) when pi(i) <
# pi(j), else (rho_j t, rho_i s), where the table is read backwards
# ("inverted").  The image table's code is then tau . u . tau^-1, with u
# the source table's code, or its inverse when inverted.
Plan = tuple[tuple[int, bool, Code, Code], ...]


def _inverse(perm: Sequence[int]) -> Code:
    out = [0] * len(perm)
    for p, q in enumerate(perm):
        out[q] = p
    return tuple(out)


def _plan(m: tuple[int, ...], rel: Relabeling) -> Plan:
    rows = {}
    for number, (i, j) in enumerate(color_pairs(len(m))):
        a, b = rel.color_perm[i - 1], rel.color_perm[j - 1]
        rho_i, rho_j = rel.index_maps[i - 1], rel.index_maps[j - 1]
        if a < b:
            tau = [(s - 1) * m[j - 1] + t - 1 for s in rho_i for t in rho_j]
        else:
            tau = [(t - 1) * m[i - 1] + s - 1 for s in rho_i for t in rho_j]
        rows[min(a, b), max(a, b)] = (number, a > b, tuple(tau), _inverse(tau))
    return tuple(rows[pair] for pair in color_pairs(len(m)))


@functools.lru_cache(maxsize=16)
def _compiled_group(m_src: tuple[int, ...], m_dst: tuple[int, ...]
                    ) -> tuple[tuple[Relabeling, Plan], ...]:
    """relabeling_group(m_src, m_dst), each relabeling with its plan.
    Before building it, raises BudgetExceeded when the group's order (the
    product of c! over the c colors sharing each multiplicity and of m_i!
    over the colors) is above the "relabelings" limit, 100,000; a group
    already built is reused without a second check."""
    budget("relabelings", 100_000, _factorial_factors([*Counter(m_src).values(), *m_src]))
    return tuple((rel, _plan(m_src, rel)) for rel in relabeling_group(m_src, m_dst))


def _sources(P: Presentation) -> tuple[tuple[Code, ...], tuple[Code, ...]]:
    """P's table codes and their inverses, indexed by a plan row's flag."""
    return P.codes, tuple(_inverse(u) for u in P.codes)


def _image_code(sources: tuple[tuple[Code, ...], tuple[Code, ...]],
                row: tuple[int, bool, Code, Code]) -> Code:
    """The code of one image table: a plan row applied to _sources(P)."""
    number, inverted, tau, tau_inv = row
    u = sources[inverted][number]
    return tuple([tau[u[q]] for q in tau_inv])


def _images(P: Presentation, compiled: Iterable[tuple[Relabeling, Plan]]
            ) -> Iterator[tuple[Relabeling, tuple[Code, ...]]]:
    """Each relabeling with the table codes of P's image under it.  The
    images are isomorphic copies of a valid P, so they are not validated."""
    sources = _sources(P)
    for rel, plan in compiled:
        yield rel, tuple([_image_code(sources, row) for row in plan])


def apply_relabeling(P: Presentation, rel: Relabeling) -> Presentation:
    """The presentation with every relation of P rewritten through rel.

    For colors i < j with images i' = pi(i), j' = pi(j):
      theta_ij(s,t) = (s',t')  becomes
        theta'_{i'j'}(rho_i s, rho_j t) = (rho_i s', rho_j t')   if i' < j'
        theta'_{j'i'}(rho_j t', rho_i s') = (rho_j t, rho_i s)   if i' > j'.
    """
    m_new = [0] * P.k
    for i in range(1, P.k + 1):
        m_new[rel.image_color(i) - 1] = P.m[i - 1]
    _, codes = next(_images(P, [(rel, _plan(P.m, rel))]))
    return presentation_from_codes(P.k, m_new, codes)


def are_isomorphic(P1: Presentation, P2: Presentation) -> Relabeling | None:
    """A relabeling carrying P1 onto P2, if one exists.  A relabeling is
    dropped at the first color pair whose image differs from P2's table."""
    if P1.k != P2.k or sorted(P1.m) != sorted(P2.m):
        return None
    sources = _sources(P1)
    for rel, plan in _compiled_group(P1.m, P2.m):
        for row, target in zip(plan, P2.codes):
            if _image_code(sources, row) != target:
                break
        else:
            return rel
    return None


def _canonical_codes(P: Presentation) -> tuple[tuple[Code, ...], Relabeling]:
    """The least image codes over P's relabeling orbit, with the first
    relabeling reaching them.

    Pair by pair: each surviving relabeling maps the next color pair, and
    those reaching the least code for it survive, in order.  Codes compare
    pair by pair, so the survivors after the last pair are exactly the
    relabelings reaching the least image, and the first of them is the
    first one in the group's order.
    """
    sources = _sources(P)
    survivors = _compiled_group(P.m, P.m)
    least: list[Code] = []
    for pair in range(len(P.codes)):
        best: Code | None = None
        kept = []
        for entry in survivors:
            image = _image_code(sources, entry[1][pair])
            if best is None or image < best:
                best, kept = image, [entry]
            elif image == best:
                kept.append(entry)
        least.append(best)
        survivors = kept
    return tuple(least), survivors[0][0]


def canonical_form(P: Presentation) -> tuple[Presentation, Relabeling]:
    """The lexicographically least relabeled copy of P, with the witness."""
    codes, rel = _canonical_codes(P)
    return presentation_from_codes(P.k, P.m, codes), rel


@dataclass(frozen=True)
class IsoClass:
    """An isomorphism class from an enumeration sweep."""

    representative: Presentation
    size: int


def isomorphism_classes(presentations: Iterable[Presentation]) -> list[IsoClass]:
    """Partition presentations of one multiplicity vector by isomorphism.

    Input elements are assumed pairwise distinct; class sizes sum to the
    input count.  Classes are returned sorted by representative encoding.
    The first member of each orbit is mapped through every relabeling;
    a later member is found among those images and only counted.  Raises
    ValueError when the input mixes multiplicity vectors, whose tables
    could share codes without being isomorphic.
    """
    m = None
    # canonical codes -> class size
    sizes: Counter = Counter()
    # the codes of every orbit image seen so far -> its canonical codes
    orbits: dict[tuple[Code, ...], tuple[Code, ...]] = {}
    for P in presentations:
        if m is None:
            m = P.m
        elif P.m != m:
            raise ValueError(f"isomorphism_classes needs one multiplicity vector, "
                             f"got {list(m)} and {list(P.m)}")
        codes = orbits.get(P.codes)
        if codes is None:
            images = [image for _, image in _images(P, _compiled_group(m, m))]
            codes = min(images)
            orbits.update(dict.fromkeys(images, codes))
        sizes[codes] += 1
    return [IsoClass(representative=presentation_from_codes(len(m), m, codes), size=size)
            for codes, size in sorted(sizes.items())]
