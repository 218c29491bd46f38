"""Single-vertex k-graph presentations and their word arithmetic.

A k-graph on one vertex is the cancellative semigroup on k families of
generators (one family per "color" i, of size m_i) subject to commutation
rules: each product of a color-i letter and a color-j letter (i < j)
rewrites to a unique product in the opposite color order, recorded by a
permutation theta[i,j] of {1..m_i} x {1..m_j}:

    (i,s)(j,t) = (j,t')(i,s')   where   theta[i,j](s,t) = (s',t').

For k >= 3 the family must satisfy the cubic compatibility condition
(degree-(1,1,1) words factor uniquely); for k <= 2 any permutations work.
Unique factorization then gives every word a normal form with colors
sorted ascending, and a unique prefix of every degree below its own.

Letters are (color, index) pairs, 1-based on both coordinates.  Words are
plain tuples of letters; all functions return new tuples, so values are
safe to share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Degree = tuple[int, ...]

EMPTY_WORD: Word = ()


class PresentationError(ValueError):
    """Rejected input data for a presentation."""


class InvalidPermutation(PresentationError):
    def __init__(self, i: int, j: int, reason: str = "table is not a bijection"):
        self.pair = (i, j)
        super().__init__(f"theta[{i},{j}]: {reason}")


class CubicViolation(PresentationError):
    def __init__(self, triple: tuple[int, int, int], witness: tuple[int, int, int],
                 left: tuple[int, int, int], right: tuple[int, int, int]):
        self.triple = triple
        self.witness = witness
        self.left = left
        self.right = right
        i, j, l = triple
        super().__init__(
            f"cubic condition fails on colors {triple} at indices {witness}: "
            f"theta{i}{j} theta{i}{l} theta{j}{l} -> {left} but "
            f"theta{j}{l} theta{i}{l} theta{i}{j} -> {right}"
        )


class NotAPrefix(ValueError):
    """Requested prefix degree is not componentwise below the word degree."""


class WordError(ValueError):
    """A word does not belong to the given presentation."""


Theta = dict[tuple[int, int], dict[tuple[int, int], tuple[int, int]]]


@dataclass(frozen=True)
class Presentation:
    """A validated single-vertex k-graph presentation.

    theta maps each color pair (i, j) with i < j to the permutation table
    {(s, t): (s', t')}.  Instances are immutable; construct through
    :func:`validate_presentation`, which checks bijectivity and (for
    k >= 3) the cubic condition, so every Presentation value is a k-graph.
    """

    k: int
    m: tuple[int, ...]
    theta: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    # Rewrite tables, attached after validation (derived, not compared).
    _asc: dict = field(default=None, repr=False, compare=False)
    _desc: dict = field(default=None, repr=False, compare=False)

    def table(self, i: int, j: int) -> dict[tuple[int, int], tuple[int, int]]:
        """The permutation {(s,t): (s',t')} for the color pair i < j."""
        if not 1 <= i < j <= self.k:
            raise KeyError((i, j))
        flat = dict(self._pairs())[(i, j)]
        mj = self.m[j - 1]
        return {(s, t): flat[(s - 1) * mj + (t - 1)]
                for s in range(1, self.m[i - 1] + 1)
                for t in range(1, mj + 1)}

    def _pairs(self) -> Iterator[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]:
        for i, j, flat in self.theta:
            yield (i, j), flat

    def theta_apply(self, i: int, j: int, s: int, t: int) -> tuple[int, int]:
        """(s', t') with (i,s)(j,t) = (j,t')(i,s') for colors i < j."""
        (_, t2), (_, s2) = self._asc[((i, s), (j, t))]
        return (s2, t2)

    def letters(self, color: int | None = None) -> Iterator[Letter]:
        """All generators, or all generators of one color."""
        colors = range(1, self.k + 1) if color is None else (color,)
        for c in colors:
            for s in range(1, self.m[c - 1] + 1):
                yield (c, s)

    def zero(self) -> Degree:
        return (0,) * self.k

    def __hash__(self) -> int:
        return hash((self.k, self.m, self.theta))


def _flatten_table(m_i: int, m_j: int, table: dict[tuple[int, int], tuple[int, int]]
                   ) -> tuple[tuple[int, int], ...]:
    return tuple(table[(s, t)] for s in range(1, m_i + 1) for t in range(1, m_j + 1))


def _check_bijection(i: int, j: int, m_i: int, m_j: int,
                     table: dict[tuple[int, int], tuple[int, int]]) -> None:
    domain = {(s, t) for s in range(1, m_i + 1) for t in range(1, m_j + 1)}
    if set(table) != domain:
        missing = sorted(domain - set(table))
        extra = sorted(set(table) - domain)
        raise InvalidPermutation(i, j, f"domain mismatch (missing {missing}, extra {extra})")
    values = set(table.values())
    if values != domain:
        raise InvalidPermutation(i, j)


def _check_cubic(k: int, m: tuple[int, ...], theta: Theta) -> None:
    # theta_ij theta_il theta_jl == theta_jl theta_il theta_ij on index
    # triples (x, y, z) for colors i < j < l, rightmost factor applied first.
    for i, j, l in itertools.combinations(range(1, k + 1), 3):
        t_ij, t_il, t_jl = theta[(i, j)], theta[(i, l)], theta[(j, l)]
        triples = itertools.product(range(1, m[i - 1] + 1),
                                    range(1, m[j - 1] + 1),
                                    range(1, m[l - 1] + 1))
        for x, y, z in triples:
            # left composite
            y1, z1 = t_jl[(y, z)]
            x1, z2 = t_il[(x, z1)]
            x2, y2 = t_ij[(x1, y1)]
            left = (x2, y2, z2)
            # right composite
            x3, y3 = t_ij[(x, y)]
            x4, z3 = t_il[(x3, z)]
            y4, z4 = t_jl[(y3, z3)]
            right = (x4, y4, z4)
            if left != right:
                raise CubicViolation((i, j, l), (x, y, z), left, right)


def validate_presentation(k: int, m: Iterable[int], theta: Theta) -> Presentation:
    """Validate raw presentation data and build a Presentation.

    theta maps (i, j) with i < j to {(s, t): (s', t')}.  Raises
    InvalidPermutation / CubicViolation on bad data, so the returned value
    is always a genuine k-graph.
    """
    m = tuple(m)
    if k < 1:
        raise PresentationError(f"need k >= 1, got {k}")
    if len(m) != k or any(mi < 1 for mi in m):
        raise PresentationError(f"multiplicities {m} invalid for k={k}")
    expected_pairs = {(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    if set(theta) != expected_pairs:
        raise PresentationError(
            f"theta must have exactly the pairs {sorted(expected_pairs)}, got {sorted(theta)}")
    for (i, j), table in theta.items():
        _check_bijection(i, j, m[i - 1], m[j - 1], table)
    if k >= 3:
        _check_cubic(k, m, theta)

    flat = tuple((i, j, _flatten_table(m[i - 1], m[j - 1], theta[(i, j)]))
                 for (i, j) in sorted(expected_pairs))
    pres = Presentation(k=k, m=m, theta=flat)
    # Adjacent-swap tables.  asc maps an ascending-color letter pair to the
    # equal descending pair; desc is the inverse rewrite (used for sorting).
    asc: dict[tuple[Letter, Letter], tuple[Letter, Letter]] = {}
    desc: dict[tuple[Letter, Letter], tuple[Letter, Letter]] = {}
    for (i, j), table in theta.items():
        for (s, t), (s2, t2) in table.items():
            asc[((i, s), (j, t))] = ((j, t2), (i, s2))
            desc[((j, t2), (i, s2))] = ((i, s), (j, t))
    object.__setattr__(pres, "_asc", asc)
    object.__setattr__(pres, "_desc", desc)
    return pres


def presentation_from_flat(k: int, m: Iterable[int],
                           flat: dict[tuple[int, int], tuple[tuple[int, int], ...]]
                           ) -> Presentation:
    """Rebuild a Presentation from flattened tables (inverse of .theta)."""
    m = tuple(m)
    theta: Theta = {}
    for (i, j), entries in flat.items():
        mj = m[j - 1]
        theta[(i, j)] = {(s, t): entries[(s - 1) * mj + (t - 1)]
                         for s in range(1, m[i - 1] + 1) for t in range(1, mj + 1)}
    return validate_presentation(k, m, theta)


def check_word(P: Presentation, w: Word) -> Word:
    """Verify every letter of w lies in P's index ranges."""
    for c, s in w:
        if not (1 <= c <= P.k) or not (1 <= s <= P.m[c - 1]):
            raise WordError(f"letter {(c, s)} outside presentation ranges")
    return w


def degree(P: Presentation, w: Word) -> Degree:
    """Per-color letter counts of w."""
    counts = [0] * P.k
    for c, _ in w:
        counts[c - 1] += 1
    return tuple(counts)


def degree_total(n: Degree) -> int:
    return sum(n)


def deg_add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def deg_sub(a: Degree, b: Degree) -> Degree:
    return tuple(x - y for x, y in zip(a, b))


def deg_join(a: Degree, b: Degree) -> Degree:
    return tuple(max(x, y) for x, y in zip(a, b))


def deg_le(a: Degree, b: Degree) -> bool:
    return all(x <= y for x, y in zip(a, b))


def concat(P: Presentation, w1: Word, w2: Word) -> Word:
    """Concatenation (the semigroup product before normalization)."""
    check_word(P, w1)
    check_word(P, w2)
    return w1 + w2


def normal_form(P: Presentation, w: Word) -> Word:
    """The unique color-sorted representative of w's semigroup element.

    Insertion sort by color via adjacent swaps; each swap applies the
    inverse commutation table, so every intermediate word is equal to w in
    the semigroup.  Letters of equal color never cross (no relations
    within a family), and unique factorization makes the result
    independent of the swap order.
    """
    desc = P._desc
    out: list[Letter] = []
    for letter in w:
        out.append(letter)
        pos = len(out) - 1
        while pos > 0 and out[pos - 1][0] > out[pos][0]:
            out[pos - 1], out[pos] = desc[(out[pos - 1], out[pos])]
            pos -= 1
    return tuple(out)


def is_normal_form(w: Word) -> bool:
    return all(w[i][0] <= w[i + 1][0] for i in range(len(w) - 1))


def words_equal(P: Presentation, w1: Word, w2: Word) -> bool:
    """Equality in the semigroup: identical normal forms."""
    if degree(P, w1) != degree(P, w2):
        return False
    return normal_form(P, w1) == normal_form(P, w2)


def extract_prefix(P: Presentation, w: Word, n: Degree) -> tuple[Word, Word]:
    """The unique factorization w = u v with degree(u) = n.

    Pulls, for each color in ascending order, the leftmost letter of that
    color to the front by adjacent swaps.  The resulting prefix is in
    normal form; the suffix is normalized before returning.  Uniqueness of
    the factorization makes the result strategy-independent.

    The prefix grows in place in front of `front`.  A swap keeps the
    colors of the letters the pulled one passes (each shifts right by
    one), so the next letter of the same color lies beyond the previous
    one's old position and the scan for it never restarts.
    """
    if len(n) != P.k:
        raise NotAPrefix(f"degree {n} has wrong length for k={P.k}")
    d = degree(P, w)
    if not all(0 <= x <= y for x, y in zip(n, d)):
        raise NotAPrefix(f"{n} is not componentwise between 0 and {d}")
    asc, desc = P._asc, P._desc
    rest = list(w)
    front = 0
    for color, count in enumerate(n, start=1):
        scan = front
        for _ in range(count):
            while rest[scan][0] != color:
                scan += 1
            for q in range(scan, front, -1):
                pair = (rest[q - 1], rest[q])
                rest[q - 1], rest[q] = asc[pair] if pair[0][0] < color else desc[pair]
            front += 1
            scan += 1
    return tuple(rest[:front]), normal_form(P, tuple(rest[front:]))


def random_sort(P: Presentation, w: Word, rng) -> Word:
    """Sort w by color using randomly chosen admissible adjacent swaps.

    On a valid presentation this agrees with normal_form whatever the
    random choices (confluence); used as a test oracle.
    """
    desc = P._desc
    out = list(w)
    while True:
        sites = [q for q in range(len(out) - 1) if out[q][0] > out[q + 1][0]]
        if not sites:
            return tuple(out)
        q = rng.choice(sites)
        out[q], out[q + 1] = desc[(out[q], out[q + 1])]


def words_of_degree(P: Presentation, n: Degree) -> Iterator[Word]:
    """All normal-form words of the given degree, in lexicographic order."""
    index_ranges: list[list[Letter]] = []
    for color in range(1, P.k + 1):
        index_ranges.extend([[(color, s) for s in range(1, P.m[color - 1] + 1)]] * n[color - 1])
    for combo in itertools.product(*index_ranges):
        yield tuple(combo)
