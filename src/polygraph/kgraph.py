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
plain tuples of letters; all functions return new tuples.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .budget import budget
from .errors import InputError, Rejected

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Degree = tuple[int, ...]


class PresentationError(Rejected, ValueError):
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


class NotAPrefix(InputError, ValueError):
    """Requested prefix degree is not componentwise below the word degree."""


class WordError(InputError, ValueError):
    """A word does not belong to the given presentation."""


Theta = dict[tuple[int, int], dict[tuple[int, int], tuple[int, int]]]
Code = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    """A validated single-vertex k-graph presentation: k, m and the codes
    (see the table codec below) of the tables of the color pairs i < j in
    color-pair order, which alone make up `==` and `hash`.  Construct
    through :func:`presentation_from_codes` or :func:`validate_presentation`,
    which check bijectivity and (for k >= 3) the cubic condition, so every
    Presentation value is a k-graph.  The adjacent-swap table the word
    functions use is built on first use (:meth:`swaps`), so a presentation
    that only takes part in a census never builds one."""

    k: int
    m: tuple[int, ...]
    codes: tuple[Code, ...]
    # The adjacent-swap table, derived from codes and built on first use by
    # swaps(): each ascending-color letter pair maps to the equal descending
    # pair and back (keys never collide).  normal_form, extract_prefix and
    # theta_apply read it as `P._swap or P.swaps()`, a plain attribute read
    # once it is built; other readers call swaps().
    _swap: dict | None = field(default=None, init=False, repr=False, compare=False)

    def swaps(self) -> dict[tuple[Letter, Letter], tuple[Letter, Letter]]:
        """The adjacent-swap table, built and kept on the first call."""
        if self._swap is not None:
            return self._swap
        swap: dict[tuple[Letter, Letter], tuple[Letter, Letter]] = {}
        for (i, j), code in zip(color_pairs(self.k), self.codes):
            domain = cells(self.m[i - 1], self.m[j - 1])
            for (s, t), q in zip(domain, code):
                s2, t2 = domain[q]
                up, down = ((i, s), (j, t)), ((j, t2), (i, s2))
                swap[up] = down
                swap[down] = up
        object.__setattr__(self, "_swap", swap)
        return swap

    def table(self, i: int, j: int) -> dict[tuple[int, int], tuple[int, int]]:
        """The permutation {(s,t): (s',t')} for the color pair i < j."""
        if not 1 <= i < j <= self.k:
            raise KeyError((i, j))
        domain = cells(self.m[i - 1], self.m[j - 1])
        # the number of (i, j) in color_pairs order: (i - 1) k - C(i, 2) pairs come first
        code = self.codes[(i - 1) * (2 * self.k - i) // 2 + j - i - 1]
        return {cell: domain[q] for cell, q in zip(domain, code)}

    def theta_apply(self, i: int, j: int, s: int, t: int) -> tuple[int, int]:
        """(s', t') with (i,s)(j,t) = (j,t')(i,s') for colors i < j."""
        (_, t2), (_, s2) = (self._swap or self.swaps())[((i, s), (j, t))]
        return (s2, t2)

    def letters(self) -> Iterator[Letter]:
        """All generators, color by color."""
        for c in range(1, self.k + 1):
            for s in range(1, self.m[c - 1] + 1):
                yield (c, s)

    def zero(self) -> Degree:
        return (0,) * self.k


# The table codec.  Cell q of the domain {1..m_i} x {1..m_j} is
# (q // m_j + 1, q % m_j + 1), and a table is coded as the tuple whose
# entry q is the cell number of its value at cell q.  Cell numbers order
# cells lexicographically, so codes order tables as their flattened value
# sequences do.

@functools.cache
def color_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The color pairs (i, j), i < j, in lexicographic order."""
    return tuple(itertools.combinations(range(1, k + 1), 2))


@functools.lru_cache(maxsize=64)
def cells(m_i: int, m_j: int) -> tuple[tuple[int, int], ...]:
    """The domain {1..m_i} x {1..m_j} in cell-number order (also the order
    of Presentation.table's keys)."""
    return tuple(itertools.product(range(1, m_i + 1), range(1, m_j + 1)))


@functools.lru_cache(maxsize=64)
def _cell_numbers(m_i: int, m_j: int) -> dict[tuple[int, int], int]:
    return {cell: q for q, cell in enumerate(cells(m_i, m_j))}


def _encode_table(i: int, j: int, m_i: int, m_j: int,
                  table: dict[tuple[int, int], tuple[int, int]]) -> Code:
    """The code of a table, which must be a bijection of the domain."""
    numbers = _cell_numbers(m_i, m_j)
    if table.keys() != numbers.keys():
        missing = sorted(numbers.keys() - table.keys())
        extra = sorted(table.keys() - numbers.keys())
        raise InvalidPermutation(i, j, f"domain mismatch (missing {missing}, extra {extra})")
    code = tuple([numbers.get(table[cell], -1) for cell in numbers])
    if -1 in code or len(set(code)) != len(code):
        raise InvalidPermutation(i, j)
    return code


@functools.lru_cache(maxsize=16)
def _color_triples(m: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int], int, int, int], ...]:
    """Each color triple i < j < l with the numbers of its pairs ij, il, jl,
    but for those of three ones, whose identity tables pass the cubic
    condition: after a pair of ones, only the wider colors l are taken."""
    number = {pair: n for n, pair in enumerate(color_pairs(len(m)))}
    wide = [c for c, mc in enumerate(m, 1) if mc > 1]
    return tuple(((i, j, l), number[i, j], number[i, l], number[j, l])
                 for i, j in number
                 for l in (range(j + 1, len(m) + 1) if m[i - 1] > 1 or m[j - 1] > 1
                           else wide[bisect.bisect(wide, j):]))


@functools.lru_cache(maxsize=4096)
def _lift(factor: str, m_i: int, m_j: int, m_l: int, code: Code) -> Code:
    """The table of the color pair `factor` ("ij", "il" or "jl") of colors
    i < j < l, acting on index triples numbered x m_j m_l + y m_l + z;
    cached, as the validator lifts the same few codes again and again."""
    mjl = m_j * m_l
    if factor == "ij":
        return tuple([c * m_l + z for c in code for z in range(m_l)])
    if factor == "jl":
        return tuple([x + c for x in range(0, m_i * mjl, mjl) for c in code])
    spread = [c // m_l * mjl + c % m_l for c in code]
    return tuple([spread[row + z] + y for row in range(0, len(spread), m_l)
                  for y in range(0, mjl, m_l) for z in range(m_l)])


def _cubic_failure(m: tuple[int, ...], codes: tuple[Code, ...]):
    """The first color triple at which the cubic condition fails, as
    ((i, j, l), (m_i, m_j, m_l), left, right), or None.

    For colors i < j < l, theta_ij theta_il theta_jl must equal
    theta_jl theta_il theta_ij on index triples (x, y, z), rightmost
    factor applied first.  left and right are these composites, composed
    from the lifted tables, on the triples in lexicographic order.
    """
    for (i, j, l), ij, il, jl in _color_triples(m):
        shape = m[i - 1], m[j - 1], m[l - 1]
        t_ij = _lift("ij", *shape, codes[ij])
        t_il = _lift("il", *shape, codes[il])
        t_jl = _lift("jl", *shape, codes[jl])
        left = [t_ij[t_il[p]] for p in t_jl]
        right = [t_jl[t_il[p]] for p in t_ij]
        if left != right:
            return (i, j, l), shape, left, right
    return None


def _check_shape(k: int, m: Iterable[int]) -> tuple[int, ...]:
    """m as a tuple, once k >= 1 and m lists k multiplicities of at least 1."""
    m = tuple(m)
    if k < 1:
        raise PresentationError(f"need k >= 1, got {k}")
    if len(m) != k or any(mi < 1 for mi in m):
        raise PresentationError(f"multiplicities {m} invalid for k={k}")
    return m


def _charge_triples(k: int) -> None:
    """Charge the C(k, 3) color triples of a cubic check to "color triples"."""
    budget("color triples", 1_000_000, [math.comb(k, 3)])


def validate_presentation(k: int, m: Iterable[int], theta: Theta) -> Presentation:
    """Validate raw presentation data and build a Presentation.

    theta maps (i, j) with i < j to {(s, t): (s', t')}.  Unless its keys
    are the k(k-1)/2 color pairs, PresentationError gives their count and
    the first extra or missing pair, found without listing the pairs.
    Past the "color triples" limit, 1M, BudgetExceeded comes before any
    table is encoded.  Tables are encoded in theta's order, so
    InvalidPermutation names the first bad one; the codes are then checked
    by presentation_from_codes.
    """
    m = _check_shape(k, m)
    count = k * (k - 1) // 2
    extra = min((p for p in theta if len(p) != 2 or not 1 <= p[0] < p[1] <= k), default=None)
    missing = (p for p in itertools.combinations(range(1, k + 1), 2) if p not in theta)
    if extra is not None or len(theta) != count:
        first = f"extra pair {extra}" if extra is not None else f"missing pair {next(missing)}"
        raise PresentationError(
            f"theta must have the {count} color pairs i < j, got {len(theta)}; first {first}")
    _charge_triples(k)
    code_of = {(i, j): _encode_table(i, j, m[i - 1], m[j - 1], table)
               for (i, j), table in theta.items()}
    return presentation_from_codes(k, m, [code_of[pair] for pair in color_pairs(k)])


def presentation_from_codes(k: int, m: Iterable[int], codes: Iterable[Code]) -> Presentation:
    """The Presentation with these table codes, in color-pair order, once
    they pass the one validator: PresentationError for a bad shape or code
    count, InvalidPermutation(i, j) unless code ij permutes range(m_i m_j),
    and (for k >= 3) CubicViolation."""
    m = _check_shape(k, m)
    codes = tuple(codes)
    pairs = color_pairs(k)
    if len(codes) != len(pairs):
        raise PresentationError(f"need {len(pairs)} table codes for k={k}, got {len(codes)}")
    for (i, j), code in zip(pairs, codes):
        if sorted(code) != list(range(m[i - 1] * m[j - 1])):
            raise InvalidPermutation(i, j)
    if k >= 3:
        failure = _cubic_failure(m, codes)
        if failure is not None:
            colors, (_, mj, ml), left, right = failure
            p = next(p for p, (a, b) in enumerate(zip(left, right)) if a != b)
            raise CubicViolation(colors, *[(q // (mj * ml) + 1, q // ml % mj + 1, q % ml + 1)
                                           for q in (p, left[p], right[p])])
    return Presentation(k, m, codes)


def check_word(P: Presentation, w: Word) -> Word:
    """Verify every letter of w lies in P's index ranges."""
    for c, s in w:
        if not (1 <= c <= P.k) or not (1 <= s <= P.m[c - 1]):
            raise WordError(f"letter {(c, s)} outside presentation ranges")
    return w


def degree(P: Presentation, w: Word) -> Degree:
    """Per-color letter counts of w; a color outside 1..k raises WordError."""
    counts = [0] * P.k
    try:
        for c, s in w:
            if c < 1:
                raise IndexError
            counts[c - 1] += 1
    except IndexError:
        raise WordError(f"letter {(c, s)} outside presentation ranges") from None
    return tuple(counts)


def deg_add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def deg_sub(a: Degree, b: Degree) -> Degree:
    return tuple(x - y for x, y in zip(a, b))


def deg_join(a: Degree, b: Degree) -> Degree:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(P: Presentation, w: Word) -> Word:
    """The unique color-sorted representative of w's semigroup element.

    Insertion sort by color via adjacent swaps; each swap applies the
    inverse commutation table, so every intermediate word is equal to w in
    the semigroup.  Letters of equal color never cross (no relations
    within a family), and unique factorization makes the result
    independent of the swap order.
    """
    swap = P._swap or P.swaps()
    out: list[Letter] = []
    for letter in w:
        out.append(letter)
        pos = len(out) - 1
        while pos > 0 and out[pos - 1][0] > out[pos][0]:
            out[pos - 1], out[pos] = swap[(out[pos - 1], out[pos])]
            pos -= 1
    return tuple(out)


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

    The prefix grows in place in front of `front`.  The pulled letter
    moves left in a local, one swap-table lookup per letter it passes.  A
    swap keeps the colors of the letters the pulled one passes (each
    shifts right by one), so the next letter of the same color lies beyond
    the previous one's old position and the scan for it never restarts.
    The scan is also the range check: a negative entry of n, or a scan
    that runs off the end of w, raises NotAPrefix.
    """
    if len(n) != P.k:
        raise NotAPrefix(f"degree {n} has wrong length for k={P.k}")
    swap = P._swap or P.swaps()
    rest = list(w)
    front = 0
    if min(n) >= 0:
        try:
            for color, count in enumerate(n, start=1):
                scan = front
                for _ in range(count):
                    while rest[scan][0] != color:
                        scan += 1
                    if scan > front:
                        letter = rest[scan]
                        for q in range(scan, front, -1):
                            letter, rest[q] = swap[rest[q - 1], letter]
                        rest[front] = letter
                    front += 1
                    scan += 1
        except IndexError:
            pass
        else:
            return tuple(rest[:front]), normal_form(P, tuple(rest[front:]))
    raise NotAPrefix(f"{n} is not componentwise between 0 and {degree(P, w)}")


def edge_grid(P: Presentation, word: Word, top: Degree
              ) -> tuple[list[list[int]], list[int]]:
    """The edge labels of the normal-form word of degree `top`, off which
    tails.sigma_data and groupcons.from_commuting_words read their values.

    Points p of the box 0 <= p <= top are flattened to sum(p_c strides_c);
    edges[c][p] is the index of the color-(c+1) edge from p to p + e_c
    (left unset where p_c = top_c).  The word traces the staircase
    0 -> top_1 e_1 -> top_1 e_1 + top_2 e_2 -> ... -> top.  Color j is
    then added layer by layer: in the layer p_j = r the known color-i
    edges (i < j) and the staircase's color-j edge at the layer's corner
    determine the rest, points taken in decreasing order, through one
    commutation square per (p, i): the path bottom-then-right,
    (i, edges[i][p]) (j, edges[j][p + e_i]), rewrites to the path
    left-then-top, (j, edges[j][p]) (i, edges[i][p + e_j]).
    """
    k, swap = P.k, P.swaps()
    strides = [0] * k
    size = 1
    for c in reversed(range(k)):
        strides[c] = size
        size *= top[c] + 1
    edges = [[0] * size for _ in range(k)]
    p = 0
    for c, s in word:
        edges[c - 1][p] = s
        p += strides[c - 1]
    for j in range(1, k):
        color_j, edges_j, step_j = j + 1, edges[j], strides[j]
        squares = [(i + 1, edges[i], strides[i]) for i in range(j)]
        below = [range(top[c], -1, -1) for c in range(j)]
        for r in range(top[j]):
            for q in itertools.product(*below):
                p = r * step_j + sum(x * s for x, s in zip(q, strides))
                for (color_i, edges_i, step_i), x, limit in zip(squares, q, top):
                    if x < limit:
                        (_, left), (_, up) = swap[((color_i, edges_i[p]),
                                                   (color_j, edges_j[p + step_i]))]
                        edges_j[p] = left
                        edges_i[p + step_j] = up
    return edges, strides


def words_of_degree(P: Presentation, n: Degree) -> Iterator[Word]:
    """All normal-form words of the given degree, in lexicographic order."""
    index_ranges: list[list[Letter]] = []
    for color in range(1, P.k + 1):
        index_ranges.extend([[(color, s) for s in range(1, P.m[color - 1] + 1)]] * n[color - 1])
    for combo in itertools.product(*index_ranges):
        yield tuple(combo)
