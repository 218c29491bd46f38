"""Defect-free atomic representations modelled on finite abelian groups.

A group construction on G = Z^k/K (K a full-rank kernel lattice) assigns
to each color i an index function t^i: G -> {1..m_i} and a phase function
alpha^i: G -> Q/Z, acting on basis vectors by

    (color-i letter with index t) . xi_{g - g_i} = [t = t^i_g] e(alpha^i_g) xi_g

where g_i is the image of the i-th standard generator.  The commutation
tables force, for every g and every color pair i < j,

    theta_ij(t^i_g, t^j_{g-g_i}) = (t^i_{g-g_j}, t^j_g)
    alpha^i_g + alpha^j_{g-g_i} = alpha^j_g + alpha^i_{g-g_j}   (mod 1).

Such a construction is the restriction-to-window of an atomic
*-representation, and commuting words w_1, ..., w_k give one read off
the edge grid of w_1 ... w_k, which holds one period of the window data
of their periodic tail.  With constant phases it is irreducible iff
its translation symmetry subgroup is trivial, and in general it splits
over the characters of that subgroup into irreducible constructions on
the quotient; other phases are first made constant by a diagonal unitary.

A construction stores its phases as integer numerators over one level N
in lowest terms: the integer a stands for a / N.  Phases enter as
Fractions or ints, any representative mod 1, and leave as Fractions in
[0, 1) only through `alpha`; every check and walk reads the integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Callable

from .budget import budget, steps
from .errors import InvalidArgument, Rejected
from .intlinalg import Mat, Vec, hermite_normal_form, reduce_mod, solve_integer
from .kgraph import (
    Presentation,
    Word,
    check_word,
    degree,
    edge_grid,
    extract_prefix,
    normal_form,
    words_equal,
)


class InvalidConstruction(Rejected, ValueError):
    """Group construction data violating the commutation conditions."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class NotCommuting(Rejected, ValueError):
    """The given per-color words do not pairwise commute."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z^k modulo a full-rank kernel lattice, with materialized elements.

    Canonical coset representatives are the box vectors below the Hermite
    pivots; elements are indexed in lexicographic order of those vectors.
    `k` and `kernel` alone make up `==` and `hash`; the tables are derived
    from them.  Construct through :meth:`from_kernel`.
    """

    k: int
    kernel: Mat  # row-style HNF, full rank k
    _elements: tuple[Vec, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _sub: tuple = field(init=False, repr=False, compare=False)  # _sub[i][g] = index of g - g_i

    def __post_init__(self):
        k, hnf = self.k, self.kernel
        d = [hnf[i][i] for i in range(k)]
        elements = tuple(itertools.product(*map(range, d)))
        index = {e: n for n, e in enumerate(elements)}
        # g - g_i is the element stride_i places back, unless g_i = 0 wraps
        strides = [prod(d[i + 1:]) for i in range(k)]
        sub = tuple(tuple(n - strides[i] if g[i] else
                          index[reduce_mod(hnf, g[:i] + (-1,) + g[i + 1:])[1]]
                          for n, g in enumerate(elements)) for i in range(k))
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_sub", sub)

    @staticmethod
    def from_kernel(kernel_rows: list[Vec] | Mat) -> "FiniteAbelianGroup":
        hnf = hermite_normal_form(kernel_rows)
        if not hnf or len(hnf) != len(hnf[0]):
            raise InvalidArgument(f"kernel {kernel_rows} is not full rank; quotient is infinite")
        # a square echelon basis has its pivots on the diagonal
        budget("group order", 1_000_000, (hnf[i][i] for i in range(len(hnf))))
        return FiniteAbelianGroup(len(hnf), hnf)

    @staticmethod
    def cyclic_product(orders: list[int]) -> "FiniteAbelianGroup":
        k = len(orders)
        rows = [tuple(orders[i] if j == i else 0 for j in range(k)) for i in range(k)]
        return FiniteAbelianGroup.from_kernel(rows)

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[Vec, ...]:
        return self._elements

    def reduce(self, v: Vec) -> Vec:
        return reduce_mod(self.kernel, v)[1]

    def index(self, v: Vec) -> int:
        return self._index[self.reduce(v)]

    def sub_generator(self, g_index: int, color: int) -> int:
        """Index of (element #g_index) - g_color, colors 1-based."""
        return self._sub[color - 1][g_index]

    def generator_order(self, color: int) -> int:
        """The length of the cycle of g -> g - g_color through 0."""
        sub = self._sub[color - 1]
        n, order = sub[0], 1
        while n:
            n, order = sub[n], order + 1
        return order


@dataclass(frozen=True)
class GroupConstruction:
    """A validated group construction (see module docstring).

    t[i-1] and phases[i-1] are tuples over element index, alpha^i_g being
    phases[i-1][g] / level with gcd(level, *phases) == 1; construct via
    :func:`group_construction`, which validates the commutation data.
    """

    presentation: Presentation
    group: FiniteAbelianGroup
    t: tuple[tuple[int, ...], ...]
    level: int
    phases: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.group.order

    @cached_property
    def alpha(self) -> tuple[tuple[Fraction, ...], ...]:
        """The phases as Fractions in [0, 1), one Fraction per distinct value."""
        value = {a: Fraction(a, self.level) for a in set(itertools.chain(*self.phases))}
        return tuple(tuple(map(value.__getitem__, row)) for row in self.phases)


def _words_witness(P: Presentation, G: FiniteAbelianGroup, t) -> tuple | None:
    """First violation of the index conditions, or None: ("shape" | "range" |
    "words", element vector, i, j, lhs, rhs), k rows of |G| entries first."""
    if G.k != P.k:
        return ("shape", None, 0, 0, G.k, P.k)
    if len(t) != P.k:
        return ("shape", None, 0, 0, len(t), P.k)
    for i in range(1, P.k + 1):
        if len(t[i - 1]) != G.order:
            return ("shape", None, i, 0, len(t[i - 1]), G.order)
        for v in t[i - 1]:
            if not 1 <= v <= P.m[i - 1]:
                return ("range", None, i, 0, v, P.m[i - 1])
    for gi, gvec in enumerate(G.elements):
        for i, j in itertools.combinations(range(1, P.k + 1), 2):
            lhs = (t[i - 1][gi], t[j - 1][G._sub[i - 1][gi]])
            rhs = (t[i - 1][G._sub[j - 1][gi]], t[j - 1][gi])
            if P.theta_apply(i, j, *lhs) != rhs:
                return ("words", gvec, i, j, lhs, rhs)
    return None


def _scalars_witness(G: FiniteAbelianGroup, den: int, a: list) -> tuple | None:
    """The scalar half on the phases a / den, given as integer numerators: a
    "shape" witness, a "scalars" one with Fraction sides, or None."""
    if len(a) != G.k:
        return ("shape", None, 0, 0, len(a), G.k)
    for i, row in enumerate(a, start=1):
        if len(row) != G.order:
            return ("shape", None, i, 0, len(row), G.order)
    for gi, gvec in enumerate(G.elements):
        for i, j in itertools.combinations(range(1, G.k + 1), 2):
            a_lhs = (a[i - 1][gi] + a[j - 1][G._sub[i - 1][gi]]) % den
            a_rhs = (a[j - 1][gi] + a[i - 1][G._sub[j - 1][gi]]) % den
            if a_lhs != a_rhs:
                return ("scalars", gvec, i, j, Fraction(a_lhs, den), Fraction(a_rhs, den))
    return None


def _numerators(rows) -> tuple[int, list[list[int]]]:
    """Phase rows of Fractions or ints as integer numerators in [0, N) over
    N, the lcm of the denominators: a stands for a / N, and as each input
    is in lowest terms, so is the result."""
    N = lcm(*{a.denominator for row in rows for a in row})
    return N, [[a.numerator * (N // a.denominator) % N for a in row] for row in rows]


def _raise_on(witness: tuple | None) -> None:
    if witness is not None:
        raise InvalidConstruction(f"commutation condition fails: {witness}", witness)


def group_construction(P: Presentation, G: FiniteAbelianGroup, t, alpha
                       ) -> GroupConstruction:
    """The construction with index rows t and phase rows alpha (Fractions or
    ints), after checking the words conditions, then the scalar ones."""
    t = tuple(tuple(row) for row in t)
    level, phases = _numerators(alpha)
    _raise_on(_words_witness(P, G, t) or _scalars_witness(G, level, phases))
    return GroupConstruction(P, G, t, level, tuple(map(tuple, phases)))


def _constant_construction(P: Presentation, G: FiniteAbelianGroup, t, constants
                           ) -> GroupConstruction:
    """The construction with phase constants[i] on every color-(i+1) edge.
    Constant phases close every scalar square, so only the words are checked."""
    t = tuple(tuple(row) for row in t)
    _raise_on(_words_witness(P, G, t))
    level, (c,) = _numerators([constants])
    return GroupConstruction(P, G, t, level, tuple((a,) * G.order for a in c))


def _check_pure(words: list[Word], what: str) -> None:
    """InvalidArgument unless each words[i - 1] has letters of color i only."""
    for i, w in enumerate(words, start=1):
        for c, _ in w:
            if c != i:
                raise InvalidArgument(f"{what} {i} contains a letter of color {c}")


def words_commute(P: Presentation, words: list[Word]) -> bool:
    """Pairwise commutation of per-color words (word i pure color i)."""
    _check_pure(words, "word")
    for a, b in itertools.combinations(words, 2):
        if not words_equal(P, a + b, b + a):
            return False
    return True


def from_commuting_words(P: Presentation, words: list[Word],
                         alphas: list | None = None) -> GroupConstruction:
    """The unique group construction on C_{n_1} x ... x C_{n_k} whose base
    point is fixed by the given commuting words, with the constant phase
    alphas[i - 1] (a Fraction or int; default 0) on color i.

    t^i_g is the index of the color-i edge leaving the point p with
    p_j = (-g_j) mod n_j in the edge grid of w = w_1 ... w_k, of degree
    (n_1, ..., n_k): the window data at -p of the periodic tail
    x = w^infinity, since x = w x makes w the prefix of x of that degree.
    The reading is well defined on G: as w_i commutes with every word,
    x = w_i x, so the color-i edge leaving p + n_i e_i in x's grid is the
    one leaving p.  Thus x's grid is periodic under every n_i e_i, and the
    points 0 <= p_j < n_j of w's grid hold one period of it.
    """
    if len(words) != P.k or any(not w for w in words):
        raise InvalidArgument("need one nonempty word per color")
    if alphas is not None and len(alphas) != P.k:
        raise InvalidArgument(f"need one phase per color, got {len(alphas)}")
    for w in words:
        check_word(P, w)
    lengths = [len(w) for w in words]
    G = FiniteAbelianGroup.cyclic_product(lengths)
    if not words_commute(P, words):
        raise NotCommuting(f"words {words} do not pairwise commute")
    edges, strides = edge_grid(P, normal_form(P, tuple(itertools.chain(*words))), lengths)
    points = [sum((-x % n) * s for x, n, s in zip(g, lengths, strides)) for g in G.elements]
    t = ([e[p] for p in points] for e in edges)
    return _constant_construction(P, G, t, alphas or [0] * P.k)


def cycle_construction(P: Presentation, seeds: list[Word]
                       ) -> tuple[list[Word], list[int]]:
    """Iterate the commutation permutation on word tuples until the cycle
    closes, producing a pairwise commuting family (one pure word per
    color) from arbitrary nonempty seeds.

    A stage cycles (family, c, d), c pure: c d = d' c', and c passes
    through each family word.  Stage one starts at (seed_1, the other
    seeds' product) with no family; each stage adds the product of its c's
    and splits off the first pure color of its d's product for the next.

    Returns (words, cycle lengths per stage).  Raises BudgetExceeded when
    a cycle does not close within the "cycle steps" limit (100,000).
    """
    if len(seeds) != P.k or any(not s for s in seeds):
        raise InvalidArgument("need one nonempty seed word per color")
    for w in seeds:
        check_word(P, w)
    _check_pure(seeds, "seed")
    if P.k == 1:
        return list(seeds), []

    lengths: list[int] = []
    family: list[Word] = []
    c0, d0 = seeds[0], normal_form(P, tuple(itertools.chain(*seeds[1:])))
    while True:
        avec = avec0 = tuple(family)
        c_cur, d_cur = c0, d0
        parts_c, parts_d = [], []
        for _ in steps("cycle steps", 100_000):
            parts_c.append(c_cur)
            parts_d.append(d_cur)
            d_new, c_new = extract_prefix(P, normal_form(P, c_cur + d_cur), degree(P, d_cur))
            a_new = []
            for aw in avec:
                head, rest = extract_prefix(P, normal_form(P, c_cur + aw), degree(P, aw))
                if rest != c_cur:
                    raise InvalidConstruction(
                        f"family word {aw} failed to pass the cycle word {c_cur}")
                a_new.append(head)
            avec, c_cur, d_cur = tuple(a_new), c_new, d_new
            if (avec, c_cur, d_cur) == (avec0, c0, d0):
                break
        lengths.append(len(parts_c))
        family.append(tuple(itertools.chain(*reversed(parts_c))))
        rem = normal_form(P, tuple(itertools.chain(*parts_d)))
        rem_deg = degree(P, rem)
        colors = [c for c in range(1, P.k + 1) if rem_deg[c - 1] > 0]
        if len(colors) == 1:
            family.append(rem)
            break
        head_deg = tuple(0 if c == colors[0] else d for c, d in enumerate(rem_deg, start=1))
        d0, c0 = extract_prefix(P, rem, head_deg)

    if not words_commute(P, family):
        raise InvalidConstruction("cycle construction produced a non-commuting family")
    return family, lengths


def full_symmetry_subgroup(gc: GroupConstruction) -> list[Vec]:
    """All h in G with every t^i and alpha^i invariant under translation
    by h, in element order: a subgroup, as the conditions compose."""
    return _translation_symmetry(gc.group, gc.t + gc.phases)


def _translation_symmetry(G: FiniteAbelianGroup, rows) -> list[Vec]:
    """All h in G with every row (a function of the element index)
    invariant under translation by h, in element order.

    Each element carries the label (row values at it); only the h labelled
    like 0 are candidates, each checked along the spanning tree
    parent(g) = g - g_c (c the last nonzero coordinate of g, so parents
    precede children in element order): the translate of g + h is one
    generator step from that of parent(g) + h.  The walk stops at the first
    label that moves.  Once h passes, its walk has filled shift(g) = g + h,
    and the cosets S + h, S + 2h, ... of the members S found so far are
    marked; marked candidates are members without a walk.
    """
    ids: dict = {}
    label = [ids.setdefault(lab, len(ids)) for lab in zip(*rows)]
    # add[c][n] = index of (element #n) + g_c: the inverse permutation of _sub[c]
    add = [sorted(range(G.order), key=sub.__getitem__) for sub in G._sub]
    tree = []  # (n, add_c, parent index) for every nonzero element, in order
    for n, g in enumerate(G.elements[1:], start=1):
        c = G.k - 1
        while not g[c]:
            c -= 1
        tree.append((n, add[c], G._sub[c][n]))
    found, member = [0], [1] + [0] * (G.order - 1)  # the members so far
    shift = [0] * G.order  # shift[n] = index of (element #n) + h
    for h_index in range(1, G.order):
        if member[h_index] or label[h_index] != label[0]:
            continue
        shift[0] = h_index
        for n, add_c, parent in tree:
            s = add_c[shift[parent]]
            if label[s] != label[n]:
                break
            shift[n] = s
        else:
            coset, grown = found, []
            while not member[(coset := [shift[x] for x in coset])[0]]:
                for x in coset:
                    member[x] = 1
                grown += coset
            found += grown
    return [g for g, m in zip(G.elements, member) if m]


def normalize_scalars(gc: GroupConstruction) -> GroupConstruction:
    """A unitarily equivalent construction with constant alpha functions.

    Already-constant constructions are returned unchanged.  Otherwise
    :func:`_phase_potential` writes alpha^i_g = c_i + f(g) - f(g - g_i);
    the diagonal rescale by e(-f) leaves the constants c, and loop phases
    are preserved because they only see c.
    """
    G = gc.group
    if all(len(set(row)) == 1 for row in gc.phases):
        return gc
    c, _ = _phase_potential(G, {i * G.order + n: a for i, row in enumerate(gc.alpha)
                                for n, a in enumerate(row)})
    return _constant_construction(gc.presentation, G, gc.t, c)


@dataclass(frozen=True)
class DecompositionReport:
    """Splitting of a construction over the characters of its symmetry."""

    symmetry: tuple[Vec, ...]  # elements of the full symmetry subgroup
    summands: tuple[GroupConstruction, ...]

    @property
    def dimensions(self) -> list[int]:
        return [s.dimension for s in self.summands]


def decompose(gc: GroupConstruction) -> DecompositionReport:
    """Split over the dual of the full symmetry subgroup H.

    Phases are first made constant by :func:`normalize_scalars`, so H is
    the symmetry of t alone.  Each character chi of H, in the order of
    :func:`_quotient_characters`, yields a construction on G/H with the
    same index functions and constants twisted by chi through the
    canonical section; their dimensions sum to |G|.  All summands share t
    on G/H: its words conditions are checked once, and one walk finds its
    symmetry, which holds every summand's, trivial, so the summands are
    irreducible.  With characters at level e, each twisted constant is one
    integer dot product mod N = lcm(e, phases), on which the scalar
    conditions are checked.
    """
    G, P = gc.group, gc.presentation
    constant = normalize_scalars(gc)
    sym = _translation_symmetry(G, gc.t)
    kernel2 = hermite_normal_form(list(G.kernel) + sym)
    G2 = FiniteAbelianGroup.from_kernel(kernel2)
    e, characters = _quotient_characters(G.kernel, kernel2)
    N = lcm(constant.level, e)
    const = [row[0] * (N // constant.level) for row in constant.phases]
    characters = [[x * (N // e) for x in chi] for chi in characters]

    t2 = tuple(tuple(row[G.index(c)] for c in G2.elements) for row in gc.t)
    _raise_on(_words_witness(P, G2, t2))
    kept = _translation_symmetry(G2, t2)
    if len(kept) != 1:
        raise InvalidConstruction(f"t keeps the nontrivial symmetry {kept} on the "
                                  "quotient; the parent symmetry was incomplete")
    # The coefficients over kernel2 of each section correction do not
    # depend on chi: solve for them once, then one dot product per chi.
    steps = []  # coefficients of the step's correction (c - g_i, reduced) + e_i - c
    for i, sub in enumerate(G2._sub):
        eps = tuple(int(j == i) for j in range(P.k))
        steps.append([_kernel_coeffs(kernel2, tuple(x + y - z for x, y, z in
                                                    zip(G2.elements[s], eps, c)))
                      for s, c in zip(sub, G2.elements)])
    summands = []
    for chi in characters:
        a2 = [[(a + sum(map(mul, coeffs, chi))) % N for coeffs in srow]
              for a, srow in zip(const, steps)]
        _raise_on(_scalars_witness(G2, N, a2))
        d = gcd(N, *itertools.chain(*a2))
        summands.append(GroupConstruction(P, G2, t2, N // d,
                                          tuple(tuple(a // d for a in row) for row in a2)))
    report = DecompositionReport(symmetry=tuple(sym), summands=tuple(summands))
    assert sum(report.dimensions) == G.order, "dimension count mismatch"
    return report


def _quotient_characters(kernel: Mat, kernel2: Mat) -> tuple[int, list[Vec]]:
    """Characters chi = x / e of kernel2/kernel (values on the kernel2 rows,
    kernel . chi = 0 mod 1) as integer vectors x, e = |kernel2/kernel|.

    With the kernel rows written in kernel2 coordinates, their Hermite form
    H is upper triangular with diagonal d, and chi is a character iff
    H chi = j is integral.  Back-substitution from the last row, as in
    :func:`_phase_potential`, gives x_i = (j_i e - sum_{l>i} H_il x_l) / d_i
    mod e, an exact division: e and each x_l are multiples of every d_i
    with i < l.  Walking j_i over range(d_i), lexicographically, meets each
    character once, the trivial one first.
    """
    H = hermite_normal_form([_kernel_coeffs(kernel2, row) for row in kernel])
    d = [H[i][i] for i in range(len(H))]
    e = prod(d)
    characters = []
    for j in itertools.product(*map(range, d)):
        x = [0] * len(d)
        for i in reversed(range(len(d))):
            x[i] = (j[i] * e - sum(map(mul, H[i][i + 1:], x[i + 1:]))) // d[i] % e
        characters.append(tuple(x))
    return e, characters


def _kernel_coeffs(kernel2: Mat, h: Vec) -> Vec:
    coeffs = solve_integer(kernel2, h)
    assert coeffs is not None, f"{h} is not in the symmetry kernel"
    return coeffs


@dataclass
class PartialConstruction:
    """Partially defined construction data over a finite group.

    t maps (color, canonical element vector) to an index; alpha likewise
    to a phase.  Slots absent from t are undetermined.
    """

    group: FiniteAbelianGroup
    t: dict
    alpha: dict


def extend_to_group(P: Presentation, partial: PartialConstruction,
                    symmetry: list[Vec] | None = None) -> GroupConstruction:
    """Extend partially defined data to a full group construction.

    The runnable form of the dilation step: :func:`_solve_indices`
    completes the index slots and :func:`_solve_phases` the phases, as a
    character plus a potential from :func:`_phase_potential`.  Both
    are complete, so InvalidConstruction means that no extension exists; a
    search past the "branch nodes" limit (1M) raises BudgetExceeded.  With
    `symmetry` generators given, the data is collapsed to the quotient by
    them first and the solution unfolded afterwards, so the result has
    full symmetry containing them.
    """
    G = Q = partial.group
    if G.k != P.k:
        raise InvalidConstruction(f"group of rank {G.k} for a {P.k}-graph")
    if symmetry:
        Q = FiniteAbelianGroup.from_kernel(
            hermite_normal_form(list(G.kernel) + [G.reduce(h) for h in symmetry]))
    t = _solve_indices(P, Q, _slots(Q, partial.t, int))
    alpha = _solve_phases(Q, _slots(Q, partial.alpha, lambda a: Fraction(a) % 1))
    lift = [Q.index(g) for g in G.elements]
    return group_construction(P, G, [[row[n] for n in lift] for row in t],
                              [[row[n] for n in lift] for row in alpha])


def _slots(Q: FiniteAbelianGroup, data: dict, convert) -> dict:
    """{slot: value} on Q for data keyed by (color, element); slot (i, q) is
    numbered (i - 1) |Q| + index(q)."""
    out: dict = {}
    for (i, g), v in data.items():
        if out.setdefault((i - 1) * Q.order + Q.index(g), convert(v)) != convert(v):
            raise InvalidConstruction(f"data at {(i, g)} disagrees with its coset")
    return out


def _squares(G: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """(i, j, a, b, c, d) per element g and colors i < j: the slots of
    theta_ij(t^i_g, t^j_{g-g_i}) = (t^i_{g-g_j}, t^j_g), in that order."""
    N = G.order
    return [(i, j, (i - 1) * N + n, (j - 1) * N + G._sub[i - 1][n],
             (i - 1) * N + G._sub[j - 1][n], (j - 1) * N + n)
            for n in range(N) for i in range(1, G.k + 1) for j in range(i + 1, G.k + 1)]


def _solve_indices(P: Presentation, G: FiniteAbelianGroup, given: dict
                   ) -> list[list[int]]:
    """Complete the index slots from the given {slot: index}.

    A commutation square is a bijection between its two sides, so a known
    side fixes the other.  Assignments propagate through the squares until
    nothing changes or a square contradicts its data; then the first open
    slot is branched on, values 1..m_i in turn, undoing the trail on a
    contradiction.  The axis slots t^i at -c g_i come first, shortest axis
    first: once one axis is known, each slot of the next closes a band of
    squares around it, so a wrong value shows after one wrap of that band.
    """
    N = G.order
    m = [P.m[s // N] for s in range(G.k * N)]
    if any(not 1 <= v <= m[s] for s, v in given.items()):
        raise InvalidConstruction("a given index is out of range")
    val = [0] * len(m)  # 0 = open
    at: list[list] = [[] for _ in m]
    for sq in _squares(G):
        for s in sq[2:]:
            at[s].append(sq)
    trail: list[int] = []
    swap = P.swaps()

    def assign(queue: list) -> bool:
        while queue:
            s, v = queue.pop()
            if val[s]:
                if val[s] != v:
                    return False
                continue
            val[s] = v
            trail.append(s)
            for i, j, a, b, c, d in at[s]:
                if val[a] and val[b]:
                    (_, vd), (_, vc) = swap[((i, val[a]), (j, val[b]))]
                    queue += ((c, vc), (d, vd))
                elif val[c] and val[d]:
                    (_, va), (_, vb) = swap[((j, val[d]), (i, val[c]))]
                    queue += ((a, va), (b, vb))
        return True

    if not assign(list(given.items())):
        raise InvalidConstruction("the given indices break a commutation square")
    axes = [(i - 1) * N + G.index(tuple(-c if j == i - 1 else 0 for j in range(G.k)))
            for i in sorted(range(1, G.k + 1), key=G.generator_order)
            for c in range(G.generator_order(i))]
    order = list(dict.fromkeys(axes + list(range(len(m)))))
    nodes = steps("branch nodes", 1_000_000)
    stack: list[list[int]] = []  # [slot, next value, trail length before it]
    while (s := next((s for s in order if not val[s]), None)) is not None:
        stack.append([s, 1, len(trail)])
        while stack:
            s, v, mark = stack[-1]
            while len(trail) > mark:
                val[trail.pop()] = 0
            if v > m[s]:
                stack.pop()
                continue
            next(nodes)
            stack[-1][1] = v + 1
            if assign([(s, v)]):
                break
        else:
            raise InvalidConstruction("no index labelling extends the given data")
    return [val[i * N:(i + 1) * N] for i in range(G.k)]


def _solve_phases(G: FiniteAbelianGroup, given: dict) -> list[list[Fraction]]:
    """Complete the phase slots from the given {slot: phase}.

    The squares are blind to adding a constant per color, so each color's
    first given phase (or 0) is subtracted and the residual is written as
    c_i + f(g) - f(g - g_i) by :func:`_phase_potential`.  A zero residual
    gives c = 0 and f = 0, so constant input stays constant.
    """
    N = G.order
    base = [next((given[s] for s in sorted(given) if s // N == i), 0) for i in range(G.k)]
    c, potential = _phase_potential(G, {s: v - base[s // N] for s, v in given.items()})
    f = [potential(n) for n in range(N)]
    return [[(base[i] + c[i] + f[n] - f[G._sub[i][n]]) % 1 for n in range(N)]
            for i in range(G.k)]


def _phase_potential(G: FiniteAbelianGroup, given: dict
                     ) -> tuple[list[Fraction], Callable[[int], Fraction]]:
    """Constants c and a potential f with alpha^i_g = c_i + f(g) - f(g - g_i)
    (mod 1) on every given {slot: phase}, slots numbered as in :func:`_slots`;
    f is a function of the element index, evaluated only where it is called.

    A closed phase labelling is exactly a character c of Z^k plus the
    coboundary of a potential.  Phases are scaled to integers by their
    common denominator D.  One walk over the given edges writes
    f(g) = q_g / D - v_g . c relative to the root of g's component, v_g
    the lift of the walked path and q_g its scaled phase sum.  An edge
    u -> g of color i then gives the row (w, r), asking w . c = r / D
    (mod 1), with w = v_u + e_i - v_g in K and r = q_u + D alpha - q_g.
    The rows go through the Hermite form together with (0, ..., 0, D): a
    last pivot below D means no c exists.  Otherwise back-substitution
    solves the echelon rows exactly, free columns 0; on full data those
    rows are the kernel rows and their right sides D times the loop phases.
    """
    N, k = G.order, G.k
    D, (scaled,) = _numerators([given.values()])
    edges = [(G._sub[s // N][s % N], s // N, s % N, a) for s, a in zip(given, scaled)]
    adj: list[list] = [[] for _ in range(N)]
    for u, i, g, a in edges:
        adj[u].append((g, i, 1, a))
        adj[g].append((u, i, -1, -a))
    v: list = [None] * N
    q = [0] * N
    for root in range(N):
        if v[root] is not None:
            continue
        v[root], stack = (0,) * k, [root]
        while stack:
            x = stack.pop()
            for y, i, sign, a in adj[x]:
                if v[y] is None:
                    v[y] = tuple(vj + sign * (j == i) for j, vj in enumerate(v[x]))
                    q[y] = q[x] + a
                    stack.append(y)
    rows = [tuple(p + (j == i) - r for j, (p, r) in enumerate(zip(v[u], v[g])))
            + (q[u] + a - q[g],) for u, i, g, a in edges]
    hnf = hermite_normal_form(rows + [(0,) * k + (D,)])
    if hnf[-1][k] != D:
        raise InvalidConstruction("no phase labelling extends the given data")
    c = [Fraction(0)] * k
    for row in reversed(hnf[:-1]):
        p = next(j for j in range(k) if row[j])
        c[p] = (Fraction(row[k], D) - sum(row[j] * c[j] for j in range(p + 1, k))) / row[p]
    c = [x % 1 for x in c]
    return c, lambda n: (Fraction(q[n], D) - sum(x * y for x, y in zip(v[n], c))) % 1


def to_atomic_graph(gc: GroupConstruction) -> dict:
    """The labelled graph of the construction: vertices are group
    elements, one color-i edge into each vertex g from g - g_i."""
    G, N = gc.group, gc.level
    vertices = [",".join(map(str, g)) for g in G.elements]
    edges = []
    for n, name in enumerate(vertices):
        for i in range(1, G.k + 1):
            a = gc.phases[i - 1][n]
            edges.append({
                "src": vertices[G.sub_generator(n, i)],
                "dst": name,
                "color": i,
                "index": gc.t[i - 1][n],
                "phase": f"{a // gcd(a, N)}/{N // gcd(a, N)}",
            })
    return {"vertices": vertices, "edges": edges}


def to_dot(gc: GroupConstruction) -> str:
    """Graphviz source for the atomic graph, edges labelled i:t (p/q)."""
    data = to_atomic_graph(gc)
    lines = ["digraph atomic {", "  rankdir=LR ;", "  node [shape=circle, fontsize=10] ;"]
    for v in data["vertices"]:
        lines.append(f'  "{v}" ;')
    for e in data["edges"]:
        lines.append(f'  "{e["src"]}" -> "{e["dst"]}" '
                     f'[label="{e["color"]}:{e["index"]} ({e["phase"]})"] ;')
    lines.append("}")
    return "\n".join(lines)
