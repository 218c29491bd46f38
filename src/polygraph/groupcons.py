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
*-representation; it is irreducible iff its translation symmetry subgroup
is trivial, and in general it splits over the characters of that subgroup
into irreducible constructions on the quotient.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import (
    Mat,
    Vec,
    hermite_normal_form,
    smith_normal_form,
    solve_integer,
)
from .kgraph import (
    Degree,
    Presentation,
    Word,
    deg_sub,
    degree,
    extract_prefix,
    normal_form,
    words_equal,
)
from .phases import Phase, phase

GROUP_BUDGET = 1_000_000


def _group_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    return int(os.environ.get("POLYGRAPH_BUDGET", GROUP_BUDGET))


class InvalidConstruction(ValueError):
    """Group construction data violating the commutation conditions."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class NotCommuting(ValueError):
    """The given per-color words do not pairwise commute."""


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z^k modulo a full-rank kernel lattice, with materialized elements.

    Canonical coset representatives are the box vectors below the Hermite
    pivots; elements are indexed in lexicographic order of those vectors.
    """

    k: int
    kernel: Mat  # row-style HNF, full rank k
    _elements: tuple[Vec, ...]
    _index: dict
    _sub: tuple  # _sub[i][g] = index of g - g_i

    @staticmethod
    def from_kernel(kernel_rows: list[Vec] | Mat, budget: int | None = None
                    ) -> "FiniteAbelianGroup":
        hnf = hermite_normal_form(kernel_rows)
        if not hnf or len(hnf) != len(hnf[0]):
            raise ValueError(f"kernel {kernel_rows} is not full rank; quotient is infinite")
        k = len(hnf)
        order = 1
        for i in range(k):
            if hnf[i][i] == 0:
                raise ValueError("kernel is not full rank")
            order *= hnf[i][i]
        budget = _group_budget(budget)
        if order > budget:
            raise BudgetExceeded(f"group order {order} exceeds budget {budget}")
        elements = tuple(itertools.product(*[range(hnf[i][i]) for i in range(k)]))
        index = {e: n for n, e in enumerate(elements)}
        sub = []
        for i in range(k):
            eps = tuple(-1 if j == i else 0 for j in range(k))
            sub.append(tuple(index[_reduce(hnf, tuple(x + y for x, y in zip(g, eps)))]
                             for g in elements))
        return FiniteAbelianGroup(k, hnf, elements, index, tuple(sub))

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
        return _reduce(self.kernel, tuple(v))

    def index(self, v: Vec) -> int:
        return self._index[self.reduce(v)]

    def add(self, a: Vec, b: Vec) -> Vec:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def sub_generator(self, g_index: int, color: int) -> int:
        """Index of (element #g_index) - g_color, colors 1-based."""
        return self._sub[color - 1][g_index]

    def generator_order(self, color: int) -> int:
        eps = tuple(1 if j == color - 1 else 0 for j in range(self.k))
        cur = self.reduce(eps)
        n = 1
        while any(cur):
            cur = self.add(cur, eps)
            n += 1
        return n

    def __hash__(self):
        return hash(self.kernel)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.kernel == other.kernel


def _reduce(hnf: Mat, v: Vec) -> Vec:
    out = list(v)
    k = len(hnf)
    for i in range(k):
        q = out[i] // hnf[i][i]
        if q:
            for c in range(i, k):
                out[c] -= q * hnf[i][c]
    return tuple(out)


@dataclass(frozen=True)
class GroupConstruction:
    """A validated group construction (see module docstring).

    t[i-1] and alpha[i-1] are tuples over element index; construct via
    :func:`group_construction`, which validates the commutation data.
    """

    presentation: Presentation
    group: FiniteAbelianGroup
    t: tuple[tuple[int, ...], ...]
    alpha: tuple[tuple[Phase, ...], ...]

    @property
    def dimension(self) -> int:
        return self.group.order

    def t_at(self, color: int, g: Vec) -> int:
        return self.t[color - 1][self.group.index(g)]

    def alpha_at(self, color: int, g: Vec) -> Phase:
        return self.alpha[color - 1][self.group.index(g)]


def validate_group_construction(P: Presentation, G: FiniteAbelianGroup,
                                t, alpha) -> tuple | None:
    """First violation of the commutation conditions, or None if valid.

    Witness: ("words" | "scalars", element vector, i, j, lhs, rhs).
    """
    if G.k != P.k:
        return ("shape", None, 0, 0, G.k, P.k)
    for i in range(1, P.k + 1):
        if len(t[i - 1]) != G.order or len(alpha[i - 1]) != G.order:
            return ("shape", None, i, 0, len(t[i - 1]), G.order)
        for v in t[i - 1]:
            if not 1 <= v <= P.m[i - 1]:
                return ("range", None, i, 0, v, P.m[i - 1])
    for gi, gvec in enumerate(G.elements):
        for i in range(1, P.k + 1):
            for j in range(i + 1, P.k + 1):
                g_min_i = G.sub_generator(gi, i)
                g_min_j = G.sub_generator(gi, j)
                lhs = (t[i - 1][gi], t[j - 1][g_min_i])
                rhs = (t[i - 1][g_min_j], t[j - 1][gi])
                if P.theta_apply(i, j, *lhs) != rhs:
                    return ("words", gvec, i, j, lhs, rhs)
                a_lhs = (alpha[i - 1][gi] + alpha[j - 1][g_min_i]) % 1
                a_rhs = (alpha[j - 1][gi] + alpha[i - 1][g_min_j]) % 1
                if a_lhs != a_rhs:
                    return ("scalars", gvec, i, j, a_lhs, a_rhs)
    return None


def group_construction(P: Presentation, G: FiniteAbelianGroup, t, alpha
                       ) -> GroupConstruction:
    t = tuple(tuple(row) for row in t)
    alpha = tuple(tuple(phase(a) for a in row) for row in alpha)
    witness = validate_group_construction(P, G, t, alpha)
    if witness is not None:
        raise InvalidConstruction(f"commutation condition fails: {witness}", witness)
    return GroupConstruction(P, G, t, alpha)


def words_commute(P: Presentation, words: list[Word]) -> bool:
    """Pairwise commutation of per-color words (word i pure color i)."""
    for i, w in enumerate(words, start=1):
        for c, _ in w:
            if c != i:
                raise ValueError(f"word {i} contains a letter of color {c}")
    for a, b in itertools.combinations(words, 2):
        if not words_equal(P, a + b, b + a):
            return False
    return True


def from_commuting_words(P: Presentation, words: list[Word],
                         alphas: list[Phase] | None = None,
                         color_order: list[int] | None = None) -> GroupConstruction:
    """The unique group construction on C_{n_1} x ... x C_{n_k} whose base
    point is fixed by the given commuting words (with constant scalars).

    For each color i and each base point b off the i-axis, factor the
    product of the other colors' words (in the given introduction order)
    followed by word i as A . B . C with deg C matching b and B of pure
    color i; B is the color-i loop at b and its letters, read right to
    left, fill t^i along that coset line.  Unique factorization makes the
    result independent of the introduction order.
    """
    if len(words) != P.k or any(not w for w in words):
        raise ValueError("need one nonempty word per color")
    if not words_commute(P, words):
        raise NotCommuting(f"words {words} do not pairwise commute")
    if alphas is None:
        alphas = [phase(0)] * P.k
    order = list(color_order) if color_order is not None else list(range(1, P.k + 1))
    if sorted(order) != list(range(1, P.k + 1)):
        raise ValueError(f"color_order {color_order} is not a permutation of colors")
    lengths = [len(w) for w in words]
    G = FiniteAbelianGroup.cyclic_product(lengths)
    t = [[0] * G.order for _ in range(P.k)]
    for i in range(1, P.k + 1):
        n_i = lengths[i - 1]
        big = tuple(itertools.chain(*[words[c - 1] for c in order if c != i])) + words[i - 1]
        big_deg = degree(P, big)
        bases = [r for r in G.elements if r[i - 1] == 0]
        for b in bases:
            suffix_deg = tuple(b[j] if j != i - 1 else 0 for j in range(P.k))
            head, _c = extract_prefix(P, big, deg_sub(big_deg, suffix_deg))
            _a, loop = extract_prefix(P, head, deg_sub(degree(P, head),
                                                       tuple(n_i if j == i - 1 else 0
                                                             for j in range(P.k))))
            # loop = l_1 ... l_{n_i}; t^i at b + s*g_i is l_{n_i + 1 - s}
            for s in range(1, n_i + 1):
                point = tuple(s % n_i if j == i - 1 else b[j] for j in range(P.k))
                t[i - 1][G.index(point)] = loop[n_i - s][1]
    alpha = [[phase(alphas[i])] * G.order for i in range(P.k)]
    return group_construction(P, G, t, alpha)


def cycle_construction(P: Presentation, seeds: list[Word], cap: int = 100_000
                       ) -> tuple[list[Word], list[int]]:
    """Iterate the commutation permutation on word tuples until the cycle
    closes, producing a pairwise commuting family (one pure word per
    color) from arbitrary nonempty seeds.

    Returns (words, cycle lengths per stage).  Raises BudgetExceeded when
    a cycle does not close within cap steps.
    """
    if len(seeds) != P.k or any(not s for s in seeds):
        raise ValueError("need one nonempty seed word per color")
    for i, w in enumerate(seeds, start=1):
        for c, _ in w:
            if c != i:
                raise ValueError(f"seed {i} contains a letter of color {c}")
    if P.k == 1:
        return list(seeds), []

    lengths: list[int] = []
    # base stage: cycle (a, b) with a = seed_1, b = product of the rest
    a0 = seeds[0]
    b0 = normal_form(P, tuple(itertools.chain(*seeds[1:])))
    a, b = a0, b0
    parts_a, parts_b = [], []
    for step in range(cap):
        parts_a.append(a)
        parts_b.append(b)
        w = normal_form(P, a + b)
        b, a = extract_prefix(P, w, degree(P, b))
        if (a, b) == (a0, b0):
            break
    else:
        raise BudgetExceeded(f"base cycle did not close within {cap} steps")
    lengths.append(len(parts_a))
    family: list[Word] = [normal_form(P, tuple(itertools.chain(*reversed(parts_a))))]
    rem: Word = normal_form(P, tuple(itertools.chain(*parts_b)))

    while True:
        rem_deg = degree(P, rem)
        colors = [c for c in range(1, P.k + 1) if rem_deg[c - 1] > 0]
        if len(colors) == 1:
            family.append(rem)
            break
        c_next = colors[0]
        head_deg = tuple(0 if c == c_next else d for c, d in enumerate(rem_deg, start=1))
        d0, c0 = extract_prefix(P, rem, head_deg)
        avec, c_cur, d_cur = tuple(family), c0, d0
        avec0 = avec
        parts_c, parts_d = [], []
        for step in range(cap):
            parts_c.append(c_cur)
            parts_d.append(d_cur)
            w = normal_form(P, c_cur + d_cur)
            d_new, c_new = extract_prefix(P, w, degree(P, d_cur))
            a_new = []
            for aw in avec:
                w2 = normal_form(P, c_cur + aw)
                head, tail = extract_prefix(P, w2, degree(P, aw))
                if tail != c_cur:
                    raise InvalidConstruction(
                        f"family word {aw} failed to pass the cycle word {c_cur}")
                a_new.append(head)
            avec, c_cur, d_cur = tuple(a_new), c_new, d_new
            if (avec, c_cur, d_cur) == (avec0, c0, d0):
                break
        else:
            raise BudgetExceeded(f"stage cycle did not close within {cap} steps")
        lengths.append(len(parts_c))
        family.append(normal_form(P, tuple(itertools.chain(*reversed(parts_c)))))
        rem = normal_form(P, tuple(itertools.chain(*parts_d)))

    family = [normal_form(P, w) for w in family]
    if not words_commute(P, family):
        raise InvalidConstruction("cycle construction produced a non-commuting family")
    return family, lengths


def full_symmetry_subgroup(gc: GroupConstruction) -> list[Vec]:
    """All h in G with every t^i and alpha^i invariant under translation
    by h, in element order; the invariance conditions compose, so the set
    is a subgroup.

    Each element carries the label (t^1..t^k, alpha^1..alpha^k), and only
    the h labelled like 0 are candidates.  A candidate is checked along
    the spanning tree parent(g) = g - g_c (c the last nonzero coordinate
    of g, so parents precede children in element order): the translate of
    g + h is one generator step from that of parent(g) + h.  The walk
    stops at the first label that moves.
    """
    G = gc.group
    ids: dict = {}
    label = [ids.setdefault(lab, len(ids)) for lab in zip(*gc.t, *gc.alpha)]
    add = []  # add[c][n] = index of (element #n) + g_c
    for sub in G._sub:
        inv = [0] * G.order
        for n, s in enumerate(sub):
            inv[s] = n
        add.append(inv)
    tree = []  # (n, add_c, parent index) for every nonzero element, in order
    for n, g in enumerate(G.elements):
        c = max((i for i, x in enumerate(g) if x), default=None)
        if c is not None:
            tree.append((n, add[c], G._sub[c][n]))
    out = []
    shift = [0] * G.order  # shift[n] = index of (element #n) + h
    for h_index, h in enumerate(G.elements):
        if label[h_index] != label[0]:
            continue
        shift[0] = h_index
        for n, add_c, parent in tree:
            s = add_c[shift[parent]]
            if label[s] != label[n]:
                break
            shift[n] = s
        else:
            out.append(h)
    return out


def normalize_scalars(gc: GroupConstruction) -> GroupConstruction:
    """A unitarily equivalent construction with constant alpha functions.

    Already-constant constructions are returned unchanged.  Otherwise the
    loop character (path phases of the kernel rows) is solved exactly for
    target constants, and a spanning-tree diagonal rescale realizes them;
    loop phases are preserved by construction.
    """
    G, P = gc.group, gc.presentation
    if all(len(set(row)) == 1 for row in gc.alpha):
        return gc
    psi = [_path_phase(gc, row) for row in G.kernel]
    consts = _solve_character(G.kernel, psi)
    d = _spanning_tree_potential(gc, consts)
    new_alpha = []
    for i in range(1, P.k + 1):
        row = []
        for n in range(G.order):
            val = (gc.alpha[i - 1][n] + d[n] - d[G.sub_generator(n, i)]) % 1
            row.append(val)
        if len(set(row)) != 1 or row[0] != consts[i - 1] % 1:
            raise InvalidConstruction(
                f"scalar normalization failed for color {i}: {sorted(set(row))}")
        new_alpha.append(row)
    out = group_construction(P, G, gc.t, new_alpha)
    for row, p in zip(G.kernel, psi):
        assert _path_phase(out, row) == p, "loop phase not preserved"
    return out


def _path_phase(gc: GroupConstruction, vec: Vec) -> Phase:
    """Accumulated scalar along the coordinate path 0 -> vec (valid
    constructions make this path independent)."""
    G = gc.group
    total = Fraction(0)
    cur = (0,) * G.k
    for i in range(G.k):
        eps = tuple(1 if j == i else 0 for j in range(G.k))
        steps = vec[i]
        for _ in range(abs(steps)):
            if steps > 0:
                cur2 = G.add(cur, eps)
                total += gc.alpha[i][G.index(cur2)]
                cur = cur2
            else:
                total -= gc.alpha[i][G.index(cur)]
                cur = G.add(cur, tuple(-x for x in eps))
    return total % 1


def _solve_character(kernel: Mat, psi: list[Phase]) -> list[Phase]:
    """The canonical rational solution x of kernel . x = psi (mod 1)."""
    k = len(kernel)
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        acc = sum((Fraction(kernel[i][j]) * x[j] for j in range(i + 1, k)), Fraction(0))
        x[i] = Fraction(psi[i] - acc, kernel[i][i])
    return [v % 1 for v in x]


def _spanning_tree_potential(gc: GroupConstruction, consts: list[Phase]) -> list[Phase]:
    from collections import deque
    G = gc.group
    d: list[Phase | None] = [None] * G.order
    d[G.index((0,) * G.k)] = Fraction(0)
    queue = deque([(0,) * G.k])
    while queue:
        g = queue.popleft()
        gi = G.index(g)
        for i in range(1, G.k + 1):
            eps = tuple(1 if j == i - 1 else 0 for j in range(G.k))
            h = G.add(g, eps)
            hi = G.index(h)
            if d[hi] is None:
                d[hi] = (d[gi] + consts[i - 1] - gc.alpha[i - 1][hi]) % 1
                queue.append(h)
    assert all(v is not None for v in d), "Cayley graph not connected"
    return d  # type: ignore[return-value]


@dataclass(frozen=True)
class DecompositionReport:
    """Splitting of a construction over the characters of its symmetry."""

    parent: GroupConstruction
    symmetry: tuple[Vec, ...]  # elements of the full symmetry subgroup
    character_table: tuple[tuple[Phase, ...], ...]  # chi values on `symmetry`
    summands: tuple[GroupConstruction, ...]

    @property
    def dimensions(self) -> list[int]:
        return [s.dimension for s in self.summands]


def decompose(gc: GroupConstruction) -> DecompositionReport:
    """Split over the dual of the full symmetry subgroup H.

    Each character chi of H yields a construction on G/H with the same
    index functions and constants twisted by chi through the canonical
    section; the summands are irreducible (trivial symmetry) and their
    dimensions sum to |G|.
    """
    G, P = gc.group, gc.presentation
    sym = full_symmetry_subgroup(gc)
    kernel2 = hermite_normal_form(list(G.kernel) + sym)
    G2 = FiniteAbelianGroup.from_kernel(kernel2)
    characters = _quotient_characters(G.kernel, kernel2)

    summands = []
    chi_rows = []
    for chi in characters:
        chi_rows.append(tuple(_apply_character(kernel2, chi, h) for h in sym))
        t2 = []
        alpha2 = []
        for i in range(1, P.k + 1):
            trow, arow = [], []
            for c in G2.elements:
                lift = G.reduce(c)
                trow.append(gc.t[i - 1][G.index(lift)])
                cm = G2.reduce(tuple(x - (1 if j == i - 1 else 0)
                                     for j, x in enumerate(c)))
                step = tuple(x + (1 if j == i - 1 else 0) for j, x in enumerate(cm))
                corr = tuple(a - b for a, b in zip(step, c))
                arow.append((gc.alpha[i - 1][G.index(G.reduce(step))]
                             + _apply_character(kernel2, chi, corr)) % 1)
            t2.append(trow)
            alpha2.append(arow)
        summand = group_construction(P, G2, t2, alpha2)
        summands.append(summand)
    report = DecompositionReport(parent=gc, symmetry=tuple(sym),
                                 character_table=tuple(chi_rows),
                                 summands=tuple(summands))
    assert sum(report.dimensions) == G.order, "dimension count mismatch"
    for s in report.summands:
        sub = full_symmetry_subgroup(s)
        if len(sub) != 1:
            raise InvalidConstruction(
                f"summand kept a nontrivial symmetry {sub}; parent symmetry "
                "was not the full translation group")
    return report


def _quotient_characters(kernel: Mat, kernel2: Mat) -> list[tuple[Phase, ...]]:
    """Characters of kernel2/kernel as rational vectors x (values on the
    kernel2 basis rows) with kernel . x = 0 mod 1."""
    m_rows = []
    for row in kernel:
        coeffs = solve_integer(kernel2, row)
        assert coeffs is not None, "kernel not inside the symmetry kernel"
        m_rows.append(coeffs)
    M = tuple(m_rows)
    U, D, V = smith_normal_form(M)
    k = len(kernel)
    out = []
    ranges = [range(D[i][i]) for i in range(k)]
    for z in itertools.product(*ranges):
        zfrac = [Fraction(z[i], D[i][i]) for i in range(k)]
        x = [sum((Fraction(V[r][c]) * zfrac[c] for c in range(k)), Fraction(0)) % 1
             for r in range(k)]
        out.append(tuple(x))
    return out


def _apply_character(kernel2: Mat, chi: tuple[Phase, ...], h: Vec) -> Phase:
    coeffs = solve_integer(kernel2, h)
    assert coeffs is not None, f"{h} is not in the symmetry kernel"
    return sum((c * x for c, x in zip(coeffs, chi)), Fraction(0)) % 1


@dataclass
class PartialConstruction:
    """Partially defined construction data over a finite group.

    t maps (color, canonical element vector) to an index; alpha likewise
    to a phase.  Slots absent from t are undetermined.
    """

    group: FiniteAbelianGroup
    t: dict
    alpha: dict

    @staticmethod
    def restriction(gc: GroupConstruction, elements) -> "PartialConstruction":
        G = gc.group
        t, alpha = {}, {}
        for g in elements:
            g = G.reduce(g)
            for i in range(1, G.k + 1):
                t[(i, g)] = gc.t[i - 1][G.index(g)]
                alpha[(i, g)] = gc.alpha[i - 1][G.index(g)]
        return PartialConstruction(G, t, alpha)


def extend_to_group(P: Presentation, partial: PartialConstruction,
                    symmetry: list[Vec] | None = None) -> GroupConstruction:
    """Extend partially defined data to a full group construction.

    Mirrors the dilation argument: grow a window corner by corner, taking
    each new color-i value from the factorization of (corner choice) *
    (path word) and propagating the other colors through single-letter
    commutations; free corner choices default to index 1 but defer to
    values already pinned by the same group element, retrying the finite
    corner choices on conflict.  With `symmetry` generators given, the
    data is collapsed to the quotient first and unfolded afterwards, so
    the result has full symmetry containing them.  Complete input is
    validated and returned as is; axis-complete input is routed through
    the commuting-words filling.  Genuinely inconsistent data raises
    InvalidConstruction.
    """
    G = partial.group
    if symmetry:
        return _extend_with_symmetry(P, partial, symmetry)
    if _is_complete(partial):
        return _assemble(P, partial)
    axis_words = _axis_words(P, partial)
    if axis_words is not None:
        return _extend_via_axes(P, partial, axis_words)
    slots = _window_fill(P, partial)
    return _assemble(P, PartialConstruction(G, slots[0], slots[1]))


def _is_complete(partial: PartialConstruction) -> bool:
    G = partial.group
    return all((i, g) in partial.t for g in G.elements for i in range(1, G.k + 1))


def _assemble(P: Presentation, partial: PartialConstruction) -> GroupConstruction:
    G = partial.group
    t = [[partial.t[(i, g)] for g in G.elements] for i in range(1, G.k + 1)]
    alpha = [[partial.alpha.get((i, g), phase(0)) for g in G.elements]
             for i in range(1, G.k + 1)]
    return group_construction(P, G, t, alpha)


def _axis_words(P: Presentation, partial: PartialConstruction) -> list[Word] | None:
    """Reconstruct the commuting axis words when every axis is fully
    labelled: letter c+1 of word i is t^i at -c * g_i."""
    G = partial.group
    words = []
    for i in range(1, G.k + 1):
        n_i = G.generator_order(i)
        letters = []
        for c in range(n_i):
            v = G.reduce(tuple(-c if j == i - 1 else 0 for j in range(G.k)))
            if (i, v) not in partial.t:
                return None
            letters.append((i, partial.t[(i, v)]))
        words.append(tuple(letters))
    return words


def _extend_via_axes(P: Presentation, partial: PartialConstruction,
                     words: list[Word]) -> GroupConstruction:
    G = partial.group
    alphas = []
    for i in range(1, G.k + 1):
        vals = {a for (c, g), a in partial.alpha.items() if c == i}
        if len(vals) > 1:
            raise InvalidConstruction(
                f"axis extension needs constant alpha per color, got {sorted(vals)}")
        alphas.append(next(iter(vals)) if vals else phase(0))
    if not words_commute(P, words):
        raise NotCommuting(f"axis words {words} do not commute")
    cyc = from_commuting_words(P, words, alphas=alphas)
    # project the product-group construction onto G (checks periodicity)
    Gc = cyc.group
    t: dict = {}
    alpha: dict = {}
    for n, gvec in enumerate(Gc.elements):
        target = G.reduce(gvec)
        for i in range(1, G.k + 1):
            for store, value in ((t, cyc.t[i - 1][n]), (alpha, cyc.alpha[i - 1][n])):
                key = (i, target)
                if key in store and store[key] != value:
                    raise InvalidConstruction(
                        f"axis data does not descend to the target group at {key}")
                store[key] = value
    out = _assemble(P, PartialConstruction(G, t, alpha))
    _check_restriction(out, partial)
    return out


def _check_restriction(gc: GroupConstruction, partial: PartialConstruction) -> None:
    G = gc.group
    for (i, g), v in partial.t.items():
        if gc.t[i - 1][G.index(g)] != v:
            raise InvalidConstruction(f"extension disagrees with given data at {(i, g)}")
    for (i, g), a in partial.alpha.items():
        if gc.alpha[i - 1][G.index(g)] != phase(a):
            raise InvalidConstruction(f"extension disagrees with given alpha at {(i, g)}")


def _extend_with_symmetry(P: Presentation, partial: PartialConstruction,
                          symmetry: list[Vec]) -> GroupConstruction:
    """Collapse by the given symmetry generators, extend on the quotient,
    unfold; the result is invariant under the generators by construction."""
    G = partial.group
    kernel2 = hermite_normal_form(list(G.kernel) + [G.reduce(h) for h in symmetry])
    G2 = FiniteAbelianGroup.from_kernel(kernel2)
    t2: dict = {}
    alpha2: dict = {}
    for (i, g), v in partial.t.items():
        key = (i, G2.reduce(g))
        if key in t2 and t2[key] != v:
            raise InvalidConstruction(f"data is not symmetric under {symmetry} at {key}")
        t2[key] = v
    for (i, g), a in partial.alpha.items():
        key = (i, G2.reduce(g))
        if key in alpha2 and alpha2[key] != phase(a):
            raise InvalidConstruction(f"alpha is not symmetric under {symmetry} at {key}")
        alpha2[key] = phase(a)
    small = extend_to_group(P, PartialConstruction(G2, t2, alpha2))
    t = {(i, g): small.t[i - 1][G2.index(g)]
         for g in G.elements for i in range(1, G.k + 1)}
    alpha = {(i, g): small.alpha[i - 1][G2.index(g)]
             for g in G.elements for i in range(1, G.k + 1)}
    out = _assemble(P, PartialConstruction(G, t, alpha))
    _check_restriction(out, partial)
    return out


def _window_fill(P: Presentation, partial: PartialConstruction) -> tuple[dict, dict]:
    """Corner-by-corner window growth of ragged data (see extend_to_group).

    Window coordinates live in Z^k; every read/write goes through the
    quotient map, so consistency across wrap-arounds is enforced by the
    single store.  Each step extends one direction from the current
    corner, filling color-i labels on the new slab from the factorization
    e_p . w = w' . e_q and the other colors through the single-letter
    commutation square.  Free corner choices are searched depth-first
    within a budget; exhaustion raises InvalidConstruction.
    """
    G = partial.group
    spans = [G.kernel[i][i] for i in range(G.k)]
    depth = [2 * s for s in spans]
    max_steps = G.k * (4 * sum(spans) + 8)
    budget = 20_000

    def complete(t) -> bool:
        return all((i, g) in t for g in G.elements for i in range(1, G.k + 1))

    def frame(t, alpha, corner, step):
        # a backtracking frame: the pending corner choices at this step
        i = step % G.k + 1
        corner_key = (i, G.reduce(tuple(c + (1 if j == i - 1 else 0)
                                        for j, c in enumerate(corner))))
        choices = [t[corner_key]] if corner_key in t else list(range(1, P.m[i - 1] + 1))
        return [t, alpha, corner, step, i, choices]

    stack = [frame(dict(partial.t), dict(partial.alpha), (0,) * G.k, 0)]
    while stack:
        t, alpha, corner, step, i, choices = stack[-1]
        if complete(t):
            return t, alpha
        if step >= max_steps or budget <= 0 or not choices:
            stack.pop()
            continue
        p_corner = choices.pop(0)
        budget -= 1
        try:
            t2, a2 = _extend_slab(P, G, dict(t), dict(alpha), corner, i,
                                  p_corner, depth)
        except InvalidConstruction:
            continue
        next_corner = tuple(c + (1 if j == i - 1 else 0) for j, c in enumerate(corner))
        stack.append(frame(t2, a2, next_corner, step + 1))
    raise InvalidConstruction(
        "no consistent extension found within the search budget "
        "(the data is inconsistent, or the window search gave up)")


class _MissingData(Exception):
    """A path below the corner crosses an undetermined slot (the window
    has not grown far enough yet); the offset is skipped this round."""


def _extend_slab(P, G, t, alpha, corner, i, p_corner, depth):
    k = G.k

    def eps(c):
        return tuple(1 if j == c - 1 else 0 for j in range(k))

    def setval(store, key, value, what):
        if key in store and store[key] != value:
            raise InvalidConstruction(f"window growth conflict for {what} at {key}")
        store[key] = value

    def path_word(start: Vec) -> Word:
        # word labelling the edge path start -> corner, coordinates ascending
        letters = []
        cur = list(start)
        for j in range(1, k + 1):
            while cur[j - 1] < corner[j - 1]:
                cur[j - 1] += 1
                key = (j, G.reduce(tuple(cur)))
                if key not in t:
                    raise _MissingData(key)
                letters.append((j, t[key]))
        return normal_form(P, tuple(reversed(letters)))

    setval(t, (i, G.reduce(tuple(c + e for c, e in zip(corner, eps(i))))),
           p_corner, "index")
    alpha.setdefault((i, G.reduce(tuple(c + e for c, e in zip(corner, eps(i))))), phase(0))
    offsets = sorted(itertools.product(*[range(0, -(d + 1), -1) if j != i - 1 else (0,)
                                         for j, d in enumerate(depth)]),
                     key=lambda s: -sum(s))
    for s in offsets:
        if all(x == 0 for x in s):
            continue
        base = tuple(c + x for c, x in zip(corner, s))
        try:
            w = path_word(base)
        except _MissingData:
            continue  # deeper than the currently known region; later rounds fill it
        big = normal_form(P, ((i, p_corner),) + w)
        _, last = extract_prefix(P, big, deg_sub(degree(P, big), eps(i)))
        p_here = last[0][1]
        cell = tuple(b + e for b, e in zip(base, eps(i)))
        setval(t, (i, G.reduce(cell)), p_here, "index")
        alpha.setdefault((i, G.reduce(cell)), phase(0))
        # the color-j edge into cell + e_j comes from the commutation
        # square whose other corner is the slab cell above (offset s + e_j)
        for j in range(1, k + 1):
            if j == i or s[j - 1] == 0:
                continue
            base_up = tuple(b + e for b, e in zip(base, eps(j)))
            q = t.get((j, G.reduce(base_up)))
            p_up = t.get((i, G.reduce(tuple(b + e for b, e in zip(base_up, eps(i))))))
            if q is None or p_up is None:
                continue
            if i < j:
                (_, q2), (_, p2) = P._asc[((i, p_up), (j, q))]
            else:
                (_, q2), (_, p2) = P._desc[((i, p_up), (j, q))]
            if p2 != p_here:
                raise InvalidConstruction(
                    f"commutation square broke at slab offset {s}: {p2} != {p_here}")
            up_cell = tuple(c + e for c, e in zip(cell, eps(j)))
            setval(t, (j, G.reduce(up_cell)), q2, "index")
            a_src = alpha.get((j, G.reduce(base_up)), phase(0))
            akey = (j, G.reduce(up_cell))
            if akey in alpha and alpha[akey] != a_src:
                raise InvalidConstruction(f"alpha propagation conflict at {akey}")
            alpha[akey] = a_src
    return t, alpha


def to_atomic_graph(gc: GroupConstruction) -> dict:
    """The labelled graph of the construction: vertices are group
    elements, one color-i edge into each vertex g from g - g_i."""
    G = gc.group
    vertices = [",".join(map(str, g)) for g in G.elements]
    edges = []
    for n, g in enumerate(G.elements):
        for i in range(1, G.k + 1):
            src = G.elements[G.sub_generator(n, i)]
            a = gc.alpha[i - 1][n]
            edges.append({
                "src": ",".join(map(str, src)),
                "dst": ",".join(map(str, g)),
                "color": i,
                "index": gc.t[i - 1][n],
                "phase": f"{a.numerator}/{a.denominator}",
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
