import collections
import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from polygraph import PartialConstruction, catalog, extend_to_group, groupcons
from polygraph.budget import BudgetExceeded, limit
from polygraph.groupcons import (
    FiniteAbelianGroup,
    InvalidConstruction,
    NotCommuting,
    cycle_construction,
    decompose,
    from_commuting_words,
    full_symmetry_subgroup,
    group_construction,
    normalize_scalars,
    to_atomic_graph,
    to_dot,
    words_commute,
)
from polygraph.groupcons import GroupConstruction, _kernel_coeffs, _quotient_characters
from polygraph.groupcons import _slots, _squares
from polygraph.intlinalg import hermite_normal_form, reduce_mod
from polygraph.kgraph import WordError, deg_sub, degree, extract_prefix, normal_form

FCC = catalog.flip_cycle_cycle_3graph()
FWD = catalog.cycle3_forward_2graph()
FLIP = catalog.flip_2graph()
T3 = catalog.transposition_kgraph(3, 2)
CATALOG = {"flip": FLIP, "cycle3-forward": FWD, "square": catalog.square_2graph(),
           "cycle3-reverse": catalog.cycle3_reverse_2graph(), "flip-cycles": FCC,
           "flip-squares": catalog.flip_square_square_3graph(), "transposition(3,2)": T3,
           "product-periodic": catalog.product_periodic_3graph(),
           "twisted-periodic": catalog.twisted_periodic_3graph()}

WORDS_112 = [tuple((i, int(ch)) for ch in "112") for i in (1, 2, 3)]


def gc27(alphas=None):
    return from_commuting_words(FCC, WORDS_112, alphas=alphas)


def _t_at(gc, color, g):
    return gc.t[color - 1][gc.group.index(g)]


def _alpha_at(gc, color, g):
    return gc.alpha[color - 1][gc.group.index(g)]


def _restriction(gc, elements):
    """The data of gc on the given elements, as partial data."""
    G = gc.group
    keys = [(i, G.reduce(g)) for g in elements for i in range(1, G.k + 1)]
    return PartialConstruction(G, {key: _t_at(gc, *key) for key in keys},
                               {key: _alpha_at(gc, *key) for key in keys})


def _path_phase(gc, vec):
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
                cur2 = G.reduce(tuple(x + y for x, y in zip(cur, eps)))
                total += gc.alpha[i][G.index(cur2)]
                cur = cur2
            else:
                total -= gc.alpha[i][G.index(cur)]
                cur = G.reduce(tuple(x - y for x, y in zip(cur, eps)))
    return total % 1


def validate_group_construction(P, G, t, alpha):
    """First violation of the commutation conditions, or None, in Fraction
    arithmetic: the oracle for the witness of :func:`group_construction`.

    The index rows come first (their count and lengths, the index ranges,
    then every words square), then the phase rows (count, lengths, then
    every scalar square, its two sides Fractions mod 1).  Witness: (kind,
    element vector, i, j, lhs, rhs).
    """
    if G.k != P.k:
        return ("shape", None, 0, 0, G.k, P.k)
    squares = [(n, g, i, j, G.sub_generator(n, i), G.sub_generator(n, j))
               for n, g in enumerate(G.elements)
               for i, j in itertools.combinations(range(1, P.k + 1), 2)]
    for rows in (t, alpha):
        if len(rows) != P.k:
            return ("shape", None, 0, 0, len(rows), P.k)
        for i, row in enumerate(rows, start=1):
            if len(row) != G.order:
                return ("shape", None, i, 0, len(row), G.order)
            if rows is t and (bad := [v for v in row if not 1 <= v <= P.m[i - 1]]):
                return ("range", None, i, 0, bad[0], P.m[i - 1])
        for n, g, i, j, n_i, n_j in squares:
            if rows is t:
                lhs, rhs = (t[i - 1][n], t[j - 1][n_i]), (t[i - 1][n_j], t[j - 1][n])
                if P.theta_apply(i, j, *lhs) != rhs:
                    return ("words", g, i, j, lhs, rhs)
            else:
                lhs = (Fraction(alpha[i - 1][n]) + alpha[j - 1][n_i]) % 1
                rhs = (Fraction(alpha[j - 1][n]) + alpha[i - 1][n_j]) % 1
                if lhs != rhs:
                    return ("scalars", g, i, j, lhs, rhs)
    return None


def _witness(P, G, t, alpha):
    """The witness group_construction raises for the data, or None."""
    try:
        group_construction(P, G, t, alpha)
    except InvalidConstruction as err:
        return err.witness
    return None


def _agreed_witness(P, G, t, alpha):
    """The oracle's witness, asserted equal to group_construction's."""
    witness = validate_group_construction(P, G, t, alpha)
    assert _witness(P, G, t, alpha) == witness
    return witness


class TestFiniteAbelianGroup:
    def test_cyclic_product(self):
        G = FiniteAbelianGroup.cyclic_product([2, 3])
        assert G.order == 6
        assert G.reduce((5, -2)) == (1, 1)
        assert G.reduce((1 + 1, 2 + 2)) == (0, 1)

    def test_generator_orders_in_a_quotient(self):
        # Z^2 / <(2,1), (0,3)>: g_2 has order 3, g_1 has order 6
        G = FiniteAbelianGroup.from_kernel([(2, 1), (0, 3)])
        assert G.order == 6
        assert G.generator_order(2) == 3
        assert G.generator_order(1) == 6

    def test_infinite_quotient_rejected(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup.from_kernel([(1, -1)])

    def test_group_compares_only_its_kernel(self):
        # == and hash read exactly k and the kernel; the element, index and
        # subtraction tables are derived from them
        compared = [f.name for f in dataclasses.fields(FiniteAbelianGroup) if f.compare]
        assert compared == ["k", "kernel"]
        G = FiniteAbelianGroup.from_kernel([(2, 1), (0, 3)])
        same = FiniteAbelianGroup.from_kernel([(2, 4), (4, 5)])
        assert G == same and hash(G) == hash(same) and G._sub == same._sub
        assert G != FiniteAbelianGroup.cyclic_product([2, 3])

    def test_subtraction_table_steps_back_one_generator(self):
        G = FiniteAbelianGroup.from_kernel([(2, 1), (0, 3)])
        for color in (1, 2):
            step = tuple(int(j == color - 1) for j in range(2))
            for n, g in enumerate(G.elements):
                src = G.elements[G.sub_generator(n, color)]
                assert G.reduce(tuple(x + y for x, y in zip(src, step))) == g

    @pytest.mark.parametrize("k", [2, 3])
    def test_tables_match_reduce_mod_on_skew_kernels(self, k):
        # upper triangular kernels with off-diagonal entries: stepping back
        # from g_i = 0 wraps into other coordinates too
        rng = random.Random(k)
        skew = 0
        for _ in range(40):
            rows = [tuple(0 if j < i else rng.randint(1, 4) if j == i else rng.randint(-6, 6)
                          for j in range(k)) for i in range(k)]
            G = FiniteAbelianGroup.from_kernel(rows)
            skew += any(G.kernel[i][j] for i in range(k) for j in range(i + 1, k))
            for i in range(k):
                expected = [G._index[reduce_mod(G.kernel, g[:i] + (g[i] - 1,) + g[i + 1:])[1]]
                            for g in G.elements]
                assert list(G._sub[i]) == expected, (G.kernel, i)
                eps = tuple(int(j == i) for j in range(k))
                assert G.generator_order(i + 1) == _element_order(G, eps)
        assert skew >= 20


class TestValidation:
    def test_wrong_row_counts_give_a_shape_witness(self):
        base = gc27()
        G, rank2 = base.group, FiniteAbelianGroup.cyclic_product([3, 9])
        for G, t, alpha, rows in ((G, base.t[:2], base.alpha, 2), (G, base.t, base.alpha[:1], 1),
                                  (G, base.t + base.t[:1], base.alpha, 4),
                                  (rank2, base.t, base.alpha, 2)):
            with pytest.raises(InvalidConstruction) as info:
                group_construction(FCC, G, t, alpha)
            assert info.value.witness == ("shape", None, 0, 0, rows, 3)
            assert validate_group_construction(FCC, G, t, alpha) == info.value.witness

    def test_one_phase_per_color(self):
        for alphas in ([Fraction(1, 3)], [0] * 4):
            with pytest.raises(ValueError, match="need one phase per color"):
                gc27(alphas)

    def test_constant_construction_on_transposition_graph(self):
        G = FiniteAbelianGroup.cyclic_product([2, 2, 2])
        t = [[1] * 8] * 3
        alpha = [[Fraction(0)] * 8] * 3
        gc = group_construction(T3, G, t, alpha)
        assert gc.dimension == 8

    def test_single_site_perturbation_is_caught(self):
        base = gc27()
        t = [list(row) for row in base.t]
        t[0][5] = 3 - t[0][5]
        witness = _agreed_witness(FCC, base.group, t, base.alpha)
        assert witness is not None and witness[0] == "words"

    def test_scalar_condition_is_checked(self):
        base = gc27()
        alpha = [list(row) for row in base.alpha]
        alpha[0][5] = Fraction(1, 2)
        witness = _agreed_witness(FCC, base.group, base.t, alpha)
        assert witness is not None and witness[0] == "scalars"


class TestWordsCommute:
    def test_the_27dim_words_commute(self):
        assert words_commute(FCC, WORDS_112)

    def test_single_color_trivially_commutes(self):
        P1 = catalog.transposition_kgraph(1, 3)
        assert words_commute(P1, [((1, 2), (1, 1))])

    def test_forward_cycle_letters_do_not_commute(self):
        # the 3-cycle sends (1,1) to (1,2): e_1 f_1 = f_2 e_1 != f_1 e_1
        assert not words_commute(FWD, [((1, 1),), ((2, 1),)])

    def test_color_purity_enforced(self):
        with pytest.raises(ValueError):
            words_commute(FLIP, [((2, 1),), ((2, 1),)])


class TestFromCommutingWords:
    def test_27_dimensional_construction(self):
        gc = gc27()
        assert gc.dimension == 27
        assert len(full_symmetry_subgroup(gc)) == 9

    def test_single_letter_words_give_dimension_one(self):
        P = FLIP
        gc = from_commuting_words(P, [((1, 2),), ((2, 2),)])
        assert gc.dimension == 1
        assert gc.t == ((2,), (2,))

    def test_axis_values_read_off_the_words(self):
        gc = gc27()
        # word letters fill the axis right to left: t^i at s*g_i is the
        # (n_i + 1 - s)-th letter
        for i in (1, 2, 3):
            for s in (1, 2, 3):
                point = tuple(s % 3 if j == i - 1 else 0 for j in range(3))
                assert _t_at(gc, i, point) == WORDS_112[i - 1][(3 - s) % 3][1]

    def test_introduction_order_is_irrelevant(self):
        # the factorization reference, in every order, agrees with the fold
        base = gc27()
        for perm in itertools.permutations((1, 2, 3)):
            assert factorized_indices(FCC, WORDS_112, perm) == base.t

    def test_group_order_budget_trips_before_the_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the window grid was built")
        monkeypatch.setattr(groupcons, "edge_grid", no_grid)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "26")
        with pytest.raises(BudgetExceeded) as info:
            gc27()
        assert (info.value.name, info.value.consumed) == ("group order", 27)

    def test_non_commuting_words_rejected(self):
        with pytest.raises(NotCommuting):
            from_commuting_words(FWD, [((1, 1),), ((2, 1),)])

    def test_out_of_range_letter_is_a_word_error(self):
        with pytest.raises(WordError, match=r"letter \(1, 5\)"):
            from_commuting_words(FLIP, [((1, 5),), ((2, 1),)])

    def test_constant_alphas_stored(self):
        gc = gc27(alphas=[Fraction(1, 3)] * 3)
        assert all(a == Fraction(1, 3) for row in gc.alpha for a in row)


def _seeds(rng, P, longest):
    return [tuple((i, rng.randint(1, P.m[i - 1])) for _ in range(rng.randint(1, longest)))
            for i in range(1, P.k + 1)]


def factorized_indices(P, words, color_order):
    """t of from_commuting_words(P, words) by factorization: for each color
    i and base point b off the i-axis, factor the other colors' words (in
    `color_order`), then word i, as A . B . C with deg C = b and B of pure
    color i; B's letters, read right to left, fill t^i along b + Z g_i."""
    lengths = [len(w) for w in words]
    G = FiniteAbelianGroup.cyclic_product(lengths)
    t = [[0] * G.order for _ in lengths]
    for i, n_i in enumerate(lengths):
        big = tuple(itertools.chain(*[words[c - 1] for c in color_order if c != i + 1], words[i]))
        loop_deg = tuple(n_i if j == i else 0 for j in range(P.k))
        for b in G.elements:
            if not b[i]:
                head, _ = extract_prefix(P, big, deg_sub(degree(P, big), b))
                loop = extract_prefix(P, head, deg_sub(degree(P, head), loop_deg))[1]
                for s in range(1, n_i + 1):  # t^i at b + s g_i is loop[n_i - s]
                    t[i][G.index(b[:i] + (s % n_i,) + b[i + 1:])] = loop[n_i - s][1]
    return tuple(map(tuple, t))


class TestGridFoldMatchesFactorization:
    """from_commuting_words folds the periodic tail's window grid; the
    per-base-point factorization `factorized_indices` above is its
    reference (the 27-dim words in every order are in
    TestFromCommutingWords)."""

    @pytest.mark.parametrize("name", list(CATALOG)[:7])
    def test_seeded_cycle_families(self, name):
        P = CATALOG[name]
        rng = random.Random(12)
        drawn = 0
        while drawn < 15:
            family, _ = cycle_construction(P, _seeds(rng, P, 2))
            if math.prod(map(len, family)) > 256:
                continue
            assert from_commuting_words(P, family).t \
                == factorized_indices(P, family, tuple(range(1, P.k + 1))), family
            drawn += 1

    def test_long_word_family(self):
        family, _ = cycle_construction(FWD, [tuple((1, int(c)) for c in "1222"), ((2, 1),)])
        assert [len(w) for w in family] == [84, 21]
        assert from_commuting_words(FWD, family).t == factorized_indices(FWD, family, (1, 2))


def _base_stage_cycle_construction(P, seeds):
    """cycle_construction as it was with a separate base stage: the
    reference for the one-loop form."""
    if len(seeds) != P.k or any(not s for s in seeds):
        raise ValueError("need one nonempty seed word per color")
    for i, w in enumerate(seeds, start=1):
        for c, _ in w:
            if c != i:
                raise ValueError(f"seed {i} contains a letter of color {c}")
    if P.k == 1:
        return list(seeds), []

    cap = limit(100_000)
    lengths = []
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
        raise BudgetExceeded("cycle steps", cap, cap + 1)
    lengths.append(len(parts_a))
    family = [normal_form(P, tuple(itertools.chain(*reversed(parts_a))))]
    rem = normal_form(P, tuple(itertools.chain(*parts_b)))

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
            raise BudgetExceeded("cycle steps", cap, cap + 1)
        lengths.append(len(parts_c))
        family.append(normal_form(P, tuple(itertools.chain(*reversed(parts_c)))))
        rem = normal_form(P, tuple(itertools.chain(*parts_d)))

    family = [normal_form(P, w) for w in family]
    if not words_commute(P, family):
        raise InvalidConstruction("cycle construction produced a non-commuting family")
    return family, lengths


def _outcome(run):
    try:
        return run()
    except (ValueError, BudgetExceeded) as err:  # type and message are compared
        return type(err), str(err)


class TestCycleConstruction:
    def test_one_loop_matches_the_separate_base_stage(self, monkeypatch):
        monkeypatch.setenv("POLYGRAPH_BUDGET", "200")
        rng = random.Random(7)
        exhausted = 0
        for name, P in CATALOG.items():
            for _ in range(20):
                seeds = _seeds(rng, P, 3)
                outcome = _outcome(lambda: cycle_construction(P, seeds))
                assert outcome == _outcome(lambda: _base_stage_cycle_construction(P, seeds)), \
                    (name, seeds)
                exhausted += outcome[0] is BudgetExceeded
        assert exhausted >= 1  # the "cycle steps" exhaustion is compared too

    def test_already_commuting_seeds_close_immediately(self):
        fam, lens = cycle_construction(FLIP, [((1, 1),), ((2, 1),)])
        assert lens == [1]
        assert fam == [((1, 1),), ((2, 1),)]

    def test_out_of_range_letter_is_a_word_error(self):
        with pytest.raises(WordError, match=r"letter \(1, 5\)"):
            cycle_construction(FLIP, [((1, 5),), ((2, 1),)])

    def test_forward_cycle_seed_closes_in_three(self):
        fam, lens = cycle_construction(FWD, [((1, 1),), ((2, 1),)])
        assert lens == [3]
        assert fam[0] == ((1, 2), (1, 1), (1, 1))
        assert fam[1] == ((2, 1), (2, 2), (2, 1))
        assert words_commute(FWD, fam)

    def test_three_color_stages(self):
        fam, lens = cycle_construction(FCC, [((1, 2),), ((2, 1),), ((3, 1),)])
        assert len(fam) == 3
        assert words_commute(FCC, fam)
        assert len(lens) >= 1

    def test_outputs_always_commute_randomized(self):
        # (seed, graphs, seeds per graph, longest seed word)
        for seed, graphs, count, longest in ((99, (FWD, catalog.square_2graph(), FCC), 10, 2),
                                             (20240823, (FWD,), 25, 3)):
            rng = random.Random(seed)
            for P in graphs:
                for _ in range(count):
                    seeds = _seeds(rng, P, longest)
                    fam, _ = cycle_construction(P, seeds)
                    assert words_commute(P, fam), (seed, seeds)

    def test_long_word_dimension_bound(self):
        fam, _ = cycle_construction(FWD, [tuple((1, int(c)) for c in "1222"), ((2, 1),)])
        gc = from_commuting_words(FWD, fam)
        rep = decompose(gc)
        assert max(rep.dimensions) >= 6


class TestNormalizeScalars:
    def test_constant_input_returned_unchanged(self):
        gc = gc27(alphas=[Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)])
        assert normalize_scalars(gc) is gc

    def test_scramble_and_recover(self):
        gc = gc27()
        G = gc.group
        rng = random.Random(5)
        d = [Fraction(rng.randint(0, 11), 12) for _ in range(G.order)]
        scrambled = group_construction(FCC, G, gc.t, [
            [(gc.alpha[i][n] + d[n] - d[G.sub_generator(n, i + 1)]) % 1
             for n in range(G.order)]
            for i in range(3)])
        assert any(len(set(row)) > 1 for row in scrambled.alpha)
        norm = normalize_scalars(scrambled)
        assert all(len(set(row)) == 1 for row in norm.alpha)
        for row in G.kernel:
            assert _path_phase(norm, row) == _path_phase(scrambled, row)

    def test_loop_phases_survive_on_every_closed_loop(self):
        # beyond the kernel basis: all small closed loops keep their phase
        gc = gc27(alphas=[Fraction(1, 3)] * 3)
        G = gc.group
        rng = random.Random(6)
        d = [Fraction(rng.randint(0, 2), 3) for _ in range(G.order)]
        scrambled = group_construction(FCC, G, gc.t, [
            [(gc.alpha[i][n] + d[n] - d[G.sub_generator(n, i + 1)]) % 1
             for n in range(G.order)]
            for i in range(3)])
        norm = normalize_scalars(scrambled)
        for loop in [(3, 0, 0), (0, 3, 0), (0, 0, 3), (3, 3, 0), (3, -3, 0)]:
            assert _path_phase(norm, loop) == _path_phase(scrambled, loop)


def _scanned_symmetry(gc):
    """The direct symmetry scan: translate every element by every h and
    compare all t^i and alpha^i, stopping at the first value that moves."""
    G = gc.group
    rows = gc.t + gc.alpha

    def moves(h):
        for n, g in enumerate(G.elements):
            m = G.index(tuple(x + y for x, y in zip(g, h)))
            if any(row[m] != row[n] for row in rows):
                return True
        return False

    return [h for h in G.elements if not moves(h)]


def _element_order(G, h):
    n, cur = 1, G.reduce(h)
    while any(cur):
        n, cur = n + 1, G.reduce(tuple(x + y for x, y in zip(cur, h)))
    return n


def _word(color, text):
    return tuple((color, int(ch)) for ch in text)


def _sixths_gauged_gc27():
    """The 27-dim construction with its phases moved by the coboundary of a
    potential over sixths: not constant, and unitarily equivalent to it."""
    gc = gc27()
    G = gc.group
    rng = random.Random(0)
    f = [Fraction(rng.randrange(6), 6) for _ in range(G.order)]
    return group_construction(FCC, G, gc.t, [
        [(gc.alpha[i][n] + f[n] - f[G.sub_generator(n, i + 1)]) % 1 for n in range(G.order)]
        for i in range(3)])


@functools.cache
def _symmetry_cases():
    """Constructions whose symmetry and decomposition the tests check: the
    27-dim construction with zero, cube-root and non-constant phases, one
    cycle family per (group order, summand count) class up to order 144,
    and the 1764-dim long-word construction."""
    seeds = {
        FLIP: [("1", "1"), ("1", "11"), ("1", "111"), ("1", "2"), ("1", "1111"),
               ("11", "111"), ("12", "1212"), ("11", "1111"), ("112", "112"),
               ("111", "111"), ("1", "212"), ("111", "1111"), ("11", "12"),
               ("1212", "1212"), ("1111", "1111"), ("1", "12"), ("111", "112"),
               ("121", "212"), ("1", "112"), ("1111", "1112"), ("11", "1112"),
               ("11", "2112"), ("1", "1112")],
        FWD: [("2", "2"), ("2", "22"), ("2", "222"), ("2", "2222"), ("22", "222"),
              ("22", "2222"), ("1", "1"), ("222", "222"), ("222", "2222"),
              ("2222", "2222"), ("11", "11"), ("1", "1211"), ("1", "111"),
              ("1", "11"), ("1111", "1111"), ("1111", "2122"), ("1121", "2112")],
    }
    base = gc27()
    G = base.group
    rng = random.Random(5)
    d = [Fraction(rng.randint(0, 2), 3) for _ in range(G.order)]
    scrambled = group_construction(FCC, G, base.t, [
        [(base.alpha[i][n] + d[n] - d[G.sub_generator(n, i + 1)]) % 1
         for n in range(G.order)]
        for i in range(3)])
    parents = [base, gc27(alphas=[Fraction(1, 3)] * 3), scrambled, _sixths_gauged_gc27()]
    for P, pairs in seeds.items():
        for a, b in pairs:
            family, _ = cycle_construction(P, [_word(1, a), _word(2, b)])
            parents.append(from_commuting_words(P, family))
    family, _ = cycle_construction(FWD, [_word(1, "1222"), _word(2, "1")])
    parents.append(from_commuting_words(FWD, family))
    return tuple(parents)


def _per_character_decompose(gc):
    """The decomposition as it was computed one character at a time: the
    full symmetry, then group_construction per character, then
    full_symmetry_subgroup per summand, which must be trivial."""
    G, P = gc.group, gc.presentation
    sym = full_symmetry_subgroup(gc)
    kernel2 = hermite_normal_form(list(G.kernel) + sym)
    G2 = FiniteAbelianGroup.from_kernel(kernel2)
    e, characters = _quotient_characters(G.kernel, kernel2)
    N = math.lcm(gc.level, e)
    alpha = [[a * (N // gc.level) for a in row] for row in gc.phases]
    characters = [[x * (N // e) for x in chi] for chi in characters]
    t2 = [[row[G.index(c)] for c in G2.elements] for row in gc.t]
    steps = []
    for i in range(P.k):
        eps = tuple(int(j == i) for j in range(P.k))
        srow = []
        for c in G2.elements:
            cm = G2.reduce(tuple(x - y for x, y in zip(c, eps)))
            step = tuple(x + y for x, y in zip(cm, eps))
            corr = tuple(a - b for a, b in zip(step, c))
            srow.append((alpha[i][G.index(step)], _kernel_coeffs(kernel2, corr)))
        steps.append(srow)
    summands = []
    for chi in characters:
        alpha2 = [[Fraction((a + sum(map(operator.mul, coeffs, chi))) % N, N)
                   for a, coeffs in srow] for srow in steps]
        summands.append(group_construction(P, G2, t2, alpha2))
    assert all(len(full_symmetry_subgroup(s)) == 1 for s in summands)
    return tuple(sym), tuple(summands)


class TestSymmetryAndDecomposition:
    def test_full_symmetry_of_constant_construction(self):
        G = FiniteAbelianGroup.cyclic_product([2, 2, 2])
        gc = group_construction(T3, G, [[1] * 8] * 3, [[Fraction(0)] * 8] * 3)
        assert len(full_symmetry_subgroup(gc)) == 8

    def test_injective_axis_blocks_symmetry(self):
        # t^1 takes distinct values along the first axis, so the symmetry
        # subgroup meets that axis only in 0
        gc = from_commuting_words(FLIP, [((1, 1), (1, 2)), ((2, 1), (2, 2))])
        assert len(set(gc.t[0][gc.group.index((s, 0))] for s in (0, 1))) == 2
        sym = full_symmetry_subgroup(gc)
        assert [h for h in sym if h[1] == 0] == [(0, 0)]

    def test_label_filter_matches_the_quadratic_scan(self):
        parents = _symmetry_cases()
        assert sorted(gc.dimension for gc in parents)[-2:] == [144, 1764]
        skew_kernels = non_cyclic = 0
        for gc in parents:
            sym = full_symmetry_subgroup(gc)
            assert sym == _scanned_symmetry(gc)
            # a symmetry no one member generates takes the coset marking
            # more than one walk
            non_cyclic += len(sym) > max(_element_order(gc.group, h) for h in sym)
            for s in decompose(gc).summands:
                assert full_symmetry_subgroup(s) == _scanned_symmetry(s)
                skew_kernels += any(s.group.kernel[0][1:])
        assert non_cyclic > 0
        assert skew_kernels > 0

    def test_decompose_matches_the_per_character_path(self):
        for gc in _symmetry_cases():
            rep = decompose(gc)
            assert (rep.symmetry, rep.summands) == _per_character_decompose(normalize_scalars(gc))

    def test_non_constant_phases_are_normalized_first(self):
        # the coboundary hides the symmetry of t: the phases alone have none
        gc = _sixths_gauged_gc27()
        assert any(len(set(row)) > 1 for row in gc.alpha)
        assert len(full_symmetry_subgroup(gc)) == 1
        rep = decompose(gc)
        assert rep.dimensions == [3] * 9
        assert rep == decompose(normalize_scalars(gc))

    def test_an_incomplete_symmetry_is_caught_by_the_quotient_walk(self, monkeypatch):
        # were the parent walk to miss members, t would keep a symmetry on
        # the quotient, and the one walk over it must say so
        walk = groupcons._translation_symmetry
        calls = []

        def first_walk_misses(G, rows):
            calls.append(G.order)
            found = walk(G, rows)
            return found[:1] if len(calls) == 1 else found

        monkeypatch.setattr(groupcons, "_translation_symmetry", first_walk_misses)
        with pytest.raises(InvalidConstruction, match="nontrivial symmetry"):
            decompose(gc27())
        assert calls == [27, 27]

    def test_words_are_checked_on_the_quotient(self):
        gc = gc27()
        t = [list(row) for row in gc.t]
        t[0][0] = 3 - t[0][0]
        broken = GroupConstruction(FCC, gc.group, tuple(map(tuple, t)), gc.level, gc.phases)
        with pytest.raises(InvalidConstruction) as info:
            decompose(broken)
        assert info.value.witness[0] == "words"

    def test_summand_conditions_are_checked_once_per_quotient(self, monkeypatch):
        # the words conditions once on the shared t, the scalar ones once
        # per character on exactly the phases that summand gets
        gc = gc27(alphas=[Fraction(1, 3)] * 3)
        checked = {"words": [], "scalars": []}
        for half in checked:
            check = getattr(groupcons, f"_{half}_witness")

            def recorded(*args, check=check, half=half):
                checked[half].append(args)
                return check(*args)

            monkeypatch.setattr(groupcons, f"_{half}_witness", recorded)
        rep = decompose(gc)
        assert [(G, t) for _, G, t in checked["words"]] == [(rep.summands[0].group,
                                                              rep.summands[0].t)]
        assert len(checked["scalars"]) == len(rep.summands) == 9
        for (G, den, a), s in zip(checked["scalars"], rep.summands):
            assert G == s.group
            assert tuple(tuple(Fraction(x, den) for x in row) for row in a) == s.alpha

    def test_27dim_decomposition(self):
        rep = decompose(gc27())
        assert len(rep.summands) == 9
        assert rep.dimensions == [3] * 9
        assert sum(rep.dimensions) == 27
        for s in rep.summands:
            assert len(full_symmetry_subgroup(s)) == 1
            for row in s.alpha:
                assert all(a.denominator in (1, 3) for a in row)

    def test_27dim_summands_are_distinct(self):
        # nine characters give nine different constructions, the trivial
        # character's (all constants 0) first
        summands = decompose(gc27()).summands
        assert len(set(summands)) == 9
        assert summands[0].phases == ((0,) * 3,) * 3

    def test_trivial_symmetry_single_summand(self):
        parent = from_commuting_words(FLIP, [((1, 1), (1, 2)), ((2, 1), (2, 2))])
        irreducible = decompose(parent).summands[0]
        assert len(full_symmetry_subgroup(irreducible)) == 1
        rep = decompose(irreducible)
        assert len(rep.summands) == 1
        assert rep.summands[0].t == irreducible.t
        assert rep.summands[0].alpha == irreducible.alpha

    def test_summand_loop_phases_refine_the_parent(self):
        gc = gc27(alphas=[Fraction(1, 3)] * 3)
        rep = decompose(gc)
        # along the full kernel of the parent (C_3 axes), each summand's
        # loop phase matches the parent root of unity times the character
        # correction, and in particular is a cube root of unity
        for s in rep.summands:
            for row in s.group.kernel:
                assert _path_phase(s, row).denominator in (1, 3)


class TestExtendToGroup:
    def test_full_input_identity(self):
        gc = gc27()
        part = _restriction(gc, gc.group.elements)
        out = extend_to_group(FCC, part)
        assert out.t == gc.t and out.alpha == gc.alpha

    def test_axis_data_reproduces_commuting_word_construction(self):
        gc = gc27()
        G = gc.group
        t = {}
        alpha = {}
        for i in (1, 2, 3):
            for s in range(3):
                v = G.reduce(tuple(-s if j == i - 1 else 0 for j in range(3)))
                t[(i, v)] = gc.t[i - 1][G.index(v)]
                alpha[(i, v)] = gc.alpha[i - 1][G.index(v)]
        out = extend_to_group(FCC, PartialConstruction(G, t, alpha))
        assert out.t == gc.t and out.alpha == gc.alpha

    def test_symmetric_box_extension_keeps_symmetry(self):
        gc = gc27()
        G = gc.group
        H = full_symmetry_subgroup(gc)
        domain = sorted({G.reduce(tuple(x + y for x, y in zip(g, h)))
                         for g in G.elements if g[0] == 0 for h in H})
        part = _restriction(gc, domain)
        out = extend_to_group(FCC, part, symmetry=H)
        out_sym = set(full_symmetry_subgroup(out))
        assert set(H) <= out_sym
        for g in domain:
            for i in (1, 2, 3):
                assert _t_at(out, i, g) == _t_at(gc, i, g)

    def test_single_point_bootstrap(self):
        gc = gc27()
        part = _restriction(gc, [(0, 0, 0)])
        out = extend_to_group(FCC, part)
        assert out.dimension == 27
        assert _t_at(out, 1, (0, 0, 0)) == _t_at(gc, 1, (0, 0, 0))

    def test_inconsistent_seed_rejected(self):
        # flip constructions force t^1 = t^2 pointwise
        G = FiniteAbelianGroup.cyclic_product([2, 2])
        part = PartialConstruction(G, {(1, (0, 0)): 2, (2, (0, 0)): 1}, {})
        with pytest.raises(InvalidConstruction):
            extend_to_group(FLIP, part)

    def test_empty_seed_builds_something_valid(self):
        G = FiniteAbelianGroup.cyclic_product([2, 2])
        out = extend_to_group(FLIP, PartialConstruction(G, {}, {}))
        assert out.dimension == 4


def _all_labellings(P, G):
    """Every valid index labelling of P on G, as flat tuples over the slots
    (i, n) numbered (i - 1) |G| + n: a plain depth-first sweep over the
    slots that checks each commutation square once its last slot is set."""
    N = G.order
    checks = [[] for _ in range(P.k * N)]
    for n in range(N):
        for i in range(1, P.k + 1):
            for j in range(i + 1, P.k + 1):
                sq = (i, j, (i - 1) * N + n, (j - 1) * N + G.sub_generator(n, i),
                      (i - 1) * N + G.sub_generator(n, j), (j - 1) * N + n)
                checks[max(sq[2:])].append(sq)
    out, val = [], [0] * (P.k * N)

    def sweep(s):
        if s == len(val):
            out.append(tuple(val))
            return
        for v in range(1, P.m[s // N] + 1):
            val[s] = v
            if all(P.theta_apply(i, j, val[a], val[b]) == (val[c], val[d])
                   for i, j, a, b, c, d in checks[s]):
                sweep(s + 1)

    sweep(0)
    return out


def _partial(G, seed):
    N = G.order
    return PartialConstruction(
        G, {(s // N + 1, G.elements[s % N]): v for s, v in seed.items()}, {})


class TestExtensionSolver:
    GROUPS = {
        "C2xC2": FiniteAbelianGroup.cyclic_product([2, 2]),
        "C2xC3": FiniteAbelianGroup.cyclic_product([2, 3]),
        "Z2/<(2,1),(0,3)>": FiniteAbelianGroup.from_kernel([(2, 1), (0, 3)]),
        "C3xC3": FiniteAbelianGroup.cyclic_product([3, 3]),
    }
    GRAPHS = {
        "flip": FLIP,
        "square": catalog.square_2graph(),
        "cycle3-forward": FWD,
        "cycle3-reverse": catalog.cycle3_reverse_2graph(),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_verdicts_match_brute_force(self, group, graph):
        P, G = self.GRAPHS[graph], self.GROUPS[group]
        valid = _all_labellings(P, G)
        slots = range(P.k * G.order)
        axes = [(i - 1) * G.order + G.index(tuple(-c if j == i - 1 else 0 for j in (0, 1)))
                for i in (1, 2) for c in range(G.generator_order(i))]
        rng = random.Random(f"{group} {graph}")
        seeds = [{}] + [{s: v} for s in slots for v in range(1, P.m[s // G.order] + 1)]
        for source in ([rng.choice(valid) for _ in range(20)] if valid else []) + [
                [rng.randint(1, P.m[s // G.order]) for s in slots] for _ in range(20)]:
            seeds.append({s: source[s] for s in axes})
            for _ in range(2):
                chosen = rng.sample(list(slots), rng.randint(1, len(slots)))
                seeds.append({s: source[s] for s in chosen})
        wrong = []
        for seed in seeds:
            expected = any(all(lab[s] == v for s, v in seed.items()) for lab in valid)
            try:
                gc = extend_to_group(P, _partial(G, seed))
            except InvalidConstruction:
                got = False
            else:
                got = True
                flat = tuple(itertools.chain(*gc.t))
                assert flat in valid
                assert all(flat[s] == v for s, v in seed.items())
                assert all(a == 0 for row in gc.alpha for a in row)
            if got != expected:
                wrong.append(seed)
        assert not wrong, f"{len(wrong)} of {len(seeds)} verdicts wrong, first {wrong[:3]}"

    def test_axis_data_needs_no_branching(self, monkeypatch):
        # the commuting axis words fix every slot by propagation alone
        gc = gc27()
        G = gc.group
        axes = [(i, G.reduce(tuple(-c if j == i - 1 else 0 for j in range(3))))
                for i in (1, 2, 3) for c in range(3)]
        monkeypatch.setenv("POLYGRAPH_BUDGET", "0")
        part = PartialConstruction(G, {key: _t_at(gc, *key) for key in axes}, {})
        out = extend_to_group(FCC, part)
        assert out.t == gc.t
        with pytest.raises(BudgetExceeded):
            extend_to_group(FCC, _restriction(gc, [(0, 0, 0)]))

    def test_short_axis_is_branched_first(self, monkeypatch):
        # on C30 x C6 a wrong value on the long axis would only show after
        # the whole axis wraps; branching the short axis first finds one
        # within a few dozen nodes
        words = [tuple((1, int(ch)) for ch in "222122222122222122222122222122"),
                 tuple((2, int(ch)) for ch in "222122")]
        gc = from_commuting_words(FLIP, words)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "200")
        out = extend_to_group(FLIP, _restriction(gc, [(0, 0)]))
        assert _t_at(out, 1, (0, 0)) == _t_at(gc, 1, (0, 0))
        assert _t_at(out, 2, (0, 0)) == _t_at(gc, 2, (0, 0))

    def test_symmetry_is_imposed(self):
        # flip labels are constant along the antidiagonals x + y; the seeds
        # sit on different ones, so only the symmetry (2, 0) ties them
        G = FiniteAbelianGroup.cyclic_product([4, 4])
        part = PartialConstruction(G, {(1, (0, 0)): 2}, {(2, (1, 0)): Fraction(1, 3)})
        out = extend_to_group(FLIP, part, symmetry=[(2, 0)])
        assert (2, 0) in full_symmetry_subgroup(out)
        assert _t_at(out, 1, (0, 0)) == 2 and _alpha_at(out, 2, (1, 0)) == Fraction(1, 3)
        clash = PartialConstruction(G, {(1, (0, 0)): 2, (1, (2, 0)): 1}, {})
        assert _t_at(extend_to_group(FLIP, clash), 1, (2, 0)) == 1
        with pytest.raises(InvalidConstruction):
            extend_to_group(FLIP, clash, symmetry=[(2, 0)])

    def test_square_on_c3xc3_has_no_labelling(self):
        G = self.GROUPS["C3xC3"]
        assert _all_labellings(catalog.square_2graph(), G) == []
        with pytest.raises(InvalidConstruction):
            extend_to_group(catalog.square_2graph(), PartialConstruction(G, {}, {}))

    @staticmethod
    def _gauged_gc27(rng):
        gc = gc27(alphas=[Fraction(rng.randrange(6), 6) for _ in range(3)])
        G = gc.group
        d = [Fraction(rng.randrange(12), 12) for _ in range(G.order)]
        alpha = [[(gc.alpha[i][n] + d[n] - d[G.sub_generator(n, i + 1)]) % 1
                  for n in range(G.order)] for i in range(3)]
        return group_construction(FCC, G, gc.t, alpha)

    def test_phases_extend_exactly(self):
        rng = random.Random(7)
        for _ in range(6):
            gc = self._gauged_gc27(rng)
            G = gc.group
            keys = rng.sample([(i, g) for i in (1, 2, 3) for g in G.elements],
                              rng.randint(1, 81))
            part = PartialConstruction(
                G, {key: _t_at(gc, *key) for key in keys},
                {key: _alpha_at(gc, *key) for key in keys[:rng.randint(1, len(keys))]})
            out = extend_to_group(FCC, part)
            assert _agreed_witness(FCC, G, out.t, out.alpha) is None
            for key, v in part.t.items():
                assert _t_at(out, *key) == v
            for key, a in part.alpha.items():
                assert _alpha_at(out, *key) == a

    def test_constant_phases_stay_constant(self):
        gc = gc27(alphas=[Fraction(1, 3), Fraction(1, 2), Fraction(0)])
        out = extend_to_group(FCC, _restriction(gc, [(1, 2, 0)]))
        assert out.alpha == gc.alpha

    def test_phases_breaking_a_square_are_rejected(self):
        rng = random.Random(11)
        for _ in range(6):
            gc = self._gauged_gc27(rng)
            G = gc.group
            g = rng.choice(G.elements)
            i, j = sorted(rng.sample((1, 2, 3), 2))
            n = G.index(g)
            square = [(i, g), (j, G.elements[G.sub_generator(n, i)]),
                      (i, G.elements[G.sub_generator(n, j)]), (j, g)]
            keys = set(square) | set(rng.sample(
                [(c, h) for c in (1, 2, 3) for h in G.elements], rng.randint(0, 40)))
            alpha = {key: _alpha_at(gc, *key) for key in keys}
            alpha[square[rng.randrange(4)]] += Fraction(1, 5)
            with pytest.raises(InvalidConstruction):
                extend_to_group(FCC, PartialConstruction(G, {}, alpha))

    def test_phases_inconsistent_only_through_open_slots(self):
        # every square holding the altered phase also holds an open one, so
        # no given square is broken; the open phases cannot meet all squares
        G = self.GROUPS["C3xC3"]
        d = [Fraction(n * n, 9) for n in range(9)]
        gc = group_construction(FLIP, G, [[1] * 9] * 2,
                                [[d[n] - d[G.sub_generator(n, i)] for n in range(9)]
                                 for i in (1, 2)])
        opened = {(1, (1, 1)), (1, (2, 1))}
        alpha = {(i, g): _alpha_at(gc, i, g) for i in (1, 2) for g in G.elements
                 if (i, g) not in opened}
        alpha[(2, (1, 1))] += Fraction(1, 3)
        with pytest.raises(InvalidConstruction):
            extend_to_group(FLIP, PartialConstruction(G, {}, alpha))
        del alpha[(2, (1, 1))]
        out = extend_to_group(FLIP, PartialConstruction(G, {}, alpha))
        assert out.alpha == gc.alpha


def _smith_normal_form(mat):
    """Smith normal form with transforms: returns (U, D, V), U*mat*V = D.

    U and V are unimodular; D is diagonal (rectangular allowed) with
    d_1 | d_2 | ... >= 0.  Standard elimination, kept for the phase
    reference below: its systems reach 81 rows, where sympy's Smith form
    takes seconds.
    """
    a = [list(r) for r in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i1, i2, q):  # row i2 -= q * row i1
        for c in range(ncols):
            a[i2][c] -= q * a[i1][c]
        for c in range(nrows):
            u[i2][c] -= q * u[i1][c]

    def col_op(j1, j2, q):  # col j2 -= q * col j1
        for r in range(nrows):
            a[r][j2] -= q * a[r][j1]
        for r in range(ncols):
            v[r][j2] -= q * v[r][j1]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for r in range(nrows):
            a[r][j1], a[r][j2] = a[r][j2], a[r][j1]
        for r in range(ncols):
            v[r][j1], v[r][j2] = v[r][j2], v[r][j1]

    t = 0
    while t < min(nrows, ncols):
        # find a nonzero pivot in the submatrix
        pr = pc = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best, pr, pc = abs(a[i][j]), i, j
        if pr is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the whole remaining submatrix, else fold
                # an offending row in and keep reducing
                offender = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_op(offender, t, -1)  # row t += row offender
        if a[t][t] < 0:
            for c in range(ncols):
                a[t][c] = -a[t][c]
            for c in range(nrows):
                u[t][c] = -u[t][c]
        t += 1
    return (tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v)))


class TestSmithNormalForm:
    @staticmethod
    def _mul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                     for row in a)

    def test_transforms_and_diagonal(self):
        rng = random.Random(1506)
        for _ in range(150):
            k = rng.randint(1, 3)
            rows = [tuple(rng.randint(-12, 12) for _ in range(k)) for _ in range(rng.randint(1, 4))]
            if len(rows) >= 2 and rng.random() < 0.3:  # rank-deficient
                rows[-1] = tuple(2 * x - y for x, y in zip(rows[0], rows[1]))
            U, D, V = _smith_normal_form(tuple(rows))
            assert self._mul(self._mul(U, rows), V) == D
            assert abs(Matrix(U).det()) == 1 and abs(Matrix(V).det()) == 1
            assert all(D[i][j] == 0 for i in range(len(D)) for j in range(k) if i != j)
            assert [D[i][i] for i in range(min(len(D), k))] \
                == [abs(d) for d in invariant_factors(Matrix(rows), domain=ZZ)]


def _smith_solve_phases(G, given):
    """Reference phase completion by one Smith-form system over all squares.

    Each color's first given phase (or 0) is subtracted and the residual x
    on the open slots solves A x = r (mod 1) through U A V = D: x = V y
    with y_t = (U r)_t / d_t.  Where d_t = 0 the system is met only if
    (U r)_t is integral, so the completion validates exactly when some
    completion exists.
    """
    N = G.order
    base = [next((given[s] for s in sorted(given) if s // N == i), Fraction(0)) for i in range(G.k)]
    x = {s: (v - base[s // N]) % 1 for s, v in given.items()}
    col = {s: n for n, s in enumerate(s for s in range(G.k * N) if s not in given)}
    rows, rhs = [], []
    for _, _, *slots in _squares(G) if any(x.values()) else ():
        row, r = [0] * len(col), Fraction(0)
        for s, sign in zip(slots, (1, 1, -1, -1)):
            if s in col:
                row[col[s]] += sign
            else:
                r -= sign * x[s]
        if any(row):
            rows.append(row)
            rhs.append(r)
    y = [Fraction(0)] * len(col)
    if rows:
        U, D, V = _smith_normal_form(rows)
        for t in range(min(len(rows), len(y))):
            if D[t][t]:
                y[t] = sum((c * r for c, r in zip(U[t], rhs)), Fraction(0)) / D[t][t]
        y = [sum((c * yt for c, yt in zip(vrow, y)), Fraction(0)) % 1 for vrow in V]
    x.update(zip(col, y))
    return [[(base[i] + x[i * N + n]) % 1 for n in range(N)] for i in range(G.k)]


def _reference_character(kernel, psi):
    """The rational solution x of kernel . x = psi (mod 1) by exact
    back-substitution on the echelon kernel rows."""
    k = len(kernel)
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        acc = sum((Fraction(kernel[i][j]) * x[j] for j in range(i + 1, k)), Fraction(0))
        x[i] = Fraction(psi[i] - acc, kernel[i][i])
    return [v % 1 for v in x]


class TestPhaseSolver:
    CASES = ["flip C3xC3", "flip C4xC4", "flip Z2/<(2,1),(0,3)>", "flip-cycles gc27"]

    @staticmethod
    def _scrambled(case, rng):
        """A closed phase labelling that is not constant: random constants
        plus the coboundary of a random potential."""
        if case == "flip-cycles gc27":
            gc = TestExtensionSolver._gauged_gc27(rng)
        else:
            G = {"flip C3xC3": FiniteAbelianGroup.cyclic_product([3, 3]),
                 "flip C4xC4": FiniteAbelianGroup.cyclic_product([4, 4]),
                 "flip Z2/<(2,1),(0,3)>": FiniteAbelianGroup.from_kernel([(2, 1), (0, 3)]),
                 }[case]
            c = [Fraction(rng.randrange(12), 12) for _ in range(2)]
            d = [Fraction(rng.randrange(12), 12) for _ in range(G.order)]
            gc = group_construction(FLIP, G, [[1] * G.order] * 2, [
                [(c[i] + d[n] - d[G.sub_generator(n, i + 1)]) % 1 for n in range(G.order)]
                for i in range(2)])
        assert any(len(set(row)) > 1 for row in gc.alpha)
        return gc

    @pytest.mark.parametrize("case", CASES)
    def test_extension_verdicts_match_smith_form(self, case):
        rng = random.Random(case)
        verdicts = set()
        for draw in range(30):
            gc = self._scrambled(case, rng)
            P, G = gc.presentation, gc.group
            keys = rng.sample([(i, g) for i in range(1, G.k + 1) for g in G.elements],
                              rng.randint(1, G.k * G.order))
            alpha = {key: _alpha_at(gc, *key) for key in keys}
            if draw % 2:
                alpha[rng.choice(keys)] += rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
            reference = _smith_solve_phases(G, _slots(G, alpha, lambda a: Fraction(a) % 1))
            solvable = _agreed_witness(P, G, gc.t, reference) is None
            t = {(i, g): _t_at(gc, i, g) for i in range(1, G.k + 1) for g in G.elements}
            try:
                out = extend_to_group(P, PartialConstruction(G, t, alpha))
            except InvalidConstruction:
                assert not solvable, f"draw {draw}: rejected, but the reference completes it"
            else:
                assert solvable, f"draw {draw}: extended, but the reference fails"
                assert all(_alpha_at(out, *key) == a % 1 for key, a in alpha.items())
            verdicts.add(solvable)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("case", CASES)
    def test_normalized_constants_match_the_loop_character(self, case):
        rng = random.Random(case)
        for _ in range(5):
            gc = self._scrambled(case, rng)
            kernel = gc.group.kernel
            expected = _reference_character(kernel, [_path_phase(gc, row) for row in kernel])
            assert normalize_scalars(gc).alpha == tuple(
                (x,) * gc.group.order for x in expected)

    def test_inconsistent_full_data_rejected_by_the_phase_solver(self):
        # every slot given, all zero but one moved by 1/3: the squares at
        # that slot close with phase 1/3, so no potential exists
        G = FiniteAbelianGroup.cyclic_product([6, 6])
        alpha = {(i, g): Fraction(0) for i in (1, 2) for g in G.elements}
        alpha[(2, (3, 4))] = Fraction(1, 3)
        with pytest.raises(InvalidConstruction,
                           match="no phase labelling extends the given data"):
            extend_to_group(FLIP, PartialConstruction(G, {}, alpha))


def _fraction_characters(kernel, kernel2):
    """Reference characters of kernel2/kernel as Fraction vectors, from
    sympy alone: with C the kernel rows in kernel2 coordinates and
    S C T = D its Smith form, the characters are T (z_i / d_i)."""
    coeffs = Matrix(kernel) * Matrix(kernel2).inv()
    D, _, T = smith_normal_decomp(coeffs, domain=ZZ)
    d = [int(D[i, i]) for i in range(len(kernel))]
    return [tuple(sum((Fraction(int(T[r, c]) * z[c], d[c]) for c in range(len(d))),
                      Fraction(0)) % 1 for r in range(len(d)))
            for z in itertools.product(*map(range, d))]


def _fraction_decompose(gc):
    """Reference (symmetry, summands) of :func:`decompose` in Fraction
    arithmetic, the symmetry by the quadratic scan; the summands come in
    the reference's own character order."""
    G, P = gc.group, gc.presentation
    sym = _scanned_symmetry(gc)
    kernel2 = hermite_normal_form(list(G.kernel) + sym)
    G2 = FiniteAbelianGroup.from_kernel(kernel2)
    t2 = [[row[G.index(c)] for c in G2.elements] for row in gc.t]
    steps = []
    for i in range(P.k):
        eps = tuple(int(j == i) for j in range(P.k))
        srow = []
        for c in G2.elements:
            cm = G2.reduce(tuple(x - y for x, y in zip(c, eps)))
            step = tuple(x + y for x, y in zip(cm, eps))
            corr = tuple(a - b for a, b in zip(step, c))
            srow.append((gc.alpha[i][G.index(step)], _kernel_coeffs(kernel2, corr)))
        steps.append(srow)
    summands = []
    for chi in _fraction_characters(G.kernel, kernel2):
        alpha2 = [[(a + sum((c * x for c, x in zip(coeffs, chi)), Fraction(0))) % 1
                   for a, coeffs in srow] for srow in steps]
        summands.append(group_construction(P, G2, t2, alpha2))
    return tuple(sym), tuple(summands)


class TestQuotientCharacters:
    def test_hermite_characters_match_sympy(self):
        # random full-rank kernels K of index 2 to 240 in Z^k, k = 1 to 4,
        # and superlattices K + <1 or 2 random vectors>
        rng = random.Random(1507)
        pairs = nontrivial = 0
        while pairs < 1000:
            k = rng.randint(1, 4)
            kernel = hermite_normal_form([tuple(rng.randint(-5, 5) for _ in range(k))
                                          for _ in range(k + 1)])
            if len(kernel) != k or not 1 < math.prod(kernel[i][i] for i in range(k)) <= 240:
                continue
            kernel2 = hermite_normal_form(list(kernel) + [
                tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(rng.randint(1, 2))])
            e, characters = _quotient_characters(kernel, kernel2)
            found = [tuple(Fraction(x, e) for x in chi) for chi in characters]
            assert len(set(found)) == len(found)
            assert sorted(found) == sorted(_fraction_characters(kernel, kernel2)), (kernel, kernel2)
            pairs += 1
            nontrivial += len(found) > 1
        assert nontrivial > 700


def _gauged(gc, denominator, rng):
    """gc with its phases moved by the coboundary of a random potential."""
    G = gc.group
    d = [Fraction(rng.randrange(denominator), denominator) for _ in range(G.order)]
    return group_construction(gc.presentation, G, gc.t, [
        [(gc.alpha[i][n] + d[n] - d[G.sub_generator(n, i + 1)]) % 1 for n in range(G.order)]
        for i in range(G.k)])


class TestIntegerPhases:
    """Constructions store integer phases over one level; group_construction,
    normalize_scalars and decompose are checked against Fraction arithmetic."""

    @staticmethod
    def _assert_decomposes_like_fractions(gc):
        rep = decompose(gc)
        symmetry, summands = _fraction_decompose(gc)
        assert rep.symmetry == symmetry
        assert collections.Counter(rep.summands) == collections.Counter(summands)

    @pytest.mark.parametrize("alphas", [None, [Fraction(1, 3)] * 3,
                                        [Fraction(1, 3), Fraction(1, 2), Fraction(0)]])
    def test_27dim_decomposition_matches_fractions(self, alphas):
        self._assert_decomposes_like_fractions(gc27(alphas))

    def test_normalized_decomposition_matches_fractions(self):
        rng = random.Random(8)
        gc = _gauged(gc27([Fraction(1, 3), Fraction(1, 2), Fraction(0)]), 12, rng)
        assert any(len(set(row)) > 1 for row in gc.alpha)
        self._assert_decomposes_like_fractions(normalize_scalars(gc))

    def test_seeded_cycle_constructions_match_fractions(self):
        rng = random.Random(9)
        orders, levels = set(), set()
        for P in (FLIP, FWD):
            drawn = 0
            while drawn < 20:
                seeds = [tuple((c, rng.randint(1, 2)) for _ in range(rng.randint(1, 4)))
                         for c in (1, 2)]
                family, _ = cycle_construction(P, seeds)
                if len(family[0]) * len(family[1]) > 144:
                    continue
                alphas = [Fraction(rng.randrange(6), rng.choice((1, 2, 3, 4, 6))) for _ in (1, 2)]
                gc = from_commuting_words(P, family, alphas)
                self._assert_decomposes_like_fractions(gc)
                orders.add(gc.dimension)
                levels.add(max(a.denominator for s in decompose(gc).summands
                               for row in s.alpha for a in row))
                drawn += 1
        assert max(orders) == 144 and len(orders) >= 10
        assert len(levels) >= 4

    @pytest.mark.parametrize("denominator, move", [(3, Fraction(1, 5)), (7, Fraction(1, 2))])
    def test_scalar_witness_matches_fractions(self, denominator, move):
        rng = random.Random(denominator)
        if denominator == 3:
            base = gc27([Fraction(1, 3), Fraction(2, 3), Fraction(0)])
        else:
            G = FiniteAbelianGroup.cyclic_product([7, 7])
            base = group_construction(FLIP, G, [[1] * G.order] * 2,
                                      [[Fraction(2, 7)] * G.order, [Fraction(5, 7)] * G.order])
        for _ in range(10):
            gc = _gauged(base, denominator, rng)
            G = gc.group
            alpha = [list(row) for row in gc.alpha]
            i, n = rng.randrange(G.k), rng.randrange(G.order)
            alpha[i][n] = (alpha[i][n] + move) % 1
            witness = _agreed_witness(gc.presentation, G, gc.t, alpha)
            assert witness is not None and witness[0] == "scalars"
            assert all(type(x) is Fraction for x in witness[4:])
            assert _agreed_witness(gc.presentation, G, gc.t, gc.alpha) is None

    def test_random_phases_reduce_like_fractions_mod_one(self):
        # every denominator 1 to 12, values below 0 and past 1, and ints
        rng = random.Random(10)
        seen = set()
        for base in (gc27(), from_commuting_words(FLIP, [_word(1, "1111"), _word(2, "111")])):
            G = base.group
            for q in list(range(1, 13)) * 2:
                c = [Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(G.k)]
                d = [Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(G.order)]
                alpha = [[c[i] + d[n] - d[G.sub_generator(n, i + 1)] + rng.randint(-2, 2)
                          for n in range(G.order)] for i in range(G.k)]
                alpha = [[int(a) if a.denominator == 1 and rng.random() < 0.5 else a
                          for a in row] for row in alpha]
                gc = group_construction(base.presentation, G, base.t, alpha)
                assert gc.alpha == tuple(tuple(Fraction(a) % 1 for a in row) for row in alpha)
                assert gc.level == math.lcm(*(a.denominator for row in gc.alpha for a in row))
                assert math.gcd(gc.level, *itertools.chain(*gc.phases)) == 1
                assert all(0 <= a < gc.level for row in gc.phases for a in row)
                seen.update((type(a), a < 0, a > 1) for row in alpha for a in row)
        assert {(int, True, False), (int, False, True), (Fraction, True, False),
                (Fraction, False, True)} <= seen

    def test_phases_equal_mod_one_give_equal_constructions(self):
        thirds = (Fraction(1, 3), Fraction(4, 3), Fraction(-2, 3))
        G = gc27().group
        built = [gc27([p] * 3) for p in thirds]
        built += [group_construction(FCC, G, built[0].t, [[p] * G.order] * 3) for p in thirds]
        assert (built[0].level, built[0].phases) == (3, ((1,) * 27,) * 3)
        assert all(gc == built[0] and hash(gc) == hash(built[0]) for gc in built)
        zeros = [gc27([p] * 3) for p in (0, 2, -1, Fraction(5), Fraction(-3, 1))]
        assert all(gc == gc27() and hash(gc) == hash(gc27()) for gc in zeros)
        assert (gc27().level, gc27().phases) == (1, ((0,) * 27,) * 3)

    def test_summand_phases_are_in_lowest_terms(self):
        for gc in _symmetry_cases():
            for s in decompose(gc).summands:
                assert math.gcd(s.level, *itertools.chain(*s.phases)) == 1
                assert s.alpha == tuple(tuple(Fraction(a, s.level) for a in row)
                                        for row in s.phases)
        # the trivial character of the 27-dim construction has phase 0
        assert decompose(gc27()).summands[0].level == 1

    def test_oracle_agrees_on_scrambled_and_moved_data(self):
        # the scrambled and random-phase constructions, intact, with one
        # index or one phase moved, and with a row or an entry cut off
        rng = random.Random(13)
        cases = list(_symmetry_cases()[:4]) + [
            TestPhaseSolver._scrambled(case, rng) for case in TestPhaseSolver.CASES
            for _ in range(3)]
        kinds = set()
        for gc in cases:
            P, G = gc.presentation, gc.group
            t, alpha = [list(row) for row in gc.t], [list(row) for row in gc.alpha]
            kinds.add(_agreed_witness(P, G, t, alpha))
            for _ in range(4):
                i, n = rng.randrange(G.k), rng.randrange(G.order)
                moved = [list(row) for row in t]
                moved[i][n] = rng.randint(1, P.m[i])
                kinds.add((_agreed_witness(P, G, moved, alpha) or ("valid",))[0])
                moved = [list(row) for row in alpha]
                moved[i][n] += rng.choice((Fraction(1, 2), Fraction(1, 5), Fraction(7, 3), 1))
                kinds.add((_agreed_witness(P, G, t, moved) or ("valid",))[0])
            for rows in (t[:-1], [t[0][:-1]] + t[1:], t + t[:1]):
                kinds.add(_agreed_witness(P, G, rows, alpha)[0])
            for rows in (alpha[:-1], alpha + alpha[:1], [alpha[0][:-1]] + alpha[1:]):
                kinds.add(_agreed_witness(P, G, t, rows)[0])
        assert {None, "valid", "words", "scalars", "shape"} <= kinds


class TestAtomicGraph:
    def test_edge_count_and_defect_freeness(self):
        gc = gc27()
        data = to_atomic_graph(gc)
        assert len(data["vertices"]) == 27
        assert len(data["edges"]) == 81
        incoming = {}
        for e in data["edges"]:
            key = (e["dst"], e["color"])
            incoming[key] = incoming.get(key, 0) + 1
        assert all(v == 1 for v in incoming.values())
        assert len(incoming) == 81

    def test_one_dimensional_graph_is_all_loops(self):
        gc = from_commuting_words(FLIP, [((1, 1),), ((2, 1),)])
        data = to_atomic_graph(gc)
        assert len(data["vertices"]) == 1
        assert all(e["src"] == e["dst"] for e in data["edges"])

    def test_dot_output_mentions_labels(self):
        gc = from_commuting_words(FLIP, [((1, 1),), ((2, 1),)])
        dot = to_dot(gc)
        assert dot.startswith("digraph")
        assert '1:1 (0/1)' in dot
