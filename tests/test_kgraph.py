import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraph import catalog
from polygraph.cli import CATALOG
from polygraph.kgraph import (
    CubicViolation,
    InvalidPermutation,
    NotAPrefix,
    Presentation,
    PresentationError,
    WordError,
    cells,
    check_word,
    color_pairs,
    degree,
    extract_prefix,
    normal_form,
    presentation_from_codes,
    validate_presentation,
    words_equal,
    words_of_degree,
)

FLIP = catalog.flip_2graph()
TRANSPOSITION2 = catalog.transposition_kgraph(2, 2)
TRANSPOSITION3 = catalog.transposition_kgraph(3, 2)
FCC = catalog.flip_cycle_cycle_3graph()
GRAPHS = [FLIP, catalog.square_2graph(), catalog.cycle3_forward_2graph(),
          TRANSPOSITION3, FCC, catalog.flip_square_square_3graph()]


def random_word(P, rng, max_len=10):
    letters = list(P.letters())
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_sort(P, w, rng):
    """Sort w by color using randomly chosen admissible adjacent swaps.

    On a valid presentation this agrees with normal_form whatever the
    random choices (confluence).
    """
    swap = P.swaps()
    out = list(w)
    while True:
        sites = [q for q in range(len(out) - 1) if out[q][0] > out[q + 1][0]]
        if not sites:
            return tuple(out)
        q = rng.choice(sites)
        out[q], out[q + 1] = swap[(out[q], out[q + 1])]


class TestValidation:
    def test_transposition_family_is_valid_for_all_k(self):
        for k in (1, 2, 3, 4):
            P = catalog.transposition_kgraph(k, 2)
            assert P.k == k

    def test_flip_plus_two_cycles_is_valid(self):
        P = catalog.flip_cycle_cycle_3graph()
        assert P.m == (2, 2, 2)

    def test_flip_plus_two_squares_is_valid(self):
        catalog.flip_square_square_3graph()

    def test_broken_triple_rejected_with_witness(self):
        bad = catalog.broken_cubic_triple()
        with pytest.raises(CubicViolation) as exc:
            validate_presentation(bad["k"], bad["m"], bad["theta"])
        assert exc.value.witness == (1, 1, 1)
        assert {exc.value.left, exc.value.right} == {(1, 2, 1), (1, 1, 2)}

    def test_broken_triple_composites_against_inline_oracle(self):
        # recompute both composites on all 8 index triples from the raw
        # tables, independently of the validator
        bad = catalog.broken_cubic_triple()
        t12, t13, t23 = (bad["theta"][p] for p in ((1, 2), (1, 3), (2, 3)))
        mismatches = []
        for x, y, z in itertools.product((1, 2), repeat=3):
            y1, z1 = t23[(y, z)]
            x1, z2 = t13[(x, z1)]
            x2, y2 = t12[(x1, y1)]
            x3, y3 = t12[(x, y)]
            x4, z3 = t13[(x3, z)]
            y4, z4 = t23[(y3, z3)]
            if (x2, y2, z2) != (x4, y4, z4):
                mismatches.append(((x, y, z), (x2, y2, z2), (x4, y4, z4)))
        assert mismatches[0] == ((1, 1, 1), (1, 2, 1), (1, 1, 2))

    def test_cubic_witnesses_match_dict_reference(self):
        rng = random.Random(7)
        for m in [(2, 2, 2), (2, 3, 2), (3, 1, 2), (2, 2, 2, 2)]:
            k = len(m)
            outcomes = []
            for _ in range(150):
                theta = {}
                for i, j in itertools.combinations(range(1, k + 1), 2):
                    domain = [(s, t) for s in range(1, m[i - 1] + 1) for t in range(1, m[j - 1] + 1)]
                    theta[(i, j)] = dict(zip(domain, rng.sample(domain, len(domain))))
                expected = _reference_cubic_failure(k, m, theta)
                outcomes.append(expected is None)
                if expected is None:
                    validate_presentation(k, m, theta)
                    continue
                with pytest.raises(CubicViolation) as exc:
                    validate_presentation(k, m, theta)
                err = exc.value
                assert (err.triple, err.witness, err.left, err.right) == expected
            assert False in outcomes
            if m == (2, 2, 2):
                assert True in outcomes

    def test_bijection_errors(self):
        domain = [(s, t) for s in (1, 2) for t in (1, 2)]
        table = dict(zip(domain, domain))
        del table[(2, 2)]
        table[(3, 1)] = (2, 2)
        with pytest.raises(InvalidPermutation) as exc:
            validate_presentation(2, (2, 2), {(1, 2): table})
        assert str(exc.value) == "theta[1,2]: domain mismatch (missing [(2, 2)], extra [(3, 1)])"
        table = dict(zip(domain, domain))
        table[(2, 2)] = (3, 1)
        with pytest.raises(InvalidPermutation) as exc:
            validate_presentation(2, (2, 2), {(1, 2): table})
        assert str(exc.value) == "theta[1,2]: table is not a bijection"
        assert exc.value.pair == (1, 2)

    def test_non_bijective_table_rejected(self):
        theta = {(1, 2): {(s, t): (1, 1) for s in (1, 2) for t in (1, 2)}}
        with pytest.raises(InvalidPermutation):
            validate_presentation(2, (2, 2), theta)

    def test_two_graphs_need_no_cubic_check(self):
        # all 24 permutations of a 2x2 grid give 2-graphs
        domain = [(s, t) for s in (1, 2) for t in (1, 2)]
        for values in itertools.permutations(domain):
            validate_presentation(2, (2, 2), {(1, 2): dict(zip(domain, values))})

    def test_shape_errors(self):
        with pytest.raises(PresentationError):
            validate_presentation(0, (), {})
        with pytest.raises(PresentationError):
            validate_presentation(2, (2,), {(1, 2): catalog.flip_table(2, 2)})
        with pytest.raises(PresentationError):
            validate_presentation(2, (2, 2), {})

    @pytest.mark.parametrize("code", [(0, 1, 2, -1), (0, 1, 2, 5), (0, 1, 1, 2), (0, 1, 2)],
                             ids=["negative", "too-large", "duplicate", "short"])
    def test_codes_must_be_permutations(self, code):
        with pytest.raises(InvalidPermutation) as exc:
            presentation_from_codes(2, (2, 2), [code])
        assert exc.value.pair == (1, 2)
        with pytest.raises(InvalidPermutation) as exc:
            presentation_from_codes(3, (2, 2, 2), [FCC.codes[0], code, FCC.codes[2]])
        assert exc.value.pair == (1, 3)

    def test_code_count_and_shape_errors(self):
        for k, m, codes in [(2, (2, 2), []), (2, (2, 2), [(0, 1, 2, 3)] * 2),
                            (3, (2, 2, 2), FCC.codes[:2]), (0, (), []), (2, (2,), [(0, 1)])]:
            with pytest.raises(PresentationError) as exc:
                presentation_from_codes(k, m, codes)
            assert not isinstance(exc.value, InvalidPermutation)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_both_validators_give_equal_values(name):
    P = CATALOG[name]()
    Q = presentation_from_codes(P.k, P.m, P.codes)
    R = validate_presentation(P.k, P.m, {pair: P.table(*pair)
                                         for pair in itertools.combinations(range(1, P.k + 1), 2)})
    assert P == Q == R
    assert hash(P) == hash(Q) == hash(R)
    assert Q.swaps() == P.swaps()


def test_table_reads_the_code_of_its_pair():
    # table(i, j) computes the number of (i, j) in color_pairs order; a
    # distinct code per pair (a code store, not a k-graph) shows which it read
    perms = list(itertools.permutations(range(4)))
    for k in range(2, 8):
        P = Presentation(k, (2,) * k, tuple(perms[:k * (k - 1) // 2]))
        for code, (i, j) in zip(P.codes, color_pairs(k)):
            assert P.table(i, j) == {cell: cells(2, 2)[q] for cell, q in zip(cells(2, 2), code)}


def test_presentation_compares_only_its_codes():
    # == and hash read exactly k, m and the table codes; the swap table is
    # derived from them
    compared = [f.name for f in dataclasses.fields(Presentation) if f.compare]
    assert compared == ["k", "m", "codes"]
    assert FLIP != catalog.square_2graph() and FLIP.m == catalog.square_2graph().m


class TestDegreeAndConcat:
    def test_empty_word_degree(self):
        assert degree(FLIP, ()) == (0, 0)

    def test_letter_counts(self):
        w = ((1, 2), (2, 1), (1, 1))
        assert degree(FLIP, w) == (2, 1)

    def test_degree_additive_under_concat(self):
        rng = random.Random(0)
        for _ in range(50):
            w1, w2 = random_word(FCC, rng), random_word(FCC, rng)
            got = degree(FCC, w1 + w2)
            assert got == tuple(a + b for a, b in
                                zip(degree(FCC, w1), degree(FCC, w2)))

    def test_check_word_passes_words_through(self):
        w = ((1, 1), (2, 2))
        assert check_word(FLIP, ()) == ()
        assert check_word(FLIP, w) == w

    @pytest.mark.parametrize("color", [0, -1, 3])
    def test_degree_rejects_colors_outside_range(self, color):
        with pytest.raises(WordError):
            degree(FLIP, ((color, 1),))

    def test_concat_rejects_foreign_letters(self):
        with pytest.raises(WordError):
            check_word(FLIP, ((3, 1),))
        with pytest.raises(WordError):
            check_word(FLIP, ((1, 5),))


class TestNormalForm:
    def test_transposition_swap(self):
        # indices travel with positions in a transposition family
        assert normal_form(TRANSPOSITION2, ((2, 1), (1, 2))) == ((1, 1), (2, 2))

    def test_sorted_word_fixed(self):
        w = ((1, 2), (2, 1))
        assert normal_form(FLIP, w) == w

    def test_flip_relation_for_all_indices(self):
        for s, t in itertools.product((1, 2), repeat=2):
            assert normal_form(FLIP, ((2, t), (1, s))) == ((1, t), (2, s))

    def test_idempotent_and_degree_preserving(self):
        rng = random.Random(1)
        for P in GRAPHS:
            for _ in range(100):
                w = random_word(P, rng)
                nf = normal_form(P, w)
                assert normal_form(P, nf) == nf
                assert degree(P, nf) == degree(P, w)

    def test_normal_form_of_concat_factors(self):
        rng = random.Random(2)
        for P in GRAPHS:
            for _ in range(100):
                w1, w2 = random_word(P, rng, 6), random_word(P, rng, 6)
                lhs = normal_form(P, w1 + w2)
                rhs = normal_form(P, normal_form(P, w1) + normal_form(P, w2))
                assert lhs == rhs

    def test_confluence_under_random_strategies(self):
        # (seed, words per graph, random sorting orders per word)
        for seed, count, orders in ((3, 200, 3), (20240823, 1000, 5)):
            rng = random.Random(seed)
            for P in GRAPHS:
                for _ in range(count):
                    w = random_word(P, rng)
                    expected = normal_form(P, w)
                    for _ in range(orders):
                        srng = random.Random(rng.randrange(2 ** 32))
                        assert random_sort(P, w, srng) == expected, (seed, w)

    def test_invalid_theta_breaks_confluence(self):
        # with the rejected triple's raw tables, two sorting strategies
        # disagree on some word: the validator and the rewriter agree that
        # the data is not a k-graph
        bad = catalog.broken_cubic_triple()
        desc = {}
        for (i, j), table in bad["theta"].items():
            for (s, t), (s2, t2) in table.items():
                desc[((j, t2), (i, s2))] = ((i, s), (j, t))

        def sort_with(w, rng):
            out = list(w)
            while True:
                sites = [q for q in range(len(out) - 1) if out[q][0] > out[q + 1][0]]
                if not sites:
                    return tuple(out)
                q = rng.choice(sites)
                out[q], out[q + 1] = desc[(out[q], out[q + 1])]

        found = False
        for word in itertools.product([(3, s) for s in (1, 2)],
                                      [(2, s) for s in (1, 2)],
                                      [(1, s) for s in (1, 2)]):
            results = {sort_with(word, random.Random(seed)) for seed in range(24)}
            if len(results) > 1:
                found = True
                break
        assert found


class TestWordsEqual:
    def test_reflexive(self):
        w = ((1, 1), (2, 2), (1, 2))
        assert words_equal(FLIP, w, w)

    def test_different_degrees_unequal(self):
        assert not words_equal(FLIP, ((1, 1),), ((1, 1), (1, 1)))

    def test_transposition_example(self):
        assert words_equal(TRANSPOSITION2, ((1, 1), (2, 2)), ((2, 1), (1, 2)))

    def test_color_zero_is_not_a_letter(self):
        with pytest.raises(WordError):
            words_equal(FLIP, ((0, 1),), ((2, 1),))


class TestExtractPrefix:
    def test_full_prefix(self):
        rng = random.Random(4)
        for P in GRAPHS:
            w = random_word(P, rng)
            u, v = extract_prefix(P, w, degree(P, w))
            assert u == normal_form(P, w) and v == ()

    def test_zero_prefix(self):
        w = ((1, 1), (2, 2))
        u, v = extract_prefix(FLIP, w, (0, 0))
        assert u == () and words_equal(FLIP, v, w)

    def test_flip_example(self):
        u, v = extract_prefix(FLIP, ((1, 1), (2, 2)), (0, 1))
        assert u == ((2, 1),)
        assert v == ((1, 2),)

    def test_recomposition(self):
        # (seed, words per graph, longest word)
        for seed, count, max_len in ((5, 200, 10), (20240823, 300, 8)):
            rng = random.Random(seed)
            for P in GRAPHS:
                for _ in range(count):
                    w = random_word(P, rng, max_len)
                    d = degree(P, w)
                    n = tuple(rng.randint(0, x) for x in d)
                    u, v = extract_prefix(P, w, n)
                    assert degree(P, u) == n, (seed, w, n)
                    assert words_equal(P, u + v, w), (seed, w, n)

    def test_not_a_prefix(self):
        with pytest.raises(NotAPrefix):
            extract_prefix(FLIP, ((1, 1),), (0, 1))
        with pytest.raises(NotAPrefix):
            extract_prefix(FLIP, ((1, 1),), (1, 1, 0))

    def test_prefix_uniqueness_against_enumeration(self):
        # the extracted prefix is the unique degree-n left divisor: no
        # other normal-form word of that degree recombines to w
        rng = random.Random(6)
        P = FCC
        for _ in range(20):
            w = random_word(P, rng, 5)
            d = degree(P, w)
            n = tuple(rng.randint(0, x) for x in d)
            u, v = extract_prefix(P, w, n)
            matches = [cand for cand in words_of_degree(P, n)
                       if any(words_equal(P, cand + rest, w)
                              for rest in words_of_degree(P, tuple(a - b for a, b in zip(d, n))))]
            assert matches == [u]


def _reference_cubic_failure(k, m, theta):
    """The cubic check as first written, on the dict tables: the first
    (colors, witness, left, right) where the two composites differ."""
    for i, j, l in itertools.combinations(range(1, k + 1), 3):
        t_ij, t_il, t_jl = theta[(i, j)], theta[(i, l)], theta[(j, l)]
        for x, y, z in itertools.product(range(1, m[i - 1] + 1), range(1, m[j - 1] + 1),
                                         range(1, m[l - 1] + 1)):
            y1, z1 = t_jl[(y, z)]
            x1, z2 = t_il[(x, z1)]
            x2, y2 = t_ij[(x1, y1)]
            x3, y3 = t_ij[(x, y)]
            x4, z3 = t_il[(x3, z)]
            y4, z4 = t_jl[(y3, z3)]
            if (x2, y2, z2) != (x4, y4, z4):
                return (i, j, l), (x, y, z), (x2, y2, z2), (x4, y4, z4)
    return None


def _reference_extract_prefix(P, w, n):
    """extract_prefix as first written: pop(0) from the front and a fresh
    leftmost-letter scan for every pulled letter, with its own rewrite
    tables built from the public P.table."""
    if len(n) != P.k:
        raise NotAPrefix(f"degree {n} has wrong length for k={P.k}")
    d = degree(P, w)
    if any(x < 0 for x in n) or not all(x <= y for x, y in zip(n, d)):
        raise NotAPrefix(f"{n} is not componentwise between 0 and {d}")
    asc, desc = {}, {}
    for i, j in itertools.combinations(range(1, P.k + 1), 2):
        for (s, t), (s2, t2) in P.table(i, j).items():
            asc[(i, s), (j, t)] = ((j, t2), (i, s2))
            desc[(j, t2), (i, s2)] = ((i, s), (j, t))
    rest = list(w)
    prefix = []
    for color in range(1, P.k + 1):
        for _ in range(n[color - 1]):
            pos = next(q for q, letter in enumerate(rest) if letter[0] == color)
            for q in range(pos, 0, -1):
                pair = (rest[q - 1], rest[q])
                rest[q - 1], rest[q] = asc[pair] if pair[0][0] < color else desc[pair]
            prefix.append(rest.pop(0))
    return tuple(prefix), normal_form(P, tuple(rest))


class TestExtractPrefixAgainstReference:
    GRAPHS = GRAPHS + [catalog.cycle3_reverse_2graph()]

    def test_matches_reference_and_random_sort(self):
        rng = random.Random(31)
        unsorted = 0
        for P in self.GRAPHS:
            for length in range(41):
                w = tuple(rng.choice(list(P.letters())) for _ in range(length))
                unsorted += normal_form(P, w) != w
                d = degree(P, w)
                for n in (d, P.zero(), tuple(rng.randint(0, x) for x in d)):
                    u, v = extract_prefix(P, w, n)
                    assert (u, v) == _reference_extract_prefix(P, w, n)
                    # the factorization of an unsorted word is that of its
                    # normal form, so callers pass concatenations unsorted
                    assert (u, v) == extract_prefix(P, normal_form(P, w), n)
                    # confluence: any sorting order reaches the same words
                    srng = random.Random(length)
                    assert random_sort(P, u, srng) == u and degree(P, u) == n
                    assert random_sort(P, v, srng) == v
                    assert random_sort(P, u + v, srng) == random_sort(P, w, srng)
        assert unsorted >= 0.9 * 41 * len(self.GRAPHS)

    # The last three words are unsorted.  In the first and third the scan
    # runs off the end of w after swaps have started; the second mixes a
    # negative entry with one beyond the degree of w.
    NOT_A_PREFIX = [(FLIP, ((2, 1), (1, 2)), n)
                    for n in [(0,), (1, 0, 0), (-1, 1), (0, 3), (2, 0), (-1, 0)]] + [
        (FLIP, ((2, 1), (1, 2), (2, 2)), (1, 3)),
        (FLIP, ((2, 1), (1, 2), (2, 2)), (-1, 5)),
        (FCC, ((3, 1), (2, 2), (1, 1), (3, 2), (2, 1)), (1, 1, 3)),
    ]

    @pytest.mark.parametrize("P, w, n", NOT_A_PREFIX,
                             ids=[f"n{q}" for q in range(len(NOT_A_PREFIX))])
    def test_not_a_prefix_matches_reference(self, P, w, n):
        with pytest.raises(NotAPrefix) as new:
            extract_prefix(P, w, n)
        with pytest.raises(NotAPrefix) as old:
            _reference_extract_prefix(P, w, n)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_swap_table_is_an_involution_on_both_orders(name):
    P = CATALOG[name]()
    swap = P.swaps()
    assert len(swap) == 2 * sum(P.m[i - 1] * P.m[j - 1]
                                for i, j in itertools.combinations(range(1, P.k + 1), 2))
    for pair, image in swap.items():
        assert swap[image] == pair
        assert (pair[0][0] < pair[1][0]) == (image[0][0] > image[1][0])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_swap_table_is_built_on_first_use(name):
    P = CATALOG[name]()
    fresh = presentation_from_codes(P.k, P.m, P.codes)
    used = presentation_from_codes(P.k, P.m, P.codes)
    assert fresh._swap is None and used._swap is None
    normal_form(used, tuple(reversed(list(used.letters()))))
    assert used._swap is not None
    assert used.swaps() is used._swap
    assert fresh._swap is None
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normal_form_is_a_semigroup_quotient(data):
    # inserting a normalization anywhere inside a product never changes
    # the final normal form
    P = data.draw(st.sampled_from(GRAPHS))
    letters = list(P.letters())
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    cut = data.draw(st.integers(0, len(w)))
    assert normal_form(P, normal_form(P, w[:cut]) + w[cut:]) == normal_form(P, w)
