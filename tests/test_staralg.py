import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraph import catalog, staralg
from polygraph.kgraph import deg_join, deg_sub, degree, extract_prefix, normal_form, words_of_degree
from polygraph.periodicity import central_element, is_periodic, symmetry_lattice
from polygraph.staralg import (
    StarSum,
    adjoint,
    identity_sum,
    monomial,
    multiply,
    render,
    star_equal,
)

FLIP = catalog.flip_2graph()
FCC = catalog.flip_cycle_cycle_3graph()


def star(P, u, v, coeff=1):
    """coeff * u v* (words normalized)."""
    return scaled(coeff, monomial(P, u, v))


def scaled(c, A):
    """The sum c * A, for an integer c."""
    return StarSum.of({key: c * a for key, a in A.terms})


def summed(*sums):
    """The sum of the given sums, merged by key."""
    out = collections.Counter()
    for A in sums:
        out.update(dict(A.terms))
    return StarSum.of(out)


def coefficient(rng):
    """A random nonzero integer coefficient, of either sign."""
    return rng.choice((-3, -2, -1, 1, 2, 3))


def adjoint_product(P, v, x):
    """v* x, a sum of monomials a b* with v a = x b."""
    return multiply(P, monomial(P, (), v), monomial(P, x, ()))


def test_reduce_cache_info_stays_readable():
    # bench/run.py reads staralg._reduce_adjoint_cached.cache_info() in its
    # traced mode, and this suite does not run bench/test_smoke.py
    info = staralg._reduce_adjoint_cached.cache_info()
    assert info.maxsize == 65536


def test_cached_tables_are_read_only():
    # every caller of the cache shares one table per (v, x-degree)
    table = staralg._reduce_adjoint_cached(FLIP, ((1, 1),), (1, 1))
    assert table is staralg._reduce_adjoint_cached(FLIP, ((1, 1),), (1, 1))
    with pytest.raises(TypeError):
        table[()] = ()


class TestReduceAdjointProduct:
    def test_equal_words_give_identity(self):
        v = ((1, 1), (2, 2))
        assert star_equal(FLIP, adjoint_product(FLIP, v, v), identity_sum())

    def test_same_degree_distinct_words_give_zero(self):
        a = adjoint_product(FLIP, ((1, 1),), ((1, 2),))
        assert a.is_zero()

    def test_flip_cross_color(self):
        # e_s* f_t = delta_st sum_b f_b e_b*
        for s, t in itertools.product((1, 2), repeat=2):
            got = adjoint_product(FLIP, ((1, s),), ((2, t),))
            if s != t:
                assert got.is_zero()
            else:
                expected = StarSum.of({(((2, b),), ((1, b),)): 1 for b in (1, 2)})
                assert got.terms == expected.terms

    def test_adjoint_symmetry(self):
        rng = random.Random(11)
        letters = list(FCC.letters())
        for _ in range(40):
            v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            x = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            lhs = adjoint(adjoint_product(FCC, v, x))
            rhs = adjoint_product(FCC, x, v)
            assert lhs.terms == rhs.terms


def _reference_reduce(P, v, x):
    """v* x for one pair: the (a, b) with v a = x b, found by factoring v a
    for every word a of the complementary degree and keeping prefix x."""
    dv, dx = degree(P, v), degree(P, x)
    out = []
    for a in words_of_degree(P, deg_sub(deg_join(dv, dx), dv)):
        px, b = extract_prefix(P, v + a, dx)
        if px == x:
            out.append((a, b))
    return out


def _reference_multiply(P, A, B):
    """multiply with one reduction per pair of monomials (u v*, x y*)."""
    out = {}
    for (u, v), c1 in A.terms:
        for (x, y), c2 in B.terms:
            for a, b in _reference_reduce(P, v, x):
                key = (normal_form(P, u + a), normal_form(P, y + b))
                out[key] = out.get(key, 0) + c1 * c2
    return StarSum.of(out)


def assert_matches_reference(P, A, B):
    assert multiply(P, A, B).terms == _reference_multiply(P, A, B).terms


def _normal_words(P, top):
    """Every normal-form word of degree at most `top`."""
    return [w for d in itertools.product(*(range(t + 1) for t in top))
            for w in words_of_degree(P, d)]


class TestMultiply:
    def test_matches_the_all_pairs_reference(self):
        rng = random.Random(22)
        for P in (FLIP, FCC):
            words = _normal_words(P, (1,) * P.k)
            for _ in range(40):
                A, B = (StarSum.of({(rng.choice(words), rng.choice(words)): coefficient(rng)
                                    for _ in range(rng.randint(1, 4))}) for _ in range(2))
                for left, right in ((A, B), (A, adjoint(A)), (adjoint(B), B)):
                    assert_matches_reference(P, left, right)

    def test_repeated_x_with_different_y(self):
        # B's terms sharing one x each keep their own y and coefficient
        rng = random.Random(23)
        for P in (FLIP, FCC):
            words = _normal_words(P, (1,) * P.k)
            for x in words:
                B = StarSum.of({(x, y): coefficient(rng) for y in rng.sample(words, 3)})
                A = StarSum.of({(rng.choice(words), v): coefficient(rng)
                                for v in rng.sample(words, 3)})
                assert_matches_reference(P, A, B)
                assert_matches_reference(P, adjoint(B), B)

    def test_mixed_x_degrees(self):
        # one table per x-degree: every degree of B's x's in one product
        rng = random.Random(24)
        for P in (FLIP, FCC):
            words = _normal_words(P, (2,) * P.k)
            for _ in range(20):
                B = StarSum.of({(x, rng.choice(words)): coefficient(rng)
                                for x in rng.sample(words, 6)})
                A = StarSum.of({(rng.choice(words), rng.choice(words)): coefficient(rng)
                                for _ in range(3)})
                assert len({degree(P, x) for (x, _), _ in B.terms}) > 1
                assert_matches_reference(P, A, B)

    @pytest.mark.parametrize("P", [FLIP, catalog.square_2graph(),
                                   catalog.flip_square_square_3graph(),
                                   catalog.twisted_periodic_3graph()],
                             ids=["flip", "square", "flip-squares", "twisted-periodic"])
    def test_central_unitary_products(self, P):
        # W W*, W* W, W g, g W and W_h W_g for the certified periods h, g
        # of the bound-2 lattice and their sums
        certs = list(symmetry_lattice(P, bound=2).certificates)
        certs += [c for c in (is_periodic(P, tuple(a + b for a, b in zip(h.pi, g.pi)))
                              for h, g in itertools.combinations_with_replacement(certs, 2))
                  if c is not None]
        for cert in certs:
            W = central_element(P, cert)
            assert_matches_reference(P, W, adjoint(W))
            assert_matches_reference(P, adjoint(W), W)
            for g in P.letters():
                assert_matches_reference(P, W, monomial(P, (g,), ()))
                assert_matches_reference(P, monomial(P, (g,), ()), W)
        for h, g in itertools.product(certs, repeat=2):
            assert_matches_reference(P, central_element(P, h), central_element(P, g))

    def test_zero_annihilates(self):
        m = star(FLIP, ((1, 1),), ((2, 2),))
        assert multiply(FLIP, m, StarSum(())).is_zero()
        assert multiply(FLIP, StarSum(()), m).is_zero()

    def test_identity_neutral(self):
        m = star(FLIP, ((1, 1), (2, 1)), ((2, 2),))
        assert star_equal(FLIP, multiply(FLIP, identity_sum(), m), m)
        assert star_equal(FLIP, multiply(FLIP, m, identity_sum()), m)

    def test_isometry_relation(self):
        # v* v = 1 for every generator
        for g in FLIP.letters():
            prod = multiply(FLIP, star(FLIP, (), (g,)), star(FLIP, (g,), ()))
            assert star_equal(FLIP, prod, identity_sum())

    def test_coefficients_multiply(self):
        a = star(FLIP, (), ((1, 1),), 3)
        b = star(FLIP, ((1, 1),), (), -4)
        prod = multiply(FLIP, a, b)  # 3 (-4) e_1* e_1 = -12 identity
        assert star_equal(FLIP, prod, scaled(-12, identity_sum()))
        assert not star_equal(FLIP, prod, scaled(12, identity_sum()))

    def run_assoc(self, P, rng):
        letters = list(P.letters())

        def rand_sum():
            parts = []
            for _ in range(rng.randint(1, 2)):
                u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                parts.append(star(P, u, v, coefficient(rng)))
            return summed(*parts)

        a, b, c = rand_sum(), rand_sum(), rand_sum()
        lhs = multiply(P, multiply(P, a, b), c)
        rhs = multiply(P, a, multiply(P, b, c))
        assert star_equal(P, lhs, rhs)

    def test_associativity_randomized(self):
        rng = random.Random(12)
        for _ in range(30):
            self.run_assoc(FLIP, rng)
        for _ in range(15):
            self.run_assoc(FCC, rng)

    def test_grading_of_homogeneous_products(self):
        rng = random.Random(13)
        letters = list(FLIP.letters())
        for _ in range(50):
            u1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            v1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            u2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            v2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            prod = multiply(FLIP, star(FLIP, u1, v1), star(FLIP, u2, v2))
            if prod.is_zero():
                continue
            expected = tuple(
                a - b + c - d for a, b, c, d in
                zip(degree(FLIP, u1), degree(FLIP, v1),
                    degree(FLIP, u2), degree(FLIP, v2)))
            assert {deg_sub(degree(FLIP, u), degree(FLIP, v)) for (u, v), _ in prod.terms} \
                == {expected}


class TestEquality:
    def test_defect_free_family_equals_identity(self):
        fam = StarSum.of({(((2, s),), ((2, s),)): 1 for s in (1, 2)})
        assert star_equal(FLIP, fam, identity_sum())

    def test_defect_free_families_with_integer_coefficients(self):
        # c times a full family is c times the identity, for any c; one
        # word's coefficient moved breaks it
        rng = random.Random(14)
        for P in (FLIP, FCC):
            for color in range(1, P.k + 1):
                c = coefficient(rng)
                family = [g for g in P.letters() if g[0] == color]
                fam = StarSum.of({((g,), (g,)): c for g in family})
                assert star_equal(P, fam, scaled(c, identity_sum()))
                assert star_equal(P, fam, identity_sum()) == (c == 1)
                moved = summed(fam, star(P, (family[0],), (family[0],), coefficient(rng)))
                assert not star_equal(P, moved, scaled(c, identity_sum()))

    def test_partial_family_not_identity(self):
        part = star(FLIP, ((2, 1),), ((2, 1),))
        assert not star_equal(FLIP, part, identity_sum())

    def test_zero_vs_identity(self):
        assert not star_equal(FLIP, StarSum(()), identity_sum())

    def test_two_level_expansion(self):
        # u v* expanded one level stays equal
        m = star(FCC, ((1, 1),), ((3, 2),))
        expanded = summed(*(multiply(FCC, m, star(FCC, (g,), (g,)))
                            for g in FCC.letters() if g[0] == 2))
        assert star_equal(FCC, m, expanded)

    def test_render(self):
        m = star(FLIP, ((1, 2), (2, 1)), (), -1)
        assert render(m) == "+(1/2)*1:2.2:1*1^*"
        assert render(StarSum(())) == "0"
        assert render(identity_sum()) == "+(0/1)*1*1^*"

    @pytest.mark.parametrize("c, text", [
        (1, "+(0/1)*1:1*2:2^*"),
        (-1, "+(1/2)*1:1*2:2^*"),
        (2, "[+2*(0/1)]*1:1*2:2^*"),
        (-3, "[-3*(0/1)]*1:1*2:2^*"),
    ])
    def test_render_golden(self, c, text):
        # the text of the earlier root-of-unity coefficients: 1 and -1 as
        # the phases 0 and 1/2, other integers in brackets
        assert render(star(FLIP, ((1, 1),), ((2, 2),), c)) == text


class WindowOracle:
    """Independent equality oracle: apply sums as operators to basis
    vectors of an inductive-limit window and compare the images.

    Basis labels are normal-form words u standing for the vector reached
    from a deep tail anchor; a monomial a b* maps u to nf(a u') when u
    factors as b u' and kills it otherwise.  Labels are pre-padded with
    whole tail blocks so every adjoint resolves inside the window; the
    oracle never expands or merges sums, so it shares no code path with
    star_equal.
    """

    def __init__(self, P, depth=3, pad=3):
        self.P = P
        block = tuple((c, 1) for c in range(1, P.k + 1))
        self.pad_word = normal_form(P, block * pad)
        vectors = [()]
        letters = list(P.letters())
        for _ in range(depth):
            vectors = vectors + [v + (g,) for v in vectors for g in letters]
        self.labels = sorted({normal_form(P, v + self.pad_word) for v in vectors})

    def apply(self, A, label):
        image = {}
        d_label = degree(self.P, label)
        for (a, b), coeff in A.terms:
            db = degree(self.P, b)
            if any(x > y for x, y in zip(db, d_label)):
                continue
            head, rest = extract_prefix(self.P, label, db)
            if head != b:
                continue
            out = normal_form(self.P, a + rest)
            image[out] = image.get(out, 0) + coeff
        return {k: c for k, c in image.items() if c}

    def equal(self, A, B):
        return all(self.apply(A, label) == self.apply(B, label) for label in self.labels)


def test_star_equal_matches_the_window_oracle():
    rng = random.Random(31)
    for P in (FLIP, FCC):
        oracle = WindowOracle(P, depth=2, pad=3)
        letters = list(P.letters())

        def rand_sum():
            parts = []
            for _ in range(rng.randint(1, 3)):
                u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
                parts.append(star(P, u, v, coefficient(rng)))
            return summed(*parts)

        pairs = []
        for _ in range(40):
            a, b = rand_sum(), rand_sum()
            pairs.append((a, b))
            pairs.append((a, summed(a, StarSum(()))))
        # known-equal pair with different keys: full family vs identity
        fam = StarSum.of({(((1, s),), ((1, s),)): 1 for s in (1, 2)})
        pairs.append((fam, identity_sum()))
        # and with a coefficient, and a sum that cancels to zero
        pairs.append((scaled(-2, fam), scaled(-2, identity_sum())))
        a = rand_sum()
        pairs.append((summed(a, scaled(-1, a)), StarSum(())))
        agree = 0
        for a, b in pairs:
            assert star_equal(P, a, b) == oracle.equal(a, b)
            agree += 1
        assert agree == len(pairs)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_adjoint_is_an_involution_and_antihomomorphism(data):
    P = FLIP
    letters = list(P.letters())

    def draw_sum():
        n = data.draw(st.integers(1, 2))
        parts = []
        for _ in range(n):
            u = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=2)))
            v = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=2)))
            c = data.draw(st.integers(-3, 3).filter(bool))
            parts.append(star(P, u, v, c))
        return summed(*parts)

    a, b = draw_sum(), draw_sum()
    assert adjoint(adjoint(a)).terms == a.terms
    lhs = adjoint(multiply(P, a, b))
    rhs = multiply(P, adjoint(b), adjoint(a))
    assert star_equal(P, lhs, rhs)
