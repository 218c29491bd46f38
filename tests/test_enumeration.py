import functools
import itertools
import math
import random

import pytest

from polygraph import catalog
from polygraph import enumeration as en
from polygraph.budget import EXACT_COUNT, BudgetExceeded, capped_product
from polygraph.enumeration import (
    IsoClass,
    Relabeling,
    apply_relabeling,
    are_isomorphic,
    _factorial_factors,
    canonical_form,
    enumerate_presentations,
    isomorphism_classes,
    relabeling_group,
)
from polygraph.kgraph import (
    PresentationError,
    _cubic_failure,
    _lift,
    color_pairs,
    presentation_from_codes,
    validate_presentation,
)

# regression constants, recomputed independently during development by a
# raw itertools sweep with an inline cubic check
VALID_222 = 752
CLASSES_222 = 74


def _table_count(m, cap=EXACT_COUNT):
    """The "tables" count of enumerate_presentations for multiplicities m,
    exact up to cap: the product of (m_i m_j)! over the color pairs."""
    pairs = color_pairs(len(m))
    return capped_product(_factorial_factors(m[i - 1] * m[j - 1] for i, j in pairs), cap)


class TestEnumerate:
    def test_trivial_multiplicities(self):
        assert len(list(enumerate_presentations((1, 1)))) == 1

    def test_all_24_two_graphs(self):
        ps = list(enumerate_presentations((2, 2)))
        assert len(ps) == 24

    def test_enumeration_is_sorted_and_revalidates(self):
        ps = list(enumerate_presentations((2, 2)))
        encs = [_ref_encode(p) for p in ps]
        assert encs == sorted(encs)
        for p in ps:
            validate_presentation(p.k, p.m, {pair: p.table(*pair)
                                             for pair in [(1, 2)]})

    def test_budget_guard(self, monkeypatch):
        assert _table_count((2, 2, 2)) == 24 ** 3
        monkeypatch.setenv("POLYGRAPH_BUDGET", "100")
        with pytest.raises(BudgetExceeded):
            list(enumerate_presentations((2, 2, 2)))

    @pytest.mark.parametrize("m", [(2, 2, 2), (1, 3, 2), (40, 40), (3,) * 6], ids=str)
    def test_table_count_stops_past_its_cap(self, m):
        exact = math.prod(math.factorial(m[i - 1] * m[j - 1]) for i, j in color_pairs(len(m)))
        for cap in (0, 10, 10 ** 4, exact - 1, exact, 10 ** 18):
            count = _table_count(m, cap)
            assert count == exact if exact <= cap else cap < count <= exact

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("POLYGRAPH_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            list(enumerate_presentations((2, 2)))

    def test_222_census(self):
        ps = list(enumerate_presentations((2, 2, 2)))
        assert len(ps) == VALID_222

    @pytest.mark.parametrize("m, count", [((3, 1, 1), 18), ((2, 1, 1), 4), ((1, 3, 1), 18)],
                             ids=str)
    def test_a_triple_with_two_ones_still_constrains(self, m, count):
        # the triples of ones are skipped, not those with one wider color:
        # for (3, 1, 1), 18 of the 3! 3! 1! = 36 table combinations fail the cubic
        # condition
        assert len(list(enumerate_presentations(m))) == count


class TestIsomorphism:
    def test_identity(self):
        P = catalog.flip_2graph()
        rel = are_isomorphic(P, P)
        assert rel is not None

    def test_flip_vs_square_distinct(self):
        assert are_isomorphic(catalog.flip_2graph(), catalog.square_2graph()) is None

    def test_forward_vs_reverse_cycle_distinct(self):
        assert are_isomorphic(catalog.cycle3_forward_2graph(),
                              catalog.cycle3_reverse_2graph()) is None

    def test_relabeled_copy_is_isomorphic(self):
        rng = random.Random(0)
        rels = list(relabeling_group((2, 2), (2, 2)))
        for P in list(enumerate_presentations((2, 2)))[:10]:
            rel = rng.choice(rels)
            Q = apply_relabeling(P, rel)
            witness = are_isomorphic(P, Q)
            assert witness is not None
            assert apply_relabeling(P, witness) == Q

    def test_unequal_multiplicity_vectors(self):
        # flip-type tables on m=(1,2) vs the color-swapped copy on m=(2,1)
        P = validate_presentation(2, (1, 2), {(1, 2): {(1, 1): (1, 1), (1, 2): (1, 2)}})
        Q = validate_presentation(2, (2, 1), {(1, 2): {(1, 1): (1, 1), (2, 1): (2, 1)}})
        assert are_isomorphic(P, Q) is not None
        assert are_isomorphic(P, catalog.flip_2graph()) is None


class TestClasses:
    def test_nine_classes_of_two_graphs(self):
        classes = isomorphism_classes(enumerate_presentations((2, 2)))
        assert len(classes) == 9
        assert sum(c.size for c in classes) == 24

    def test_single_class_for_trivial_m(self):
        classes = isomorphism_classes(enumerate_presentations((1, 1)))
        assert len(classes) == 1 and classes[0].size == 1

    def test_canonicalize_commutes_with_relabeling(self):
        rng = random.Random(1)
        rels = list(relabeling_group((2, 2), (2, 2)))
        for P in list(enumerate_presentations((2, 2)))[::3]:
            canon, _ = canonical_form(P)
            canon2, _ = canonical_form(apply_relabeling(P, rng.choice(rels)))
            assert canon == canon2

    def test_representative_is_in_its_own_class(self):
        for c in isomorphism_classes(enumerate_presentations((2, 2))):
            assert isinstance(c, IsoClass)
            assert are_isomorphic(c.representative, c.representative) is not None
            canon, _ = canonical_form(c.representative)
            assert canon == c.representative

    def test_222_class_count(self):
        classes = isomorphism_classes(enumerate_presentations((2, 2, 2)))
        assert len(classes) == CLASSES_222
        assert sum(c.size for c in classes) == VALID_222

    def test_mixed_multiplicity_vectors_rejected(self):
        # a (2,3) table and a (3,2) table can share codes without being
        # isomorphic, so one call classifies one multiplicity vector
        ps = list(enumerate_presentations((2, 3))) + list(enumerate_presentations((3, 2)))
        with pytest.raises(ValueError, match="one multiplicity vector"):
            isomorphism_classes(ps)


# The dict-based classification the table codes replaced: every relabeled
# copy is rebuilt as {(s, t): (s', t')} tables and fully re-validated, and
# copies are compared by their flattened tables.

def _domain(m_i, m_j):
    return [(s, t) for s in range(1, m_i + 1) for t in range(1, m_j + 1)]


def _ref_apply_relabeling(P, rel):
    k, m = P.k, P.m
    m_new = [0] * k
    for i in range(1, k + 1):
        m_new[rel.image_color(i) - 1] = m[i - 1]
    new_theta = {pair: {} for pair in itertools.combinations(range(1, k + 1), 2)}
    for i, j in itertools.combinations(range(1, k + 1), 2):
        ii, jj = rel.image_color(i), rel.image_color(j)
        for (s, t), (s2, t2) in P.table(i, j).items():
            a, b = rel.index_maps[i - 1][s - 1], rel.index_maps[j - 1][t - 1]
            a2, b2 = rel.index_maps[i - 1][s2 - 1], rel.index_maps[j - 1][t2 - 1]
            if ii < jj:
                new_theta[(ii, jj)][(a, b)] = (a2, b2)
            else:
                new_theta[(jj, ii)][(b2, a2)] = (b, a)
    return validate_presentation(k, tuple(m_new), new_theta)


def _ref_encode(P):
    return tuple(tuple(P.table(i, j).values())
                 for i, j in itertools.combinations(range(1, P.k + 1), 2))


def _ref_are_isomorphic(P1, P2):
    if P1.k != P2.k or sorted(P1.m) != sorted(P2.m):
        return None
    for rel in relabeling_group(P1.m, P2.m):
        if _ref_encode(_ref_apply_relabeling(P1, rel)) == _ref_encode(P2):
            return rel
    return None


@functools.cache  # the input-order tests classify each presentation several times
def _ref_canonical_form(P):
    best = None
    for rel in relabeling_group(P.m, P.m):
        enc = _ref_encode(_ref_apply_relabeling(P, rel))
        if best is None or enc < best[0]:
            best = (enc, rel)
    pairs = itertools.combinations(range(1, P.k + 1), 2)
    theta = {(i, j): dict(zip(_domain(P.m[i - 1], P.m[j - 1]), flat))
             for (i, j), flat in zip(pairs, best[0])}
    return validate_presentation(P.k, P.m, theta), best[1]


def _ref_classes(presentations):
    classes = {}
    for P in presentations:
        canon, _ = _ref_canonical_form(P)
        entry = classes.setdefault(_ref_encode(canon), [canon, 0])
        entry[1] += 1
    return [(canon, size) for _, (canon, size) in sorted(classes.items())]


def _ref_sweep(m):
    """Every table combination as dicts, each validated in full."""
    k = len(m)
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    per_pair = [[dict(zip(_domain(m[i - 1], m[j - 1]), values))
                 for values in itertools.permutations(_domain(m[i - 1], m[j - 1]))]
                for i, j in pairs]
    out = []
    for combo in itertools.product(*per_pair):
        try:
            out.append(validate_presentation(k, m, dict(zip(pairs, combo))))
        except PresentationError:
            continue
    return out


ORACLE_M = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1)]


class TestCodesAgainstDictReference:
    @pytest.mark.parametrize("m", ORACLE_M, ids=str)
    def test_classes_match(self, m):
        ps = list(enumerate_presentations(m))
        got = [(c.representative, c.size) for c in isomorphism_classes(ps)]
        assert got == _ref_classes(ps)

    @pytest.mark.parametrize("m", ORACLE_M, ids=str)
    def test_classes_match_in_any_input_order(self, m):
        # the orbit pass keys later members by the first member's images:
        # sizes and the class order must not depend on which
        # member comes first, and a subset that is not a union of classes
        # must count only its own members
        ps = list(enumerate_presentations(m))
        full = {c.representative: c.size for c in isomorphism_classes(ps)}
        shuffled = random.Random(f"order-{m}").sample(ps, len(ps))
        for order in (shuffled, ps[::-1], ps[::3]):
            got = [(c.representative, c.size) for c in isomorphism_classes(order)]
            assert got == _ref_classes(order)
        partial = isomorphism_classes(ps[::3])
        assert any(c.size < full[c.representative] for c in partial)

    @pytest.mark.parametrize("m", [(2, 3), (2, 2, 2)], ids=str)
    def test_enumeration_matches_full_sweep(self, m):
        assert list(enumerate_presentations(m)) == _ref_sweep(m)

    @pytest.mark.parametrize("m", [(2, 2), (2, 3), (2, 2, 2), (1, 2, 2)], ids=str)
    def test_witnesses_match_on_seeded_pairs(self, m):
        rng = random.Random(f"iso-{m}")
        ps = list(enumerate_presentations(m))
        rels = list(relabeling_group(m, m))
        pairs = [tuple(rng.sample(ps, 2)) for _ in range(20)]
        pairs += [(P, _ref_apply_relabeling(P, rng.choice(rels))) for P in rng.sample(ps, 20)]
        outcomes = set()
        for P, Q in pairs:
            witness = are_isomorphic(P, Q)
            assert witness == _ref_are_isomorphic(P, Q)
            outcomes.add(witness is None)
            if witness is not None:
                assert apply_relabeling(P, witness) == Q
        assert outcomes == {True, False}

    def test_witnesses_match_across_multiplicity_orders(self):
        rng = random.Random("iso-23-32")
        p23 = list(enumerate_presentations((2, 3)))
        p32 = list(enumerate_presentations((3, 2)))
        swaps = list(relabeling_group((2, 3), (3, 2)))
        pairs = [(rng.choice(p23), rng.choice(p32)) for _ in range(10)]
        pairs += [(P, _ref_apply_relabeling(P, rng.choice(swaps))) for P in rng.sample(p23, 10)]
        pairs += [(Q, P) for P, Q in pairs]
        found = 0
        for P, Q in pairs:
            witness = are_isomorphic(P, Q)
            assert witness == _ref_are_isomorphic(P, Q)
            found += witness is not None
        assert 20 <= found < len(pairs)

    @pytest.mark.parametrize("m", [(2, 3), (2, 2, 2), (2, 1, 2)], ids=str)
    def test_apply_relabeling_matches(self, m):
        rng = random.Random(f"apply-{m}")
        ps = list(enumerate_presentations(m))
        for _ in range(40):
            P = rng.choice(ps)
            perm = tuple(rng.sample(range(1, len(m) + 1), len(m)))
            maps = tuple(tuple(rng.sample(range(1, mi + 1), mi)) for mi in m)
            rel = Relabeling(perm, maps)
            Q = apply_relabeling(P, rel)
            R = _ref_apply_relabeling(P, rel)
            assert Q == R

    @pytest.mark.parametrize("m", [(2, 3), (3, 2), (2, 2, 2), (1, 2, 2)], ids=str)
    def test_pruned_canonical_codes_match_the_full_orbit(self, m):
        # the pair-by-pair search against the least of all images and the
        # first relabeling reaching it, on every presentation of m
        compiled = en._compiled_group(m, m)
        ties = 0
        for P in enumerate_presentations(m):
            images = list(en._images(P, compiled))
            least = min(codes for _, codes in images)
            witnesses = [rel for rel, codes in images if codes == least]
            assert en._canonical_codes(P) == (least, witnesses[0])
            ties += len(witnesses) > 1
        assert ties > 0

    def test_every_222_orbit_image_is_valid(self):
        # canonical_form and are_isomorphic skip validation of the images
        # they compare; each one must still be a k-graph.
        m = (2, 2, 2)
        ps = list(enumerate_presentations(m))
        images = 0
        for P in ps:
            for rel, codes in en._images(P, en._compiled_group(m, m)):
                presentation_from_codes(3, m, codes)
                images += 1
        assert images == len(ps) * 48
        for P in ps[::50]:
            for rel, codes in en._images(P, en._compiled_group(m, m)):
                assert codes == _ref_apply_relabeling(P, rel).codes

    @pytest.mark.parametrize("m", [(2, 2, 2), (1, 2, 2), (2, 3), (3, 2, 3), (1, 1, 1, 2)],
                             ids=str)
    def test_relabelings_budget_counts_the_group(self, m, monkeypatch):
        order = len(list(relabeling_group(m, m)))
        en._compiled_group.cache_clear()
        monkeypatch.setenv("POLYGRAPH_BUDGET", str(order - 1))
        with pytest.raises(BudgetExceeded) as info:
            en._compiled_group(m, m)
        assert (info.value.name, info.value.consumed) == ("relabelings", order)
        monkeypatch.setenv("POLYGRAPH_BUDGET", str(order))
        assert len(en._compiled_group(m, m)) == order

    def test_multiplicities_below_one_rejected(self):
        for m in [(2, 0), (2, -1), ()]:
            with pytest.raises(ValueError):
                next(enumerate_presentations(m))


def _reference_candidates(m):
    """The product-then-filter loop the pruned walk replaced: every
    combination of tables, kept when _cubic_failure finds no bad triple."""
    k = len(m)
    per_pair = [list(itertools.permutations(range(m[i - 1] * m[j - 1])))
                for i, j in color_pairs(k)]
    for codes in itertools.product(*per_pair):
        if k < 3 or _cubic_failure(m, codes) is None:
            yield codes


def _recursive_candidates(m):
    """The recursive walk the iterative one replaced: one call per color
    pair, so past about 45 colors it passes the recursion limit.  It checks
    every color triple, triples of ones included."""
    pairs = color_pairs(len(m))
    tables = [list(itertools.permutations(range(m[i - 1] * m[j - 1]))) for i, j in pairs]
    due = [[] for _ in pairs]
    number = {pair: n for n, pair in enumerate(pairs)}
    for i, j, l in itertools.combinations(range(1, len(m) + 1), 3):
        ij, il, jl = number[i, j], number[i, l], number[j, l]
        shape = m[i - 1], m[j - 1], m[l - 1]
        lifts = [[_lift(factor, *shape, code) for code in tables[n]]
                 for factor, n in (("ij", ij), ("il", il), ("jl", jl))]
        due[jl].append((ij, il, *lifts))
    chosen = []

    def walk():
        depth = len(chosen)
        if depth == len(pairs):
            yield tuple([tables[n][c] for n, c in enumerate(chosen)])
            return
        survivors = range(len(tables[depth]))
        for ij, il, lifts_ij, lifts_il, lifts_jl in due[depth]:
            t_ij, t_il = lifts_ij[chosen[ij]], lifts_il[chosen[il]]
            A = [t_ij[x] for x in t_il]
            B = [t_il[x] for x in t_ij]
            survivors = [c for c in survivors
                         if [A[x] for x in lifts_jl[c]] == [lifts_jl[c][x] for x in B]]
        for c in survivors:
            chosen.append(c)
            yield from walk()
            chosen.pop()

    yield from walk()


class TestCandidateWalk:
    # in (1, 1, 2, 2) and (1, 2, 2, 2) two triples, 134 and 234, are due at
    # the last pair 34; every pair of (1, 2, 2, 2) has several tables
    @pytest.mark.parametrize("m", [(1, 1), (2, 2), (2, 3), (2, 1, 2), (1, 2, 2), (2, 2, 2),
                                   (1, 1, 2, 2), (1, 1, 1, 2), (1, 2, 2, 2)], ids=str)
    def test_walk_matches_the_product_filter(self, m):
        assert list(en._candidates(m)) == list(_reference_candidates(m))

    # the walk skips the triples whose multiplicities are all 1; the
    # recursive walk checks them too
    @pytest.mark.parametrize("m", [(2, 2), (2, 3), (2, 2, 2), (3, 1, 1), (1, 1, 2, 1),
                                   (1, 1, 1, 1, 2)], ids=str)
    def test_iterative_walk_matches_the_recursive_one(self, m):
        assert list(en._candidates(m)) == list(_recursive_candidates(m))

    def test_walk_passes_the_recursion_limit(self):
        # 46 colors of multiplicity 1: 1,035 pairs, one table each
        assert list(en._candidates((1,) * 46)) == [((0,),) * 1035]
