import functools
import itertools

import pytest

from polygraph import catalog
from polygraph.enumeration import enumerate_presentations, isomorphism_classes
from polygraph.intlinalg import hermite_normal_form, meets_positive_orthant
from polygraph.kgraph import normal_form, words_equal, words_of_degree
from polygraph.periodicity import (
    PeriodicityCertificate,
    central_element,
    check_tail_condition,
    find_gamma,
    is_periodic,
    product_relation_tables,
    structure_report,
    symmetry_lattice,
    verify_central,
    verify_homomorphism,
)
from polygraph.staralg import adjoint, identity_sum, monomial, multiply, star_equal

FLIP = catalog.flip_2graph()
SQUARE = catalog.square_2graph()
FWD = catalog.cycle3_forward_2graph()
PRODUCT = catalog.product_periodic_3graph(2, 2)
TWISTED = catalog.twisted_periodic_3graph(2)
FSS = catalog.flip_square_square_3graph()
CATALOG = (FLIP, SQUARE, FWD, catalog.cycle3_reverse_2graph(),
           catalog.flip_cycle_cycle_3graph(), FSS, PRODUCT, TWISTED,
           catalog.transposition_kgraph(3, 3))


@functools.lru_cache(maxsize=None)
def _classes(m):
    return isomorphism_classes(enumerate_presentations(m))


class TestFindGamma:
    def test_flip_gamma_is_the_index_identity(self):
        cert = find_gamma(FLIP, (1, -1))
        assert cert is not None
        assert cert.gamma_map() == {((1, s),): ((2, s),) for s in (1, 2)}

    def test_forward_cycle_has_no_small_period(self):
        for pi in itertools.product(range(-3, 4), repeat=2):
            if pi[0] * pi[1] >= 0:
                continue
            assert find_gamma(FWD, pi) is None

    def test_product_graph_certificate(self):
        cert = find_gamma(PRODUCT, (1, 1, -1))
        assert cert is not None
        # gamma(e_i f_j) = g at the packed index pairing (i-1)*2 + j
        for (e, g) in cert.gamma:
            i, j = e[0][1], e[1][1]
            assert g == ((3, (i - 1) * 2 + j),)

    def test_zero_is_trivially_certified(self):
        cert = find_gamma(FLIP, (0, 0))
        assert cert is not None and cert.gamma == (((), ()),)

    def test_one_sided_pi_rejected(self):
        with pytest.raises(ValueError):
            find_gamma(FLIP, (1, 0))

    def test_dagger_holds_exhaustively(self):
        for P, pi in [(FLIP, (1, -1)), (SQUARE, (2, -2)), (PRODUCT, (1, 1, -1))]:
            cert = find_gamma(P, pi)
            gmap, ginv = cert.gamma_map(), cert.gamma_inverse()
            for e in cert.E:
                for f in cert.F:
                    assert words_equal(P, e + f, gmap[e] + ginv[f])


class TestTailCondition:
    def test_full_support_automatic(self):
        cert = is_periodic(FLIP, (1, -1))
        assert cert.tail_check is None or cert.tail_check.mode == "automatic"

    def test_zero_support_runs_transducer(self):
        cert = find_gamma(FSS, (1, -1, 0))
        check = check_tail_condition(FSS, cert)
        assert check.mode == "transducer" and check.passed
        assert check.states_visited > 0

    def test_forced_transducer_agrees_with_automatic(self):
        cert = find_gamma(FLIP, (1, -1))
        check = check_tail_condition(FLIP, cert, force_transducer=True)
        assert check.mode == "transducer" and check.passed

    def test_transducer_matches_brute_force_on_a_3graph(self):
        from polygraph.kgraph import extract_prefix
        cert = find_gamma(FSS, (1, -1, 0))
        verdict = check_tail_condition(FSS, cert).passed
        gmap = cert.gamma_map()
        box = (3, 3, 3)
        brute = True
        for e in cert.E:
            for w in words_of_degree(FSS, box):
                lhs, _ = extract_prefix(FSS, normal_form(FSS, e + w), box)
                rhs, _ = extract_prefix(FSS, normal_form(FSS, gmap[e] + w), box)
                if lhs != rhs:
                    brute = False
        assert verdict == brute is True

    def test_violating_transducer_reports_a_path(self):
        # graft a wrong gamma onto the flip graph: swap the images so
        # (dagger) holds for the probe pair but the tails separate
        cert = find_gamma(FLIP, (1, -1))
        bad = PeriodicityCertificate(
            pi=cert.pi, E=cert.E, F=cert.F,
            gamma=tuple((e, f) for (e, _), (_, f) in zip(cert.gamma, reversed(cert.gamma))))
        check = check_tail_condition(FLIP, bad, force_transducer=True)
        assert not check.passed and check.violation is not None


class TestSymmetryLattice:
    def test_flip_and_square(self):
        assert symmetry_lattice(FLIP, bound=3).basis == ((1, -1),)
        assert symmetry_lattice(SQUARE, bound=3).basis == ((2, -2),)

    def test_forward_cycle_aperiodic(self):
        lat = symmetry_lattice(FWD, bound=3)
        assert lat.rank == 0 and lat.basis == ()

    def test_product_graph_lattice(self):
        lat = symmetry_lattice(PRODUCT, bound=3)
        assert lat.basis == hermite_normal_form([(1, 1, -1)])
        assert lat.contains((1, 1, -1))

    def test_twisted_graph_lattice(self):
        lat = symmetry_lattice(TWISTED, bound=3)
        assert lat.basis == hermite_normal_form([(1, -1, 0), (1, 1, -1)])

    def test_flip_square_square_lattice(self):
        lat = symmetry_lattice(FSS, bound=3)
        assert lat.basis == hermite_normal_form([(1, -1, 0), (2, 0, -2)])

    def test_lattices_avoid_nonnegative_orthant(self):
        for P in (FLIP, SQUARE, PRODUCT, TWISTED, FSS):
            lat = symmetry_lattice(P, bound=2)
            assert not meets_positive_orthant(lat.basis, P.k)

    def test_hnf_idempotent(self):
        lat = symmetry_lattice(TWISTED, bound=2)
        assert hermite_normal_form(lat.basis) == lat.basis

    def test_certificates_replay(self):
        lat = symmetry_lattice(FSS, bound=2)
        for cert in lat.certificates:
            gmap, ginv = cert.gamma_map(), cert.gamma_inverse()
            for e in cert.E:
                for f in cert.F:
                    assert words_equal(FSS, e + f, gmap[e] + ginv[f])
            if cert.tail_check is not None and cert.tail_check.mode == "transducer":
                replay = check_tail_condition(FSS, cert)
                assert replay.passed
                assert replay.states_visited == cert.tail_check.states_visited

    def test_closure_matches_certifying_every_candidate(self):
        # the reference certifies every mixed-sign candidate in the box,
        # then takes the HNF of the hits and certifies each basis vector
        def certify_all(P, bound):
            hits = [pi for pi in itertools.product(range(-bound, bound + 1), repeat=P.k)
                    if any(x > 0 for x in pi) and any(x < 0 for x in pi)
                    and is_periodic(P, pi) is not None]
            basis = hermite_normal_form(hits)
            return basis, tuple(sorted(hits)), tuple(is_periodic(P, v) for v in basis)

        cases = [(P, bound) for P in CATALOG for bound in (2, 3)]
        cases += [(cls.representative, 2)
                  for m in ((2, 2), (2, 2, 2)) for cls in _classes(m)]
        rank_two = 0
        for P, bound in cases:
            lat = symmetry_lattice(P, bound=bound)
            assert (lat.basis, lat.hits, lat.certificates) == certify_all(P, bound), \
                (P.theta, bound)
            rank_two += lat.rank == 2
        assert rank_two > 0

    def test_transducer_vs_brute_across_the_222_classes(self):
        # every class representative for m=(2,2,2), every |pi_i| <= 1
        # candidate with a bijection: the transducer and the word-prefix
        # oracle must agree.  Some bijections pass (dagger) but fail the
        # tail condition; the counts are frozen as regression constants.
        from polygraph.kgraph import extract_prefix
        classes = _classes((2, 2, 2))
        candidates = [pi for pi in itertools.product((-1, 0, 1), repeat=3)
                      if any(x > 0 for x in pi) and any(x < 0 for x in pi)]
        box = (3, 3, 3)
        certified = tail_failing = 0
        for cls in classes:
            P = cls.representative
            for pi in candidates:
                cert = find_gamma(P, pi)
                if cert is None or cert.tail_check is not None:
                    continue
                certified += 1
                verdict = check_tail_condition(P, cert, force_transducer=True).passed
                gmap = cert.gamma_map()
                brute = True
                for e in cert.E:
                    for w in words_of_degree(P, box):
                        lhs, _ = extract_prefix(P, normal_form(P, e + w), box)
                        rhs, _ = extract_prefix(P, normal_form(P, gmap[e] + w), box)
                        if lhs != rhs:
                            brute = False
                            break
                    if not brute:
                        break
                assert verdict == brute, (cls.representative.theta, pi)
                if not verdict:
                    tail_failing += 1
        assert certified == 36
        assert tail_failing == 8

    def test_hits_are_exactly_the_boxed_lattice_points(self):
        # certified periods within the search box = mixed-sign lattice
        # elements of the closure (periods form a group, so nothing inside
        # the box is missed and nothing outside the lattice is certified)
        for P in (TWISTED, FSS):
            lat = symmetry_lattice(P, bound=2)
            boxed = set()
            for pi in itertools.product(range(-2, 3), repeat=3):
                mixed = any(x > 0 for x in pi) and any(x < 0 for x in pi)
                if mixed and lat.contains(pi):
                    boxed.add(pi)
                    assert is_periodic(P, pi) is not None
            assert boxed == set(lat.hits)


class TestCentralElements:
    def test_flip_central_element(self):
        cert = is_periodic(FLIP, (1, -1))
        w = central_element(FLIP, cert)
        # W e_t = f_t
        for t in (1, 2):
            lhs = multiply(FLIP, w, monomial(FLIP, ((1, t),), ()))
            assert star_equal(FLIP, lhs, monomial(FLIP, ((2, t),), ()))
        assert verify_central(FLIP, cert)

    def test_unitarity(self):
        cert = is_periodic(SQUARE, (2, -2))
        w = central_element(SQUARE, cert)
        assert star_equal(SQUARE, multiply(SQUARE, w, adjoint(w)), identity_sum())

    def test_gradings_are_minus_pi(self):
        from polygraph.staralg import gradings
        cert = is_periodic(TWISTED, (1, 1, -1))
        w = central_element(TWISTED, cert)
        assert gradings(TWISTED, w) == {(-1, -1, 1)}

    def test_central_on_3graphs(self):
        for P in (PRODUCT, TWISTED, FSS):
            lat = symmetry_lattice(P, bound=2)
            for cert in lat.certificates:
                assert verify_central(P, cert)

    def test_homomorphism_on_basis_pairs(self):
        for P in (TWISTED, FSS):
            lat = symmetry_lattice(P, bound=2)
            c1, c2 = lat.certificates[0], lat.certificates[1]
            total = tuple(a + b for a, b in zip(c1.pi, c2.pi))
            csum = is_periodic(P, total)
            assert csum is not None
            assert verify_homomorphism(P, c1, c2, csum)
            prod12 = multiply(P, central_element(P, c1), central_element(P, c2))
            prod21 = multiply(P, central_element(P, c2), central_element(P, c1))
            assert star_equal(P, prod12, prod21)

    def test_central_elements_across_the_222_classes(self):
        # every bound-1 period found across the m=(2,2,2) classes gives a
        # central unitary at the relation level (counts frozen)
        classes = _classes((2, 2, 2))
        periodic = checked = 0
        for cls in classes:
            lat = symmetry_lattice(cls.representative, bound=1)
            if lat.rank:
                periodic += 1
                for cert in lat.certificates:
                    assert verify_central(cls.representative, cert), cert.pi
                    checked += 1
        assert periodic == 12
        assert checked == 13

    def test_homomorphism_with_zero(self):
        cert = is_periodic(FLIP, (1, -1))
        zero = find_gamma(FLIP, (0, 0))
        assert verify_homomorphism(FLIP, cert, zero, cert)

    def test_sum_mismatch_raises(self):
        cert = is_periodic(FLIP, (1, -1))
        with pytest.raises(ValueError):
            verify_homomorphism(FLIP, cert, cert, cert)


class TestProductRelations:
    def test_split_relations_on_the_product_graph(self):
        # the (1,1,-1) certificate of the product-type graph satisfies the
        # two split relations and the swapped composite, with delta = gamma
        # composed with the inverse two-color commutation (= gamma here,
        # since colors 1 and 2 commute letterwise)
        cert = is_periodic(PRODUCT, (1, 1, -1))
        gamma, delta = product_relation_tables(PRODUCT, cert, 1, 1)
        assert gamma == delta  # theta_12 = id
        idx = range(1, 3)
        for u0, v0, u1, v1 in itertools.product(idx, repeat=4):
            e0, f0 = ((1, u0),), ((2, v0),)
            e1, f1 = ((1, u1),), ((2, v1),)
            g_del = delta[(e1, f0)]
            g_gam = gamma[(e0, f0)]
            assert words_equal(PRODUCT, e0 + g_del, g_gam + e1)
            assert words_equal(PRODUCT, f0 + gamma[(e1, f1)], g_del + f1)
            lhs = f0 + e0 + delta[(e1, f1)]
            rhs = delta[(e0, f0)] + f1 + e1
            assert words_equal(PRODUCT, lhs, rhs)

    def test_twisted_delta_is_the_swap(self):
        cert = is_periodic(TWISTED, (1, 1, -1))
        gamma, delta = product_relation_tables(TWISTED, cert, 1, 1)
        for (u, v), g in delta.items():
            swapped = ((1, v[0][1]),), ((2, u[0][1]),)
            assert gamma[(swapped[0], swapped[1])] == g


class TestStructureReport:
    def test_periodic_report(self):
        lat = symmetry_lattice(FSS, bound=3)
        rep = structure_report(FSS, lat)
        assert rep["torus_rank"] == 2
        assert not rep["aperiodic"]
        assert "C(T^2)" in rep["graph_cstar_algebra"]
        assert "2^inf * 2^inf * 2^inf" in rep["gauge_invariant_core"]
        assert len(rep["assumed_not_computed"]) == 4

    def test_aperiodic_report(self):
        lat = symmetry_lattice(FWD, bound=2)
        rep = structure_report(FWD, lat)
        assert rep["torus_rank"] == 0 and rep["aperiodic"]
        assert rep["graph_cstar_algebra"] == "simple"
