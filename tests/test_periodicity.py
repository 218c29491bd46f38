import collections
import dataclasses
import functools
import itertools
import math

import pytest

from polygraph import catalog, periodicity, product_relation_tables
from polygraph.enumeration import enumerate_presentations, isomorphism_classes
from polygraph.intlinalg import hermite_normal_form, meets_positive_orthant, reduce_mod
from polygraph.kgraph import (
    deg_sub,
    degree,
    extract_prefix,
    normal_form,
    presentation_from_codes,
    words_equal,
    words_of_degree,
)
from polygraph.periodicity import (
    LatticeInconsistency,
    PeriodicityCertificate,
    _period_candidates,
    _prime_exponents,
    central_element,
    check_tail_condition,
    find_gamma,
    is_periodic,
    structure_report,
    symmetry_lattice,
    verify_central,
    verify_homomorphism,
)
from polygraph.staralg import StarSum, adjoint, identity_sum, monomial, multiply, star_equal

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


def _mixed_sign(k, bound):
    return [pi for pi in itertools.product(range(-bound, bound + 1), repeat=k)
            if min(pi) < 0 < max(pi)]


def _dagger_bijections(P, pi):
    """Every bijection gamma: E -> F for which (dagger) holds on all pairs."""
    E = list(words_of_degree(P, tuple(max(x, 0) for x in pi)))
    F = list(words_of_degree(P, tuple(max(-x, 0) for x in pi)))
    if len(E) != len(F):
        return []
    found = []
    for images in itertools.permutations(F):
        gamma, inverse = dict(zip(E, images)), dict(zip(images, E))
        if all(words_equal(P, e + f, gamma[e] + inverse[f]) for e in E for f in F):
            found.append(gamma)
    return found


def _reference_find_gamma(P, pi):
    """find_gamma with (dagger) decided by the normal forms of both sides
    for every pair.  Returns the stage that decided and the certificate:
    "word counts", "probe" or "dagger" with None, or "certified"."""
    plus, minus = tuple(max(x, 0) for x in pi), tuple(max(-x, 0) for x in pi)
    E, F = tuple(words_of_degree(P, plus)), tuple(words_of_degree(P, minus))
    if len(E) != len(F):
        return "word counts", None
    gamma, suffixes = {}, set()
    for e in E:
        gamma[e], tail = extract_prefix(P, normal_form(P, e + F[0]), minus)
        suffixes.add(tail)
    inverse = {f: e for e, f in gamma.items()}
    if len(suffixes) > 1 or len(inverse) != len(E):
        return "probe", None
    for e in E:
        for f in F:
            if normal_form(P, e + f) != normal_form(P, gamma[e] + inverse[f]):
                return "dagger", None
    return "certified", PeriodicityCertificate(
        pi=pi, E=E, F=F, gamma=tuple((e, gamma[e]) for e in E))


def _pairs_find_gamma(P, pi):
    """find_gamma as it was before the layered checks (A) and (B): the
    same probe, then the letters of every f moved through every e one at a
    time, |E| |F| walks of n moves each.  e f = y_1 ... y_n r_n, so
    (dagger) holds iff y_1 ... y_n = gamma(e) and r_n = gamma^{-1}(f).
    Moves are extract_prefix at a unit degree, so the oracle shares no
    code with find_gamma's move memo."""
    plus, minus = tuple(max(x, 0) for x in pi), tuple(max(-x, 0) for x in pi)
    E, F = tuple(words_of_degree(P, plus)), tuple(words_of_degree(P, minus))
    if len(E) != len(F):
        return None
    gamma, suffixes = {}, set()
    for e in E:
        gamma[e], tail = extract_prefix(P, e + F[0], minus)
        suffixes.add(tail)
    gamma_inv = {f: e for e, f in gamma.items()}
    if len(suffixes) > 1 or len(gamma_inv) != len(gamma):
        return None
    for e in E:
        for f in F:
            r = e
            for x, gx in zip(f, gamma[e]):
                unit = tuple(int(c == x[0]) for c in range(1, P.k + 1))
                (y,), r = extract_prefix(P, r + (x,), unit)
                if y != gx:
                    return None
            if r != gamma_inv[f]:
                return None
    return PeriodicityCertificate(pi=pi, E=E, F=F, gamma=tuple(gamma.items()))


def _swap_first_images(cert):
    """The certificate with the gamma images of its first two words swapped."""
    (e0, g0), (e1, g1), *rest = cert.gamma
    return dataclasses.replace(cert, gamma=((e0, g1), (e1, g0), *rest))


def _reference_tail_search(P, cert):
    """The tail transducer as a breadth-first search: states are residual
    pairs (r, s) of degrees pi_+ and pi_-, started at every (e, gamma(e));
    feeding a generator g of color c factors r g = g1 r' and s g = g2 s' at
    degree e_c, and a move with g1 != g2 separates two tails.  Returns the
    verdict and the number of states reached."""
    gamma = cert.gamma_map()
    seen = {(e, gamma[e]) for e in cert.E}
    queue = collections.deque(seen)
    while queue:
        r, s = queue.popleft()
        for g in P.letters():
            e_c = tuple(int(i == g[0] - 1) for i in range(P.k))
            g1, r2 = extract_prefix(P, r + (g,), e_c)
            g2, s2 = extract_prefix(P, s + (g,), e_c)
            if g1 != g2:
                return False, len(seen)
            if (r2, s2) not in seen:
                seen.add((r2, s2))
                queue.append((r2, s2))
    return True, len(seen)


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

    def test_matches_the_bijection_oracle(self):
        # at most one bijection E -> F satisfies (dagger), and find_gamma
        # returns it, or None when there is none
        cases = [(P, pi) for P in enumerate_presentations((2, 2)) for pi in _mixed_sign(2, 2)]
        cases += [(cls.representative, pi)
                  for cls in _classes((2, 2, 2)) for pi in _mixed_sign(3, 1)]
        certified = 0
        for P, pi in cases:
            found = _dagger_bijections(P, pi)
            assert len(found) <= 1, (P, pi)
            cert = find_gamma(P, pi)
            assert (cert.gamma_map() if cert else None) == (found[0] if found else None), \
                (P, pi)
            certified += cert is not None
        assert len(cases) == 1080
        assert certified == 48

    def test_dagger_walk_matches_the_normal_form_reference(self):
        # the one-letter-move (dagger) check against normal forms of both
        # sides for every pair; about a third of the probe passes fail
        # (dagger), so both the letter and the end-state clauses are hit.
        # The reference builds E and F as tuple(words_of_degree(...)) before
        # its probe, so == also checks the lazy probe's E, F and verdicts
        cases = [(cls.representative, pi)
                 for cls in _classes((2, 2, 2)) for pi in _mixed_sign(3, 2)]
        cases += [(P, pi) for P in CATALOG if P.k == 3 for pi in _mixed_sign(3, 3)]
        stages = collections.Counter()
        for P, pi in cases:
            stage, reference = _reference_find_gamma(P, pi)
            assert find_gamma(P, pi) == reference, (P, pi)
            stages[stage] += 1
        assert len(cases) == 6408
        assert stages["dagger"] + stages["certified"] == 288
        assert stages["dagger"] == 100
        assert stages["probe"] == 1200

    def test_layer_walks_match_the_pairs_walk(self):
        # every (2,2) and (2,2,2) presentation at |pi_i| <= 2, flip at
        # (n, -n), and two (3,3) presentations whose (A) walk reaches a
        # state owing two outputs
        cases = [(P, pi) for m in ((2, 2), (2, 2, 2)) for P in enumerate_presentations(m)
                 for pi in _mixed_sign(len(m), 2)]
        cases += [(FLIP, (n, -n)) for n in range(1, 8)]
        cases += [(presentation_from_codes(2, (3, 3), [code]), pi)
                  for code in [(3, 8, 2, 4, 7, 1, 6, 5, 0), (0, 8, 3, 1, 4, 7, 2, 6, 5)]
                  for pi in [(-3, 3), (-2, 2), (2, -2)]]
        certified = 0
        for P, pi in cases:
            cert = find_gamma(P, pi)
            assert cert == _pairs_find_gamma(P, pi), (P, pi)
            certified += cert is not None
        assert (len(cases), certified) == (54349, 1027)

    @staticmethod
    def _moves(P, pi):
        """find_gamma's verdict and the moves it asks of a cold memo."""
        periodicity._mover.cache_clear()
        cert = find_gamma(P, pi)
        info = periodicity._mover(P).cache_info()
        return cert, info.hits + info.misses

    def test_each_layer_has_E_keys_under_dagger(self):
        # the probe makes 1 + |E| moves, and (A) and (B) one per key and
        # letter of each position: |E| sum_c |pi_c| m_c in all
        cases = [(FLIP, (n, -n)) for n in range(1, 9)]
        cases += [(P, pi) for P in CATALOG if P.k == 3 for pi in _mixed_sign(3, 2)]
        certified = 0
        for P, pi in cases:
            cert, moves = self._moves(P, pi)
            if cert is not None:
                certified += 1
                assert moves == 1 + len(cert.E) * (1 + sum(abs(x) * mc for x, mc in zip(pi, P.m)))
        assert certified == 8 + 48

    def test_a_state_owing_two_outputs_ends_the_walk(self):
        # |E| = 27: after the 1 + 27 moves of the probe, the 11th move of
        # (A) reaches a state that an earlier move reached owing another
        # output, which (dagger) rules out, so the walk stops there; without
        # that comparison it runs on to a letter mismatch
        P = presentation_from_codes(2, (3, 3), [(3, 8, 2, 4, 7, 1, 6, 5, 0)])
        assert self._moves(P, (-3, 3)) == (None, 1 + 27 + 11)

    def test_unequal_word_counts_are_none_without_counting(self, monkeypatch):
        # |E| != |F| is read off prime valuations: definitive None at any
        # length, before the "certificate words" budget (here 0) is read
        P23 = next(enumerate_presentations((2, 3)))
        P24 = next(enumerate_presentations((2, 4)))
        monkeypatch.setenv("POLYGRAPH_BUDGET", "0")
        for P, pi in [(P23, (20000, -20000)), (P23, (1, -1)), (P24, (20001, -10000)),
                      (P24, (1, -1))]:
            assert find_gamma(P, pi) is None, (P.m, pi)

    @pytest.mark.parametrize("m", [(2, 3), (2, 4), (4, 2, 8), (6, 2, 3), (1, 2), (1, 1, 3),
                                   (9, 3, 27)])
    def test_prime_exponents_decide_equal_word_counts(self, m):
        for plus, minus in itertools.product(itertools.product(range(4), repeat=len(m)),
                                             repeat=2):
            exact = math.prod(mi ** d for mi, d in zip(m, plus)) \
                == math.prod(mi ** d for mi, d in zip(m, minus))
            pi = [a - b for a, b in zip(plus, minus)]
            in_lattice = not any(sum(v * x for v, x in zip(vp, pi)) for vp in _prime_exponents(m))
            assert in_lattice == exact, (plus, minus)

    def test_dagger_holds_exhaustively(self):
        for P, pi in [(FLIP, (1, -1)), (SQUARE, (2, -2)), (PRODUCT, (1, 1, -1))]:
            cert = find_gamma(P, pi)
            gmap, ginv = cert.gamma_map(), {f: e for e, f in cert.gamma}
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

    @staticmethod
    def _agrees_with_reference(P, case):
        verdict, states = _reference_tail_search(P, case)
        check = check_tail_condition(P, case, force_transducer=True)
        assert check.passed == verdict, (P, case.pi, case.gamma)
        if verdict:
            assert check.states_visited == states == len(case.E)
        return verdict, states

    def test_one_pass_matches_the_reference_search(self):
        # every (2,2,2) certificate with |pi_i| <= 2, and the same
        # certificates with their gamma images rotated by one place
        failing = collections.Counter()
        for P in enumerate_presentations((2, 2, 2)):
            for pi in _mixed_sign(3, 2):
                cert = find_gamma(P, pi)
                if cert is None:
                    continue
                images = [f for _, f in cert.gamma]
                rotated = dataclasses.replace(
                    cert, gamma=tuple(zip(cert.E, images[1:] + images[:1])))
                failing["total"] += 1
                failing["certificates"] += not self._agrees_with_reference(P, cert)[0]
                failing["rotated"] += not self._agrees_with_reference(P, rotated)[0]
        assert failing == {"total": 1008, "certificates": 96, "rotated": 1008}

    def test_one_pass_matches_the_reference_search_on_every_bijection(self):
        # every bijection E -> F of the (2,2,2) class representatives that
        # have a certificate with |pi_i| <= 2; on 782 of them the search
        # leaves the start pairs, so the one pass must reject them by
        # gamma(r') != s' when the first letters agree
        counts = collections.Counter()
        for cls in _classes((2, 2, 2)):
            P = cls.representative
            for pi in _mixed_sign(3, 2):
                cert = find_gamma(P, pi)
                if cert is None:
                    continue
                for images in itertools.permutations([f for _, f in cert.gamma]):
                    case = dataclasses.replace(cert, gamma=tuple(zip(cert.E, images)))
                    verdict, states = self._agrees_with_reference(P, case)
                    counts["total"] += 1
                    counts["passing"] += verdict
                    counts["beyond the start pairs"] += states > len(case.E)
        assert counts == {"total": 1608, "passing": 92, "beyond the start pairs": 782}

    def test_supported_letters_never_fail_on_certificates(self):
        # the lemma behind feeding only zero colors: on every certificate
        # of every m=(2,2) and m=(2,2,2) presentation with |pi_i| <= 2, a
        # letter of a color in supp(pi) moves e and gamma(e) to the same
        # first letter and to residuals r', s' with gamma(r') = s'; so the
        # unforced check and the forced one, which feeds every letter,
        # return the same transcript
        counts = collections.Counter()
        for m in ((2, 2), (2, 2, 2)):
            for P in enumerate_presentations(m):
                for pi in _mixed_sign(len(m), 2):
                    cert = find_gamma(P, pi)
                    if cert is None:
                        continue
                    gamma = cert.gamma_map()
                    for e, g in itertools.product(cert.E, P.letters()):
                        if pi[g[0] - 1]:
                            e_c = tuple(int(i == g[0] - 1) for i in range(P.k))
                            g1, r = extract_prefix(P, normal_form(P, e + (g,)), e_c)
                            g2, s = extract_prefix(P, normal_form(P, gamma[e] + (g,)), e_c)
                            assert (g1, gamma[r]) == (g2, s), (P, pi, e, g)
                            counts["moves"] += 1
                    if 0 in pi:
                        check = check_tail_condition(P, cert)
                        assert check == check_tail_condition(P, cert, force_transducer=True)
                        counts["failing"] += not check.passed
                    counts["certificates"] += 1
        assert counts == {"certificates": 1020, "moves": 13600, "failing": 96}

    def test_violating_transducer_reports_a_path(self):
        # graft a wrong gamma onto the flip graph: swap the images so
        # (dagger) holds for the probe pair but the tails separate
        cert = find_gamma(FLIP, (1, -1))
        bad = PeriodicityCertificate(
            pi=cert.pi, E=cert.E, F=cert.F,
            gamma=tuple((e, f) for (e, _), (_, f) in zip(cert.gamma, reversed(cert.gamma))))
        check = check_tail_condition(FLIP, bad, force_transducer=True)
        assert not check.passed and check.violation is not None


def _boxed_periods_reference(m, bound):
    """The mixed-sign pi in the box with prod m_i^pi_i+ = prod m_i^pi_i-,
    by increasing L1 norm, ties lexicographic."""
    found = [pi for pi in itertools.product(range(-bound, bound + 1), repeat=len(m))
             if min(pi) < 0 < max(pi)
             and math.prod(mi ** max(x, 0) for mi, x in zip(m, pi))
             == math.prod(mi ** max(-x, 0) for mi, x in zip(m, pi))]
    return sorted(found, key=lambda pi: sum(map(abs, pi)))


class TestSymmetryLattice:
    @pytest.mark.parametrize("m", [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3), (2, 4), (4, 2, 8),
                                   (6, 2, 3), (1, 2), (1, 1, 3), (5, 7), (4, 4, 4, 2)])
    def test_candidates_are_the_boxed_points_of_L_m(self, m):
        for bound in range(1, 5):
            assert list(_period_candidates(m, bound)) == _boxed_periods_reference(m, bound), bound

    def test_no_certificate_is_tried_when_L_m_is_zero(self, monkeypatch):
        calls = []
        monkeypatch.setattr(periodicity, "is_periodic", lambda P, pi: calls.append(pi))
        P = next(iter(enumerate_presentations((2, 3))))
        lat = symmetry_lattice(P, bound=4)
        assert lat.basis == lat.hits == () and calls == []

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
            gmap, ginv = cert.gamma_map(), {f: e for e, f in cert.gamma}
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
        cases += [(cls.representative, bound) for cls in _classes((2, 2)) for bound in (4, 5)]
        rank_two = 0
        for P, bound in cases:
            lat = symmetry_lattice(P, bound=bound)
            assert (lat.basis, lat.hits, lat.certificates) == certify_all(P, bound), \
                (P, bound)
            rank_two += lat.rank == 2
        assert rank_two > 0

    @staticmethod
    def _certified(monkeypatch, P, bound, verdict=None):
        """The symmetry lattice and the pi's sent to is_periodic, in order;
        verdict, when given, replaces is_periodic."""
        calls, decide = [], verdict or periodicity.is_periodic
        monkeypatch.setattr(periodicity, "is_periodic",
                            lambda P, pi: calls.append(pi) or decide(P, pi))
        return symmetry_lattice(P, bound=bound), calls

    @pytest.mark.parametrize("bound", [2, 3, 4, 5])
    def test_aperiodic_certifies_one_candidate_per_sign_pair(self, monkeypatch, bound):
        # cycle3-forward has no period: every candidate is rejected, and
        # the rejection of pi rules out -pi without a second certificate
        lat, calls = self._certified(monkeypatch, FWD, bound)
        candidates = _period_candidates(FWD.m, bound)
        assert lat.basis == lat.hits == ()
        assert len(calls) == len(candidates) // 2
        assert set(calls) | {tuple(-x for x in pi) for pi in calls} == set(candidates)

    def test_flip_cycles_call_count_is_frozen(self, monkeypatch):
        # bound 5: of 90 candidates, 6 reach is_periodic in the search and
        # the one basis vector once more in its re-verification
        P = catalog.flip_cycle_cycle_3graph()
        lat, calls = self._certified(monkeypatch, P, 5)
        assert len(_period_candidates(P.m, 5)) == 90
        assert lat.basis == ((1, -1, 0),)
        assert len(calls) == 7 and calls[-1] == (1, -1, 0)

    def test_no_rejected_coset_is_certified_twice(self, monkeypatch):
        # each pi sent to is_periodic lies outside the lattice of the
        # periods certified before it and outside the coset of every +-q
        # rejected before it
        for P in (FSS, TWISTED, PRODUCT, catalog.flip_cycle_cycle_3graph()):
            lat, calls = self._certified(monkeypatch, P, 4)
            search = calls[:len(calls) - lat.rank]
            for i, pi in enumerate(search):
                hits = [q for q in search[:i] if is_periodic(P, q) is not None]
                basis = hermite_normal_form(hits)
                assert reduce_mod(basis, pi)[1] != (0,) * P.k, (P, pi)
                for q in search[:i]:
                    if q not in hits:
                        for sign in (1, -1):
                            diff = tuple(a - sign * b for a, b in zip(pi, q))
                            assert reduce_mod(basis, diff)[1] != (0,) * P.k, (P, pi, q)

    def test_rejected_vector_in_the_lattice_raises(self, monkeypatch):
        # a verdict set that is not closed under subtraction: it rejects
        # (-2, 2, 0, 0) but accepts (-2, 0, 0, 2), (-2, 0, 2, 0) and
        # (-1, -1, 1, 1), whose lattice holds
        # (-2, 0, 0, 2) + (-2, 0, 2, 0) - 2 (-1, -1, 1, 1) = (-2, 2, 0, 0)
        accepted = {(-2, 0, 0, 2), (-2, 0, 2, 0), (-1, -1, 1, 1)}
        P = catalog.transposition_kgraph(4, 2)
        with pytest.raises(LatticeInconsistency, match=r"rejected candidate \(2, -2, 0, 0\)"):
            self._certified(monkeypatch, P, 2, lambda P, pi: pi if pi in accepted else None)

    def test_transducer_vs_brute_across_the_222_classes(self):
        # every candidate with a bijection, on every m=(2,2,2) class
        # representative for |pi_i| <= 1 and on every m=(2,2) presentation
        # for |pi_i| <= 2: the transducer and the word-prefix oracle in the
        # box must agree, and a pi of full support (automatic) must pass.
        # Some bijections pass (dagger) but fail the tail condition; the
        # counts are frozen as regression constants.
        runs = [([c.representative for c in _classes((2, 2, 2))], 1, (3, 3, 3), 36, 8),
                (list(enumerate_presentations((2, 2))), 2, (6, 6), 12, 0)]
        for presentations, bound, box, expected_certified, expected_failing in runs:
            certified = tail_failing = 0
            for P in presentations:
                for pi in _mixed_sign(len(box), bound):
                    cert = find_gamma(P, pi)
                    if cert is None or cert.tail_check is not None:
                        continue
                    certified += 1
                    verdict = check_tail_condition(P, cert, force_transducer=True).passed
                    gmap = cert.gamma_map()
                    brute = all(
                        extract_prefix(P, normal_form(P, e + w), box)[0]
                        == extract_prefix(P, normal_form(P, gmap[e] + w), box)[0]
                        for e in cert.E for w in words_of_degree(P, box))
                    assert verdict == brute, (P, pi)
                    assert verdict or 0 in pi, (P, pi)
                    tail_failing += not verdict
            assert (certified, tail_failing) == (expected_certified, expected_failing), box

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
        cert = is_periodic(TWISTED, (1, 1, -1))
        w = central_element(TWISTED, cert)
        assert {deg_sub(degree(TWISTED, u), degree(TWISTED, v)) for (u, v), _ in w.terms} \
            == {(-1, -1, 1)}

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

    def test_central_element_matches_the_monomial_fold(self):
        # one StarSum.of over the certificate against the old sum of one
        # normalised monomial per word of E, on every bound-2 period of
        # the (2,2,2) class representatives
        checked = 0
        for cls in _classes((2, 2, 2)):
            P = cls.representative
            for pi in symmetry_lattice(P, bound=2).hits:
                cert = is_periodic(P, pi)
                gamma, counts = cert.gamma_map(), collections.Counter()
                for e in cert.E:
                    counts.update(dict(monomial(P, gamma[e], e).terms))
                assert central_element(P, cert) == StarSum.of(counts), pi
                checked += 1
        assert checked == 92

    @pytest.mark.parametrize("P, pi", [(FLIP, (1, -1)), (TWISTED, (1, 1, -1)),
                                       (TWISTED, (0, 2, -1))])
    def test_swapped_images_are_caught(self, P, pi):
        # a certificate with two gamma images swapped gives a W that is
        # not central, and W_h W_0 differs from its W
        cert, zero = is_periodic(P, pi), find_gamma(P, (0,) * P.k)
        swapped = _swap_first_images(cert)
        assert verify_central(P, cert) and verify_homomorphism(P, cert, zero, cert)
        assert not verify_central(P, swapped)
        assert not verify_homomorphism(P, cert, zero, swapped)
        assert not verify_homomorphism(P, swapped, zero, cert)

    def test_homomorphism_with_zero(self):
        cert = is_periodic(FLIP, (1, -1))
        zero = find_gamma(FLIP, (0, 0))
        assert verify_homomorphism(FLIP, cert, zero, cert)

    def test_sum_mismatch_raises(self):
        cert = is_periodic(FLIP, (1, -1))
        with pytest.raises(ValueError):
            verify_homomorphism(FLIP, cert, cert, cert)


class TestSharedMoveMemo:
    """One move memo serves every certificate on the latest presentation;
    the results must be those of a cold memo."""

    @staticmethod
    def _results(P):
        lat = symmetry_lattice(P, bound=3)
        certs = [is_periodic(P, pi) for pi in _mixed_sign(P.k, 2)]
        tails = []
        for cert in lat.certificates:
            tails += [check_tail_condition(P, c, force_transducer=True)
                      for c in (cert, _swap_first_images(cert))]
        return lat.certificates, certs, tails

    def test_results_do_not_depend_on_the_memo(self):
        order = (TWISTED, catalog.flip_cycle_cycle_3graph(), TWISTED, FLIP, FLIP)
        periodicity._mover.cache_clear()
        warm = [self._results(P) for P in order]
        cold = []
        for P in order:
            periodicity._mover.cache_clear()
            cold.append(self._results(P))
        assert warm == cold
        tails = [t for _, _, ts in warm for t in ts]
        assert any(t.passed for t in tails) and any(not t.passed for t in tails)

    def test_one_memo_per_presentation(self):
        periodicity._mover.cache_clear()
        is_periodic(FSS, (1, 1, -2))
        is_periodic(FSS, (0, 2, -2))  # a zero entry: the transducer reuses the memo
        info = periodicity._mover.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        move = periodicity._mover(FSS)
        is_periodic(FLIP, (1, -1))
        assert periodicity._mover(FSS) is not move  # FLIP's call dropped FSS's moves


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
