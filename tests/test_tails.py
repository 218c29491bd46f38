import itertools
import random

import pytest

from polygraph import catalog
from polygraph import tails
from polygraph.intlinalg import hermite_normal_form, solve_integer
from polygraph.kgraph import deg_add, extract_prefix, normal_form
from polygraph.periodicity import symmetry_lattice
from polygraph.tails import (
    InvalidTail,
    SigmaData,
    _compare,
    shift_tail_equivalent,
    sigma_data,
    splice_separating_tail,
    tail,
    tail_symmetry_group,
)

FLIP = catalog.flip_2graph()
FWD = catalog.cycle3_forward_2graph()
T3 = catalog.transposition_kgraph(3, 2)


class TestTailType:
    def test_period_needs_every_color(self):
        with pytest.raises(InvalidTail):
            tail(FLIP, (), ((1, 1),))

    def test_words_normalized(self):
        t = tail(FLIP, ((2, 1), (1, 2)), ((2, 2), (1, 1)))
        assert t.preperiod == normal_form(FLIP, ((2, 1), (1, 2)))
        assert t.period[0][0] == 1

    def test_unroll_reaches_degree(self):
        t = tail(FLIP, ((1, 1),), ((1, 1), (2, 1)))
        w = t.unroll((3, 3))
        from polygraph.kgraph import degree
        assert all(a >= b for a, b in zip(degree(FLIP, w), (3, 3)))


class TestSigmaData:
    def test_constant_tail(self):
        t = tail(FLIP, (), ((1, 1), (2, 1)))
        data = sigma_data(t, (3, 3))
        assert all(v == (1, 1) for _, v in data.values)

    def test_transposition_tail_against_hand_oracle(self):
        # in a transposition family indices ride along positions, so the
        # window value at n is the (|n|+1)-th letter index of the period
        # stream 1,2,1 repeating, in every color
        t = tail(T3, (), ((1, 1), (2, 2), (3, 1)))
        data = sigma_data(t, (2, 2, 2))
        stream = [1, 2, 1]
        for n, v in data.values:
            expected = stream[(-sum(n)) % 3]
            assert v == (expected,) * 3

    def test_longer_unroll_agrees_on_common_box(self):
        t = tail(FLIP, ((1, 2),) , ((1, 1), (2, 2)))
        small = sigma_data(t, (2, 2)).as_dict()
        large = sigma_data(t, (5, 5)).as_dict()
        assert all(large[n] == v for n, v in small.items())

    def test_doubling_the_period_changes_nothing(self):
        t1 = tail(FLIP, (), ((1, 1), (2, 2)))
        t2 = tail(FLIP, (), normal_form(FLIP, ((1, 1), (2, 2)) * 2))
        assert sigma_data(t1, (4, 4)).as_dict() == sigma_data(t2, (4, 4)).as_dict()
        for p in itertools.product((-2, -1, 0, 1, 2), repeat=2):
            if p == (0, 0):
                continue
            assert (shift_tail_equivalent(t1, t1, p).equivalent
                    == shift_tail_equivalent(t2, t2, p).equivalent)


def _reference_sigma(t, box):
    """Window data one point at a time: for each n and color i, extract
    the degree -n + e_i prefix, then split its last color-i letter off
    with a second extraction."""
    P = t.presentation
    word = t.unroll(deg_add(box, (1,) * P.k))
    values = []
    for n in itertools.product(*[range(-b, 1) for b in box]):
        minus_n = tuple(-x for x in n)
        out = []
        for i in range(P.k):
            target = tuple(c + (j == i) for j, c in enumerate(minus_n))
            prefix, _ = extract_prefix(P, word, target)
            _, last = extract_prefix(P, prefix, minus_n)
            assert len(last) == 1 and last[0][0] == i + 1
            out.append(last[0][1])
        values.append((n, tuple(out)))
    return SigmaData(box=tuple(box), values=tuple(values))


GRID_GRAPHS = {
    "flip": FLIP,
    "square": catalog.square_2graph(),
    "cycle3-forward": FWD,
    "cycle3-reverse": catalog.cycle3_reverse_2graph(),
    "flip-cycle-cycle": catalog.flip_cycle_cycle_3graph(),
    "flip-square-square": catalog.flip_square_square_3graph(),
    "transposition(3,2)": T3,
}


def _random_tail(P, rng):
    def letter(c):
        return (c, rng.randint(1, P.m[c - 1]))
    preperiod = [letter(rng.randint(1, P.k)) for _ in range(rng.randint(0, 6))]
    period = [letter(c) for c in range(1, P.k + 1)]
    period += [letter(rng.randint(1, P.k)) for _ in range(rng.randint(0, 4))]
    rng.shuffle(period)
    return tail(P, tuple(preperiod), tuple(period))


class TestSigmaGridFill:
    @pytest.mark.parametrize("name", sorted(GRID_GRAPHS))
    def test_matches_per_point_extraction(self, name):
        P = GRID_GRAPHS[name]
        rng = random.Random(f"sigma-{name}")
        top = 4 if P.k == 2 else 3
        boxes = [P.zero(), (top,) * P.k]
        boxes += [tuple(rng.randint(0, top) for _ in range(P.k)) for _ in range(10)]
        boxes += [tuple(0 if c == z else rng.randint(1, top) for c in range(P.k))
                  for z in range(P.k)]
        for box in boxes:
            t = _random_tail(P, rng)
            data = sigma_data(t, box)
            assert data == _reference_sigma(t, box)

    def test_lookup_equality_and_hash_use_box_and_values_only(self):
        t = tail(FWD, ((2, 1),), ((1, 1), (1, 2), (2, 1)))
        data = sigma_data(t, (3, 2))
        copy = SigmaData(box=data.box, values=data.values)
        assert copy == data and hash(copy) == hash(data)
        assert hash(data) == hash((data.box, data.values))
        assert all(data[n] == v for n, v in data.values)
        assert data.as_dict() == dict(data.values)
        assert data != SigmaData(box=data.box, values=data.values[:-1])

    @pytest.mark.parametrize("box", [(2,), (2, 2, 2), (-1, 2), (0, -3)])
    def test_box_must_match_the_rank(self, box):
        t = tail(FLIP, (), ((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            sigma_data(t, box)

    def test_wrong_length_shift_rejected(self):
        t = tail(FLIP, (), ((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            shift_tail_equivalent(t, t, (1, 0, 0))


class TestShiftEquivalence:
    def test_zero_shift_reflexive(self):
        t = tail(FLIP, ((1, 2),), ((1, 1), (2, 1)))
        assert shift_tail_equivalent(t, t, (0, 0)).equivalent

    def test_preperiod_is_forgotten(self):
        t1 = tail(FLIP, (), ((1, 1), (2, 1)))
        t2 = tail(FLIP, ((1, 2), (2, 2)), ((1, 1), (2, 1)))
        assert shift_tail_equivalent(t1, t2, (0, 0)).equivalent

    def test_constant_tail_any_shift(self):
        t = tail(FLIP, (), ((1, 1), (2, 1)))
        for p in [(1, 0), (0, -2), (3, -1), (2, 2)]:
            assert shift_tail_equivalent(t, t, p).equivalent

    def test_counterexample_reported(self):
        # in the flip family the window value is a function of the total
        # degree: this tail's stream has period 4, so shifts of total 0 or
        # 4 work and shifts of total 1 or 2 fail
        t = tail(FLIP, (), ((1, 1), (1, 2), (2, 1), (2, 1)))
        assert shift_tail_equivalent(t, t, (1, -1)).equivalent
        assert shift_tail_equivalent(t, t, (2, 2)).equivalent
        for bad_shift in [(1, 0), (2, 0), (1, 1)]:
            verdict = shift_tail_equivalent(t, t, bad_shift)
            assert not verdict.equivalent and verdict.counterexample is not None

    def test_presentation_mismatch(self):
        t1 = tail(FLIP, (), ((1, 1), (2, 1)))
        t2 = tail(FWD, (), ((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            shift_tail_equivalent(t1, t2, (0, 0))

    def test_one_sigma_grid_for_equal_tails(self, monkeypatch):
        # equal tails read both sides of the comparison off one grid on the
        # join of the two boxes; for p >= 0 that join is the first box
        calls = []
        monkeypatch.setattr(tails, "sigma_data",
                            lambda t, box: calls.append(box) or sigma_data(t, box))
        t1 = tail(FWD, ((2, 1),), ((1, 1), (1, 2), (2, 1)))
        t2 = tail(FWD, ((2, 1),), ((1, 1), (1, 2), (2, 1)))
        other = tail(FWD, (), ((1, 1), (1, 2), (2, 1)))
        for a, b, p, grids in [(t1, t1, (2, 1), 1), (t1, t2, (1, -1), 1),
                               (t1, other, (2, 1), 2), (other, t1, (0, 0), 2)]:
            calls.clear()
            shift_tail_equivalent(a, b, p)
            assert len(calls) == grids
        _, bottom = tails._window(t1, t1, (2, 1), 2)
        calls.clear()
        shift_tail_equivalent(t1, t1, (2, 1))
        assert calls == [tuple(-b for b in bottom)]

    @pytest.mark.parametrize("P", [FLIP, FWD, T3], ids=["flip", "cycle3-forward", "k3"])
    def test_one_grid_matches_the_two_grid_path(self, P):
        # the oracle builds a grid per side, on each side's own box
        rng = random.Random(f"one-grid-{P.m}")
        for _ in range(12):
            t = _random_tail(P, rng)
            p = tuple(rng.randint(-3, 3) for _ in range(P.k))
            depth = rng.randint(1, 2)
            threshold, bottom = tails._window(t, t, p, depth)
            s1 = sigma_data(t, tuple(-b for b in bottom))
            s2 = sigma_data(t, tuple(-(b + q) for b, q in zip(bottom, p)))
            assert shift_tail_equivalent(t, t, p, depth) == \
                _compare(s1, s2, p, threshold, bottom)


class TestTailSymmetry:
    def test_constant_tail_full_lattice(self):
        t = tail(FLIP, (), ((1, 1), (2, 1)))
        sym = tail_symmetry_group(t, bound=2)
        assert sym.basis == ((1, 0), (0, 1))

    def test_symmetry_generators_form_a_group_within_bound(self):
        t = tail(FLIP, (), ((1, 1), (1, 2), (2, 1), (2, 1)))
        sym = tail_symmetry_group(t, bound=2)
        hits = {g.shift for g in sym.generators}
        for p in hits:
            assert tuple(-x for x in p) in hits
        for p, q in itertools.product(hits, repeat=2):
            s = tuple(a + b for a, b in zip(p, q))
            if s != (0, 0) and all(abs(x) <= 2 for x in s):
                assert s in hits

    def test_period_degree_is_always_a_symmetry(self):
        t = tail(FWD, (), ((1, 1), (1, 2), (2, 1)))
        sym = tail_symmetry_group(t, bound=3)
        assert solve_integer(sym.basis, (2, 1)) is not None

    def test_spliced_tail_on_aperiodic_graph_has_no_symmetry(self):
        t = splice_separating_tail(FWD, bound=2, depth=2)
        sym = tail_symmetry_group(t, bound=2)
        assert sym.basis == ()

    @pytest.mark.parametrize("bound, depth", [(0, 2), (-1, 2), (2, 0)])
    def test_splice_needs_a_positive_bound_and_depth(self, bound, depth):
        with pytest.raises(ValueError, match="bound and depth must be >= 1"):
            splice_separating_tail(FLIP, bound=bound, depth=depth)

    def test_tail_symmetry_contains_graph_symmetry(self):
        # H_theta is the intersection over all tails, so any tail's group
        # contains it; check on the flip graph whose lattice is Z(1,-1)
        lat = symmetry_lattice(FLIP, bound=2)
        assert lat.basis == ((1, -1),)
        for period in [((1, 1), (2, 1)), ((1, 1), (1, 2), (2, 2), (2, 1))]:
            t = tail(FLIP, (), period)
            sym = tail_symmetry_group(t, bound=2)
            for v in lat.basis:
                assert solve_integer(sym.basis, v) is not None


class TestSelfShiftsFromOneGrid:
    GRAPHS = {
        "flip": FLIP,
        "square": catalog.square_2graph(),
        "cycle3-forward": FWD,
        "cycle3-reverse": catalog.cycle3_reverse_2graph(),
        "flip-cycle-cycle": catalog.flip_cycle_cycle_3graph(),
        "flip-square-square": catalog.flip_square_square_3graph(),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_transcripts_match_per_shift_checks(self, name):
        # the oracle compares every shift of the box on its own, in
        # lexicographic order; the closure tests one shift per open coset
        P = self.GRAPHS[name]
        rng = random.Random(f"self-shifts-{name}")
        runs = [(1, 1), (2, 2), (3, 1), (2, 3)] if P.k == 2 else [(1, 1), (2, 2), (1, 3)]
        verdicts = set()
        for bound, depth in runs:
            t = _random_tail(P, rng)
            transcripts = [shift_tail_equivalent(t, t, p, depth)
                           for p in itertools.product(range(-bound, bound + 1), repeat=P.k)
                           if any(p)]
            verdicts.update(tr.equivalent for tr in transcripts)
            hits = tuple(tr for tr in transcripts if tr.equivalent)
            sym = tail_symmetry_group(t, bound=bound, depth=depth)
            assert sym.generators == hits
            assert sym.basis == hermite_normal_form([tr.shift for tr in hits])
        if name != "flip":
            assert verdicts == {True, False}

    def test_one_sigma_grid_per_symmetry_search(self, monkeypatch):
        calls = []

        def counting(t, box):
            calls.append(box)
            return sigma_data(t, box)

        monkeypatch.setattr(tails, "sigma_data", counting)
        t = tail(FWD, ((2, 1),), ((1, 1), (1, 2), (2, 1)))
        tail_symmetry_group(t, bound=3, depth=2)
        # preperiod degree (0, 1), period degree (2, 1): preperiod + bound
        # + depth * period
        assert calls == [(0 + 3 + 2 * 2, 1 + 3 + 2 * 1)]

    def test_compare_count_is_frozen(self, monkeypatch):
        # this flip tail's window value is a function of the total degree
        # mod 4 (TestShiftEquivalence): of the 48 shifts at bound 3, the
        # closure compares 7, five rejections and the two hits (-1, 1) and
        # (-3, -1) that span the lattice, and accepts the other 10 hits
        calls = []
        monkeypatch.setattr(tails, "_compare",
                            lambda *args: calls.append(args[2]) or _compare(*args))
        t = tail(FLIP, (), ((1, 1), (1, 2), (2, 1), (2, 1)))
        sym = tail_symmetry_group(t, bound=3, depth=2)
        assert sym.basis == ((1, 3), (0, 4))
        assert len(sym.generators) == 12
        assert calls == [(-1, 0), (0, -1), (-2, 0), (-1, -1), (-1, 1), (-3, 0), (-3, -1)]
