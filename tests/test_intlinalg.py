"""Direct tests of the integer linear algebra layer.

The Hermite pass and the reduction walk are checked against the earlier
implementations, kept here as reference copies (a multi-pass Hermite form,
a membership walk and the group's full-rank reduction), and against sympy's
invariant factors, a test-only oracle.  Every case is seeded.
"""

import itertools
import random
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from polygraph.intlinalg import (
    hermite_normal_form,
    meets_positive_orthant,
    reduce_mod,
    solve_integer,
)


def _reference_hnf(rows):
    """Euclid on each column, a reduce-the-rest loop, then a post-pass that
    finds each pivot column again and reduces the rows above it."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis = []
    col = 0
    while col < ncols and work:
        live = [r for r in work if r[col] != 0]
        if not live:
            col += 1
            continue
        while True:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            if len(live) == 1:
                break
            for r in live[1:]:
                q = r[col] // pivot[col]
                for c in range(ncols):
                    r[c] -= q * pivot[c]
            live = [r for r in live if r[col] != 0]
            rest = [r for r in work if r[col] == 0 and any(r)]
            work = live + rest
            if len(live) <= 1:
                break
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = [r for r in work if r is not pivot and any(r)]
        for r in work:
            if r[col] != 0:
                q = r[col] // pivot[col]
                for c in range(ncols):
                    r[c] -= q * pivot[c]
        work = [r for r in work if any(r)]
        col += 1
    for i in range(len(basis)):
        pcol = next(c for c in range(ncols) if basis[i][c] != 0)
        p = basis[i][pcol]
        for j in range(i):
            q = basis[j][pcol] // p
            if q:
                for c in range(ncols):
                    basis[j][c] -= q * basis[i][c]
    return tuple(tuple(r) for r in basis)


def _reference_contains(hnf, v):
    """Membership by the forward pivot walk, stopping at a remainder."""
    if not hnf:
        return not any(v)
    r = list(v)
    pcol = 0
    for row in hnf:
        while row[pcol] == 0:
            pcol += 1
        q, rem = divmod(r[pcol], row[pcol])
        if rem:
            return False
        for c in range(pcol, len(row)):
            r[c] -= q * row[c]
    return not any(r)


def _reference_group_reduce(hnf, v):
    """Coset representative modulo a full-rank (square) HNF basis."""
    out = list(v)
    k = len(hnf)
    for i in range(k):
        q = out[i] // hnf[i][i]
        if q:
            for c in range(i, k):
                out[c] -= q * hnf[i][c]
    return tuple(out)


def _random_rows(rng, k, nrows, size):
    """Random rows, sometimes rank-deficient (a combination of the others)
    or zero."""
    rows = [tuple(rng.randint(-size, size) for _ in range(k)) for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.3:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = tuple(a * x + b * y for x, y in zip(rows[0], rows[1]))
    if nrows and rng.random() < 0.1:
        rows[rng.randrange(nrows)] = (0,) * k
    return rows


def _cases(seed, count, max_k=4, max_rows=5, size=20):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, max_k)
        yield k, _random_rows(rng, k, rng.randint(0, max_rows), size), rng


def _pivots(hnf):
    return [next(c for c, x in enumerate(row) if x) for row in hnf]


def _combine(x, rows, k):
    return tuple(sum(c * row[j] for c, row in zip(x, rows)) for j in range(k))


def _nonzero_invariant_factors(rows):
    if not rows:
        return []
    return [abs(d) for d in invariant_factors(Matrix(rows), domain=ZZ) if d]


class TestHermiteNormalForm:
    def test_equals_the_reference(self):
        for _, rows, _ in _cases(1501, 2000, max_k=5, max_rows=6, size=50):
            assert hermite_normal_form(rows) == _reference_hnf(rows), rows

    def test_echelon_shape_and_reduced_entries(self):
        for _, rows, _ in _cases(1502, 500):
            hnf = hermite_normal_form(rows)
            pivots = _pivots(hnf)
            assert pivots == sorted(set(pivots))  # strictly right-moving
            for i, (row, pcol) in enumerate(zip(hnf, pivots)):
                assert row[pcol] > 0 and not any(row[:pcol])
                assert all(0 <= hnf[j][pcol] < row[pcol] for j in range(i))
            assert hermite_normal_form(hnf) == hnf

    def test_invariant_factors_match_sympy(self):
        for _, rows, _ in _cases(1503, 150, max_k=3, max_rows=4, size=12):
            assert (_nonzero_invariant_factors(list(hermite_normal_form(rows)))
                    == _nonzero_invariant_factors(rows)), rows

    def test_zero_and_empty_inputs(self):
        assert hermite_normal_form([]) == ()
        assert hermite_normal_form([(0, 0, 0), (0, 0, 0)]) == ()
        assert hermite_normal_form([(0, -4, 6), (0, 2, -3)]) == ((0, 2, -3),)
        assert hermite_normal_form([(0, -4, 6), (0, 6, 1)]) == ((0, 2, 7), (0, 0, 20))


class TestReduceMod:
    def test_decomposition_is_reduced_and_decides_membership(self):
        for k, rows, rng in _cases(1504, 1500):
            hnf = hermite_normal_form(rows)
            for _ in range(4):
                if hnf and rng.random() < 0.3:  # a lattice vector
                    v = _combine([rng.randint(-5, 5) for _ in hnf], hnf, k)
                else:
                    v = tuple(rng.randint(-60, 60) for _ in range(k))
                x, r = reduce_mod(hnf, v)
                assert len(x) == len(hnf)
                assert v == tuple(a + b for a, b in zip(_combine(x, hnf, k), r))
                assert all(0 <= r[pcol] < row[pcol] for row, pcol in zip(hnf, _pivots(hnf)))
                member = _reference_contains(hnf, v)
                assert (not any(r)) == member
                assert solve_integer(hnf, v) == (x if member else None)

    def test_full_rank_representative_equals_the_group_reduction(self):
        for k, rows, rng in _cases(1505, 800, max_rows=6):
            hnf = hermite_normal_form(rows)
            if len(hnf) != k:
                continue
            for _ in range(4):
                v = tuple(rng.randint(-60, 60) for _ in range(k))
                assert reduce_mod(hnf, v)[1] == _reference_group_reduce(hnf, v)

    def test_zero_lattice(self):
        assert reduce_mod((), (3, -1)) == ((), (3, -1))
        assert solve_integer((), (0, 0)) == ()
        assert solve_integer((), (0, 1)) is None


class TestMeetsPositiveOrthant:
    @pytest.mark.parametrize("seed", range(1507, 1511))
    def test_brute_force_witness_implies_true(self, seed):
        rng = random.Random(seed)
        witnessed = 0
        for _ in range(150):
            k = rng.randint(2, 3)
            hnf = hermite_normal_form(_random_rows(rng, k, rng.randint(1, 3), 4))
            found = any(
                any(v) and min(v) >= 0
                for c in itertools.product(range(-3, 4), repeat=len(hnf))
                for v in [_combine(c, hnf, k)])
            if found:
                witnessed += 1
                assert meets_positive_orthant(hnf, k), hnf
        assert witnessed  # the search does find witnesses

    @pytest.mark.parametrize("seed", range(1511, 1514))
    def test_matches_the_substitution_reference(self, seed):
        rng = random.Random(seed)
        verdicts = []
        for _ in range(200):
            k = rng.randint(2, 4)
            hnf = hermite_normal_form(_random_rows(rng, k, rng.randint(0, k), 3))
            verdicts.append(meets_positive_orthant(hnf, k))
            assert verdicts[-1] == _reference_meets_positive_orthant(hnf, k), hnf
        assert set(verdicts) == {True, False}

    def test_known_lattices(self):
        assert not meets_positive_orthant((), 3)
        assert not meets_positive_orthant(((1, -1, 0), (0, 2, -2)), 3)
        assert meets_positive_orthant(((1, 0, -1), (0, 1, 0)), 3)


def _reference_meets_positive_orthant(hnf, dim):
    """Fourier-Motzkin on {x = c * B, x >= 0, sum x = 1} over Fractions,
    the equality eliminated first by substituting for one variable."""
    if not hnf:
        return False
    nb = len(hnf)
    ineqs = [[Fraction(0)] + [Fraction(hnf[j][i]) for j in range(nb)] for i in range(dim)]
    total = [Fraction(-1)] + [Fraction(sum(row)) for row in hnf]
    piv = next((t for t in range(1, nb + 1) if total[t] != 0), None)
    if piv is None:
        return False
    ineqs = [[r - row[piv] / total[piv] * e for r, e in zip(row, total)] for row in ineqs]
    for var in range(1, nb + 1):
        pos = [r for r in ineqs if r[var] > 0]
        neg = [r for r in ineqs if r[var] < 0]
        ineqs = [r for r in ineqs if r[var] == 0] + [
            [a * -rn[var] + b * rp[var] for a, b in zip(rp, rn)] for rp in pos for rn in neg]
    return all(r[0] >= 0 for r in ineqs)
