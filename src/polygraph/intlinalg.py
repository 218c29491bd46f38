"""Exact integer linear algebra for small lattices.

Row-style Hermite normal form, the one lattice normal form of the
package: canonical bases for sublattices of Z^k, whose echelon rows also
give the characters of finite quotients by back-substitution.  One
reduction walk modulo such a basis (canonical coset representatives,
membership, exact solving and the closure walk of every lattice search
all read it), and a Fourier-Motzkin check that a sublattice meets the
nonnegative orthant only in 0.  Everything is plain int arithmetic on
k x k matrices with k tiny.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import Exhausted

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class LatticeInconsistency(Exhausted, RuntimeError):
    """A rejected candidate fell in the collected lattice, an HNF basis
    vector of it failed re-verification, or it met the nonnegative orthant:
    the bounded search clipped a generator or produced inconsistent verdicts."""


def hermite_normal_form(rows: list[Vec] | Mat) -> Mat:
    """Canonical row-style HNF basis of the lattice spanned by `rows`.

    Returns a tuple of linearly independent rows in echelon form: pivots
    positive, strictly right-moving, entries above each pivot reduced into
    [0, pivot).  The empty tuple is the zero lattice.

    One pass over the columns keeps this invariant: after column c, the
    placed rows and the rows still to be placed span the input lattice,
    the rows to be placed are zero in columns <= c, and the placed rows
    are in Hermite form up to column c.  Euclid's algorithm on the rows
    nonzero in the next column leaves one pivot row; reducing the placed
    rows by it touches that column and those to its right only, so their
    own pivots stay put.
    """
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    for c in range(col, ncols):
                        r[c] -= q * pivot[c]
            live = [r for r in live if r[col]]
        if not live:
            continue
        pivot = live[0]
        if pivot[col] < 0:
            pivot[col:] = [-x for x in pivot[col:]]
        for r in basis:
            q = r[col] // pivot[col]
            for c in range(col, ncols):
                r[c] -= q * pivot[c]
        basis.append(pivot)
        work = [r for r in work if r is not pivot]
    return tuple(map(tuple, basis))


def reduce_mod(hnf: Mat, v: Vec) -> tuple[Vec, Vec]:
    """(x, r) with v = x * hnf + r and r reduced into [0, pivot) at every
    pivot column of the (row) HNF basis `hnf`.

    One forward walk: the pivots move strictly right, and subtracting a
    row touches only its pivot column and those to the right of it.  r is
    the canonical representative of v modulo the lattice, zero exactly
    when v lies in it, and then x is the unique solution of x * hnf = v.
    """
    r = list(v)
    x = []
    pcol = 0
    for row in hnf:
        while not row[pcol]:
            pcol += 1
        q = r[pcol] // row[pcol]
        x.append(q)
        if q:
            for c in range(pcol, len(r)):
                r[c] -= q * row[c]
    return tuple(x), tuple(r)


def lattice_closure(candidates: Iterable[Vec], test: Callable[[Vec], bool]
                    ) -> tuple[Mat, list[Vec]]:
    """(HNF basis, hits in candidate order) of the candidates in the
    subgroup of Z^k that `test` decides.  With M the lattice of the hits
    so far, one `reduce_mod` remainder per candidate decides by closure:
    zero is a hit; the class of a rejected r (kept with -r, reclassed as
    M grows) is skipped, since r + x in the group with x in M would put r
    there.  Only the rest are tested, one per open coset.  Raises
    LatticeInconsistency if a rejected vector falls in M."""
    hits: list[Vec] = []
    basis: Mat = ()
    refuted: dict[Vec, Vec] = {}  # class mod basis -> a rejected vector
    for v in candidates:
        r = reduce_mod(basis, v)[1]
        if r in refuted:
            continue
        if any(r):
            if not test(v):
                refuted.update((reduce_mod(basis, u)[1], u) for u in (v, tuple(-x for x in v)))
                continue
            basis = hermite_normal_form(basis + (v,))
            refuted = {reduce_mod(basis, u)[1]: u for u in refuted.values()}
            if (zero := (0,) * len(v)) in refuted:
                raise LatticeInconsistency(f"rejected candidate {refuted[zero]} lies in the "
                                           f"lattice {basis} of the accepted ones")
        hits.append(v)
    return basis, hits


def solve_integer(hnfA: Mat, b: Vec) -> Vec | None:
    """The integer solution x of x * A = b for A a (row) HNF basis, or None."""
    x, r = reduce_mod(hnfA, b)
    return None if any(r) else x


def meets_positive_orthant(hnf: Mat, dim: int) -> bool:
    """Whether the lattice contains a nonzero vector with all coords >= 0.

    A rational lattice meets the closed orthant nontrivially iff its
    rational span does, that is iff some x = c * B has x >= 0 and
    sum x >= 1 (scale any nonzero x >= 0): an LP feasibility in c,
    decided exactly by Fourier-Motzkin.
    """
    # rows (a_0, a_1, ...) read a_0 + a_1 c_1 + ... >= 0: x_i >= 0, sum x >= 1
    ineqs = [[0] + [row[i] for row in hnf] for i in range(dim)]
    ineqs.append([-1] + [sum(row) for row in hnf])
    return _fm_feasible(ineqs, len(hnf))


def _fm_feasible(rows: list[list[int]], nvars: int) -> bool:
    """Feasibility of {a_0 + sum a_i x_i >= 0} by Fourier-Motzkin; each
    step adds positive integer multiples of two rows, so ints stay exact."""
    for var in range(1, nvars + 1):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        rows = [r for r in rows if r[var] == 0] + [
            [p * -rn[var] + n * rp[var] for p, n in zip(rp, rn)] for rp in pos for rn in neg]
    return all(r[0] >= 0 for r in rows)
