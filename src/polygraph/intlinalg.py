"""Exact integer linear algebra for small lattices.

Row-style Hermite normal form (canonical bases for sublattices of Z^k),
one reduction walk modulo such a basis (canonical coset representatives,
membership, exact solving and the closure walk of every lattice search
all read it), Smith normal form with transform tracking (character
enumeration of finite quotients), and a Fourier-Motzkin check that a
sublattice meets the nonnegative orthant only in 0.  Everything is plain
int arithmetic on k x k matrices with k tiny.
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


def smith_normal_form(mat: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: returns (U, D, V), U*mat*V = D.

    U and V are unimodular; D is diagonal (rectangular allowed) with
    d_1 | d_2 | ... >= 0.  Standard elimination; fine for tiny matrices.
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
