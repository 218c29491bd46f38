"""Exact integer linear algebra for small lattices.

Row-style Hermite normal form (canonical bases for sublattices of Z^k),
one reduction walk modulo such a basis (canonical coset representatives,
membership and exact solving all read it), Smith normal form with
transform tracking (character enumeration of finite quotients), and a
Fourier-Motzkin check that a sublattice meets the nonnegative orthant
only in 0.  Everything is plain int/Fraction arithmetic on k x k
matrices with k tiny.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


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
    rational span does, so this is the LP feasibility of
    {x = c * B, x >= 0, sum x = 1}, decided exactly by Fourier-Motzkin.
    """
    if not hnf:
        return False
    nb = len(hnf)
    # variables c_1..c_nb; constraints: sum_j c_j B[j][i] >= 0 for each i,
    # and sum_i sum_j c_j B[j][i] = 1.
    ineqs: list[list[Fraction]] = []  # a_0 + a_1 c_1 + ... >= 0
    for i in range(dim):
        ineqs.append([Fraction(0)] + [Fraction(hnf[j][i]) for j in range(nb)])
    total = [Fraction(-1)] + [Fraction(sum(hnf[j])) for j in range(nb)]
    # equality total == 0: substitute using a variable with nonzero coef
    piv = next((t for t in range(1, nb + 1) if total[t] != 0), None)
    if piv is None:
        return False  # sum of coords identically 0 on the lattice; x >= 0 & sum=1 infeasible
    ineqs = [_substitute(row, total, piv) for row in ineqs]
    nvars = nb  # variable `piv` eliminated (coefficient slots kept, just zeroed)
    return _fm_feasible(ineqs, nvars)


def _substitute(row: list[Fraction], eq: list[Fraction], piv: int) -> list[Fraction]:
    # eliminate variable piv using the equality eq (== 0)
    out = list(row)
    if row[piv] != 0:
        factor = row[piv] / eq[piv]
        out = [r - factor * e for r, e in zip(row, eq)]
    return out


def _fm_feasible(ineqs: list[list[Fraction]], nvars: int) -> bool:
    """Feasibility of {a_0 + sum a_i x_i >= 0} by Fourier-Motzkin."""
    rows = [list(r) for r in ineqs]
    for var in range(1, nvars + 1):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        zero = [r for r in rows if r[var] == 0]
        new = list(zero)
        for rp in pos:
            for rn in neg:
                combo = [rp[i] * (-rn[var]) + rn[i] * rp[var] for i in range(len(rp))]
                combo[var] = Fraction(0)
                new.append(combo)
        rows = new
    return all(r[0] >= 0 for r in rows)
