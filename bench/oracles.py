"""Independent reference computations for the benchmark's checks.

Every check of a timed op compares the library's answer with either a
frozen constant or one of these functions.  They use only the public
data of a value (``Presentation.table``, ``FiniteAbelianGroup.kernel``
and ``.elements``, ``GroupConstruction.t`` and ``.alpha``) and share no
code with the library: words are sorted by bubble sort rather than by
insertion, a prefix is split off by ranking letter occurrences rather
than by pulling letters forward, and lattices are reduced by hand.  They
are slow and run outside the timed region.
"""

from __future__ import annotations

import itertools
import math


class Swaps:
    """Adjacent-swap tables of a presentation, rebuilt from P.table."""

    def __init__(self, P):
        self.k, self.m = P.k, P.m
        self.rule = {}
        for i, j in itertools.combinations(range(1, P.k + 1), 2):
            for (s, t), (s2, t2) in P.table(i, j).items():
                self.rule[((i, s), (j, t))] = ((j, t2), (i, s2))
                self.rule[((j, t2), (i, s2))] = ((i, s), (j, t))

    def sort(self, w, rank):
        """Bubble-sort the letters of w by rank(color, occurrence), swapping
        adjacent letters of different colors through the tables."""
        seen = {}
        keyed = []
        for c, s in w:
            n = seen.get(c, 0)
            seen[c] = n + 1
            keyed.append([rank(c, n), (c, s)])
        for end in range(len(keyed) - 1, 0, -1):
            for q in range(end):
                if keyed[q][0] > keyed[q + 1][0]:
                    a, b = self.rule[(keyed[q][1], keyed[q + 1][1])]
                    keyed[q], keyed[q + 1] = [keyed[q + 1][0], a], [keyed[q][0], b]
        return tuple(letter for _, letter in keyed)

    def normal_form(self, w):
        return self.sort(w, lambda c, n: (c, n))

    def split(self, w, d):
        """(u, v) with w = u v and degree(u) = d, both color-sorted."""
        out = self.sort(w, lambda c, n: (0 if n < d[c - 1] else 1, c, n))
        cut = sum(d)
        return out[:cut], out[cut:]

    def words(self, d):
        """All color-sorted words of degree d."""
        slots = [[(c, s) for s in range(1, self.m[c - 1] + 1)]
                 for c in range(1, self.k + 1) for _ in range(d[c - 1])]
        return [tuple(p) for p in itertools.product(*slots)]


def degree(k, w):
    out = [0] * k
    for c, _ in w:
        out[c - 1] += 1
    return tuple(out)


def commute(sw, words):
    return all(sw.normal_form(a + b) == sw.normal_form(b + a)
               for a, b in itertools.combinations(words, 2))


def relabel_tables(P, color_perm, index_maps):
    """The commutation tables of P carried through a relabeling, keyed by
    the image color pair, as {(i, j): {(s, t): (s2, t2)}}."""
    out = {}
    for i, j in itertools.combinations(range(1, P.k + 1), 2):
        ii, jj = color_perm[i - 1], color_perm[j - 1]
        ri, rj = index_maps[i - 1], index_maps[j - 1]
        for (s, t), (s2, t2) in P.table(i, j).items():
            if ii < jj:
                out.setdefault((ii, jj), {})[(ri[s - 1], rj[t - 1])] = (ri[s2 - 1], rj[t2 - 1])
            else:
                out.setdefault((jj, ii), {})[(rj[t2 - 1], ri[s2 - 1])] = (rj[t - 1], ri[s - 1])
    return out


def tables(P):
    return {(i, j): P.table(i, j) for i, j in itertools.combinations(range(1, P.k + 1), 2)}


def in_lattice(basis, v):
    """v in the span of an echelon integer basis (pivots strictly right)."""
    v = list(v)
    for row in basis:
        p = next(q for q, x in enumerate(row) if x)
        if v[p] % row[p]:
            return False
        f = v[p] // row[p]
        v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def reduce_mod(kernel, v):
    """Canonical representative of v in Z^k / kernel (row HNF, full rank)."""
    v = list(v)
    for i, row in enumerate(kernel):
        q = v[i] // row[i]
        v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def translation_symmetry_order(gc):
    """Number of h in G leaving every t^i and alpha^i invariant."""
    G = gc.group
    where = {g: n for n, g in enumerate(G.elements)}
    rows = gc.t + gc.alpha

    def invariant(h):
        for n, g in enumerate(G.elements):
            s = where[reduce_mod(G.kernel, tuple(a + b for a, b in zip(g, h)))]
            if any(row[s] != row[n] for row in rows):
                return False
        return True

    return sum(1 for h in G.elements if invariant(h))


def certificate_problem(sw, cert, rng, pairs=12):
    """None if cert is a genuine gamma certificate on sampled pairs, else
    what is wrong: E and F must be all words of degree pi_+ / pi_-, gamma a
    bijection, and e f = gamma(e) gamma^-1(f) on the sampled pairs."""
    plus = tuple(max(x, 0) for x in cert.pi)
    minus = tuple(max(-x, 0) for x in cert.pi)
    if sorted(cert.E) != sw.words(plus) or sorted(cert.F) != sw.words(minus):
        return "E or F is not the full word set"
    gamma = dict(cert.gamma)
    if sorted(gamma) != sorted(cert.E) or sorted(gamma.values()) != sorted(cert.F):
        return "gamma is not a bijection E -> F"
    inverse = {f: e for e, f in gamma.items()}
    for _ in range(pairs):
        e, f = rng.choice(cert.E), rng.choice(cert.F)
        if sw.normal_form(e + f) != sw.normal_form(gamma[e] + inverse[f]):
            return f"(dagger) fails at e={e}, f={f}"
    return None


def sigma(sw, word, n):
    """Window value at n <= 0 of a tail whose unrolled prefix is word."""
    minus_n = tuple(-x for x in n)
    out = []
    for i in range(1, sw.k + 1):
        target = tuple(x + (1 if c == i - 1 else 0) for c, x in enumerate(minus_n))
        prefix, _ = sw.split(word, target)
        _, last = sw.split(prefix, minus_n)
        out.append(last[0][1])
    return tuple(out)


def unroll(tl, depth):
    """preperiod + period^r, long enough for every box point >= -depth."""
    per = degree(len(depth), tl.period)
    pre = degree(len(depth), tl.preperiod)
    reps = max(math.ceil(max(0, d + 1 - a) / b) for d, a, b in zip(depth, pre, per))
    return tl.preperiod + tl.period * reps
