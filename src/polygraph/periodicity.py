"""Periodicity certificates, symmetry lattices, and central elements.

A mixed-sign vector pi splits into word sets E (all normal-form words of
degree pi_+) and F (degree pi_-).  The graph is pi-periodic iff there is
a bijection gamma: E -> F with

    (dagger)   e f = gamma(e) gamma^{-1}(f)   for all e in E, f in F,

together with e tau = gamma(e) tau for every infinite tail tau; the tail
condition holds automatically when pi has no zero entries, and otherwise
is decided by one pass over the transducer's start pairs (e, gamma(e)).

gamma, when it exists, is forced by a single probe: splitting e f_0 at
degree pi_- must give a suffix independent of e, and the prefix is
gamma(e); (dagger) is checked by two walks of one-letter moves with one
layer of at most |E| states per letter position, not pair by pair, and
the tail condition by one move per start pair and letter.
Each certified pi yields a central element W = sum gamma(e) e* in the
relation algebra; the certified pi's under a bound, searched on the lattice
where |E| = |F|, generate the symmetry lattice, reported in Hermite normal
form with the structural consequences (torus rank, tensor factorization,
simplicity verdict).  Periods form a group, so the search certifies one
candidate per coset of the hits so far (`lattice_closure`): a rejected pi
rules out its coset and that of -pi, exactly.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

from .budget import budget
from .errors import InvalidArgument
from .intlinalg import (LatticeInconsistency, hermite_normal_form, lattice_closure,
                        meets_positive_orthant, solve_integer)
from .kgraph import (
    Degree,
    Presentation,
    Word,
    deg_add,
    degree,
    extract_prefix,
    normal_form,
    words_of_degree,
)
from .staralg import StarSum, adjoint, identity_sum, monomial, multiply, star_equal


@dataclass(frozen=True)
class TailCheck:
    """Transcript of the tail-condition decision for a certificate."""

    mode: str  # "automatic" | "transducer"
    passed: bool
    states_visited: int = 0
    violation: tuple[Word, tuple[Word, Word]] | None = None
    # violation = ((g,), (e, gamma(e))): the generator whose move fails


@dataclass(frozen=True)
class PeriodicityCertificate:
    """A verified pi-periodicity witness.

    gamma maps each word of degree pi_+ to one of degree pi_-; (dagger)
    holds for every pair, gamma is bijective, and the tail condition
    passed (automatically for full-support pi, else by transducer).
    """

    pi: tuple[int, ...]
    E: tuple[Word, ...]
    F: tuple[Word, ...]
    gamma: tuple[tuple[Word, Word], ...]
    tail_check: TailCheck | None = None

    def gamma_map(self) -> dict[Word, Word]:
        return dict(self.gamma)


@functools.lru_cache(maxsize=1)
def _mover(P: Presentation):
    """move(u, v) = (v', u') with u v = v' u', deg v' = deg v: each letter of
    v passes left through u, one swap lookup per letter of u (extract_prefix
    if u has its color, in forced tail checks).  One memo per P, shared by
    find_gamma and check_tail_condition until _mover is called on another."""
    swap = P.swaps()

    @functools.lru_cache(maxsize=None)
    def move(u: Word, v: Word) -> tuple[Word, Word]:
        out, head = list(u), []
        try:
            for x in v:
                for q in range(len(out) - 1, -1, -1):
                    x, out[q] = swap[out[q], x]
                head.append(x)
        except KeyError:  # a same-color pair: no swap passes it
            return extract_prefix(P, u + v, degree(P, v))
        return tuple(head), tuple(out)
    return move


def find_gamma(P: Presentation, pi: Iterable[int]) -> PeriodicityCertificate | None:
    """The bijection certificate for pi, without the tail condition.

    pi must have at least one positive and one negative entry (a one-sided
    nonzero period would meet the nonnegative orthant, which is
    impossible); pi = 0 returns the trivial certificate.  Probe
    construction: split e f_0 at degree pi_-, f_0 the first word of degree
    pi_-, for the words e of degree pi_+ walked lazily; the suffix must be
    constant in e (the probe usually fails at the second e) and the prefix
    defines gamma(e), injective by cancellation.  With e f = y r (deg y =
    pi_-), (dagger) is (A) y = gamma(e) and (B) r = gamma^{-1}(f).  (A)
    moves f's letters left through e, each to emit the next letter of
    gamma(e) still owed; (B) moves e's, last first, right through f, each
    to leave the last of gamma^{-1}(f) still owed.  Each walks one layer per
    letter position, mapping each state to the output it still owes, so a
    state that several words reach is walked once.  Under (dagger) the state
    fixes that output: in (A), e p = (emitted) r gives r f' = (owed)
    gamma^{-1}(p f') for every f', so it is the prefix of r f'.  A state
    reached owing two outputs is thus a definitive None, a layer has at
    most |E| states, and each check makes at most |E| sum_c |pi_c| m_c
    moves.  None is definitive for this pi:
    (dagger) at f_0 forces the probe's gamma whenever one exists, and so
    is None when |E| != |F|, that is when pi is not in L_m.  An |E| past
    the "certificate words" budget (1M) raises before any word is built;
    |E| is charged to :func:`budget` as one factor m_i per letter of color i.
    """
    pi = tuple(pi)
    if len(pi) != P.k:
        raise InvalidArgument(f"pi {pi} has wrong length for k={P.k}")
    plus, minus = tuple(max(x, 0) for x in pi), tuple(max(-x, 0) for x in pi)
    if all(x == 0 for x in pi):
        return PeriodicityCertificate(pi=pi, E=((),), F=((),), gamma=(((), ()),),
                                      tail_check=TailCheck(mode="automatic", passed=True))
    if not any(x > 0 for x in pi) or not any(x < 0 for x in pi):
        raise InvalidArgument(f"pi {pi} must have entries of both signs (or be zero)")
    if any(sum(map(operator.mul, vp, pi)) for vp in _prime_exponents(P.m)):
        return None  # pi is not in L_m: |E| != |F|
    budget("certificate words", 1_000_000,
           (m for m, d in zip(P.m, plus) if m > 1 for _ in range(d)))
    f0, move = next(words_of_degree(P, minus)), _mover(P)
    suffix0 = move(next(words_of_degree(P, plus)), f0)[1]
    gamma: dict[Word, Word] = {}
    for e in words_of_degree(P, plus):
        head, tail = move(e, f0)
        if tail != suffix0:
            return None
        gamma[e] = head
    letters = [[((c, s),) for s in range(1, mc + 1)] for c, mc in enumerate(P.m, 1)]
    for left, layer, d in ((True, gamma, minus),
                           (False, {g: e[::-1] for e, g in gamma.items()}, plus)):
        for c in sorted((c for c, n in enumerate(d) for _ in range(n)), reverse=not left):
            step: dict[Word, Word] = {}
            for state, owed in layer.items():
                for x in letters[c]:
                    (y,), state2 = move(state, x) if left else move(x, state)[::-1]
                    if y != owed[0] or step.setdefault(state2, owed[1:]) != owed[1:]:
                        return None
            layer = step
    return PeriodicityCertificate(pi=pi, E=tuple(gamma), F=tuple(words_of_degree(P, minus)),
                                  gamma=tuple(gamma.items()))


def check_tail_condition(P: Presentation, cert: PeriodicityCertificate,
                         force_transducer: bool = False) -> TailCheck:
    """Decide e tau = gamma(e) tau for all infinite tails.

    When pi has full support the condition is automatic.  Otherwise the
    transducer on residual pairs (r, s) of degrees pi_+ and pi_- starts
    at the pairs (e, gamma(e)), and feeding a generator g of color c
    factors e g = g1 r' and gamma(e) g = g2 s' at degree e_c.  One pass
    over the start pairs decides it: the condition holds iff g1 = g2 and
    gamma(r') = s' for every e and g.  If the condition holds, cancelling
    g1 leaves r' tau = s' tau for every tau; r' is in E (every word of
    degree pi_+), so s' and gamma(r') are both the degree-pi_- prefix of
    r' tau.  Conversely, every move then agrees on its letter and lands
    on a start pair, so e tau and gamma(e) tau agree letter by letter.
    The transducer never leaves its start pairs: states_visited is |E|.

    Unless forced, only the letters of colors c with pi_c = 0 are fed:
    (dagger) settles the others, and full support is the case of none.
    Forced, every letter is fed, which decides the condition for any
    bijection gamma.  The proof: (dagger) gives its mirror f e2 =
    gamma^{-1}(f) gamma(e2), as f e2 = e f' (deg e = pi_+) = gamma(e)
    gamma^{-1}(f') and unique factorization gives gamma(e) = f and
    gamma^{-1}(f') = e2.  Let c be in supp(pi_+), e = a e' with a of
    color c, and k any word of degree pi_+ - e_c, so g k is in E.  Then
    e g = a (e' g): g1 = a and r' = e' g.  The mirror gives gamma(e) g k
    = e gamma(g k) = a e' gamma(g k), so g2 = a = g1 (the color-c
    prefixes) and, cancelling a, s' k = e' gamma(g k).  For f in F,
    (dagger) on g k makes r' k f = e' gamma(g k) gamma^{-1}(f) = s' k
    gamma^{-1}(f), whose degree-pi_- prefix s' is gamma(r') by (dagger)
    on r' and the degree-pi_- prefix of k f.  For c in supp(pi_-), apply
    this to (F, E, gamma^{-1}): its (dagger) is the mirror, and its move
    test is the same.  Unforced, the pass makes |E| sum_{pi_c = 0} m_c
    moves.

    Unforced, each move compares its letters only: under (dagger), g1 =
    g2 at every (e, g) gives gamma(r') = s'.  Let g have color c, pi_c =
    0, and for f in F write f g = g' f' and gamma^{-1}(f) g = g'' e''.
    (i) e f g = e g' f' = g1(e, g') gamma(r'(e, g')) gamma^{-1}(f'), by
    (dagger) on r' f', and e f g = gamma(e) gamma^{-1}(f) g = g2(e, g'')
    s'(e, g'') e''; unique factorization at degrees (e_c, pi_-, pi_+)
    gives g1(e, g') = g2(e, g'') and gamma(r'(e, g')) = s'(e, g'').
    (ii) With e0 = gamma^{-1}(f), g'' = g1(e0, g) and g' = g2(e0, g), so
    letter agreement at every (e0, g) is g' = g'' at every (f, g).
    (iii) Every letter h of color c is some g'(f, g): factor h f0 = f g
    for any f0 in F.  (iv) So letter agreement gives gamma(r'(e, h)) =
    s'(e, h) for every e and h, by (i) at that (f, g).  Forced, gamma is
    any bijection, so the gamma test stays.
    """
    pi = cert.pi
    if not force_transducer and all(x != 0 for x in pi):
        return TailCheck(mode="automatic", passed=True)
    gamma = cert.gamma_map() if force_transducer else None
    states = len(cert.E)
    move = _mover(P)
    fed = [g for g in P.letters() if force_transducer or not pi[g[0] - 1]]
    for e, ge in cert.gamma:
        for g in fed:
            (g1,), r = move(e, (g,))
            (g2,), s = move(ge, (g,))
            if g1 != g2 or force_transducer and gamma.get(r) != s:
                return TailCheck(mode="transducer", passed=False,
                                 states_visited=states, violation=((g,), (e, ge)))
    return TailCheck(mode="transducer", passed=True, states_visited=states)


def is_periodic(P: Presentation, pi: Iterable[int]) -> PeriodicityCertificate | None:
    """Full periodicity decision: gamma certificate plus tail condition."""
    cert = find_gamma(P, pi)
    if cert is None or cert.tail_check is not None:
        return cert
    check = check_tail_condition(P, cert)
    if not check.passed:
        return None
    return PeriodicityCertificate(pi=cert.pi, E=cert.E, F=cert.F,
                                  gamma=cert.gamma, tail_check=check)


@dataclass(frozen=True)
class SymmetryLattice:
    """The lattice of certified periods found under a bound, in HNF."""

    bound: int
    basis: tuple[tuple[int, ...], ...]
    certificates: tuple[PeriodicityCertificate, ...]  # one per basis vector
    hits: tuple[tuple[int, ...], ...]  # all certified pi's in the search box

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, pi: Degree) -> bool:
        return solve_integer(self.basis, pi) is not None


def _prime_valuations(n: int) -> dict[int, int]:
    """{p: v_p(n)} by trial division."""
    out: dict[int, int] = {}
    p = 2
    while n > 1:
        p = p if p * p <= n else n  # no factor up to sqrt(n): n is prime
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


@functools.lru_cache(maxsize=None)
def _prime_exponents(m: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(v_p(m_1), ..., v_p(m_k)) for each prime p dividing some m_i, in
    increasing order of p: pi is in L_m = {pi : prod m_i^pi_i = 1}, that
    is |E| = |F|, iff each of these is orthogonal to pi."""
    vals = [_prime_valuations(mi) for mi in m]
    return tuple(tuple(v.get(p, 0) for v in vals) for p in sorted(set().union(*vals)))


def _period_candidates(m: tuple[int, ...], bound: int) -> tuple[tuple[int, ...], ...]:
    """The mixed-sign points of L_m = {pi : prod m_i^pi_i = 1} with
    |pi_i| <= bound, by increasing L1 norm (ties lexicographic).  The HNF
    rows (0 | b) of the rows (v(m_i) | e_i), v the prime valuations, are
    an echelon basis of L_m; each b fixes the coordinate at its pivot, so
    the walk keeps the coefficients that hold it within the bound.  At
    most 2 bound // b_pivot + 1 of them per point, so the product of these
    over the rows bounds the point count; past the "period candidates"
    budget (100,000) it raises before any point is built, on every call,
    though _candidate_plan keeps 16 (m, bound) bases and point tuples.
    """
    factors, points = _candidate_plan(m, bound)
    budget("period candidates", 100_000, factors)
    return points


@functools.lru_cache(maxsize=16)
def _candidate_plan(m: tuple[int, ...], bound: int):
    k, exps = len(m), _prime_exponents(m)
    rows = [tuple(vp[i] for vp in exps) + tuple(int(i == j) for j in range(k)) for i in range(k)]
    basis = [(row[len(exps):], next(c for c in range(k) if row[len(exps) + c]))
             for row in hermite_normal_form(rows) if not any(row[:len(exps)])]
    factors = tuple(2 * bound // b[col] + 1 for b, col in basis)
    budget("period candidates", 100_000, factors)
    points = [(0,) * k]
    for b, col in basis:
        points = [tuple(x + c * y for x, y in zip(pt, b)) for pt in points
                  for c in range(-((bound + pt[col]) // b[col]), (bound - pt[col]) // b[col] + 1)]
    inside = [pi for pi in points if min(pi) < 0 < max(pi) and max(map(abs, pi)) <= bound]
    return factors, tuple(sorted(inside, key=lambda pi: (sum(map(abs, pi)), pi)))


def symmetry_lattice(P: Presentation, bound: int) -> SymmetryLattice:
    """Find every mixed-sign period pi with |pi_i| <= bound, close the
    hits into a lattice (HNF), and re-verify each basis vector.

    A period has |E| = |F|, so the candidates are the points of L_m in
    the box (none for m = (2, 3)), visited by increasing L1 norm (ties
    lexicographic).  Periods form a subgroup of Z^k, so `lattice_closure`
    sends one candidate per open coset to `is_periodic`; `hits` holds
    every mixed-sign lattice point of the box.

    Raises LatticeInconsistency if a rejected vector falls in the lattice
    (the verdicts broke the group law), a basis vector fails re-verification
    (the bound clipped a generator), or the lattice meets the nonnegative
    orthant (impossible for true symmetry lattices; indicates bad data).
    """
    if bound < 1:
        raise InvalidArgument(f"bound must be >= 1, got {bound}")
    basis, hits = lattice_closure(_period_candidates(P.m, bound),
                                  lambda pi: is_periodic(P, pi) is not None)
    certs = []
    for v in basis:
        cert = is_periodic(P, v)
        if cert is None:
            raise LatticeInconsistency(
                f"HNF basis vector {v} of {basis} failed re-verification "
                f"(search bound {bound} likely clipped a generator)")
        certs.append(cert)
    if meets_positive_orthant(basis, P.k):
        raise LatticeInconsistency(
            f"lattice {basis} meets the nonnegative orthant")
    return SymmetryLattice(bound=bound, basis=basis,
                           certificates=tuple(certs), hits=tuple(sorted(hits)))


def central_element(cert: PeriodicityCertificate) -> StarSum:
    """W = sum over e in E of gamma(e) e*; every monomial has grading -pi.
    The pairs (gamma(e), e) are the keys as they stand: normal forms, as
    find_gamma builds them."""
    return StarSum.of({(ge, e): 1 for e, ge in cert.gamma})


def verify_central(P: Presentation, cert: PeriodicityCertificate) -> bool:
    """W commutes with every generator and W W* = W* W = identity."""
    W = central_element(cert)
    W_star = adjoint(W)
    ident = identity_sum()
    if not star_equal(P, multiply(P, W, W_star), ident):
        return False
    if not star_equal(P, multiply(P, W_star, W), ident):
        return False
    for g in P.letters():
        mg = monomial(P, (g,), ())
        if not star_equal(P, multiply(P, W, mg), multiply(P, mg, W)):
            return False
    return True


def verify_homomorphism(P: Presentation,
                        cert1: PeriodicityCertificate,
                        cert2: PeriodicityCertificate,
                        cert_sum: PeriodicityCertificate) -> bool:
    """W_{h1} W_{h2} = W_{h1+h2} at the relation level."""
    if deg_add(cert1.pi, cert2.pi) != cert_sum.pi:
        raise InvalidArgument("certificates are not for h1, h2, h1+h2")
    w1 = central_element(cert1)
    w2 = central_element(cert2)
    w12 = central_element(cert_sum)
    return star_equal(P, multiply(P, w1, w2), w12)


ASSUMED_NOT_COMPUTED = (
    "faithfulness of the inductive-limit representation for every tail",
    "identification of the enveloping C*-algebra of the nonself-adjoint operator algebra",
    "simplicity of the complementary tensor factor A",
    "approximate innerness of the symmetry-averaging expectation",
)


def structure_report(P: Presentation, lattice: SymmetryLattice) -> dict:
    """Structural consequences of the symmetry lattice, as a JSON-ready dict.

    Reports the torus rank s, the tensor factorization C(T^s) (x) A with A
    simple, the UHF core, and the simplicity verdict.  The footer lists
    the analytic facts this tool assumes and does not compute.
    """
    s = lattice.rank
    supernatural = " * ".join(f"{mi}^inf" for mi in P.m)
    return {
        "multiplicities": list(P.m),
        "torus_rank": s,
        "symmetry_basis": [list(v) for v in lattice.basis],
        "search_bound": lattice.bound,
        "aperiodic": s == 0,
        "graph_cstar_algebra": "simple" if s == 0
            else f"C(T^{s}) (x) A for a simple C*-algebra A",
        "gauge_invariant_core": f"UHF algebra of the supernatural number {supernatural}",
        "center": f"C(T^{s}) generated by the central unitaries of the basis periods",
        "assumed_not_computed": list(ASSUMED_NOT_COMPUTED),
        "note": "the basis is a lower bound: generators outside the search "
                "bound are reported via LatticeInconsistency only when the "
                "Hermite closure exposes them",
    }


def product_relation_tables(P: Presentation, cert: PeriodicityCertificate) -> tuple[dict, dict]:
    """For a 3-graph with an (a, b, -c) certificate, the structural maps
    gamma, delta: indices^a x indices^b -> color-3 words with
    delta = gamma o (two-color commutation)^{-1}; returns (gamma, delta)
    keyed by (color-1 word, color-2 word) pairs."""
    if P.k != 3:
        raise InvalidArgument("only defined for 3-graphs")
    gamma_struct = {}
    for e, g in cert.gamma:
        u, v = extract_prefix(P, e, (degree(P, e)[0], 0, 0))
        gamma_struct[(u, v)] = g
    delta = {}
    for (u, v) in gamma_struct:
        # delta(u, v) = gamma applied to the pair (u0, v0) with
        # e_{u0} f_{v0} = f_v e_u (the inverse two-color commutation)
        w = normal_form(P, v + u)
        u0, v0 = extract_prefix(P, w, (degree(P, u)[0], 0, 0))
        delta[(u, v)] = gamma_struct[(u0, v0)]
    return gamma_struct, delta
