"""Eventually periodic infinite tails and their window data.

An infinite tail is an infinite word using every color infinitely often;
here tails are the eventually periodic ones, stored as a finite preperiod
word plus a repeating block whose degree is strictly positive in every
coordinate.  The inductive-limit basis window attaches to each lattice
point n <= 0 the k-tuple of incoming letter indices sigma(n): coordinate
i is the last color-i letter of the unique prefix of degree -n + e_i.

Shift-tail equivalence (window data of one tail matching a translate of
the other's, below some threshold) is decided on a finite box sized from
the periods, the preperiods and the shift; the depth parameter scales the
box, and the "tail box" budget bounds its points.  The self-shifts of a
tail form a subgroup of Z^k, decided exactly, so the symmetry search
finds every small one by `lattice_closure`, testing one per open coset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm

from .budget import budget, steps
from .errors import Rejected
from .intlinalg import lattice_closure
from .kgraph import (
    Degree,
    Presentation,
    Word,
    check_word,
    deg_add,
    deg_join,
    degree,
    edge_grid,
    extract_prefix,
    normal_form,
    words_of_degree,
)


class InvalidTail(Rejected, ValueError):
    """Rejected tail data (empty period or missing colors)."""


@dataclass(frozen=True)
class Tail:
    """preperiod . period . period . period ...  (words in normal form)."""

    presentation: Presentation
    preperiod: Word
    period: Word

    def __post_init__(self):
        P = self.presentation
        check_word(P, self.preperiod)
        check_word(P, self.period)
        dp = degree(P, self.period)
        if any(x < 1 for x in dp):
            raise InvalidTail(
                f"period degree {dp} must be >= 1 in every coordinate "
                "(every color must recur)")
        object.__setattr__(self, "preperiod", normal_form(P, self.preperiod))
        object.__setattr__(self, "period", normal_form(P, self.period))

    @property
    def preperiod_degree(self) -> Degree:
        return degree(self.presentation, self.preperiod)

    @property
    def period_degree(self) -> Degree:
        return degree(self.presentation, self.period)

    def unroll(self, target: Degree) -> Word:
        """A finite prefix word of degree >= target (componentwise)."""
        P = self.presentation
        pre, per = self.preperiod_degree, self.period_degree
        reps = 0
        for i in range(P.k):
            short = target[i] - pre[i]
            if short > 0:
                reps = max(reps, -(-short // per[i]))
        return normal_form(P, self.preperiod + self.period * reps)


def tail(P: Presentation, preperiod: Word, period: Word) -> Tail:
    return Tail(P, tuple(preperiod), tuple(period))


@dataclass(frozen=True)
class SigmaData:
    """Window data on the box -box <= n <= 0: values[n] = (t_1,...,t_k)."""

    box: Degree
    values: tuple[tuple[Degree, tuple[int, ...]], ...]
    # Lookup table built from values (derived, not compared or hashed).
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.values))

    def __getitem__(self, n: Degree) -> tuple[int, ...]:
        return self._lookup[n]

    def as_dict(self) -> dict[Degree, tuple[int, ...]]:
        return dict(self.values)


def sigma_data(t: Tail, box: Degree) -> SigmaData:
    """Window data of the tail on the box of lattice points -box <= n <= 0.

    For each n in the box and each color i, the value is the index of the
    last color-i letter of the degree (-n + e_i) prefix of the unrolled
    tail, that is, of the color-i edge leaving the point -n in the grid
    filled by the prefix of degree box + (1,...,1); unique factorization
    makes this well defined and independent of how far the tail is
    unrolled.  Past the "tail box" budget (1M points) it raises before
    the tail is unrolled.
    """
    P = t.presentation
    box = tuple(box)
    if len(box) != P.k or any(b < 0 for b in box):
        raise ValueError(f"box {box} must have {P.k} nonnegative entries")
    _charge_box(box)
    top = deg_add(box, (1,) * P.k)
    prefix, _ = extract_prefix(P, t.unroll(top), top)
    edges, strides = edge_grid(P, prefix, top)
    values = []
    for n in itertools.product(*[range(-b, 1) for b in box]):
        p = -sum(x * s for x, s in zip(n, strides))
        values.append((n, tuple(e[p] for e in edges)))
    return SigmaData(box=box, values=tuple(values))


def _charge_box(box: Degree) -> None:
    """Charge the prod(box_c + 1) points of sigma_data on box to "tail box"."""
    budget("tail box", 1_000_000, (b + 1 for b in box))


@dataclass(frozen=True)
class EquivalenceTranscript:
    """Outcome of a finite-box shift-tail equivalence check."""

    shift: Degree
    equivalent: bool
    threshold: Degree
    bottom: Degree
    counterexample: Degree | None = None


def shift_tail_equivalent(t1: Tail, t2: Tail, p: Degree, depth: int = 2
                          ) -> EquivalenceTranscript:
    """Whether the window data satisfy sigma_1(n) = sigma_2(n + p) for all
    n <= threshold, tested down to a finite bottom.

    The threshold clears both preperiods and keeps n + p nonpositive; the
    tested region reaches depth * lcm(period degrees) below it.  Below the
    preperiods each data function repeats with its own period degree, so
    when the two tails share a period vector (in particular whenever
    t1 is t2) agreement on one full period slab propagates downward and
    the verdict is exact; for incommensurable periods it is a finite-box
    decision, refined by raising depth.  Equal tails read both sides off
    one grid, on the join of the two boxes.
    """
    P = t1.presentation
    if t2.presentation != P:
        raise ValueError("tails over different presentations")
    if len(p) != P.k:
        raise ValueError(f"shift {tuple(p)} must have {P.k} entries")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    threshold, bottom = _window(t1, t2, p, depth)
    box1 = tuple(-b for b in bottom)
    box2 = tuple(-(b + q) for b, q in zip(bottom, p))
    if t1 == t2:
        s1 = s2 = sigma_data(t1, deg_join(box1, box2))
    else:
        s1, s2 = sigma_data(t1, box1), sigma_data(t2, box2)
    return _compare(s1, s2, p, threshold, bottom)


def _window(t1: Tail, t2: Tail, p: Degree, depth: int) -> tuple[Degree, Degree]:
    """The threshold and bottom of the region a shift-p check tests."""
    pre1, pre2 = t1.preperiod_degree, t2.preperiod_degree
    per1, per2 = t1.period_degree, t2.period_degree
    threshold = tuple(-(max(a, b) + max(0, q)) for a, b, q in zip(pre1, pre2, p))
    bottom = tuple(t - depth * lcm(a, b) for t, a, b in zip(threshold, per1, per2))
    return threshold, bottom


def _compare(s1: SigmaData, s2: SigmaData, p: Degree, threshold: Degree, bottom: Degree
             ) -> EquivalenceTranscript:
    for n in itertools.product(*[range(b, t + 1) for b, t in zip(bottom, threshold)]):
        if s2[deg_add(n, p)] != s1[n]:
            return EquivalenceTranscript(p, False, threshold, bottom, counterexample=n)
    return EquivalenceTranscript(p, True, threshold, bottom)


def _self_test(t: Tail, bound: int, depth: int):
    """p -> shift_tail_equivalent(t, t, p, depth).equivalent for |p_i| <= bound,
    read off one SigmaData whose box covers the region of every such p: the
    region of p reaches -(preperiod + max(p, 0) + depth * period) and its
    translate by p reaches -(preperiod + max(-p, 0) + depth * period)."""
    data = sigma_data(t, tuple(a + bound + depth * b
                               for a, b in zip(t.preperiod_degree, t.period_degree)))
    return lambda p: _compare(data, data, p, *_window(t, t, p, depth)).equivalent


@dataclass(frozen=True)
class TailSymmetry:
    """Lower-bound symmetry lattice of a tail from a bounded shift search."""

    basis: tuple[tuple[int, ...], ...]
    bound: int
    depth: int
    generators: tuple[EquivalenceTranscript, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def tail_symmetry_group(t: Tail, bound: int, depth: int = 2) -> TailSymmetry:
    """Every shift p with |p_i| <= bound under which t is self-equivalent,
    in lexicographic order, and the lattice they span (Hermite basis).
    Self-shifts form a group and their verdicts are exact (see
    shift_tail_equivalent), so `lattice_closure`, walking the shifts by L1
    norm, finds them all testing one per open coset.  A lower bound for the
    full symmetry group: generators outside the search box are not found."""
    if bound < 1 or depth < 1:
        raise ValueError("bound and depth must be >= 1")
    # each box coordinate is at least bound + 1: the box's budget, charged
    # first, also bounds the (2 bound + 1)^k shifts
    test = _self_test(t, bound, depth)
    shifts = sorted((p for p in itertools.product(range(-bound, bound + 1), repeat=t.presentation.k)
                     if any(p)), key=lambda p: (sum(map(abs, p)), p))
    basis, hits = lattice_closure(shifts, test)
    generators = tuple(EquivalenceTranscript(p, True, *_window(t, t, p, depth))
                       for p in sorted(hits))
    return TailSymmetry(basis=basis, bound=bound, depth=depth, generators=generators)


def splice_separating_tail(P: Presentation, bound: int, depth: int = 2,
                           max_block_degree: int = 3) -> Tail:
    """A tail built to defeat every candidate shift |p_i| <= bound.

    Starting from a full-support pad block, repeatedly append the first
    word (by degree, then lexicographically) whose inclusion breaks
    p-shift self-equivalence for each surviving candidate p, re-verifying
    all candidates after each extension.  Mirrors the separating-word
    construction: a tail containing each separating block infinitely often
    cannot be eventually p-periodic.  The period is finally padded so its
    degree exceeds the bound (the period degree itself is always a
    symmetry of an eventually periodic tail, and must leave the box).
    Raises ValueError unless bound and depth are at least 1, and
    BudgetExceeded before a symmetry search past the "splice rounds"
    limit (one round per search, 4 (2 bound + 1)^k by default) or when
    the first round's box passes "tail box", both checked before any
    word is built.
    """
    if bound < 1 or depth < 1:
        raise ValueError("bound and depth must be >= 1")
    rounds = steps("splice rounds", 4 * (2 * bound + 1) ** P.k)
    next(rounds)
    _charge_box((bound + depth * (bound + 1),) * P.k)
    pad = tuple((i, 1) for i in range(1, P.k + 1))
    # start above the search box: the period degree of an eventually
    # periodic tail is always one of its symmetries, so keep it outside
    period = normal_form(P, pad * (bound + 1))

    while alive := tail_symmetry_group(Tail(P, (), period), bound, depth).generators:
        p = alive[0].shift
        for block in _blocks_by_degree(P, max_block_degree):
            candidate = normal_form(P, period + block)
            if not _self_test(Tail(P, (), candidate), bound, depth)(p):
                period = candidate
                next(rounds)
                break
        else:
            break  # no splice block of this size defeats p; give up on it
    return Tail(P, (), period)


def _blocks_by_degree(P: Presentation, max_total: int):
    for total in range(1, max_total + 1):
        for degs in itertools.product(range(total + 1), repeat=P.k):
            if sum(degs) != total:
                continue
            yield from words_of_degree(P, degs)
