"""The benchmark's workloads: fixed, seed-generated lists of ops.

An op is one request a user would make of the library: one public call,
or the short chain of calls that one CLI subcommand makes (`rep
decompose` builds, normalises and decomposes).  `Op.run` receives the
results of the ops before it and returns its own; `Op.check` runs after
the timed loop and returns None, or what is wrong.  Every check compares
against a frozen constant or an independent computation from `oracles`.

Building a workload is the benchmark's set-up: it loads the input pool
(bench/data/inputs.json), builds the catalog graphs and draws the seeded
inputs.  A builder returns (prefix, anchored, chains).  The prefix runs
first: the ops that others depend on, and those that leave large results
behind (the census classifications, the 1764-dim decompose), which would
otherwise split the ops around them into a faster and a slower group.  A
chain is a short list of dependent ops; the anchored chains hold the other
long ops.  Ops reach the library through module attributes (`kg.normal_form`,
never a bound copy), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracles
from polygraph import catalog
from polygraph import cli
from polygraph import enumeration as en
from polygraph import groupcons as gcons
from polygraph import jsonio
from polygraph import kgraph as kg
from polygraph import periodicity as per
from polygraph import tails as ta

DATA = Path(__file__).resolve().parent / "data" / "inputs.json"


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], "str | None"]

    @property
    def kind(self) -> str:
        return self.name.split(":", 1)[0]


def build(workload: str, seed: int, quick: bool = False) -> list[Op]:
    """The workload's op list: the prefix, then the chains in seeded order
    with the anchored chains at fixed, evenly spaced places among them.

    Shuffling spreads each kind of op over the whole run, so that its
    latency quantiles do not hang on one stretch of the machine's load;
    the long ops are anchored because their time depends on what ran
    before them (the allocator's state), which must not vary with the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    prefix, anchored, chains = BUILDERS[workload](rng, quick)
    rng.shuffle(chains)
    step = len(chains) / (len(anchored) + 1)
    for j in reversed(range(len(anchored))):
        chains.insert(round((j + 1) * step), anchored[j])
    ops = prefix + [op for chain in chains for op in chain]
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate op names in {workload}")
    return ops


def _inputs() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def _expect(ok: bool, why: str) -> "str | None":
    return None if ok else why


# --------------------------------------------------------------- census

# (presentations, classes) frozen from the seed run.
FROZEN = {(2, 2): (24, 9), (2, 3): (720, 84), (2, 2, 2): (752, 74), (2, 1): (2, 2)}
CENSUS = ((2, 2), (2, 3), (2, 2, 2))
# A few CLI calls, each starting the CLI's default --jobs process pool.
CLI_M = ((2, 2), (2, 1))
CANON_REQUESTS = 200


def census(rng: random.Random, quick: bool):
    prefix, chains = [], []
    for m in CENSUS[:1] if quick else CENSUS:
        count, nclasses = FROZEN[m]
        key = ",".join(map(str, m))
        prefix.append(Op(f"enumerate:{key}",
                         lambda res, m=m: list(en.enumerate_presentations(m)),
                         lambda r, res, count=count: _expect(
                             len(r) == count and len(set(r)) == count,
                             f"{len(r)} presentations, expected {count}")))
        prefix.append(Op(f"classify:{key}",
                         lambda res, key=key: en.isomorphism_classes(res[f"enumerate:{key}"]),
                         lambda r, res, count=count, nclasses=nclasses: _expect(
                             len(r) == nclasses and sum(c.size for c in r) == count
                             and len({c.representative for c in r}) == nclasses,
                             f"{len(r)} classes of total size {sum(c.size for c in r)}, "
                             f"expected {nclasses} of {count}")))

    m = CENSUS[0] if quick else CENSUS[2]
    source = ",".join(map(str, m))
    for n, idx in enumerate(rng.sample(range(FROZEN[m][0]), 3 if quick else CANON_REQUESTS)):
        perm = tuple(rng.sample(range(1, len(m) + 1), len(m)))
        maps = tuple(tuple(rng.sample(range(1, mi + 1), mi)) for mi in m)
        rel = en.Relabeling(perm, maps)
        chains.append([Op(f"canon:{n}", lambda res, idx=idx, rel=rel: _canon(
            res[f"enumerate:{source}"][idx], rel), _check_canon)])

    for m in CLI_M[:1] if quick else CLI_M:
        key = ",".join(map(str, m))
        for command in ("enumerate", "classify"):
            chains.append([Op(f"cli:{command}-{key}",
                              lambda res, argv=(command, "--m", key): _cli(list(argv)),
                              lambda r, res, m=m, command=command: _check_cli(r, m, command))])
    return prefix, [], chains


def _canon(P, rel):
    Q = en.apply_relabeling(P, rel)
    canon_p, _ = en.canonical_form(P)
    canon_q, _ = en.canonical_form(Q)
    return P, rel, Q, canon_p, canon_q, en.are_isomorphic(P, Q)


def _check_canon(r, res):
    P, rel, Q, canon_p, canon_q, witness = r
    if oracles.relabel_tables(P, rel.color_perm, rel.index_maps) != oracles.tables(Q):
        return "apply_relabeling disagrees with the relabeled tables"
    if canon_p != canon_q:
        return "canonical_form differs on two members of one orbit"
    if witness is None:
        return "are_isomorphic found no witness for a relabeled copy"
    if oracles.relabel_tables(P, witness.color_perm, witness.index_maps) != oracles.tables(Q):
        return "are_isomorphic witness does not carry P onto its copy"
    return None


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(r, m, command):
    code, text = r
    if code != 0:
        return f"exit code {code}"
    result = json.loads(text)["result"]
    count, nclasses = FROZEN[m]
    if result["count"] != count:
        return f"count {result['count']}, expected {count}"
    if command == "classify":
        sizes = [c["size"] for c in result["classes"]]
        return _expect(len(sizes) == nclasses and sum(sizes) == count,
                       f"{len(sizes)} classes, expected {nclasses}")
    return _expect(len(result["presentations"]) == count, "presentation list length")


# -------------------------------------------------------------- periods

CATALOG_3 = {
    "twisted-periodic": catalog.twisted_periodic_3graph,
    "product-periodic": catalog.product_periodic_3graph,
    "transposition-3-3": lambda: catalog.transposition_kgraph(3, 3),
    "flip-squares": catalog.flip_square_square_3graph,
    "flip-cycles": catalog.flip_cycle_cycle_3graph,
}
# Hermite bases at bound 4 (the first three are the acceptance lattices).
LATTICES_4 = {
    "twisted-periodic": ((1, 1, -1), (0, 2, -1)),
    "product-periodic": ((1, 1, -1),),
    "transposition-3-3": ((1, 0, -1), (0, 1, -1)),
    "flip-squares": ((1, 1, -2), (0, 2, -2)),
    "flip-cycles": ((1, -1, 0),),
}
PERIODIC_CLASSES = {"classes_22": 2, "classes_222": 24}


def periods(rng: random.Random, quick: bool):
    data = _inputs()
    targets = []  # (label, presentation, frozen basis, bound)
    for name, builder in CATALOG_3.items():
        if quick and name != "flip-cycles":
            continue
        targets.append((f"lattice4:{name}", builder(), LATTICES_4[name], 4))
    for key, short in (("classes_22", "c22"), ("classes_222", "c222")):
        rows = data[key]
        periodic = sum(1 for row in rows if row["basis3"])
        if periodic != PERIODIC_CLASSES[key]:
            raise ValueError(f"{DATA}: {periodic} periodic {key}, expected "
                             f"{PERIODIC_CLASSES[key]}")
        for n, row in enumerate(rows[:3] if quick else rows):
            P = jsonio.presentation_from_obj(row["presentation"])
            basis = tuple(tuple(v) for v in row["basis3"])
            targets.append((f"lattice3:{short}-{n}", P, basis, 3))

    anchored, chains = [], []
    for label, P, basis, bound in targets:
        op = Op(label, lambda res, P=P, bound=bound: per.symmetry_lattice(P, bound=bound),
                lambda r, res, basis=basis: _check_lattice(r, basis))
        (anchored if bound == 4 else chains).append([op])
        if basis:
            chains += _certificate_ops(rng, label.split(":", 1)[1], P, basis)
    return [], anchored, chains


def _check_lattice(lat, basis):
    if lat.basis != basis:
        return f"basis {lat.basis}, expected {basis}"
    outside = [h for h in lat.hits if not oracles.in_lattice(basis, h)]
    return _expect(not outside, f"certified periods {outside} outside the lattice")


def _certificate_ops(rng, label, P, basis):
    """Chains of requests.  Per basis period h: certify h, check W_h central
    and unitary, and W_h W_0 = W_h with the zero certificate.  After the
    first, for a seeded lattice vector g: certify g and h + g, and check
    W_h W_g = W_{h+g} with h's certificate."""
    h = basis[0]
    g = rng.choice(_lattice_vectors(basis))
    chains = [[Op(f"period:{label}:{v}", lambda res, v=v: _period(P, v),
                  lambda r, res, v=v: _check_period(P, r, v))] for v in basis]
    chains[0].append(Op(f"period-sum:{label}:{h}+{g}",
                        lambda res: _period_sum(P, res[f"period:{label}:{h}"][0], g),
                        lambda r, res: _check_period_sum(P, r, h, g)))
    return chains


def _period(P, v):
    cert = per.is_periodic(P, v)
    zero = per.find_gamma(P, (0,) * P.k)
    return cert, per.verify_central(P, cert), per.verify_homomorphism(P, cert, zero, cert)


def _check_period(P, r, v):
    cert, central, hom = r
    return (_check_cert(P, cert, v) or _expect(central is True, "W_h is not central and unitary")
            or _expect(hom is True, "W_h W_0 != W_h"))


def _period_sum(P, cert_h, g):
    certs = [per.is_periodic(P, w) for w in (g, tuple(a + b for a, b in zip(cert_h.pi, g)))]
    return certs, per.verify_homomorphism(P, cert_h, *certs)


def _check_period_sum(P, r, h, g):
    certs, hom = r
    for cert, w in zip(certs, (g, tuple(a + b for a, b in zip(h, g)))):
        why = _check_cert(P, cert, w)
        if why:
            return why
    return _expect(hom is True, "W_h W_g != W_{h+g}")


def _small(v):
    return (max(map(abs, v)) <= 4 and sum(x for x in v if x > 0) <= 6
            and sum(-x for x in v if x < 0) <= 6)


def _lattice_vectors(basis):
    """Lattice vectors g, small enough to certify in milliseconds, with g
    and g + basis[0] nonzero and neither a basis vector."""
    out = []
    for coeffs in itertools.product(range(-2, 3), repeat=len(basis)):
        g = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(basis[0])))
        g1 = tuple(a + b for a, b in zip(g, basis[0]))
        if (any(g) and any(g1) and _small(g) and _small(g1)
                and g not in basis and g1 not in basis):
            out.append(g)
    return sorted(set(out))


_SWAPS: dict = {}


def _swaps(P):
    if P not in _SWAPS:
        _SWAPS[P] = oracles.Swaps(P)
    return _SWAPS[P]


def _check_cert(P, cert, pi):
    if cert is None:
        return f"{pi} not certified, though it lies in the frozen lattice"
    if cert.pi != tuple(pi):
        return f"certificate for {cert.pi}, asked for {pi}"
    return oracles.certificate_problem(_swaps(P), cert, random.Random(str(pi)))


# ---------------------------------------------------------------- tails

CATALOG_2 = {
    "flip": catalog.flip_2graph,
    "square": catalog.square_2graph,
    "cycle3-forward": catalog.cycle3_forward_2graph,
    "cycle3-reverse": catalog.cycle3_reverse_2graph,
}
LATTICES_2 = {"flip": ((1, -1),), "square": ((2, -2),),
              "cycle3-forward": (), "cycle3-reverse": ()}
# The finite-box comparison takes about 4x longer per step of the box, and
# a pass must stay short enough for three of them in one run: at (5, 5) the
# compared words have 10-14 letters and the 40 comparisons take about 2 s.
SWEEP_BOX = (5, 5)
# One graph where a shift survives every splice block (flip: the splice
# stops quietly and the residual symmetry is the graph's own) and one where
# the splice succeeds.  All four catalog 2-graphs, or blocks of degree 3
# (the default), would take most of a pass.
SPLICE_GRAPHS = ("flip", "cycle3-reverse")
SPLICE_BLOCK_DEGREE = 2
# (preperiod degree, period degree, sigma box); the first two shapes also
# get a tail_symmetry_group op.  Shapes are fixed so that a seed changes
# which letters a tail has, not how long its words are.
SHAPES_2 = [((1, 1), (1, 2), (16, 16)), ((2, 1), (2, 1), (12, 12)),
            ((1, 2), (2, 2), (8, 8)), ((2, 2), (1, 3), (16, 16)),
            ((3, 1), (3, 1), (12, 12)), ((2, 2), (2, 3), (8, 8))]
SHAPES_3 = [((1, 1, 1), (1, 1, 1), (4, 4, 4)), ((1, 0, 1), (1, 1, 1), (3, 3, 3)),
            ((0, 1, 1), (1, 1, 2), (4, 4, 4)), ((1, 1, 0), (1, 2, 1), (3, 3, 3)),
            ((2, 1, 1), (2, 1, 1), (4, 4, 4)), ((1, 1, 1), (1, 1, 2), (3, 3, 3)),
            ((0, 0, 1), (2, 1, 1), (4, 4, 4)), ((1, 2, 1), (1, 1, 1), (3, 3, 3))]
TAIL_GRAPHS_3 = {"flip-cycles": catalog.flip_cycle_cycle_3graph,
                 "flip-squares": catalog.flip_square_square_3graph}


def tails(rng: random.Random, quick: bool):
    data = _inputs()
    m22 = [jsonio.presentation_from_obj(obj) for obj in data["m22_presentations"]]
    prefix, anchored, ops = [], [], []
    for row in data["sweep_pairs"][1:2] if quick else data["sweep_pairs"]:
        P, pi, want = m22[row["index"]], tuple(row["pi"]), row["tail_condition"]
        key = f"{row['index']}:{pi}"
        words = math.prod(mi ** max(x, 0) for mi, x in zip(P.m, pi))
        prefix.append(Op(f"transducer:{key}", lambda res, P=P, pi=pi: _transducer(P, pi),
                         lambda r, res, key=key, words=words, want=want:
                         _check_transducer(r, res, key, words, want)))
        for q in range(words):
            ops.append(Op(f"sweep:{key}:{q}",
                          lambda res, P=P, key=key, q=q: _box_agree(
                              P, res[f"transducer:{key}"][0].gamma[q]),
                          lambda r, res, want=want: _expect(
                              r or not want, "e w and gamma(e) w differ in the box, "
                                             "though the frozen verdict says they agree")))
    for name in SPLICE_GRAPHS[1:] if quick else SPLICE_GRAPHS:
        P = CATALOG_2[name]()
        anchored.append([Op(f"splice:{name}", lambda res, P=P: _splice(P),
                            lambda r, res, name=name: _check_splice(r, LATTICES_2[name]))])

    graphs = [(name, builder(), SHAPES_2) for name, builder in CATALOG_2.items()]
    graphs += [(name, builder(), SHAPES_3) for name, builder in TAIL_GRAPHS_3.items()]
    for name, P, shapes in graphs[::4] if quick else graphs:
        seen = set()
        for j, (pre_deg, per_deg, box) in enumerate(shapes[:1] if quick else shapes):
            while True:
                pre, period = _random_word(rng, P, pre_deg), _random_word(rng, P, per_deg)
                if (pre, period) not in seen:
                    seen.add((pre, period))
                    break
            tl = ta.tail(P, pre, period)
            key = f"{name}:{j}"
            ops.append(Op(f"sigma:{key}", lambda res, tl=tl, box=box: ta.sigma_data(tl, box),
                          lambda r, res, tl=tl, box=box: _check_sigma(r, tl, box)))
            ops.append(Op(f"shift:{key}",
                          lambda res, tl=tl: ta.shift_tail_equivalent(tl, tl, tl.period_degree),
                          lambda r, res: _expect(r.equivalent, "a tail is not equivalent to "
                                                 "its shift by its own period degree")))
            if P.k == 2 and j < 2:
                ops.append(Op(f"tailsym:{key}", lambda res, tl=tl: ta.tail_symmetry_group(tl, 2),
                              lambda r, res, tl=tl: _check_tail_symmetry(r, tl)))
    return prefix, anchored, [[op] for op in ops]


def _random_word(rng, P, d):
    """A color-sorted (so normal-form) word of degree d with seeded indices."""
    return tuple((c, rng.randint(1, P.m[c - 1]))
                 for c in range(1, P.k + 1) for _ in range(d[c - 1]))


def _transducer(P, pi):
    cert = per.find_gamma(P, pi)
    return cert, per.check_tail_condition(P, cert, force_transducer=True)


def _box_agree(P, pair):
    """Whether e w and gamma(e) w have equal prefixes of degree SWEEP_BOX
    for every word w of that degree (the finite-box tail comparison)."""
    e, ge = pair
    for w in kg.words_of_degree(P, SWEEP_BOX):
        lhs, _ = kg.extract_prefix(P, kg.normal_form(P, e + w), SWEEP_BOX)
        rhs, _ = kg.extract_prefix(P, kg.normal_form(P, ge + w), SWEEP_BOX)
        if lhs != rhs:
            return False
    return True


def _check_transducer(r, res, key, words, want):
    cert, verdict = r
    if cert is None or len(cert.gamma) != words:
        return "no gamma certificate, though the pair was frozen as admitting one"
    box = all(res[f"sweep:{key}:{q}"] for q in range(words))
    if verdict.passed != box:
        return f"transducer says {verdict.passed}, box comparison says {box}"
    return _expect(verdict.passed == want, f"tail condition {verdict.passed}, frozen {want}")


def _splice(P):
    tl = ta.splice_separating_tail(P, bound=2, max_block_degree=SPLICE_BLOCK_DEGREE)
    return tl, ta.tail_symmetry_group(tl, bound=2)


def _check_splice(r, lattice):
    _, sym = r
    outside = [v for v in sym.basis if not oracles.in_lattice(lattice, v)]
    return _expect(not outside, f"residual tail symmetry {outside} is not a symmetry of "
                                f"the graph (lattice {lattice}): the splice gave up")


def _check_sigma(data, tl, box):
    values = data.as_dict()
    if len(values) != math.prod(b + 1 for b in box):
        return f"{len(values)} window points on box {box}"
    sw = _swaps(tl.presentation)
    word = oracles.unroll(tl, box)
    rng = random.Random(str(box))
    for _ in range(6):
        n = tuple(-rng.randint(0, b) for b in box)
        if values[n] != oracles.sigma(sw, word, n):
            return f"sigma at {n} is {values[n]}, oracle {oracles.sigma(sw, word, n)}"
    return None


def _check_tail_symmetry(sym, tl):
    period = tl.period_degree
    if max(map(abs, period)) <= sym.bound and not oracles.in_lattice(sym.basis, period):
        return f"period degree {period} missing from tail symmetry {sym.basis}"
    sw = _swaps(tl.presentation)
    for tr in sym.generators:
        points = [tr.bottom, tr.threshold]
        depth = tuple(max(-x for pt in points for x in (pt[i], pt[i] + tr.shift[i]))
                      for i in range(len(period)))
        word = oracles.unroll(tl, depth)
        for n in points:
            shifted = tuple(a + b for a, b in zip(n, tr.shift))
            if oracles.sigma(sw, word, n) != oracles.sigma(sw, word, shifted):
                return f"shift {tr.shift} breaks sigma at {n}"
    return None


# ----------------------------------------------------------------- reps

LONG_SEEDS = ("1222", "1")
# Random constructions per (graph, group order, irreducible summands).  The
# op cost grows with the square of the order and falls with the number of
# summands, so a fixed mix keeps every seed's run the same size; the seed
# picks which constructions of each class.  The 36 ops of class flip (36, 6)
# hold op_p50_ms and the 14 of class flip (72, 12) hold op_p90_ms, each
# inside a cluster of ops of one cost: constructions within each of these
# classes cost the same to within 10%, where those of cycle3-forward
# (144, 3) differ by 2x, so a seed's draw would move op_p90_ms.  No class
# costs more than (72, 12); the 1764-dim construction is the tail op.
RANDOM_MIX = {
    "flip": {(1, 1): 2, (2, 2): 2, (3, 3): 2, (4, 4): 3, (6, 6): 2, (8, 8): 3, (9, 3): 3,
             (12, 6): 3, (16, 4): 6, (18, 6): 6, (36, 6): 36, (48, 12): 4, (64, 8): 4,
             (72, 12): 14},
    "cycle3-forward": {(1, 1): 1, (2, 2): 2, (3, 3): 1, (4, 4): 2, (6, 6): 1, (8, 8): 1,
                       (9, 3): 2, (12, 12): 1, (16, 16): 1},
}


def _word(color, text):
    return tuple((color, int(ch)) for ch in text)


def reps(rng: random.Random, quick: bool):
    data = _inputs()
    P3 = catalog.flip_cycle_cycle_3graph()
    words3 = [_word(i, "112") for i in (1, 2, 3)]
    prefix = []
    if not quick:
        Pf = catalog.cycle3_forward_2graph()
        seeds = [_word(1, LONG_SEEDS[0]), _word(2, LONG_SEEDS[1])]
        prefix = [
            Op("rep1764-cycle", lambda res: gcons.cycle_construction(Pf, seeds),
               lambda r, res: _check_family(Pf, r[0], 1764)),
            Op("rep1764-decompose", lambda res: _decompose(Pf, res["rep1764-cycle"][0]),
               lambda r, res: _check_decompose(r, 1764, [21] * 84))]
    anchored = [[Op("rep27", lambda res: _decompose(P3, words3),
                    lambda r, res: _check_decompose(r, 27, [3] * 9, cube_roots=True))]]
    chains = []
    for name, mix in RANDOM_MIX.items():
        P = CATALOG_2[name]()
        pool: dict = {}
        for a, b, order, summands in data["cycle_seeds"][name]:
            pool.setdefault((order, summands), []).append((a, b))
        for (order, summands), count in mix.items():
            if quick and order > 16:
                continue
            for a, b in rng.sample(pool[(order, summands)], 1 if quick else count):
                chains.append([Op(f"rep-random:{name}:{a},{b}",
                                  lambda res, P=P, a=a, b=b: _random_rep(P, a, b),
                                  lambda r, res, P=P, order=order, summands=summands:
                                  _check_random_rep(P, r, order, summands))])
    return prefix, anchored, chains


def _decompose(P, words):
    gc = gcons.from_commuting_words(P, words)
    return gc, gcons.decompose(gcons.normalize_scalars(gc))


def _random_rep(P, a, b):
    family, _ = gcons.cycle_construction(P, [_word(1, a), _word(2, b)])
    gc, rep = _decompose(P, family)
    return family, gc, rep, gcons.to_dot(gc)


def _check_family(P, family, order):
    if math.prod(len(w) for w in family) != order:
        return f"family of order {math.prod(len(w) for w in family)}, frozen {order}"
    return _expect(oracles.commute(_swaps(P), family), "family words do not commute")


def _check_decompose(r, dim, dims, cube_roots=False):
    gc, rep = r
    if gc.dimension != dim or sorted(rep.dimensions) != dims:
        return f"dimension {gc.dimension} split as {sorted(rep.dimensions)}, expected {dims}"
    if cube_roots and any(a.denominator not in (1, 3)
                          for s in rep.summands for row in s.alpha for a in row):
        return "a summand constant is not a cube root of unity"
    reducible = [n for n, s in enumerate(rep.summands)
                 if oracles.translation_symmetry_order(s) != 1]
    return _expect(not reducible, f"summands {reducible} keep a translation symmetry")


def _check_random_rep(P, r, order, summands):
    family, gc, rep, dot = r
    why = _check_family(P, family, order)
    if why:
        return why
    if sum(rep.dimensions) != order or len(rep.dimensions) != summands:
        return (f"{len(rep.dimensions)} summands of total dimension {sum(rep.dimensions)}, "
                f"frozen {summands} of |G| = {order}")
    reducible = [n for n, s in enumerate(rep.summands)
                 if oracles.translation_symmetry_order(s) != 1]
    if reducible:
        return f"summands {reducible} keep a translation symmetry"
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    return _expect(edges == P.k * order, f"DOT graph has {edges} edges, expected {P.k * order}")


BUILDERS = {"census": census, "periods": periods, "tails": tails, "reps": reps}
