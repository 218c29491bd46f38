"""The acceptance checks behind both `polygraph paper-suite` and the
pytest acceptance module.

Each criterion function returns a record {criterion, name, passed,
details}; ALL_CRITERIA lists them in order.  Expected values are either
structural identities, frozen regression constants (independently
recomputed during development), or the published invariants of the
catalog graphs.
"""

from __future__ import annotations

import itertools
import random
import time

from . import catalog
from .enumeration import (
    are_isomorphic,
    enumerate_presentations,
    isomorphism_classes,
)
from .groupcons import (
    FiniteAbelianGroup,
    cycle_construction,
    decompose,
    from_commuting_words,
    full_symmetry_subgroup,
    words_commute,
)
from .intlinalg import hermite_normal_form, meets_positive_orthant
from .kgraph import (
    CubicViolation,
    Presentation,
    Word,
    deg_sub,
    degree,
    extract_prefix,
    normal_form,
    random_sort,
    validate_presentation,
    words_equal,
    words_of_degree,
)
from .periodicity import (
    ASSUMED_NOT_COMPUTED,
    central_element,
    check_tail_condition,
    find_gamma,
    is_periodic,
    structure_report,
    symmetry_lattice,
    verify_central,
    verify_homomorphism,
)
from .staralg import monomial, multiply, star_equal


def _record(n: int, name: str, passed: bool, **details) -> dict:
    return {"criterion": n, "name": name, "passed": bool(passed), "details": details}


def criterion_1_cubic_validation() -> dict:
    """Catalog 3-graphs validate; the flip/flip/3-cycle triple is rejected
    with witness (1,1,1) and composites (1,2,1) vs (1,1,2)."""
    details: dict = {}
    ok = True
    for name, builder in [
        ("transposition n=2", lambda: catalog.transposition_kgraph(3, 2)),
        ("transposition n=3", lambda: catalog.transposition_kgraph(3, 3)),
        ("flip + two 3-cycles", catalog.flip_cycle_cycle_3graph),
        ("flip + two squares", catalog.flip_square_square_3graph),
    ]:
        try:
            builder()
            details[name] = "valid"
        except Exception as err:  # pragma: no cover - failure path
            details[name] = f"REJECTED: {err}"
            ok = False
    bad = catalog.broken_cubic_triple()
    try:
        validate_presentation(bad["k"], bad["m"], bad["theta"])
        details["broken triple"] = "ACCEPTED (wrong)"
        ok = False
    except CubicViolation as err:
        good = (err.witness == (1, 1, 1)
                and {err.left, err.right} == {(1, 2, 1), (1, 1, 2)})
        details["broken triple"] = {
            "witness": err.witness, "left": err.left, "right": err.right}
        ok = ok and good
    return _record(1, "cubic-condition validation", ok, **details)


def criterion_2_two_graph_census() -> dict:
    """m=(2,2): 24 presentations, 9 classes, exactly 2 periodic classes
    (the flip and the square)."""
    presentations = list(enumerate_presentations((2, 2)))
    classes = isomorphism_classes(presentations)
    periodic = [c for c in classes
                if symmetry_lattice(c.representative, bound=3).rank > 0]
    flip, square = catalog.flip_2graph(), catalog.square_2graph()
    found = {"flip": False, "square": False}
    for c in periodic:
        if are_isomorphic(c.representative, flip) is not None:
            found["flip"] = True
        if are_isomorphic(c.representative, square) is not None:
            found["square"] = True
    ok = (len(presentations) == 24 and len(classes) == 9
          and sum(c.size for c in classes) == 24
          and len(periodic) == 2 and all(found.values()))
    return _record(2, "2-graph census", ok,
                   presentations=len(presentations), classes=len(classes),
                   periodic_classes=len(periodic), periodic_are=found)


EXPECTED_LATTICES = {
    "product l=m=2": hermite_normal_form([(1, 1, -1)]),
    "twisted m=2": hermite_normal_form([(1, -1, 0), (1, 1, -1)]),
    "flip+squares": hermite_normal_form([(1, -1, 0), (2, 0, -2)]),
}


def _lattice_examples():
    return [
        ("product l=m=2", catalog.product_periodic_3graph(2, 2)),
        ("twisted m=2", catalog.twisted_periodic_3graph(2)),
        ("flip+squares", catalog.flip_square_square_3graph()),
    ]


def criterion_3_symmetry_lattices() -> dict:
    """Bound-3 lattices of the three periodic 3-graphs match exactly (as
    Hermite bases) and avoid the nonnegative orthant; < 60 s."""
    t0 = time.time()
    details: dict = {}
    ok = True
    for name, P in _lattice_examples():
        lat = symmetry_lattice(P, bound=3)
        expected = EXPECTED_LATTICES[name]
        good = (lat.basis == expected
                and not meets_positive_orthant(lat.basis, P.k))
        if name == "product l=m=2":
            good = good and lat.contains((1, 1, -1))
        details[name] = {"basis": [list(v) for v in lat.basis],
                         "expected": [list(v) for v in expected], "ok": good}
        ok = ok and good
    elapsed = time.time() - t0
    details["within_60s"] = elapsed < 60  # not the raw time: output must be reproducible
    return _record(3, "symmetry lattices (bound 3)", ok and elapsed < 60, **details)


def criterion_4_27dim_representation() -> dict:
    """Words 112/112/112 commute; the construction is 27-dimensional and
    splits into nine 3-dimensional irreducibles with cube-root constants."""
    P = catalog.flip_cycle_cycle_3graph()
    words = [tuple((i, int(ch)) for ch in "112") for i in (1, 2, 3)]
    commute = words_commute(P, words)
    gc = from_commuting_words(P, words)
    rep = decompose(gc)
    dims = rep.dimensions
    trivial = all(len(full_symmetry_subgroup(s)) == 1 for s in rep.summands)
    cube_roots = all(s.level in (1, 3) for s in rep.summands)
    ok = (commute and gc.dimension == 27 and len(dims) == 9
          and all(d == 3 for d in dims) and sum(dims) == 27
          and trivial and cube_roots)
    return _record(4, "27-dimensional representation", ok,
                   commute=commute, dimension=gc.dimension, summands=dims,
                   trivial_symmetries=trivial, cube_root_constants=cube_roots,
                   symmetry_order=len(full_symmetry_subgroup(gc)))


def criterion_5_central_elements() -> dict:
    """For each basis period h of the criterion-3 lattices: W_h is central
    and unitary, W_h e = gamma(e), and h -> W_h is multiplicative."""
    details: dict = {}
    ok = True
    for name, P in _lattice_examples():
        lat = symmetry_lattice(P, bound=3)
        entry: dict = {}
        for cert in lat.certificates:
            w = central_element(P, cert)
            cent = verify_central(P, cert)
            gmap = cert.gamma_map()
            we = all(star_equal(P, multiply(P, w, monomial(P, e, ())),
                                monomial(P, gmap[e], ()))
                     for e in cert.E)
            entry[str(cert.pi)] = {"central_unitary": cent, "W_e=gamma(e)": we}
            ok = ok and cent and we
        pairs = list(itertools.combinations(lat.certificates, 2)) \
            or [(lat.certificates[0], lat.certificates[0])]
        for c1, c2 in pairs:
            total = tuple(a + b for a, b in zip(c1.pi, c2.pi))
            csum = is_periodic(P, total)
            hom = csum is not None and verify_homomorphism(P, c1, c2, csum)
            comm = star_equal(P, multiply(P, central_element(P, c1), central_element(P, c2)),
                              multiply(P, central_element(P, c2), central_element(P, c1)))
            entry[f"{c1.pi}+{c2.pi}"] = {"homomorphism": hom, "commute": comm}
            ok = ok and hom and comm
        zero = find_gamma(P, (0,) * P.k)
        hom0 = verify_homomorphism(P, lat.certificates[0], zero, lat.certificates[0])
        entry["h+0"] = hom0
        ok = ok and hom0
        details[name] = entry
    return _record(5, "central elements", ok, **details)


def _confluence_suite(P: Presentation, rng: random.Random) -> bool:
    """1,000 random words of at most 10 letters, each sorted along 5
    random swap orders, all reach normal_form."""
    letters = list(P.letters())
    for _ in range(1000):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        expected = normal_form(P, w)
        for _ in range(5):
            srng = random.Random(rng.randrange(2 ** 32))
            if random_sort(P, w, srng) != expected:
                return False
    return True


def criterion_6_property_suites() -> dict:
    """Randomized suites: confluence, prefix recomposition, transducer vs
    brute force on the full m=(2,2) sweep, construction order
    independence, and the long-word cycle construction."""
    rng = random.Random(20240823)
    details: dict = {}
    graphs = [
        ("flip", catalog.flip_2graph()),
        ("square", catalog.square_2graph()),
        ("fwd 3-cycle", catalog.cycle3_forward_2graph()),
        ("transposition k=3", catalog.transposition_kgraph(3, 2)),
        ("flip+cycles", catalog.flip_cycle_cycle_3graph()),
        ("flip+squares", catalog.flip_square_square_3graph()),
    ]
    # (a) confluence
    conf = all(_confluence_suite(P, rng) for _, P in graphs)
    details["confluence"] = conf
    # (b) prefix recomposition
    recomp = True
    for _, P in graphs:
        letters = list(P.letters())
        for _ in range(300):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            d = degree(P, w)
            n = tuple(rng.randint(0, x) for x in d)
            u, v = extract_prefix(P, w, n)
            if degree(P, u) != n or not words_equal(P, u + v, w):
                recomp = False
    details["prefix_recomposition"] = recomp
    # (c) transducer vs brute for every m=(2,2) presentation, |pi_i| <= 2
    trans = _transducer_vs_brute_sweep()
    details["transducer_vs_brute"] = trans
    # (d) construction order independence
    P3 = catalog.flip_cycle_cycle_3graph()
    words3 = [tuple((i, int(ch)) for ch in "112") for i in (1, 2, 3)]
    base = from_commuting_words(P3, words3)
    order_ok = all(factorized_indices(P3, words3, perm) == base.t
                   for perm in itertools.permutations((1, 2, 3)))
    details["order_independence"] = order_ok
    # (e) cycle construction
    cyc_ok = True
    Pf = catalog.cycle3_forward_2graph()
    for _ in range(25):
        seeds = [tuple((1, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))),
                 tuple((2, rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))]
        fam, _lens = cycle_construction(Pf, seeds)
        if not words_commute(Pf, fam):
            cyc_ok = False
    long_seed = [tuple((1, int(ch)) for ch in "1222"), ((2, 1),)]
    fam, _lens = cycle_construction(Pf, long_seed)
    gc = from_commuting_words(Pf, fam)
    rep = decompose(gc)
    big = max(rep.dimensions)
    details["cycle_commuting"] = cyc_ok
    details["long_word_irreducible_dim"] = big
    ok = conf and recomp and trans["agreed"] and order_ok and cyc_ok and big >= 6
    return _record(6, "property suites", ok, **details)


def factorized_indices(P: Presentation, words: list[Word], color_order: tuple[int, ...]
                       ) -> tuple[tuple[int, ...], ...]:
    """t of from_commuting_words(P, words) by factorization: for each color
    i and base point b off the i-axis, factor the other colors' words (in
    `color_order`), then word i, as A . B . C with deg C = b and B of pure
    color i; B's letters, read right to left, fill t^i along b + Z g_i."""
    lengths = [len(w) for w in words]
    G = FiniteAbelianGroup.cyclic_product(lengths)
    t = [[0] * G.order for _ in lengths]
    for i, n_i in enumerate(lengths):
        big = tuple(itertools.chain(*[words[c - 1] for c in color_order if c != i + 1], words[i]))
        loop_deg = tuple(n_i if j == i else 0 for j in range(P.k))
        for b in G.elements:
            if not b[i]:
                head, _ = extract_prefix(P, big, deg_sub(degree(P, big), b))
                loop = extract_prefix(P, head, deg_sub(degree(P, head), loop_deg))[1]
                for s in range(1, n_i + 1):  # t^i at b + s g_i is loop[n_i - s]
                    t[i][G.index(b[:i] + (s % n_i,) + b[i + 1:])] = loop[n_i - s][1]
    return tuple(map(tuple, t))


def _transducer_vs_brute_sweep() -> dict:
    """For every m=(2,2) presentation and every mixed-sign pi with
    |pi_i| <= 2 that admits a gamma, force-run the transducer and compare
    with prefix equality of e.w vs gamma(e).w over all w of degree
    (6, 6)."""
    candidates = [pi for pi in itertools.product((-2, -1, 1, 2), repeat=2)
                  if pi[0] * pi[1] < 0]
    checked = 0
    dagger_pass_tail_fail: list = []
    for P in enumerate_presentations((2, 2)):
        for pi in candidates:
            cert = find_gamma(P, pi)
            if cert is None or cert.tail_check is not None:
                continue
            verdict_t = check_tail_condition(P, cert, force_transducer=True).passed
            verdict_b = _brute_tail_check(P, cert, (6, 6))
            if verdict_t != verdict_b:
                return {"agreed": False, "at": (list(P.m), pi)}
            auto = all(x != 0 for x in pi)
            if auto and not verdict_t:
                return {"agreed": False, "at": (list(P.m), pi),
                        "note": "automatic case failed the transducer"}
            if not verdict_t:
                dagger_pass_tail_fail.append((list(pi),))
            checked += 1
    return {"agreed": True, "pairs_checked": checked,
            "dagger_pass_tail_fail": dagger_pass_tail_fail}


def _brute_tail_check(P: Presentation, cert, box) -> bool:
    gmap = cert.gamma_map()
    for e in cert.E:
        ge = gmap[e]
        for w in words_of_degree(P, box):
            lhs, _ = extract_prefix(P, normal_form(P, e + w), box)
            rhs, _ = extract_prefix(P, normal_form(P, ge + w), box)
            if lhs != rhs:
                return False
    return True


def criterion_7_report_footer() -> dict:
    """The structure report lists the analytic facts that are assumed,
    not computed."""
    P = catalog.flip_square_square_3graph()
    rep = structure_report(P, symmetry_lattice(P, bound=3))
    footer = rep.get("assumed_not_computed", [])
    expected_topics = ["faithfulness", "envelop", "simplicity", "expectation"]
    ok = all(any(topic in line for line in footer) for topic in expected_topics) \
        and list(footer) == list(ASSUMED_NOT_COMPUTED)
    return _record(7, "non-computed facts are declared", ok, footer=footer)


ALL_CRITERIA = [
    criterion_1_cubic_validation,
    criterion_2_two_graph_census,
    criterion_3_symmetry_lattices,
    criterion_4_27dim_representation,
    criterion_5_central_elements,
    criterion_6_property_suites,
    criterion_7_report_footer,
]
