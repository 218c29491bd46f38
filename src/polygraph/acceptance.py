"""The acceptance checks behind both `polygraph paper-suite` and the
pytest acceptance module.

Each criterion function returns a record {criterion, name, passed,
details}; ALL_CRITERIA lists them in order.  Expected values are either
structural identities, frozen regression constants (independently
recomputed during development), or the published invariants of the
catalog graphs.  Criterion 6, the randomized property suites, runs in the
unit tests; the others keep their numbers.
"""

from __future__ import annotations

import itertools
import time

from . import catalog
from .enumeration import (
    are_isomorphic,
    enumerate_presentations,
    isomorphism_classes,
)
from .groupcons import decompose, from_commuting_words, full_symmetry_subgroup, words_commute
from .intlinalg import hermite_normal_form, meets_positive_orthant
from .kgraph import CubicViolation, validate_presentation
from .periodicity import (
    ASSUMED_NOT_COMPUTED,
    central_element,
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
    criterion_7_report_footer,
]
