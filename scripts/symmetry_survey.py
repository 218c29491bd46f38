#!/usr/bin/env python3
"""Survey symmetry lattices: every m=(2,2) class plus the catalog's
periodic 3-graphs.

    python scripts/symmetry_survey.py [bound]
"""

import sys

from polygraph import catalog
from polygraph.enumeration import enumerate_presentations, isomorphism_classes
from polygraph.periodicity import structure_report, symmetry_lattice


def main(bound: int) -> None:
    print(f"== m=(2,2) classes (bound {bound}) ==")
    for idx, cls in enumerate(isomorphism_classes(enumerate_presentations((2, 2)))):
        lat = symmetry_lattice(cls.representative, bound=bound)
        tag = f"rank {lat.rank}, basis {[list(v) for v in lat.basis]}" if lat.rank \
            else f"no period found up to bound {bound}"
        print(f"class {idx} (orbit size {cls.size}): {tag}")

    print(f"\n== periodic 3-graphs (bound {bound}) ==")
    for name, P in [
        ("product type (theta12 = id, n = lm)", catalog.product_periodic_3graph(2, 2)),
        ("twisted type (theta12 = flip, n = m^2)", catalog.twisted_periodic_3graph(2)),
        ("flip + two squares", catalog.flip_square_square_3graph()),
        ("flip + two 3-cycles", catalog.flip_cycle_cycle_3graph()),
    ]:
        lat = symmetry_lattice(P, bound=bound)
        rep = structure_report(P, lat)
        print(f"{name}: rank {lat.rank}, basis {rep['symmetry_basis']}, "
              f"algebra {rep['graph_cstar_algebra']}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
