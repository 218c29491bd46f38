"""Regenerate bench/data/inputs.json, the fixed input pool of the benchmark.

    python3 bench/gen_inputs.py

The pool holds what the workloads draw their seeded inputs from, plus the
frozen regression values their checks compare against:

- the 24 presentations of m = (2,2), in enumeration order, and the 12
  (presentation, pi) pairs with |pi_i| <= 2 that admit a gamma and so go
  to the tail-condition transducer, with the seed-run verdicts;
- the (2,2) and (2,2,2) class representatives with their bound-3
  symmetry lattices (the `periods` workload loads them from here, so that
  enumeration is measured by `census` only);
- every distinct commuting family that `cycle_construction` builds on
  `flip` and `cycle3-forward` from seed words of length 1 to 4, with its
  group order and number of irreducible summands, for orders up to
  ORDER_CAP.

Only run it when the frozen values must change on purpose; the
benchmark itself never writes this file.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polygraph import catalog  # noqa: E402
from polygraph import enumeration as en  # noqa: E402
from polygraph import groupcons as gcons  # noqa: E402
from polygraph import jsonio  # noqa: E402
from polygraph import periodicity as per  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "inputs.json"
# Random cycle constructions above this group order make one op take
# seconds to minutes (full_symmetry_subgroup is quadratic in the order).
ORDER_CAP = 225
SEED_WORDS = ["".join(p) for n in range(1, 5) for p in itertools.product("12", repeat=n)]


def classes(m):
    out = []
    for c in en.isomorphism_classes(list(en.enumerate_presentations(m))):
        lat = per.symmetry_lattice(c.representative, bound=3)
        out.append({"presentation": jsonio.presentation_to_obj(c.representative),
                    "size": c.size, "basis3": [list(v) for v in lat.basis]})
    return out


def sweep_pairs(presentations):
    pis = [pi for pi in itertools.product((-2, -1, 1, 2), repeat=2) if pi[0] * pi[1] < 0]
    out = []
    for idx, P in enumerate(presentations):
        for pi in pis:
            cert = per.find_gamma(P, pi)
            if cert is None or cert.tail_check is not None:
                continue
            verdict = per.check_tail_condition(P, cert, force_transducer=True).passed
            out.append({"index": idx, "pi": list(pi), "tail_condition": verdict})
    return out


def cycle_seeds():
    out = {}
    for name, P in [("flip", catalog.flip_2graph()),
                    ("cycle3-forward", catalog.cycle3_forward_2graph())]:
        seen = set()
        rows = []
        for a, b in itertools.product(SEED_WORDS, repeat=2):
            seeds = [tuple((1, int(ch)) for ch in a), tuple((2, int(ch)) for ch in b)]
            family, _ = gcons.cycle_construction(P, seeds)
            family = tuple(family)
            if family in seen:
                continue
            seen.add(family)
            order = len(family[0]) * len(family[1])
            if order <= ORDER_CAP:
                gc = gcons.from_commuting_words(P, list(family))
                summands = len(gcons.decompose(gcons.normalize_scalars(gc)).summands)
                rows.append([a, b, order, summands])
        out[name] = rows
    return out


def main() -> None:
    m22 = list(en.enumerate_presentations((2, 2)))
    data = {
        "m22_presentations": [jsonio.presentation_to_obj(P) for P in m22],
        "sweep_pairs": sweep_pairs(m22),
        "classes_22": classes((2, 2)),
        "classes_222": classes((2, 2, 2)),
        "cycle_seeds": cycle_seeds(),
    }
    OUT.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
