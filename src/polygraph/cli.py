"""Command-line interface.

Machine-readable JSON goes to stdout (or --out), wrapped with a run
manifest so identical inputs and parameters reproduce byte-identical
output; human-readable progress goes to stderr.  Exit codes:

    0  success
    1  input error (unreadable or malformed files, bad flags): errors.InputError
    2  mathematical rejection, with a witness in the JSON output: errors.Rejected
    3  budget or bound exhausted: errors.Exhausted

main maps each exception family, and OSError (exit 1), to its code and
names no layer, so each command imports only the layers it uses.

Named budgets bound the searches: "color triples" whose cubic condition
validation and enumeration check (1M), "tables" of enumeration (10M),
"relabelings" of classification (100,000), "group order"
(1M), extension "branch nodes" (1M), "cycle steps" (100,000), "splice
rounds" of the tail splice (4 (2 bound + 1)^k), window points of a "tail
box" (1M), period "certificate words" (1M) and symmetry "period
candidates" (100,000).
POLYGRAPH_BUDGET, a nonnegative integer, replaces all of them; running
past one exits 3 with "budget/bound exceeded: <name>: <count> exceeds
the limit <limit>".
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, catalog
from .budget import limit
from .errors import Exhausted, InputError, Rejected
from .jsonio import (
    FormatError,
    certificate_to_obj,
    dump_json,
    group_construction_to_obj,
    lattice_to_obj,
    load_presentation,
    phase_from_str,
    presentation_error_to_obj,
    presentation_to_obj,
    read_json,
    tail_from_obj,
    tail_to_obj,
    words_from_str,
)

EXIT_OK, EXIT_INPUT, EXIT_REJECTED, EXIT_BUDGET = 0, 1, 2, 3

CATALOG = {
    "flip": catalog.flip_2graph,
    "square": catalog.square_2graph,
    "cycle3-forward": catalog.cycle3_forward_2graph,
    "cycle3-reverse": catalog.cycle3_reverse_2graph,
    "flip-cycles": catalog.flip_cycle_cycle_3graph,
    "flip-squares": catalog.flip_square_square_3graph,
    "product-periodic": catalog.product_periodic_3graph,
    "twisted-periodic": catalog.twisted_periodic_3graph,
}


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _hash_file(path: str) -> str:
    import hashlib  # deferred: it maps libcrypto (about 3.6 MB) into any process that imports it
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str], summary) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    return {
        "tool": "polygraph",
        "version": __version__,
        "command": args.command,
        "presentation": getattr(args, "presentation", None),
        "input_hashes": {p: _hash_file(p) for p in inputs},
        "parameters": params,
        "summary": summary,
    }


def _emit(args, inputs, summary, result) -> None:
    out = {"manifest": _manifest(args, inputs, summary), "result": result}
    text = dump_json(out, getattr(args, "out", None))
    if getattr(args, "out", None):
        _say(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _load(args) -> tuple:
    """Resolve --presentation (path or catalog name) to (P, input paths)."""
    name = args.presentation
    if name in CATALOG:
        return CATALOG[name](), []
    return load_presentation(name), [name]


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as err:
        raise FormatError(f"bad integer vector {text!r}") from err


def _parse_degree(P, text: str | None, flag: str) -> tuple[int, ...]:
    """A vector with one entry per color, for flags such as --box."""
    if text is None:
        raise FormatError(f"{flag} is required")
    v = _parse_vector(text)
    if len(v) != P.k:
        raise FormatError(f"{flag} needs {P.k} entries, got {len(v)}")
    return v


def _parse_alphas(P, text: str | None):
    if text is None:
        return None
    out = [phase_from_str(part) for part in text.split(",")]
    if len(out) != P.k:
        raise FormatError(f"need {P.k} phases, got {len(out)}")
    return out


def cmd_validate(args) -> int:
    try:
        P = load_presentation(args.path)
    except Rejected as err:  # a PresentationError, the one rejection of a file read
        _emit(args, [args.path], "rejected", presentation_error_to_obj(err))
        return EXIT_REJECTED
    _emit(args, [args.path], "valid", {"valid": True, "k": P.k, "m": list(P.m)})
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .enumeration import (  # deferred: only enumerate and classify load the census
        enumerate_presentations, isomorphism_classes)
    m = _parse_vector(args.m)
    if min(m) < 1:
        raise FormatError(f"--m entries must be >= 1, got {list(m)}")
    presentations = list(enumerate_presentations(m))
    classes = isomorphism_classes(presentations) if args.classify else None
    _say(f"{len(presentations)} valid presentations for m={list(m)}")
    if classes is not None:
        result = {"m": list(m), "count": len(presentations),
                  "classes": [{"representative": presentation_to_obj(c.representative),
                               "size": c.size} for c in classes]}
        summary = f"{len(presentations)} presentations, {len(classes)} classes"
    else:
        result = {"m": list(m), "count": len(presentations),
                  "presentations": [presentation_to_obj(p) for p in presentations]}
        summary = f"{len(presentations)} presentations"
    _emit(args, [], summary, result)
    return EXIT_OK


def cmd_classify(args) -> int:
    args.classify = True
    return cmd_enumerate(args)


def cmd_tail(args) -> int:
    from .tails import (  # deferred: only tail loads the tails layer
        shift_tail_equivalent, sigma_data, splice_separating_tail, tail_symmetry_group)
    if args.bound < 1 or args.depth < 1:
        raise FormatError(f"--bound and --depth must be >= 1, got {args.bound}, {args.depth}")
    P, inputs = _load(args)
    if args.tail_command == "splice":
        tl = splice_separating_tail(P, bound=args.bound, depth=args.depth)
        sym = tail_symmetry_group(tl, bound=args.bound, depth=args.depth)
        result = {"tail": tail_to_obj(tl), "symmetry_rank": sym.rank,
                  "symmetry_basis": [list(v) for v in sym.basis]}
        _emit(args, inputs, f"spliced tail, residual symmetry rank {sym.rank}", result)
        return EXIT_OK
    if args.tail is None:
        raise FormatError("--tail is required for sigma/symmetry/equivalent")
    tl = tail_from_obj(P, read_json(args.tail, "tail"))
    inputs.append(args.tail)
    if args.tail_command == "sigma":
        box = _parse_degree(P, args.box, "--box")
        if min(box) < 0:
            raise FormatError(f"--box entries must be >= 0, got {list(box)}")
        data = sigma_data(tl, box)
        result = {"box": list(box),
                  "sigma": [{"n": list(n), "t": list(v)} for n, v in data.values]}
        _emit(args, inputs, f"sigma on box {list(box)}", result)
    elif args.tail_command == "symmetry":
        sym = tail_symmetry_group(tl, bound=args.bound, depth=args.depth)
        result = {"bound": sym.bound, "depth": sym.depth, "rank": sym.rank,
                  "basis": [list(v) for v in sym.basis],
                  "lower_bound_only": True,
                  "generators_found": [list(g.shift) for g in sym.generators]}
        _emit(args, inputs, f"tail symmetry rank {sym.rank}", result)
    else:  # equivalent
        if args.other is None:
            raise FormatError("--other is required for equivalent")
        shift = _parse_degree(P, args.shift, "--shift")
        other = tail_from_obj(P, read_json(args.other, "tail"))
        inputs.append(args.other)
        tr = shift_tail_equivalent(tl, other, shift, depth=args.depth)
        result = {"shift": list(tr.shift), "equivalent": tr.equivalent,
                  "threshold": list(tr.threshold), "bottom": list(tr.bottom),
                  "counterexample": list(tr.counterexample) if tr.counterexample else None}
        _emit(args, inputs, f"equivalent={tr.equivalent}", result)
    return EXIT_OK


def cmd_periodicity(args) -> int:
    from .periodicity import central_element, is_periodic  # deferred: only periodicity and symmetry load periods
    from .staralg import render  # deferred: only periodicity renders a central element
    P, inputs = _load(args)
    pi = _parse_degree(P, args.pi, "--pi")
    if any(pi) and not min(pi) < 0 < max(pi):
        raise FormatError(f"--pi {list(pi)} must have entries of both signs (or be zero)")
    cert = is_periodic(P, pi)
    if cert is None:
        _emit(args, inputs, f"{list(pi)} is not a period",
              {"pi": list(pi), "periodic": False})
        return EXIT_REJECTED
    result = {"pi": list(pi), "periodic": True,
              "certificate": certificate_to_obj(cert),
              "central_element": render(central_element(P, cert))}
    _emit(args, inputs, f"{list(pi)} certified", result)
    return EXIT_OK


def cmd_symmetry(args) -> int:
    from .periodicity import (  # deferred: only periodicity and symmetry load periods
        structure_report, symmetry_lattice)
    if args.bound < 1:
        raise FormatError(f"--bound must be >= 1, got {args.bound}")
    P, inputs = _load(args)
    lat = symmetry_lattice(P, bound=args.bound)
    result = {"lattice": lattice_to_obj(lat),
              "structure": structure_report(P, lat)}
    _emit(args, inputs, f"rank {lat.rank}, basis {[list(v) for v in lat.basis]}", result)
    return EXIT_OK


def cmd_rep(args) -> int:
    from .groupcons import (  # deferred: only rep loads group constructions
        decompose, from_commuting_words, full_symmetry_subgroup, to_dot)
    P, inputs = _load(args)
    words = words_from_str(P, args.words)
    alphas = _parse_alphas(P, args.alphas)
    gc = from_commuting_words(P, words, alphas=alphas)
    if args.rep_command == "build":
        result = {"dimension": gc.dimension,
                  "construction": group_construction_to_obj(gc),
                  "symmetry_order": len(full_symmetry_subgroup(gc))}
        _emit(args, inputs, f"built {gc.dimension}-dimensional construction", result)
    elif args.rep_command == "decompose":
        rep = decompose(gc)
        result = {
            "dimension": gc.dimension,
            "symmetry": [list(h) for h in rep.symmetry],
            "summands": [{"dimension": s.dimension,
                          "construction": group_construction_to_obj(s)}
                         for s in rep.summands],
            "dimensions": rep.dimensions,
        }
        _emit(args, inputs,
              f"{len(rep.summands)} irreducible summands of dims {sorted(set(rep.dimensions))}",
              result)
    else:  # export-dot
        text = to_dot(gc)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            _say(f"wrote {args.out}")
        else:
            sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_paper_suite(args) -> int:
    from . import acceptance  # deferred: only this command needs it, so others skip compiling it
    records = []
    for fn in acceptance.ALL_CRITERIA:
        rec = fn()
        records.append(rec)
        _say(f"criterion {rec['criterion']} ({rec['name']}): "
             f"{'PASS' if rec['passed'] else 'FAIL'}")
    result = {"criteria": records, "all_passed": all(r["passed"] for r in records)}
    _emit(args, [], "all passed" if result["all_passed"] else "FAILURES", result)
    return EXIT_OK if result["all_passed"] else EXIT_REJECTED


class UsageError(InputError):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse reports a usage error by exiting with status 2, which the
    # exit-code contract reserves for mathematical rejections; raise
    # instead, so that main reports it as an input error.  Subparsers
    # inherit this class.
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polygraph",
        description="single-vertex k-graph toolkit: validation, enumeration, "
                    "periodicity certificates, atomic representations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a presentation file")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate", help="enumerate presentations for given multiplicities")
    p.add_argument("--m", required=True, help="multiplicities, e.g. 2,2,2")
    p.add_argument("--classify", action="store_true", help="group into isomorphism classes")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="enumerate and classify up to isomorphism")
    p.add_argument("--m", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tail", help="window data, equivalence and symmetry of "
                                    "eventually periodic tails; splice builds a "
                                    "separating tail")
    p.add_argument("tail_command", choices=["sigma", "symmetry", "equivalent", "splice"])
    p.add_argument("--presentation", required=True,
                   help="presentation file or catalog name "
                        f"({', '.join(sorted(CATALOG))})")
    p.add_argument("--tail", help="tail JSON file (not needed for splice)")
    p.add_argument("--box", default="4,4", help="window box for sigma")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--other", help="second tail file for `equivalent`")
    p.add_argument("--shift", default=None,
                   help="shift vector for `equivalent`, e.g. 1,-1; write --shift=-1,1 "
                        "when the first entry is negative")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("periodicity", help="decide pi-periodicity with a certificate")
    p.add_argument("--presentation", required=True)
    p.add_argument("--pi", required=True,
                   help="period vector, e.g. 1,1,-1; write --pi=-1,1 when the first "
                        "entry is negative")
    p.add_argument("--out")
    p.set_defaults(func=cmd_periodicity)

    p = sub.add_parser("symmetry", help="symmetry lattice and structure report")
    p.add_argument("--presentation", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--report", "--out", dest="out", help="report file (JSON)")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("rep", help="build/decompose/export finitely correlated representations")
    p.add_argument("rep_command", choices=["build", "decompose", "export-dot"])
    p.add_argument("--presentation", required=True)
    p.add_argument("--words", required=True,
                   help="one index word per color, e.g. 112,112,112")
    p.add_argument("--alphas", help="constant phases p/q per color, e.g. 0/1,1/3,2/3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("paper-suite", help="run every acceptance criterion")
    p.add_argument("--out")
    p.set_defaults(func=cmd_paper_suite)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        limit(0)  # a malformed POLYGRAPH_BUDGET is an input error for every command
        try:
            return args.func(args)
        except Rejected as err:
            # written before the verdict is said, so that an unwritable
            # --out is one input error line like any other
            text = dump_json({"rejected": str(err)}, getattr(args, "out", None))
            _say(f"rejected: {err}")
            sys.stdout.write(text)
            return EXIT_REJECTED
    except (InputError, OSError) as err:
        _say(f"input error: {err}")
        return EXIT_INPUT
    except Exhausted as err:
        _say(f"budget/bound exceeded: {err}")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
