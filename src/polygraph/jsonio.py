"""JSON readers/writers for the on-disk formats.

Presentation files are the interchange contract:

    {"k": 3, "m": [2, 2, 2],
     "theta": {"1,2": [[[s, t], [s2, t2]], ...], "1,3": [...], "2,3": [...]}}

with 1-based indices, each table listing every [[s, t], [s2, t2]] pair of
its domain, and pair keys "i,j" with i < j.  Writers emit pairs in
lexicographic (s, t) order and sorted keys so output is byte-stable.
They hand over the library's own tuples, which JSON writes as lists, and
dump_json, the one writer of a result, streams its text to an open file.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Any

from .errors import InputError
from .kgraph import (CubicViolation, InvalidPermutation, Presentation, PresentationError, Theta,
                     Word, WordError, check_word, color_pairs, validate_presentation)

if TYPE_CHECKING:  # annotations only: a command loads the layers it uses
    from .groupcons import GroupConstruction
    from .periodicity import PeriodicityCertificate, SymmetryLattice, TailCheck
    from .tails import Tail

_BLOCK = 4096  # a write per token is slow on a pipe; one write would hold the whole text


class FormatError(InputError, ValueError):
    """Malformed input file (not a mathematical rejection)."""


def presentation_to_obj(P: Presentation) -> dict:
    theta = {f"{i},{j}": list(P.table(i, j).items()) for i, j in color_pairs(P.k)}
    return {"k": P.k, "m": P.m, "theta": theta}


def _integer(x: Any) -> int:
    """x when it is a JSON integer; any other value, true and false
    included, is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r:.40}")
    return x


def presentation_from_obj(obj: Any) -> Presentation:
    try:
        k = _integer(obj["k"])
        m = tuple(_integer(x) for x in obj["m"])
        raw = obj["theta"]
        theta: Theta = {}
        for key, entries in raw.items():
            i_s, j_s = key.split(",")
            pair = (int(i_s), int(j_s))
            if key != f"{pair[0]},{pair[1]}":
                raise ValueError(f"theta key {key!r:.40} is not written 'i,j'")
            table = {(_integer(st[0]), _integer(st[1])): (_integer(st2[0]), _integer(st2[1]))
                     for st, st2 in entries}
            if len(table) != len(entries):
                raise ValueError(f"theta key {key!r} lists a cell twice")
            theta[pair] = table
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise FormatError(f"malformed presentation object: {err}") from err
    return validate_presentation(k, m, theta)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"key {max(obj, key=[k for k, _ in pairs].count)!r:.40} repeats in one object")
    return obj


def read_json(path: str, what: str) -> Any:
    """The JSON value in the file at `path`; FormatError names `what` when
    the file cannot be opened, is not UTF-8 JSON, repeats a key, or nests too deep."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: bad UTF-8, JSON or key
        raise FormatError(f"cannot read {what} from {path}: {err}") from err


def load_presentation(path: str) -> Presentation:
    return presentation_from_obj(read_json(path, "presentation"))


def presentation_error_to_obj(err: PresentationError) -> dict:
    """The verdict on a rejected presentation, with its witness."""
    if isinstance(err, InvalidPermutation):
        return {"valid": False, "error": "invalid permutation", "pair": err.pair}
    if isinstance(err, CubicViolation):
        return {"valid": False, "error": "cubic violation", "colors": err.triple,
                "witness": err.witness, "left": err.left, "right": err.right}
    return {"valid": False, "error": str(err)}


def word_from_obj(obj: Any) -> Word:
    try:
        return tuple((_integer(c), _integer(s)) for c, s in obj)
    except (TypeError, ValueError) as err:
        raise FormatError(f"malformed word {obj!r:.40}") from err


def words_from_str(P: Presentation, text: str) -> list[Word]:
    """One word per color from comma-separated index digits, e.g. "112,21"."""
    parts = text.split(",")
    if len(parts) != P.k:
        raise FormatError(f"need {P.k} comma-separated words, got {len(parts)}")
    words = []
    for i, part in enumerate(parts, start=1):
        if not part:
            raise FormatError(f"empty index word for color {i}")
        try:
            words.append(check_word(P, tuple((i, int(ch)) for ch in part)))
        except ValueError as err:  # a non-digit letter, or WordError
            raise FormatError(f"bad index word {part!r} for color {i}: {err}") from err
    return words


def tail_to_obj(t: Tail) -> dict:
    return {"preperiod": t.preperiod, "period": t.period}


def tail_from_obj(P: Presentation, obj: Any) -> Tail:
    from .tails import tail  # deferred: only the tail commands read a tail
    try:
        return tail(P, word_from_obj(obj.get("preperiod", [])), word_from_obj(obj["period"]))
    except (KeyError, AttributeError, WordError) as err:
        raise FormatError(f"malformed tail object: {err}") from err


def phase_from_str(s: str) -> Fraction:
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den)) % 1
    except (ValueError, ZeroDivisionError) as err:
        raise FormatError(f"malformed phase {s!r}") from err


def tail_check_to_obj(tc: TailCheck | None) -> Any:
    if tc is None:
        return None
    out = {"mode": tc.mode, "passed": tc.passed}
    if tc.mode == "transducer":
        out["states_visited"] = tc.states_visited
    if tc.violation is not None:
        path, state = tc.violation
        out["violation"] = {"path": path, "state": state}
    return out


def certificate_to_obj(cert: PeriodicityCertificate) -> dict:
    return {
        "pi": cert.pi,
        "gamma": cert.gamma,
        "tail_check": tail_check_to_obj(cert.tail_check),
    }


def lattice_to_obj(lat: SymmetryLattice) -> dict:
    return {
        "bound": lat.bound,
        "rank": lat.rank,
        "basis": lat.basis,
        "hits": lat.hits,
        "certificates": [certificate_to_obj(c) for c in lat.certificates],
    }


def group_construction_to_obj(gc: GroupConstruction) -> dict:
    return {
        "kernel": gc.group.kernel,
        "elements": gc.group.elements,
        "t": gc.t,
        "alpha": [[f"{a.numerator}/{a.denominator}" for a in row] for row in gc.alpha],
    }


def dump_json(obj: Any, fh: IO[str]) -> None:
    """obj as JSON (sorted keys, indent 1, each Presentation as presentation_to_obj
    renders it) and a newline to fh, one write per _BLOCK nonempty encoder tokens."""
    tokens = json.JSONEncoder(sort_keys=True, indent=1,
                              default=presentation_to_obj).iterencode(obj)
    while block := "".join(itertools.islice(tokens, _BLOCK)):
        fh.write(block)
    fh.write("\n")
