import concurrent.futures
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polygraph
from polygraph import acceptance, catalog, cli, errors, jsonio
from polygraph.cli import main
from polygraph.jsonio import (
    dump_json,
    group_construction_to_obj,
    phase_from_str,
    presentation_from_obj,
    presentation_to_obj,
    tail_from_obj,
    tail_to_obj,
)
from polygraph.enumeration import enumerate_presentations, isomorphism_classes
from polygraph.groupcons import (FiniteAbelianGroup, NotCommuting, cycle_construction,
                                 from_commuting_words, group_construction, words_commute)
from polygraph.intlinalg import LatticeInconsistency
from polygraph.kgraph import Presentation, WordError
from polygraph.periodicity import (find_gamma, is_periodic, product_relation_tables,
                                   symmetry_lattice, verify_homomorphism)
from polygraph.tails import (shift_tail_equivalent, sigma_data, splice_separating_tail, tail,
                             tail_symmetry_group)


def group_construction_from_obj(P, obj):
    """The reader matching jsonio.group_construction_to_obj."""
    G = FiniteAbelianGroup.from_kernel([tuple(row) for row in obj["kernel"]])
    return group_construction(P, G, [tuple(row) for row in obj["t"]],
                              [tuple(phase_from_str(a) for a in row) for row in obj["alpha"]])


def _write_unreadable(root):
    """Two JSON files json.load cannot return: one not in UTF-8, one nested
    deeper than the recursion limit."""
    (root / "LATIN1.json").write_bytes('{"k": 2, "m": [2, 2], "theta": "\u00e9"}'.encode("latin-1"))
    (root / "DEEP.json").write_text("[" * 100_000 + "]" * 100_000)


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "fcc.json"
    good.write_text(json.dumps(presentation_to_obj(catalog.flip_cycle_cycle_3graph())))
    bad = tmp_path / "broken.json"
    data = catalog.broken_cubic_triple()
    obj = {"k": 3, "m": [2, 2, 2], "theta": {}}
    for (i, j), table in data["theta"].items():
        obj["theta"][f"{i},{j}"] = [[[s, t], list(v)] for (s, t), v in sorted(table.items())]
    bad.write_text(json.dumps(obj))
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"k": 3, "m": [2')
    _write_unreadable(tmp_path)
    return {"good": str(good), "bad": str(bad), "trunc": str(trunc), "dir": tmp_path}


class TestRoundTrips:
    def test_presentation_json(self):
        for P in (catalog.flip_2graph(), catalog.twisted_periodic_3graph(2)):
            assert presentation_from_obj(presentation_to_obj(P)) == P

    def test_tail_json(self):
        P = catalog.flip_2graph()
        t = tail(P, ((1, 2),), ((1, 1), (2, 2)))
        obj = json.loads(json.dumps(tail_to_obj(t)))
        assert obj == {"preperiod": [[1, 2]], "period": [[1, 1], [2, 2]]}
        t2 = tail_from_obj(P, obj)
        assert t2.preperiod == t.preperiod and t2.period == t.period

    def test_group_construction_json(self):
        P = catalog.flip_cycle_cycle_3graph()
        words = [tuple((i, int(ch)) for ch in "112") for i in (1, 2, 3)]
        gc = from_commuting_words(P, words)
        back = group_construction_from_obj(P, group_construction_to_obj(gc))
        assert back.t == gc.t and back.alpha == gc.alpha


def _rendered(obj):
    """obj with each Presentation replaced by presentation_to_obj's dict."""
    if isinstance(obj, Presentation):
        return _rendered(presentation_to_obj(obj))
    if isinstance(obj, dict):
        return {key: _rendered(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rendered(value) for value in obj]
    return obj


class _CountingWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestDumpJson:
    """json.dumps, the encoder dump_json streams, is the oracle of its text."""

    @pytest.mark.parametrize("obj", [
        {"b": ((1, [2, (3,)]), [(4, 5), ()]), "a": [((), [])], "c": ([(-1, 0)],)},
        (), [], {}, {"x": (), "y": [], "z": {}, "w": [{}, ((),)]},
        {"none": None, "yes": True, "no": False, "text": "é ∞ \U0001d538 \"\n\\",
         "ü": ["\x00"]},
        None, True, 0, -7, "plain", "\u00e9",
        {"p": catalog.flip_2graph(),
         "ps": [catalog.twisted_periodic_3graph(2), (catalog.square_2graph(),)]},
        catalog.flip_cycle_cycle_3graph(),
    ], ids=["tuples-in-lists", "empty-tuple", "empty-list", "empty-dict", "empties",
            "scalars", "null", "true", "zero", "negative", "string", "non-ascii",
            "presentations", "bare-presentation"])
    def test_writes_the_text_of_json_dumps(self, obj):
        fh = io.StringIO()
        dump_json(obj, fh)
        assert fh.getvalue() == json.dumps(_rendered(obj), sort_keys=True, indent=1) + "\n"

    def test_a_tree_past_one_block_is_written_a_block_at_a_time(self):
        n = jsonio._BLOCK
        obj = {"rows": tuple((i, [i, -i], {"i": (i,)}) for i in range(n)),
               "flat": list(range(2 * n + 3)), "more": (catalog.flip_2graph(),) * 40}
        expected = json.dumps(_rendered(obj), sort_keys=True, indent=1) + "\n"
        tokens = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=1).iterencode(
            _rendered(obj)))
        assert tokens > 10 * n
        fh = _CountingWrites()
        dump_json(obj, fh)
        assert fh.getvalue() == expected
        # one write per full block, one for the last partial block, one for "\n"
        assert fh.writes == -(-tokens // n) + 1


class TestExitCodes:
    def test_validate_ok(self, files, capsys):
        assert main(["validate", files["good"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["valid"] is True

    def test_validate_rejects_with_witness(self, files, capsys):
        assert main(["validate", files["bad"]]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["witness"] == [1, 1, 1]
        assert sorted([out["result"]["left"], out["result"]["right"]]) == \
            [[1, 1, 2], [1, 2, 1]]

    def test_malformed_input_is_exit_1(self, files, capsys):
        for command in (["validate"], ["symmetry", "--presentation"]):
            for name in ("trunc.json", "missing.json", "LATIN1.json", "DEEP.json"):
                assert main(command + [str(files["dir"] / name)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("input error: cannot read presentation from ")
                assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("field, value, shown", [
        ("k", 2.7, "2.7"), ("k", True, "True"), ("k", "2", "'2'"), ("m", "22", "'2'"),
        ("m", [2, 2.0], "2.0"), ("index", 1.9, "1.9"), ("index", False, "False"),
    ])
    def test_non_integer_presentation_is_exit_1(self, field, value, shown, tmp_path, capsys):
        obj = json.loads(json.dumps(presentation_to_obj(catalog.flip_2graph())))
        if field == "index":
            obj["theta"]["1,2"][0][1][0] = value  # the image of cell (1, 1)
        else:
            obj[field] = value
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: malformed presentation object: "
                                f"expected an integer, got {shown}\n")

    FLIP_CELLS = '[[1, 1], [1, 1]], [[1, 2], [2, 1]], [[2, 1], [1, 2]], [[2, 2], [2, 2]]'

    @pytest.mark.parametrize("theta, error", [
        # a one-cell table, then the flip table under a key int() also reads as 1,2
        ('{"1,2": [[[1, 1], [1, 1]]], "0_1, 2": [%s]}' % FLIP_CELLS,
         "malformed presentation object: theta key '0_1, 2' is not written 'i,j'"),
        # cell (1, 1) mapped to (2, 2), then the four flip cells
        ('{"1,2": [[[1, 1], [2, 2]], %s]}' % FLIP_CELLS,
         "malformed presentation object: theta key '1,2' lists a cell twice"),
        # the same key twice, which a plain json.load would merge
        ('{"1,2": [[[1, 1], [2, 2]]], "1,2": [%s]}' % FLIP_CELLS,
         "cannot read presentation from {path}: key '1,2' repeats in one object"),
    ], ids=["key", "cell", "repeated-key"])
    def test_ambiguous_theta_is_one_input_error_line(self, theta, error, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"k": 2, "m": [2, 2], "theta": %s}' % theta)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {error.format(path=path)}\n"

    def test_long_malformed_tail_is_one_short_line(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"period": [[1, 1]] * 10_000 + [[2, True]]}))
        assert main(["tail", "sigma", "--presentation", "flip", "--tail", str(path),
                     "--box", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: malformed word [[1, 1], [1, 1], [1, 1], [1, 1], [1, 1],\n"

    def test_budget_exit_3(self, files, monkeypatch, capsys):
        monkeypatch.setenv("POLYGRAPH_BUDGET", "10")
        assert main(["enumerate", "--m", "2,2,2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget/bound exceeded: tables: 13824 exceeds the limit 10\n"

    @pytest.mark.parametrize("budget, argv, name", [
        ("10", ["rep", "build", "--presentation", "flip-cycles", "--words", "112,112,112"],
         "group order"),
        ("0", ["tail", "splice", "--presentation", "square", "--bound", "1"], "splice rounds"),
        ("10", ["classify", "--m", "2,2"], "tables"),
        ("3", ["periodicity", "--presentation", "flip", "--pi", "2,-2"], "certificate words"),
        ("10", ["classify", "--m", "1,1,1,1"], "relabelings"),
        ("4", ["symmetry", "--presentation", "flip", "--bound", "2"], "period candidates"),
    ])
    def test_named_budget_exit_3(self, budget, argv, name, monkeypatch, capsys):
        monkeypatch.setenv("POLYGRAPH_BUDGET", budget)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"budget/bound exceeded: {name}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_huge_pi_is_exit_3_before_building_words(self, monkeypatch, capsys):
        # 2^40 words of degree (40, 0) are over the default limit
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        t0 = time.perf_counter()
        assert main(["periodicity", "--presentation", "flip", "--pi", "40,-40"]) == 3
        assert time.perf_counter() - t0 < 5
        assert capsys.readouterr().err == ("budget/bound exceeded: certificate words: "
                                           "1099511627776 exceeds the limit 1000000\n")

    @pytest.mark.parametrize("argv, message", [
        # 1600! and 1000000! are never computed: the count stops at 20!
        (["enumerate", "--m", "40,40"], "tables: 2432902008176640000 exceeds the limit 10000000"),
        (["enumerate", "--m", "1000,1000"],
         "tables: 2432902008176640000 exceeds the limit 10000000"),
        # 9! relabelings are refused before any is built
        (["classify", "--m", "1,1,1,1,1,1,1,1,1"], "relabelings: 362880 exceeds the limit 100000"),
    ])
    def test_huge_census_is_exit_3_at_once(self, argv, message, monkeypatch, capsys):
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"budget/bound exceeded: {message}\n"

    def test_huge_word_group_is_exit_3_before_the_commutation_check(self, monkeypatch,
                                                                  capsys):
        # the group C_20000 x C_20000 is refused before the words' quadratic
        # commutation check runs
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        ones = "1" * 20_000
        t0 = time.perf_counter()
        assert main(["rep", "build", "--presentation", "flip", "--words", f"{ones},{ones}"]) == 3
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("budget/bound exceeded: group order: "
                                "400000000 exceeds the limit 1000000\n")

    @pytest.mark.parametrize("argv, message", [
        # |E| = 2^2000 or 2^20000 is never built: the count stops at 2^60,
        # the first power of two past 10^18
        (["periodicity", "--presentation", "flip", "--pi", "2000,-2000"],
         "certificate words: 1152921504606846976 exceeds the limit 1000000"),
        (["periodicity", "--presentation", "flip", "--pi", "20000,-20000"],
         "certificate words: 1152921504606846976 exceeds the limit 1000000"),
        # the 2 * 10^20 - 1 candidates of the box are never built: the
        # count stops past 10^18
        (["symmetry", "--presentation", "flip", "--bound", "99999999999999999999"],
         "period candidates: 1000000000000000001 exceeds the limit 100000"),
        # 2 * bound + 1 would pass int -> str's 4,300 digits
        (["symmetry", "--presentation", "flip", "--bound", "9" * 4300],
         "period candidates: 1000000000000000001 exceeds the limit 100000"),
    ])
    def test_long_pi_and_huge_bound_are_one_line_exit_3(self, argv, message, monkeypatch,
                                                       capsys):
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"budget/bound exceeded: {message}\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, points", [
        # flip, the period (1, 1) tail: symmetry box 5000 + 2 per color,
        # splice box bound + 2 (bound + 1), equivalent box the depth; no
        # grid, shift list or splice pad is built
        (["tail", "symmetry", "--tail", "TAIL", "--bound", "5000"], 5003 ** 2),
        (["tail", "splice", "--bound", "5000"], 15003 ** 2),
        (["tail", "equivalent", "--tail", "TAIL", "--other", "TAIL", "--shift", "0,0",
          "--depth", "100000000"], 100000001 ** 2),
        (["tail", "sigma", "--tail", "TAIL", "--box", "3000,3000"], 3001 ** 2),
        (["tail", "splice", "--bound", "100000000"], 300000003 ** 2),
        # a thin box, 100001 * 6 points, unrolls the tail to degree
        # (100001, 100001): the unrolled degree is charged before the sort
        (["tail", "sigma", "--tail", "TAIL", "--box", "100000,5"], 100001 ** 2),
    ])
    def test_huge_tail_box_is_one_line_exit_3(self, argv, points, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"preperiod": [], "period": [[1, 1], [2, 1]]}))
        argv = argv[:2] + ["--presentation", "flip"] + [str(path) if a == "TAIL" else a
                                                        for a in argv[2:]]
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"budget/bound exceeded: tail box: {points} exceeds the limit 1000000\n"

    @pytest.mark.parametrize("budget, argv, named", [
        ("abc", ["classify", "--m", "2,2"], "POLYGRAPH_BUDGET"),
        ("-1", ["classify", "--m", "2,2"], "POLYGRAPH_BUDGET"),
        ("abc", ["symmetry", "--presentation", "flip", "--bound", "1"], "POLYGRAPH_BUDGET"),
        # POLYGRAPH_BUDGET is the one way to set a limit: --budget is unknown
        (None, ["enumerate", "--m", "2,2", "--budget", "10"], "--budget"),
    ])
    def test_bad_budget_is_exit_1(self, budget, argv, named, monkeypatch, capsys):
        if budget is not None:
            monkeypatch.setenv("POLYGRAPH_BUDGET", budget)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert named in captured.err
        assert "Traceback" not in captured.err

    def test_overlong_budget_is_one_input_error_line(self, monkeypatch, capsys):
        # 5,000 digits pass the decimal check but not int(str)'s digit limit
        monkeypatch.setenv("POLYGRAPH_BUDGET", "9" * 5000)
        assert main(["classify", "--m", "2,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: POLYGRAPH_BUDGET has 5000 digits, too many\n"

    @pytest.mark.parametrize("argv, period", [
        (["rep", "build", "--presentation", "flip", "--words", "12,21"], None),  # NotCommuting
        (["tail", "sigma", "--presentation", "flip", "--tail", "TAIL", "--box", "4,4"],
         [[1, 1]]),  # InvalidTail
    ], ids=["not-commuting", "invalid-tail"])
    def test_rejection_with_unwritable_out_is_one_input_error_line(self, argv, period, tmp_path,
                                                                   capsys):
        tail_path = tmp_path / "tail.json"
        tail_path.write_text(json.dumps({"period": period}))
        out = tmp_path / "missing" / "x.json"
        argv = [str(tail_path) if a == "TAIL" else a for a in argv] + ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_rejection_with_out_is_written_to_the_file_only(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["rep", "build", "--presentation", "flip", "--words", "12,1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(out.read_text())["rejected"].endswith("do not pairwise commute")
        assert captured.err.splitlines() == [
            f"wrote {out}", "rejected: words [((1, 1), (1, 2)), ((2, 1),)] do not pairwise commute"]

    # each is checked once, by the library function that reads the value
    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--m", "0,2"], "multiplicities [0, 2] must be at least 1"),
        (["symmetry", "--bound", "0"], "bound must be >= 1, got 0"),
        (["tail", "symmetry", "--tail", "TAIL", "--bound", "0"],
         "bound and depth must be >= 1, got 0, 2"),
        (["tail", "splice", "--bound", "0"], "bound and depth must be >= 1, got 0, 2"),
        (["tail", "equivalent", "--tail", "TAIL", "--other", "TAIL", "--shift", "0,0",
          "--depth", "0"], "depth must be >= 1, got 0"),
        (["tail", "sigma", "--tail", "TAIL", "--box=-1,2"], "box (-1, 2) must have 2 nonnegative entries"),
        (["periodicity", "--pi", "1,1"], "pi (1, 1) must have entries of both signs (or be zero)"),
        (["periodicity", "--pi", "1,-1,0"], "pi (1, -1, 0) has wrong length for k=2"),
        (["rep", "build", "--words", "1,1", "--alphas", "1/2"], "need one phase per color, got 1"),
        (["tail", "equivalent", "--tail", "TAIL", "--other", "TAIL", "--shift", "1,1,1"],
         "shift (1, 1, 1) must have 2 entries"),
    ], ids=["m", "symmetry-bound", "tail-symmetry-bound", "tail-splice-bound",
            "tail-equivalent-depth", "box", "pi-signs", "pi-length", "alphas", "shift"])
    def test_parameter_error_is_one_input_error_line(self, argv, message, tmp_path, capsys):
        tail_path = tmp_path / "tail.json"
        tail_path.write_text(json.dumps({"preperiod": [], "period": [[1, 1], [2, 1]]}))
        argv = [str(tail_path) if a == "TAIL" else a for a in argv]
        if argv[0] != "enumerate":
            command = argv[:2] if argv[0] in ("tail", "rep") else argv[:1]
            argv = command + ["--presentation", "flip"] + argv[len(command):]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("argv, named", [
        (["tail", "sigma", "--presentation", "flip-cycles", "--tail", "t.json"],
         "the following arguments are required: --box"),
        (["tail", "splice", "--presentation", "flip", "--tail", "x"],
         "unrecognized arguments: --tail x"),
        (["tail", "sigma", "--presentation", "flip", "--tail", "t.json", "--box", "4,4",
          "--bound", "1"], "unrecognized arguments: --bound 1"),
        (["enumerate", "--m", "2,2", "--classify"], "unrecognized arguments: --classify"),
        (["symmetry", "--presentation", "flip", "--report", "r.json"],
         "unrecognized arguments: --report r.json"),
    ], ids=["sigma-without-box", "splice-with-tail", "sigma-with-bound", "enumerate-classify",
            "symmetry-report"])
    def test_a_flag_its_command_does_not_read_is_a_usage_error(self, argv, named, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {named}\nusage: polygraph")
        assert "Traceback" not in captured.err

    def test_aperiodic_pi_exit_2(self, capsys):
        assert main(["periodicity", "--presentation", "cycle3-forward",
                     "--pi", "1,-1"]) == 2

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_nonpositive_symmetry_bound_is_exit_1(self, bound, capsys):
        assert main(["symmetry", "--presentation", "flip", "--bound", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["tail", "sigma", "--tail", "TAIL", "--box", "4"],
        ["tail", "sigma", "--tail", "TAIL", "--box", "2,2,2"],
        ["tail", "sigma", "--tail", "TAIL", "--box=-1,2"],
        ["tail", "equivalent", "--tail", "TAIL", "--other", "TAIL"],
        ["tail", "equivalent", "--tail", "TAIL", "--other", "TAIL", "--shift", "1,0,0"],
        ["tail", "equivalent", "--tail", "TAIL", "--shift", "0,0"],
        ["tail", "symmetry", "--tail", "TAIL", "--bound", "0"],
        ["tail", "splice", "--depth", "0"],
        ["tail", "sigma", "--tail", "LETTER5", "--box", "1,1"],
        ["tail", "symmetry", "--tail", "COLOR3"],
        ["tail", "sigma", "--tail", "LATIN1", "--box", "1,1"],
        ["tail", "sigma", "--tail", "DEEP", "--box", "1,1"],
        ["tail", "equivalent", "--tail", "TAIL", "--other", "LATIN1", "--shift", "0,0"],
        ["tail", "equivalent", "--tail", "TAIL", "--other", "DEEP", "--shift", "0,0"],
        ["rep", "build", "--words", "1x,12"],
        ["rep", "build", "--words", "13,12"],
        ["rep", "build", "--words", ",1"],
        ["rep", "build", "--words", "1,1", "--alphas", "1-3,0/1"],
        ["periodicity", "--pi", "1,1"],
        ["periodicity", "--pi", "1,-1,0"],
        ["tail", "sigma", "--tail", "LETTERTRUE", "--box", "1,1"],
        ["tail", "sigma", "--tail", "LETTER1.5", "--box", "1,1"],
    ])
    def test_bad_arguments_are_exit_1(self, argv, tmp_path, capsys):
        files = {"TAIL": {"preperiod": [], "period": [[1, 1], [2, 1]]},
                 "LETTER5": {"period": [[1, 5], [2, 1]]},
                 "COLOR3": {"preperiod": [[3, 1]], "period": [[1, 1], [2, 1]]},
                 "LETTERTRUE": {"period": [[1, True], [2, 1]]},
                 "LETTER1.5": {"period": [[1, 1.5], [2, 1]]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        _write_unreadable(tmp_path)
        argv = [str(tmp_path / f"{a}.json") if a in (*files, "LATIN1", "DEEP") else a
                for a in argv]
        command = argv[:2] if argv[0] in ("tail", "rep") else argv[:1]
        argv = command + ["--presentation", "flip"] + argv[len(command):]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--m", "2,0"],
        ["enumerate", "--m", "0"],
        ["classify", "--m", "2,-1"],
        ["enumerate", "--m", "2,2", "--classify", "--bogus"],
        ["enumerate"],
        ["--jobs", "x", "classify", "--m", "2,2"],
        ["tail", "sigma", "--presentation", "flip", "--tail", "t.json", "--box", "-1,2"],
        ["symmetry", "--presentation", "flip", "--bound", "two"],
        ["no-such-command"],
        [],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_usage_errors_are_exit_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_periodic_pi_exit_0(self, capsys):
        # argparse reads a separate "-1,1" as an option; "--pi=-1,1" is one argument
        for pi_args, pi in ((["--pi", "1,-1"], "1,-1"), (["--pi=-1,1"], "-1,1")):
            assert main(["periodicity", "--presentation", "flip", *pi_args]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["result"]["periodic"] is True
            assert out["manifest"]["parameters"]["pi"] == pi


class TestCommands:
    def test_classify_two_graphs(self, capsys):
        assert main(["classify", "--m", "2,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["count"] == 24
        assert len(out["result"]["classes"]) == 9

    def test_symmetry_report(self, capsys):
        assert main(["symmetry", "--presentation", "flip-squares", "--bound", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["lattice"]["basis"] == [[1, 1, -2], [0, 2, -2]]
        assert out["result"]["structure"]["torus_rank"] == 2
        assert len(out["result"]["structure"]["assumed_not_computed"]) == 4

    def test_rep_decompose(self, capsys):
        assert main(["rep", "decompose", "--presentation", "flip-cycles",
                     "--words", "112,112,112"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["dimensions"] == [3] * 9

    def test_rep_export_dot(self, capsys):
        assert main(["rep", "export-dot", "--presentation", "flip",
                     "--words", "1,1"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_tail_commands(self, files, capsys, tmp_path):
        tail_file = tmp_path / "tail.json"
        tail_file.write_text(json.dumps({"preperiod": [], "period": [[1, 1], [2, 1]]}))
        assert main(["tail", "sigma", "--presentation", "flip",
                     "--tail", str(tail_file), "--box", "2,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(entry["t"] == [1, 1] for entry in out["result"]["sigma"])
        assert main(["tail", "symmetry", "--presentation", "flip",
                     "--tail", str(tail_file), "--bound", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["basis"] == [[1, 0], [0, 1]]
        assert out["result"]["lower_bound_only"] is True

    def test_tail_equivalent_and_splice(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        shifted = tmp_path / "shifted.json"
        base.write_text(json.dumps({"preperiod": [], "period": [[1, 1], [2, 1]]}))
        shifted.write_text(json.dumps({"preperiod": [[1, 2], [2, 2]],
                                       "period": [[1, 1], [2, 1]]}))
        assert main(["tail", "equivalent", "--presentation", "flip",
                     "--tail", str(base), "--other", str(shifted),
                     "--shift", "0,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["equivalent"] is True
        # a shift whose first entry is negative is given in the "=" form
        assert main(["tail", "equivalent", "--presentation", "flip",
                     "--tail", str(base), "--other", str(base), "--shift=-1,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["manifest"]["parameters"]["shift"] == "-1,1"
        assert main(["tail", "splice", "--presentation", "cycle3-forward",
                     "--bound", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["symmetry_rank"] == 0

    def test_each_tail_verb_records_only_its_own_flags(self, tmp_path, capsys):
        tail_file = tmp_path / "tail.json"
        tail_file.write_text(json.dumps({"preperiod": [], "period": [[1, 1], [2, 1]]}))
        t = str(tail_file)
        verbs = {"sigma": ["--tail", t, "--box", "2,2"],
                 "symmetry": ["--tail", t, "--bound", "1"],
                 "equivalent": ["--tail", t, "--other", t, "--shift", "1,0"],
                 "splice": ["--bound", "1"]}
        flags = {"sigma": {"tail", "box"}, "symmetry": {"tail", "bound", "depth"},
                 "equivalent": {"tail", "other", "shift", "depth"}, "splice": {"bound", "depth"}}
        for verb, args in verbs.items():
            assert main(["tail", verb, "--presentation", "flip", *args]) == 0
            params = json.loads(capsys.readouterr().out)["manifest"]["parameters"]
            assert set(params) == {"command", "tail_command", "presentation"} | flags[verb], verb
            assert params["tail_command"] == verb

    def test_enumerate_and_classify_share_one_command(self, capsys):
        for command, classify in (("enumerate", False), ("classify", True)):
            assert main([command, "--m", "2,2"]) == 0
            manifest = json.loads(capsys.readouterr().out)["manifest"]
            assert manifest["command"] == command
            assert manifest["parameters"] == {"classify": classify, "command": command, "m": "2,2"}

    def test_paper_suite_reports_its_criteria(self, capsys):
        assert main(["paper-suite"]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert [r["criterion"] for r in out["result"]["criteria"]] == [1, 2, 3, 4, 5, 7]
        assert all(r["passed"] for r in out["result"]["criteria"])
        assert out["result"]["all_passed"] is True
        lines = captured.err.splitlines()
        assert len(lines) == 6 and all(line.endswith(": PASS") for line in lines)

    def test_determinism_byte_identical(self, files, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main(["symmetry", "--presentation", "twisted-periodic",
                         "--bound", "2", "--out", str(target)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_inputs_and_version(self, files, capsys):
        assert main(["validate", files["good"]]) == 0
        out = json.loads(capsys.readouterr().out)
        man = out["manifest"]
        assert man["command"] == "validate"
        assert files["good"] in man["input_hashes"]
        with open(files["good"], "rb") as fh:
            assert man["input_hashes"][files["good"]] == hashlib.sha256(fh.read()).hexdigest()
        assert man["tool"] == "polygraph" and man["version"]


def _slot(good, bad=(), flag=None):
    """One argv slot: left out, a good value (drawn three times as often) or
    a bad one, each after `flag` when one is given."""
    def part(value):
        return (value,) if flag is None else (flag, value)
    return [()] + [part(v) for v in good] * 3 + [part(v) for v in bad]


PRESENTATIONS = _slot(["flip", "cycle3-forward", "flip-cycles", "GOOD"],
                      ["twisted-periodic", "nope", "BAD"], "--presentation")
# --bound is always given: its defaults (3 and 4) are above the cheap range
BOUND = _slot(["1", "2"], ["0", "-1", "x"], "--bound")[1:]
TAIL = _slot(["TAIL"], ["TRUNC", "missing.json", "BADTAIL"], "--tail")
DEPTH = _slot(["1"], ["0", "x"], "--depth")
# argv = the command words, then one drawn alternative per slot; GOOD, BAD,
# TRUNC, TAIL and BADTAIL (a letter out of range) stand for the files
# written by the fixture below
ARGV_VOCABULARY = {
    ("validate",): [_slot(["GOOD"], ["BAD", "TRUNC", "missing.json"])],
    ("enumerate",): [_slot(["1", "2", "1,2", "2,2", "2,1,2"], ["0", "2,-1", "x", ""], "--m")],
    ("classify",): [_slot(["2", "2,2", "1,2,2", "2,2,2"], ["2,0", "a,b"], "--m")],
    ("periodicity",): [PRESENTATIONS,
                       _slot(["1,-1", "1,1", "1,-1,0"], ["0,0", "x"], "--pi")],
    ("symmetry",): [PRESENTATIONS, BOUND],
    ("tail", "sigma"): [PRESENTATIONS, TAIL, _slot(["2,2", "1,2"], ["1", "-1,2", "x"], "--box")],
    ("tail", "symmetry"): [PRESENTATIONS, TAIL, BOUND, DEPTH],
    ("tail", "equivalent"): [PRESENTATIONS, TAIL, _slot(["TAIL"], ["TRUNC", "BADTAIL"], "--other"),
                             _slot(["0,0", "1,0"], ["0,0,0"], "--shift"), DEPTH],
    ("tail", "splice"): [PRESENTATIONS, BOUND, DEPTH],
    ("tail", "nope"): [],
    ("rep",): [_slot(["build", "decompose", "export-dot"], ["nope"]), PRESENTATIONS,
               _slot(["1,1", "12,21", "112,112,112", "12,12,12"],
                     [",1", "1x,1", "13,12", ""], "--words"),
               _slot(["0/1,1/3", "1/2,1/2,1/2"], ["1-3", "1/0,0/1"], "--alphas")],
    ("no-such-command",): [],
}
STRAY = _slot([], ["--bogus", "--jobs", "-1,2"]) + [()] * 11


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    paths = {name: str(root / f"{name.lower()}.json")
             for name in ("GOOD", "BAD", "TRUNC", "TAIL", "BADTAIL")}
    with open(paths["GOOD"], "w") as fh:
        json.dump(presentation_to_obj(catalog.flip_2graph()), fh)
    with open(paths["BAD"], "w") as fh:
        json.dump({"k": 2, "m": [2, 2], "theta": {"1,2": [[[1, 1], [1, 1]]]}}, fh)
    with open(paths["TRUNC"], "w") as fh:
        fh.write('{"k": 2, "m": [2')
    with open(paths["TAIL"], "w") as fh:
        json.dump({"preperiod": [[1, 2]], "period": [[1, 1], [2, 1]]}, fh)
    with open(paths["BADTAIL"], "w") as fh:
        json.dump({"period": [[1, 5], [2, 1]]}, fh)
    for name, k in (("WIDE", 3_000), ("WIDER", 20_000)):
        paths[name] = str(root / f"{name.lower()}.json")
        with open(paths[name], "w") as fh:
            json.dump({"k": k, "m": [1] * k, "theta": {}}, fh)
    return paths


def _with_plain_frame_budget(fn, *args):
    """fn(*args) on a fresh thread's stack under CPython's default recursion
    limit, as in a CLI process: Hypothesis raises the limit by 2,000 frames
    while a @given test runs, which would hide a RecursionError."""
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            return pool.submit(fn, *args).result()
    finally:
        sys.setrecursionlimit(raised)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARGV_VOCABULARY)))
    slots = ARGV_VOCABULARY[command] + [STRAY]
    return list(command) + [token for slot in slots for token in draw(st.sampled_from(slot))]


class TestArgvContract:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(argv=argvs())
    @example(argv=["tail", "sigma", "--presentation", "flip", "--tail", "BADTAIL", "--box", "1,1"])
    @example(argv=["tail", "equivalent", "--presentation", "flip", "--tail", "TAIL",
                   "--other", "BADTAIL", "--shift", "1,0", "--depth", "1"])
    # 46 colors have 1,035 color pairs: one walk level each would exceed the
    # frame budget of a CLI process
    @example(argv=["enumerate", "--m", ",".join(["1"] * 46)])
    def test_exit_code_stream_contract(self, argv, argv_files):
        argv = [argv_files.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        # an exception escaping main fails the test, as a traceback would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _with_plain_frame_budget(main, argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if code in (0, 2) and argv[:2] != ["rep", "export-dot"]:
            json.loads(out.getvalue())

    # C(300, 3) color triples, and the 4,498,500 and 199,990,000 theta pairs
    # of 3,000 and 20,000 colors: none may be built
    @pytest.mark.parametrize("argv, code, message", [
        (["enumerate", "--m", ",".join(["1"] * 300)], 3,
         "budget/bound exceeded: color triples: 4455100 exceeds the limit 1000000\n"),
        (["validate", "WIDE"], 2,
         '"theta must have the 4498500 color pairs i < j, got 0; first missing pair (1, 2)"'),
        (["validate", "WIDER"], 2,
         '"theta must have the 199990000 color pairs i < j, got 0; first missing pair (1, 2)"'),
    ], ids=["enumerate-300", "validate-3000", "validate-20000"])
    def test_many_colors_answer_in_a_few_lines(self, argv, code, message, argv_files):
        argv = [argv_files.get(token, token) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert _with_plain_frame_budget(main, argv) == code
        assert message in out.getvalue() + err.getvalue()
        assert len(out.getvalue()) < 1_000


def _exception_classes():
    """Every exception class defined in a module of src/polygraph, the
    three families excepted."""
    for info in pkgutil.iter_modules(polygraph.__path__):
        module = importlib.import_module(f"polygraph.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__ and module is not errors):
                yield obj


class TestExceptionFamilies:
    def test_each_exception_is_in_exactly_one_family(self):
        members = {}
        for cls in _exception_classes():
            families = [f for f in (errors.InputError, errors.Rejected, errors.Exhausted)
                        if issubclass(cls, f)]
            assert len(families) == 1, (cls, families)
            members.setdefault(families[0].__name__, set()).add(cls.__name__)
        assert members == {
            "InputError": {"FormatError", "InvalidBudget", "UsageError", "WordError", "NotAPrefix"},
            "Rejected": {"PresentationError", "InvalidPermutation", "CubicViolation",
                         "InvalidConstruction", "NotCommuting", "InvalidTail"},
            "Exhausted": {"BudgetExceeded", "LatticeInconsistency"},
        }

    def test_a_library_parameter_error_is_an_input_error_and_a_value_error(self):
        flip = catalog.flip_2graph()
        t = tail(flip, (), ((1, 1), (2, 1)))
        cert = is_periodic(flip, (1, -1))
        calls = {
            "multiplicities [2, 0] must be at least 1": lambda: next(enumerate_presentations((2, 0))),
            "pi (1, 1) must have entries of both signs (or be zero)": lambda: find_gamma(flip, (1, 1)),
            "pi (1,) has wrong length for k=2": lambda: find_gamma(flip, (1,)),
            "bound must be >= 1, got 0": lambda: symmetry_lattice(flip, 0),
            "box (2,) must have 2 nonnegative entries": lambda: sigma_data(t, (2,)),
            "shift (1,) must have 2 entries": lambda: shift_tail_equivalent(t, t, (1,)),
            "depth must be >= 1, got 0": lambda: shift_tail_equivalent(t, t, (0, 0), depth=0),
            "bound and depth must be >= 1, got 0, 2": lambda: tail_symmetry_group(t, 0),
            "bound and depth must be >= 1, got 1, -1": lambda: splice_separating_tail(flip, 1, -1),
            "need one phase per color, got 1":
                lambda: from_commuting_words(flip, [((1, 1),), ((2, 1),)], alphas=[0]),
            "need one nonempty seed word per color": lambda: cycle_construction(flip, [((1, 1),)]),
            "seed 1 contains a letter of color 2":
                lambda: cycle_construction(flip, [((2, 1),), ((2, 1),)]),
            "word 2 contains a letter of color 1":
                lambda: words_commute(flip, [((1, 1),), ((1, 1),)]),
            "isomorphism_classes needs one multiplicity vector, got [2, 2] and [1, 1]":
                lambda: isomorphism_classes([flip, next(enumerate_presentations((1, 1)))]),
            "certificates are not for h1, h2, h1+h2":
                lambda: verify_homomorphism(flip, cert, cert, cert),
            "only defined for 3-graphs": lambda: product_relation_tables(flip, cert),
            "kernel [(2, 0)] is not full rank; quotient is infinite":
                lambda: FiniteAbelianGroup.from_kernel([(2, 0)]),
        }
        for message, call in calls.items():
            with pytest.raises(errors.InvalidArgument) as info:
                call()
            assert str(info.value) == message
            assert isinstance(info.value, errors.InputError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("error, code, prefix", [
        (WordError("letter (3, 1) outside presentation ranges"), 1, "input error: "),
        (NotCommuting("words do not pairwise commute"), 2, "rejected: "),
        (LatticeInconsistency("a rejected candidate lies in the lattice"), 3,
         "budget/bound exceeded: "),
    ], ids=["input", "rejected", "exhausted"])
    def test_main_maps_a_family_to_its_exit_code(self, error, code, prefix, monkeypatch, capsys):
        def raise_it(args):
            raise error
        monkeypatch.setattr(cli, "cmd_symmetry", raise_it)
        assert main(["symmetry", "--presentation", "flip", "--bound", "1"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{prefix}{error}\n"
        assert captured.out == ("" if code != 2 else json.dumps({"rejected": str(error)}, indent=1)
                                + "\n")


@pytest.mark.parametrize("argv, unloaded", [
    # hashlib maps OpenSSL's libcrypto and acceptance holds every paper
    # criterion; only a command that hashes an input file, or paper-suite,
    # needs one
    ([], ["hashlib", "polygraph.acceptance", "polygraph.enumeration", "polygraph.groupcons",
          "polygraph.periodicity", "polygraph.tails"]),
    (["symmetry", "--presentation", "flip", "--bound", "2"],
     ["polygraph.enumeration", "polygraph.groupcons", "polygraph.tails"]),
    (["classify", "--m", "2,2"],
     ["polygraph.groupcons", "polygraph.periodicity", "polygraph.staralg", "polygraph.tails"]),
    (["rep", "decompose", "--presentation", "flip-cycles", "--words", "112,112,112"],
     ["polygraph.enumeration", "polygraph.periodicity", "polygraph.staralg", "polygraph.tails"]),
], ids=["import", "symmetry", "classify", "rep"])
def test_a_cli_process_loads_only_its_layers(argv, unloaded):
    # a fresh interpreter imports the CLI and, given argv, runs one command
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    code = ("import contextlib, io, sys, polygraph.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = polygraph.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            f"print(code, sorted(set({unloaded!r}) & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "0 []\n"


def test_enumerate_streams_its_census_in_little_memory():
    # the child reports its own peak RSS; RUSAGE_CHILDREN would keep the
    # largest of every earlier child of this process
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    code = ("import resource, sys, polygraph.cli\n"
            "code = polygraph.cli.main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, "enumerate", "--m", "2,4"], env=env,
                          capture_output=True, text=True, check=True)
    progress, peak_kb = proc.stderr.splitlines()
    assert progress == "40320 valid presentations for m=[2, 4]"
    assert int(peak_kb) < 100 * 1024  # 418 MB when the whole text was built first
    assert json.loads(proc.stdout)["result"]["count"] == 40_320
