"""The one budget mechanism: every bounded search raises budget.BudgetExceeded
past its named limit, and POLYGRAPH_BUDGET replaces every default."""

import ast
import itertools
import re
from pathlib import Path

import pytest

from polygraph import catalog, tails
from polygraph.budget import EXACT_COUNT, BudgetExceeded, InvalidBudget, capped_product, limit
from polygraph.cli import main
from polygraph.enumeration import (
    _compiled_group,
    are_isomorphic,
    canonical_form,
    enumerate_presentations,
    isomorphism_classes,
)
from polygraph.groupcons import (
    FiniteAbelianGroup,
    PartialConstruction,
    cycle_construction,
    extend_to_group,
    from_commuting_words,
)
from polygraph.kgraph import validate_presentation
from polygraph.periodicity import check_tail_condition, find_gamma, symmetry_lattice
from polygraph.tails import (
    shift_tail_equivalent,
    sigma_data,
    splice_separating_tail,
    tail,
    tail_symmetry_group,
)

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polygraph").glob("*.py"))


def _raised(monkeypatch, value, search):
    monkeypatch.setenv("POLYGRAPH_BUDGET", value)
    with pytest.raises(BudgetExceeded) as info:
        search()
    return info.value.name, info.value.limit, info.value.consumed


class TestNamedBudgets:
    def test_tables(self, monkeypatch):
        # (2, 2) has 4! = 24 candidate tables
        assert _raised(monkeypatch, "10", lambda: list(enumerate_presentations((2, 2)))) \
            == ("tables", 10, 24)

    @pytest.mark.parametrize("search", [canonical_form, lambda P: are_isomorphic(P, P),
                                        lambda P: isomorphism_classes([P])])
    def test_relabelings(self, monkeypatch, search):
        # (2, 2, 2) has 3! 2!^3 = 48 relabelings, counted when the group is
        # built, so the test starts from an empty cache
        P = next(enumerate_presentations((2, 2, 2)))
        _compiled_group.cache_clear()
        assert _raised(monkeypatch, "47", lambda: search(P)) == ("relabelings", 47, 48)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "48")
        search(P)

    @pytest.mark.parametrize("search", [
        lambda: list(enumerate_presentations((1,) * 4)),
        lambda: validate_presentation(4, (1,) * 4, dict.fromkeys(
            itertools.combinations(range(1, 5), 2), {(1, 1): (1, 1)})),
    ], ids=["enumerate", "validate"])
    def test_color_triples(self, monkeypatch, search):
        # four colors have C(4, 3) = 4 triples, charged before any is built
        assert _raised(monkeypatch, "3", search) == ("color triples", 3, 4)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "4")
        search()

    def test_group_order(self, monkeypatch):
        assert _raised(monkeypatch, "8", lambda: FiniteAbelianGroup.cyclic_product([3, 3])) \
            == ("group order", 8, 9)
        # a factor past 10^18 is counted as 10^18 + 1, as in every product budget
        assert _raised(monkeypatch, "1000000",
                       lambda: FiniteAbelianGroup.cyclic_product([10 ** 19, 2])) \
            == ("group order", 10 ** 6, 10 ** 18 + 1)

    def test_branch_nodes(self, monkeypatch):
        P = catalog.flip_cycle_cycle_3graph()
        gc = from_commuting_words(P, [tuple((i, int(ch)) for ch in "112") for i in (1, 2, 3)])
        seed = {(i, (0, 0, 0)): gc.t[i - 1][0] for i in (1, 2, 3)}
        part = PartialConstruction(gc.group, seed, {})
        assert _raised(monkeypatch, "0", lambda: extend_to_group(P, part)) \
            == ("branch nodes", 0, 1)

    def test_cycle_steps(self, monkeypatch):
        # the flip cycle of these seeds closes after exactly 3 steps
        P = catalog.flip_2graph()
        seeds = [((1, 1), (1, 2)), ((2, 1),)]
        assert _raised(monkeypatch, "2", lambda: cycle_construction(P, seeds)) \
            == ("cycle steps", 2, 3)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "3")
        assert cycle_construction(P, seeds)[1] == [3]

    def test_automatic_tail_condition_reads_no_budget(self, monkeypatch):
        P = catalog.flip_2graph()
        cert = find_gamma(P, (1, -1))
        monkeypatch.setenv("POLYGRAPH_BUDGET", "abc")
        assert check_tail_condition(P, cert).mode == "automatic"

    def test_certificate_words(self, monkeypatch):
        # (2, -2) on the flip graph has |E| = |F| = 4
        assert _raised(monkeypatch, "3", lambda: find_gamma(catalog.flip_2graph(), (2, -2))) \
            == ("certificate words", 3, 4)

    def test_period_candidates(self, monkeypatch):
        # bound 2 on the flip graph: L_m = Z (1, -1), so 2 * 2 + 1 = 5 points
        P = catalog.flip_2graph()
        assert _raised(monkeypatch, "4", lambda: symmetry_lattice(P, bound=2)) \
            == ("period candidates", 4, 5)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "5")
        assert symmetry_lattice(P, bound=2).basis == ((1, -1),)

    def test_period_candidates_charged_with_a_kept_plan(self, monkeypatch):
        # the candidates of (m, bound) are built once and kept, but every
        # search is charged, so a limit set afterwards still stops it
        P = catalog.flip_2graph()
        assert symmetry_lattice(P, bound=2).basis == ((1, -1),)
        assert _raised(monkeypatch, "4", lambda: symmetry_lattice(P, bound=2)) \
            == ("period candidates", 4, 5)

    def test_splice_rounds(self, monkeypatch):
        # the first round, one per symmetry search, is charged before the
        # first splice box (36 points at bound 1) reaches "tail box"
        assert _raised(monkeypatch, "0",
                       lambda: splice_separating_tail(catalog.square_2graph(), bound=1)) \
            == ("splice rounds", 0, 1)

    @pytest.mark.parametrize("search", [
        # box (5, 5) has 6 * 6 = 36 window points
        lambda t: sigma_data(t, (5, 5)),
        # depth 5 and period degree (1, 1): the region reaches 5 below 0
        lambda t: shift_tail_equivalent(t, t, (0, 0), depth=5),
        # preperiod 0 + bound 3 + depth 2 * period 1
        lambda t: tail_symmetry_group(t, bound=3, depth=2),
    ], ids=["sigma", "equivalent", "symmetry"])
    def test_tail_box(self, monkeypatch, search):
        t = tail(catalog.flip_2graph(), (), ((1, 1), (2, 1)))
        assert _raised(monkeypatch, "35", lambda: search(t)) == ("tail box", 35, 36)
        monkeypatch.setenv("POLYGRAPH_BUDGET", "36")
        search(t)

    def test_tail_box_charges_the_unrolled_degree_before_the_sort(self, monkeypatch):
        # the thin box (35, 0) has 36 points, but the period (1, 1) tail is
        # unrolled to degree (36, 36) to cover it; that word is never sorted
        t = tail(catalog.flip_2graph(), (), ((1, 1), (2, 1)))
        monkeypatch.setattr(tails, "normal_form", None)
        assert _raised(monkeypatch, "36", lambda: sigma_data(t, (35, 0))) \
            == ("tail box", 36, 36 * 36)

    def test_tail_box_is_charged_before_the_splice_pad(self, monkeypatch):
        # the first splice box, bound 1 + depth 2 * (bound + 1) = 5 per
        # color, has 36 points; its pad is never built
        P = catalog.flip_2graph()
        monkeypatch.setattr(tails, "normal_form", None)
        assert _raised(monkeypatch, "35", lambda: splice_separating_tail(P, bound=1)) \
            == ("tail box", 35, 36)


class TestCappedProduct:
    def test_exact_up_to_the_cap(self):
        assert capped_product([2] * 40, EXACT_COUNT) == 2 ** 40
        assert capped_product([], 0) == 1
        assert capped_product([10, 10], 100) == 100

    def test_first_partial_product_past_the_cap(self):
        assert capped_product([10] * 5, 999) == 1000
        assert capped_product(iter(lambda: 2, 0), 10) == 16  # an endless stream stops

    def test_huge_factors_count_as_cap_plus_one(self):
        assert capped_product([10 ** 5000], 100) == 101
        assert capped_product([3, 10 ** 5000], 100) == 303


class TestHugeCounts:
    # past 40 digits a count is shown with two significant digits: a count
    # reaches (limit + 1)^2, and str() refuses an int of over 4,300 digits
    def test_message_rounds_down_past_40_digits(self):
        assert str(BudgetExceeded("tables", 10 ** 4300 - 1, 10 ** 8600)) \
            == "tables: 1.0E+8600 exceeds the limit 9.9E+4299"
        assert str(BudgetExceeded("tables", 7, 10 ** 40 - 1)) == f"tables: {'9' * 40} exceeds the limit 7"

    @pytest.mark.parametrize("argv, name, count", [
        # 2^14285, the first power of two past the limit 10^4300 - 1
        (["periodicity", "--presentation", "flip", "--pi", "20000,-20000"], "certificate words",
         "1.6E+4300"),
        (["symmetry", "--presentation", "flip-cycles", "--bound", "9" * 4300], "period candidates",
         "1.0E+4300"),
    ])
    def test_4300_digit_budget_exits_3_with_one_line(self, monkeypatch, capsys, argv, name,
                                                     count):
        monkeypatch.setenv("POLYGRAPH_BUDGET", "9" * 4300)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"budget/bound exceeded: {name}: {count} exceeds the limit "
                                "9.9E+4299\n")


class TestLimit:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("POLYGRAPH_BUDGET", raising=False)
        assert limit(123) == 123

    @pytest.mark.parametrize("value, expected", [("0", 0), ("7", 7), (" 42 ", 42)])
    def test_variable_replaces_the_default(self, monkeypatch, value, expected):
        monkeypatch.setenv("POLYGRAPH_BUDGET", value)
        assert limit(123) == expected

    # past 4,300 digits int(str) raises ValueError of its own
    @pytest.mark.parametrize("value", ["abc", "-1", "", "1.5",
                                       pytest.param("9" * 5000, id="5000-digits")])
    def test_bad_values_are_rejected(self, monkeypatch, value):
        monkeypatch.setenv("POLYGRAPH_BUDGET", value)
        with pytest.raises(InvalidBudget, match="POLYGRAPH_BUDGET"):
            limit(123)

    def test_long_bad_value_is_clipped_on_stderr(self, monkeypatch, capsys):
        monkeypatch.setenv("POLYGRAPH_BUDGET", "x" * 5000)
        assert main(["classify", "--m", "2,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 200
        assert captured.err == ("input error: POLYGRAPH_BUDGET must be a nonnegative integer, "
                                f"got {'x' * 40!r} (5000 characters)\n")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            yield node.body[0].value


class TestOneBudgetPath:
    """A second budget path (another exhaustion class, or another read of
    the variable) must not come back unnoticed."""

    def test_one_module_reads_the_variable(self):
        readers = []
        for path in SOURCES:
            tree = ast.parse(path.read_text())
            docs = {id(node) for node in _docstrings(tree)}
            if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "POLYGRAPH_BUDGET" in node.value and id(node) not in docs
                   for node in ast.walk(tree)):
                readers.append(path.name)
        assert readers == ["budget.py"]

    def test_one_exhaustion_class(self):
        classes = [(path.name, node.name) for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)
                   and ("Budget" in node.name or "Exceeded" in node.name or "Cap" in node.name)]
        assert classes == [("budget.py", "BudgetExceeded"), ("budget.py", "InvalidBudget")]

    def test_only_budget_py_charges(self):
        # a search is charged by budget() or steps(); only cli's limit(0),
        # which checks POLYGRAPH_BUDGET up front, reads a limit elsewhere
        def calls(tree, names):
            return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    in names]

        outside = [(path.name, ast.unparse(node)) for path in SOURCES if path.name != "budget.py"
                   for node in calls(ast.parse(path.read_text()), ("BudgetExceeded", "limit"))]
        assert outside == [("cli.py", "limit(0)")]
        tree = ast.parse((ROOT / "src" / "polygraph" / "budget.py").read_text())
        chargers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                    and calls(node, ("BudgetExceeded",))]
        assert chargers == ["budget", "steps"]

    def test_documented_names_are_the_raised_names(self):
        # the README budget table and the cli module docstring list
        # exactly the names that src/ passes to BudgetExceeded
        raised = _raised_names()
        readme = re.findall(r"^\| `([^`]+)` \|", (ROOT / "README.md").read_text(), re.M)
        cli_doc = ast.get_docstring(ast.parse((ROOT / "src" / "polygraph" / "cli.py").read_text()))
        cli = [" ".join(name.split()) for name in re.findall(r'"([a-z][a-z\s]*)"', cli_doc)]
        assert sorted(readme) == sorted(cli) == sorted(raised)

    def test_every_raised_name_has_a_named_budget_test(self):
        # each name that src/ passes to BudgetExceeded is a string in
        # TestNamedBudgets, where a test raises it through POLYGRAPH_BUDGET
        # alone: no test there patches a limit
        tree = ast.parse(Path(__file__).read_text())
        named = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "TestNamedBudgets")
        strings = {node.value for node in ast.walk(named)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert _raised_names() - strings == set()
        patched = {arg.value.rsplit(".", 1)[-1] for node in ast.walk(named)
                   if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setattr"
                   for arg in node.args[:2]
                   if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
        assert "limit" not in patched


def _raised_names() -> set:
    """The literal name passed to each BudgetExceeded(...) call, and to each
    budget(...) or steps(...) call, which raises BudgetExceeded with it."""
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "BudgetExceeded", "budget", "steps"):
                first = node.args[0]
                if path.name == "budget.py" and getattr(first, "id", None) == "name":
                    continue  # budget() or steps() passing on its own argument
                assert isinstance(first, ast.Constant), (path.name, node.lineno)
                raised.add(first.value)
    return raised
