"""Acceptance gate: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` (or `polygraph
paper-suite`) to see the per-criterion lines.  All tolerances are exact:
every check is integer/rational arithmetic or symbolic equality.
"""

import pytest

from polygraph import acceptance


def _run(fn):
    rec = fn()
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"criterion {rec['criterion']} ({rec['name']}): {status}")
    assert rec["passed"], rec["details"]
    return rec


def test_criterion_1_cubic_validation():
    rec = _run(acceptance.criterion_1_cubic_validation)
    assert rec["details"]["broken triple"]["witness"] == (1, 1, 1)


def test_criterion_2_two_graph_census():
    rec = _run(acceptance.criterion_2_two_graph_census)
    assert rec["details"]["presentations"] == 24
    assert rec["details"]["classes"] == 9
    assert rec["details"]["periodic_classes"] == 2


def test_criterion_3_symmetry_lattices():
    rec = _run(acceptance.criterion_3_symmetry_lattices)
    assert rec["details"]["within_60s"]


def test_criterion_4_27dim_representation():
    rec = _run(acceptance.criterion_4_27dim_representation)
    assert rec["details"]["summands"] == [3] * 9
    assert rec["details"]["symmetry_order"] == 9


def test_criterion_5_central_elements():
    _run(acceptance.criterion_5_central_elements)


def test_criterion_7_report_footer():
    rec = _run(acceptance.criterion_7_report_footer)
    assert len(rec["details"]["footer"]) == 4
