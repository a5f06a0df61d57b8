"""CI's gates are the functions of ``tests/gates.py``, and the workflow only
calls them.  Nothing here runs a gate: the workflow is read as text (the
suite has no YAML parser), and the module is only imported."""

import importlib
import re
from pathlib import Path

import pytest

import rankwalk.certificate
import rankwalk.lp
import rankwalk.woa

import gates

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_calls_each_gate_once_and_runs_no_inline_program():
    text = WORKFLOW.read_text()
    called = re.findall(r"^ +run: (?:PYTHONPATH=\S+ )?python tests/gates\.py (\S+)$", text, re.MULTILINE)
    assert text.count("tests/gates.py") == len(called)  # each call is a step's whole run line
    assert sorted(called) == sorted(gates.GATES)
    assert "<<" not in text and "python -c" not in text


def test_importing_the_gates_installs_no_spy():
    spied = [(rankwalk.woa, "_descent_search"), (rankwalk.certificate, "_solve_by_dual"),
             (rankwalk.lp, "_from_rows")]
    before = [getattr(module, name) for module, name in spied]
    importlib.reload(gates)
    assert [getattr(module, name) for module, name in spied] == before


@pytest.mark.parametrize("argv", [[], ["no-such-gate"], ["oracle", "walk"]])
def test_a_missing_or_unknown_gate_name_exits_nonzero_and_lists_the_names(capsys, argv):
    assert gates.main(argv) == 2
    assert ", ".join(gates.GATES) in capsys.readouterr().err


def test_code_lines_count_neither_docstrings_nor_comments_nor_blank_lines():
    text = '''"""A module
docstring."""

import math  # a comment


def f(x):
    """One line."""
    # a comment alone
    return math.sqrt(
        x)
'''
    assert gates.code_lines(text) == 4
