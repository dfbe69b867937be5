"""Rules on the package source: it may not grow past its baseline, and its
runtime checks may not rely on `assert`, which `python -O` strips out."""

import ast
from pathlib import Path

# lines in src/gradedmt/*.py, lowered to the count of the last change that shrank it
BASELINE_LINES = 4883
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradedmt"


def test_source_size_within_baseline():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= BASELINE_LINES


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
