"""Source size is a tracked metric: the package may not grow past its baseline."""

from pathlib import Path

# lines in src/gradedmt/*.py, lowered to the count of the last change that shrank it
BASELINE_LINES = 5089


def test_source_size_within_baseline():
    package = Path(__file__).resolve().parents[1] / "src" / "gradedmt"
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= BASELINE_LINES
