"""The library stays within its line budget: the same behaviour from no
more code than the 3,295 lines of src/nkt/*.py it was measured at."""

from pathlib import Path

BASELINE_LINES = 3295


def test_library_stays_within_the_line_baseline():
    package = Path(__file__).resolve().parent.parent / "src" / "nkt"
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= BASELINE_LINES, f"src/nkt/*.py has {lines} lines"
