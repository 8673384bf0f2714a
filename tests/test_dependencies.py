"""The library has no runtime dependencies: every import in src/nkt/*.py
names nkt itself or a module of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nkt"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "nkt" if node.level else node.module.split(".")[0]


def test_library_imports_only_itself_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"nkt"}
    imports = {(path.name, root) for path in sorted(PACKAGE.glob("*.py"))
               for root in _imported_roots(path)}
    assert ("scalar_algebra.py", "fractions") in imports
    assert sorted(x for x in imports if x[1] not in allowed) == []
