"""The library has no runtime dependencies: every import in src/nkt/*.py
names nkt itself or a module of the standard library.  Importing the CLI
loads no module that only some commands need."""

import ast
import subprocess
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


def _fresh_import(statement):
    """The modules `statement` adds to sys.modules in a fresh interpreter
    that skips site, with src/ on sys.path."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            f"before = set(sys.modules); {statement}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True)
    return set(run.stdout.split())


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    added = _fresh_import("import nkt.cli")
    assert "nkt.cli" in added
    assert added & {"dataclasses", "inspect", "json"} == set()


def test_fractions_already_loads_re():
    # so the expression scanner's `import re` adds no module to `import nkt`
    assert "re" in _fresh_import("import fractions")


def test_package_import_loads_every_layer():
    # bench/tracer.py wraps functions of all four layers right after `import nkt`
    layers = {"nkt.scalar_algebra", "nkt.frame_geometry", "nkt.t_tensor", "nkt.classification"}
    assert layers <= _fresh_import("import nkt")
