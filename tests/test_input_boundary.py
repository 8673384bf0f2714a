"""One input boundary: every exception nkt defines is an ``InputError``,
which the command line prints as one ``error:`` line, and no handler in the
library is broad enough to turn a bug into such a line."""

import ast
import importlib
from pathlib import Path

from nkt import InputError

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nkt"
_BROAD = {"KeyError", "Exception", "BaseException"}


def test_every_nkt_exception_is_an_input_error():
    modules = [importlib.import_module(f"nkt.{path.stem}")
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("nkt")}
    assert len(classes) >= 16, sorted(c.__name__ for c in classes)
    assert sorted(c.__name__ for c in classes if not issubclass(c, InputError)) == []


def _caught_names(handler: ast.ExceptHandler) -> set:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(t, "id", getattr(t, "attr", None)) for t in types}


def test_no_handler_in_the_library_catches_broadly():
    # a bare except, or one naming KeyError, Exception or BaseException
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ExceptHandler)
             and (node.type is None or _caught_names(node) & _BROAD)]
    assert found == []
