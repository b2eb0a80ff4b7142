import ast
from importlib import import_module
from pathlib import Path

import pytest

import hdcode

# Modules depend in one direction: codebook -> search/oracle/linksim ->
# metrics -> cli.  Each module may import from these hdcode modules only.
ALLOWED = {
    "codebook": set(),
    "search": {"codebook"},
    "oracle": {"codebook"},
    "linksim": {"codebook"},
    "metrics": {"codebook", "linksim"},
    "cli": {"codebook", "metrics", "oracle", "search"},
}
EXEMPT = {"__init__", "__main__"}
# names the package no longer exports: helpers only the tests used, and the
# Monte Carlo result type that simulate_bler's error count replaced
UNEXPORTED = ("mutate", "encode", "ml_decode", "GenerationRecord", "Population", "stop_check",
              "parent_probabilities", "SelectionDecision", "BlerEstimate")
# the text of a refusal of an integer parameter that is not an integer, lies below
# its floor or above its ceiling, as a hand-written check would phrase it
INTEGER_REFUSALS = ("must be an integer", "must be >= ", "nonnegative integer", "2**64", "2**{",
                    "must be in [", "must satisfy 0 <", "does not fit in n=", "out of range for n=")


def relative_imports(path):
    """Sibling modules a source file imports, by `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_in_dependency_order():
    sources = {p.stem: p for p in Path(hdcode.__file__).parent.glob("*.py")}
    assert set(sources) - EXEMPT == set(ALLOWED)
    for name, allowed in ALLOWED.items():
        extra = relative_imports(sources[name]) - allowed
        assert not extra, f"{name} imports {sorted(extra)} against the dependency order"


def test_exports_resolve_to_their_defining_module():
    for name in hdcode.__all__:
        source = import_module(f"hdcode.{hdcode._MODULE_OF[name]}")
        value = getattr(hdcode, name)
        assert value is getattr(source, name)
        assert getattr(value, "__module__", source.__name__) == source.__name__, name
    for name in UNEXPORTED:
        assert name not in hdcode.__all__
        with pytest.raises(AttributeError):
            getattr(hdcode, name)


def test_integer_refusals_come_from_one_helper():
    """Every ValueError or CodebookFormatError that refuses an integer parameter is
    raised by codebook._integer."""
    raisers = set()
    for path in Path(hdcode.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) in ("ValueError",
                                                                    "CodebookFormatError")
                        and any(text in ast.unparse(node.exc) for text in INTEGER_REFUSALS)):
                    raisers.add((path.stem, func.name))
    assert raisers == {("codebook", "_integer")}


def test_only_codebook_declares_a_book_s_state():
    """No module reads or writes an object's attribute dict through vars(), and
    object.__setattr__ sets attributes of the object whose method calls it."""
    for path in Path(hdcode.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            assert getattr(node.func, "id", None) != "vars", f"{path.stem}: {ast.unparse(node)}"
            if ast.unparse(node.func) == "object.__setattr__":
                assert getattr(node.args[0], "id", None) == "self", (
                    f"{path.stem}: {ast.unparse(node)}"
                )
