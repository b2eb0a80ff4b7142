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
# the text of a refusal of a count or seed that is not an integer, lies below
# its floor or does not fit its bits
INTEGER_REFUSALS = ("must be an integer", "must be >= ", "nonnegative integer", "2**64", "2**{")


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
    """Every ValueError that refuses a count or seed is raised by codebook._integer."""
    raisers = set()
    for path in Path(hdcode.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "ValueError"
                        and any(text in ast.unparse(node.exc) for text in INTEGER_REFUSALS)):
                    raisers.add((path.stem, func.name))
    assert raisers == {("codebook", "_integer")}
