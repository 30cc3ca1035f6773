"""The public surface: every exported name resolves, no module imports a
name it never uses, and the benchmark's tracer wraps and unwraps a fresh
import of the package and sees each layer of a CLI run."""

import ast
import importlib
import sys
from pathlib import Path

import esym

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "esym"


def test_every_exported_name_resolves():
    missing = [name for name in esym.__all__ if not hasattr(esym, name)]
    assert missing == []


def test_linear_form_keeps_no_algebra_of_its_own():
    # a LinearForm is a degree-1 Polynomial: arithmetic, equality, hash,
    # evaluate, map_field and str are all Polynomial's
    own = set(vars(esym.LinearForm)) - {"__firstlineno__", "__static_attributes__"}
    assert own == {"__init__", "from_polynomial", "coefficients", "to_polynomial",
                   "__repr__", "__slots__", "__doc__", "__module__"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_has_teeth():
    source = "import os.path\nfrom math import comb, gcd as g\nprint(comb, g)\n"
    assert unused_imports(source) == ["os (line 1)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def key_layout_names(source: str) -> list[str]:
    """The packed-key layout names, WIDTH and _MASK, that a module imports
    or reads as an attribute."""
    layout, found = {"WIDTH", "_MASK"}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= layout & {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and node.attr in layout:
            found.add(node.attr)
    return sorted(found)


def test_only_poly_and_border_read_the_packed_key_layout():
    # poly.py owns the layout; border.py shifts keys up one field for its
    # eps-powers.  Every other module reads keys through poly's helpers
    assert key_layout_names("from .poly import WIDTH as W, Polynomial\nimport esym.poly\n"
                            "print(esym.poly._MASK)\n") == ["WIDTH", "_MASK"]
    found = {path.name: key_layout_names(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "border.py": ["WIDTH", "_MASK"]}


def test_bench_tracer_installs_on_a_fresh_import(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "esym" or name.startswith("esym.")}
    for name in saved:
        del sys.modules[name]
    try:
        fresh = importlib.import_module("esym")
        cli = importlib.import_module("esym.cli")
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.start_job("cli")
            assert cli.main(["formula", "peel", "--field", "gf(5)", "--dprime", "3",
                             "--formula", "(x1 + x2*x3) * (x2 + x1*x3) * x3 + x1*x2"]) == 0
            assert cli.main(["border", "demo", "--field", "gf(4)", "--target", "x1*x2"]) == 0
            # peel_decompose calls neither find_degree_vertex nor
            # replace_with_constant, so both are called here
            phi = fresh.parse_formula("(x1 + x2*x3) * x3", fresh.make_field("gf(5)"))
            fresh.replace_with_constant(phi, fresh.find_degree_vertex(phi, 1), 0)
            tracer.stop_job()
        finally:
            tracer.uninstall()
        capsys.readouterr()
        # a layer routed around the public function the tracer wraps reads 0
        for key in ("formula.peel", "formula.find_vertex", "formula.replace",
                    "border.kumar", "border.extract", "poly.mul", "cli.main"):
            assert tracer.counts[key] > 0, key
    finally:
        for name in [m for m in sys.modules if m == "esym" or m.startswith("esym.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        for name in ("tracing", "checks"):
            sys.modules.pop(name, None)
