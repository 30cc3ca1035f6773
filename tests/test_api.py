"""The public surface: every exported name resolves, and the benchmark's
tracer wraps and unwraps a fresh import of the package and sees each layer
of a CLI run."""

import importlib
import sys
from pathlib import Path

import esym

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in esym.__all__ if not hasattr(esym, name)]
    assert missing == []


def test_bench_tracer_installs_on_a_fresh_import(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "esym" or name.startswith("esym.")}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("esym")
        cli = importlib.import_module("esym.cli")
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.start_job("cli")
            assert cli.main(["formula", "peel", "--field", "gf(5)", "--dprime", "3",
                             "--formula", "(x1 + x2*x3) * (x2 + x1*x3) * x3 + x1*x2"]) == 0
            assert cli.main(["border", "demo", "--field", "gf(4)", "--target", "x1*x2"]) == 0
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
