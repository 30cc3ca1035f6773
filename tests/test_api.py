"""The public surface: every exported name resolves, and the benchmark's
tracer wraps and unwraps a fresh import of the package."""

import importlib
import sys
from pathlib import Path

import esym

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in esym.__all__ if not hasattr(esym, name)]
    assert missing == []


def test_bench_tracer_installs_on_a_fresh_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "esym" or name.startswith("esym.")}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("esym")
        importlib.import_module("esym.cli")
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        for name in [m for m in sys.modules if m == "esym" or m.startswith("esym.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        for name in ("tracing", "checks"):
            sys.modules.pop(name, None)
