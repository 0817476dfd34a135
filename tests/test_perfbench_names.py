import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    # The benchmark's tracer rebinds these library names; one that is renamed
    # or removed breaks every benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    missing = [(module, attr) for module, attr, *_ in tracer.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
