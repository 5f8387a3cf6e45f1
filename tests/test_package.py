import importlib.util
import sys
from pathlib import Path

import anisoradon
import anisoradon.cli
import anisoradon.numerics

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" \
    / "layertrace.py"


def test_every_exported_name_resolves():
    for module in (anisoradon, anisoradon.numerics):
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_benchmark_trace_targets_resolve():
    # the benchmark's layer trace wraps functions by module and name; a
    # deleted or renamed target would drop its per-layer metrics
    name = "_layertrace_under_test"
    spec = importlib.util.spec_from_file_location(name, LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    sys.modules[name] = layertrace
    try:
        spec.loader.exec_module(layertrace)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            assert [(t.module, t.attr) for t in tracer.missing] == []
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[name]
