import ast
import importlib.util
import sys
from pathlib import Path

import anisoradon
import anisoradon.cli
import anisoradon.numerics

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


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


def test_no_private_cross_module_imports():
    # a module that needs another module's private name should get it made
    # public, or the code should move
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "anisoradon"):
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {a.name}"
                      for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    assert found == []


def test_memory_is_refused_in_one_check():
    # a run too large for memory is refused by the byte account of a pass,
    # or by _circulant's own cap; no second memory check grows beside them
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and "MemoryError" in ast.unparse(node.exc)]
    assert sorted(found) == [("operators.py", "_circulant"),
                             ("operators.py", "pass_account")]


def test_weight_sums_enter_arithmetic_only_in_exponents():
    # what the paper predicts is decided in exponents.py; elsewhere the
    # weight sums are handed to its functions, never combined into a law
    def is_sums_call(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "weight_sums")

    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "exponents.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {name.id for node in ast.walk(func)
                     if isinstance(node, ast.Assign)
                     and is_sums_call(node.value)
                     for target in node.targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)}
            found += [f"{path.name}:{node.lineno} {func.name}"
                      for node in ast.walk(func)
                      if isinstance(node, (ast.BinOp, ast.UnaryOp))
                      and any(is_sums_call(n) or isinstance(n, ast.Name)
                              and n.id in bound for n in ast.walk(node))]
    assert found == []
