"""Every morpheq name the benchmark reads resolves, found without importing it.

bench/run.py loads the modules it lists in MODULES into one namespace, m,
and bench/workloads.py reads names off it as m.<module>.<name> or patches
them through wrapped(m.<module>, "<name>", ...).  A name moved out of a
module, or a call that no longer fits its callee's parameters, breaks the
benchmark only when it runs, so this test reads both files with ast, looks
each name up in morpheq and binds each direct call to its callee.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"


def _parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _modules() -> tuple[str, ...]:
    for node in _parse("run.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no MODULES")


def _module_of(node: ast.AST, modules) -> str | None:
    """The module of an m.<module> expression, or None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "m"
        and node.attr in modules
    ):
        return node.attr
    return None


def benchmark_names() -> set[tuple[str, str]]:
    modules = _modules()
    names = set()
    for file in ("workloads.py", "run.py"):
        for node in ast.walk(_parse(file)):
            if isinstance(node, ast.Attribute):
                module = _module_of(node.value, modules)
                if module is not None:
                    names.add((module, node.attr))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "wrapped"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                module = _module_of(node.args[0], modules)
                if module is not None:
                    names.add((module, node.args[1].value))
    return names


def test_every_name_the_benchmark_reads_resolves():
    names = benchmark_names()
    assert len(names) >= 27
    missing = sorted(
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"morpheq.{module}"), name)
    )
    assert missing == []


def benchmark_calls() -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Each direct m.<module>.<name>(...) call: module, name, positional count, keywords."""
    modules = _modules()
    calls = []
    for file in ("workloads.py", "run.py"):
        for node in ast.walk(_parse(file)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                module = _module_of(node.func.value, modules)
                if module is not None:
                    assert not any(isinstance(a, ast.Starred) for a in node.args)
                    keywords = tuple(k.arg for k in node.keywords)
                    assert None not in keywords
                    calls.append((module, node.func.attr, len(node.args), keywords))
    return calls


def test_every_call_the_benchmark_makes_binds():
    calls = benchmark_calls()
    assert len(calls) >= 29
    unbound = []
    for module, name, positional, keywords in calls:
        callee = getattr(importlib.import_module(f"morpheq.{module}"), name)
        try:
            inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"{module}.{name}: {err}")
    assert unbound == []
