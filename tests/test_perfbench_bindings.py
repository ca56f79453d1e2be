"""The splab names that the benchmark under perfbench/ binds.

The tier-1 suite does not collect perfbench/, so a change to splab that
breaks the benchmark would pass it unnoticed.  These tests read the
benchmark's source files and import what they name; they change nothing
under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
USERS = ("workloads.py", "probe.py", "test_perfbench.py")


def resolve(dotted: str):
    """The object a dotted path names: its longest importable module, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def tracer_targets() -> tuple:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _chain(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None if it is not a plain name chain."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        inner = _chain(node.value)
        return None if inner is None else inner + [node.attr]
    return None


def splab_names(source: str) -> set[str]:
    """Dotted splab paths a module imports or reads through an imported splab name."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "splab":
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "splab":
                    aliases[a.asname or "splab"] = a.name if a.asname else "splab"
    names = set(aliases.values())
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            names.add(".".join([aliases[chain[0]]] + chain[1:]))
    return names


@pytest.mark.parametrize("target", tracer_targets(), ids=lambda t: f"{t[1]}.{t[2]}")
def test_tracer_target_resolves(target):
    _, owner, path, consumers = target
    module = importlib.import_module(owner)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))  # the tracer wraps the class attribute
        return
    original = getattr(module, path)
    for consumer in consumers or ():
        assert getattr(importlib.import_module(consumer), path) is original


def test_pair_kernel_sum_is_bound_where_the_tracer_wraps_it():
    # perfbench/test_perfbench.py checks these bindings are wrapped
    from splab import _pairsum, energy

    assert energy.pair_kernel_sum is _pairsum.pair_kernel_sum


@pytest.mark.parametrize("user", USERS)
def test_perfbench_splab_names_resolve(user):
    names = splab_names((PERFBENCH / user).read_text())
    assert names
    for name in sorted(names):
        resolve(name)
