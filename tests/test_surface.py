"""No definition in src/splab may be reached only from the tests.

A top-level function, class or non-dunder method of a top-level class
must be named somewhere outside its own definition in src/splab, in
perfbench/*.py or in scripts/.  A name is a Name or Attribute node, an
imported name, or a string constant that is a dotted identifier (the
perfbench tracer names its targets by such strings); docstrings do not
count.  Code that only the tests call is a second implementation to keep
in step, so it belongs in the tests or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "splab"
# a re-export from the package __init__ is not a use
PRODUCTION = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") \
    + sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_][\w.]*")

# definitions that only tests call, each kept for the reason given
ALLOWED = {
    "restricted_diffeo_check": "acceptance criterion 9 checks the small-shift diffeomorphism with it",
    "Region.from_box": "the box-region energy tests build their regions with it",
    "Region.without": "the reference that the EnergyPlan drop tests compare against",
}


def references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every name a module mentions, docstrings left out."""
    tree = ast.parse(path.read_text())
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and DOTTED.fullmatch(node.value)):
            names = node.value.split(".")
        else:
            continue
        out.extend((name, getattr(node, "lineno", 0)) for name in names)
    return out


def definitions(path: Path):
    """(key, name, node) of the top-level functions and classes and their non-dunder methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def test_no_definition_is_reached_only_from_tests():
    refs = {path: references(path) for path in PRODUCTION}
    unreached, defined = [], set()
    for path in sorted(SRC.glob("*.py")):
        for key, name, node in definitions(path):
            defined.add(key)
            inside = range(node.lineno, node.end_lineno + 1)
            if key not in ALLOWED and not any(
                n == name and not (p == path and line in inside) for p in PRODUCTION for n, line in refs[p]
            ):
                unreached.append(f"{path.name}: {key}")
    assert not unreached, "used by tests only, or not at all: " + ", ".join(unreached)
    assert set(ALLOWED) <= defined


def test_reach_script_names_no_definition_but_main():
    # scripts/reach.py lists the definitions that no run reaches; a name it
    # mentions would count as a use here and hide that definition
    defined = {name for path in SRC.glob("*.py") for _, name, _ in definitions(path)}
    named = {name for name, _ in references(ROOT / "scripts" / "reach.py")}
    assert named & defined == {"main"}
