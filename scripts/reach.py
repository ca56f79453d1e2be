#!/usr/bin/env python3
"""Print the definitions of src/splab that no run of `spl` reaches.

Runs `spl suite --config scripts/acceptance.json`, small runs of every
experiment kind, one per route the kind selects, and runs that a budget
refuses, all into a temporary directory, with a trace function on every
thread that records each code object called; splab is imported under the
trace, so its import-time calls count.  Then prints, one per line, every
top-level function and non-dunder method of a top-level class in
src/splab whose code never ran: the definitions that
tests/test_surface.py counts.  Standard library only; it takes about
12 s on 2 cores.

    PYTHONPATH=src python scripts/reach.py

The script names no splab definition but `cli.main`, since
tests/test_surface.py counts the names in scripts/ as uses.
"""

import contextlib
import importlib
import inspect
import io
import sys
import tempfile
import threading
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parent / "acceptance.json"
# (argv, exit code): the acceptance suite, one small run per route of each kind, a refused run
RUNS = [(["suite", "--config", str(ACCEPTANCE)], 0)] + [(line.split(), 0) for line in (
    "seminorm --map indicator1d --spacing 0.01",
    "seminorm --map identity2d --s 0.3 --p 2.5 --spacing 0.1",
    "seminorm --map bump1d --s 0.3 --spacing 0.01",
    "averaging --p 2 --spacing 0.1 --n-mc 100",
    "averaging --p 1.5 --spacing 0.1 --n-mc 100",
    "averaging --p 1.5 --spacing 0.1 --n-mc 100 --no-refine",
    "patch --n-values 1,2 --shifts 4",
    "layer --n 1 --workers 1",
    "layer --s 0.95 --p 1.5 --n 2",
    "geometry --lemma geom1 --samples 2000 --n-max 3",
    "geometry --lemma geom2 --ell 3 --samples 2000 --n-max 3",
    "threshold --n-max 3",
    "almost --n-max 4",
)] + [("layer --n 3".split(), 2)]  # the pair budget refuses it


def _function(attr):
    """The function behind a class attribute: itself, or a property's, cached property's or static method's."""
    for inner in (attr, getattr(attr, "fget", None), getattr(attr, "func", None), getattr(attr, "__func__", None)):
        if inspect.isfunction(inner):
            return inner
    return None


def definitions():
    """(file, qualified name, code) of each top-level function and non-dunder class method of splab."""
    for path in sorted(Path(importlib.import_module("splab").__file__).parent.glob("*.py")):
        module = importlib.import_module(f"splab.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for key, attr in members:
                fn = _function(attr)
                if (fn is not None and fn.__code__.co_filename == module.__file__
                        and not (key.startswith("__") and key.endswith("__"))):
                    yield f"{path.stem}.py", fn.__qualname__, fn.__code__


def traced(runs) -> set:
    """The code objects called while splab is imported and `cli.main` runs each argv of ``runs``.

    SystemExit unless each run ends with its exit code.
    """
    ran = set()

    def tracer(frame, event, arg):
        ran.add(frame.f_code)  # a global trace function sees only the calls

    sys.settrace(tracer)
    threading.settrace(tracer)  # the pair-sum worker threads start after this
    try:
        from splab.cli import main

        with tempfile.TemporaryDirectory() as out:
            for argv, expected in runs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([*argv, "--out", out])
                if code != expected:
                    raise SystemExit(f"spl {' '.join(argv)}: exit {code}, expected {expected}\n{err.getvalue()}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


if __name__ == "__main__":
    ran = traced(RUNS)
    for file, qualname, code in sorted(definitions()):
        if code not in ran:
            print(f"{file}: {qualname}")
