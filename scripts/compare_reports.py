#!/usr/bin/env python3
"""Compare two report directories file by file.

    python scripts/compare_reports.py DIR_A DIR_B
    python scripts/compare_reports.py --numbers A B

Exits 0 when both directories hold the same file names and every file is
equal, apart from the JSON ``"timestamp"`` lines.  Otherwise it prints the
name of each file that differs or that only one directory holds, and
exits 1.

With ``--numbers`` it reads the JSON reports of A and B (each a report
directory or a snapshot file of `report_numbers`) and prints, per report,
the largest relative change of a number and where it is.  A string,
verdict, key or list length that differs, or a report that only one side
holds, counts as an infinite change.  It exits 1 when a change exceeds
``REPORT_RTOL``, else 0.  ``scripts/acceptance_numbers.json`` is such a
snapshot of ``spl suite --config scripts/acceptance.json``:

    python scripts/compare_reports.py --numbers scripts/acceptance_numbers.json reports
"""

import json
import math
import sys
from pathlib import Path

REPORT_RTOL = 1e-12  # largest relative change of a report number that `--numbers` accepts


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        return b"\n".join(line for line in data.splitlines() if b'"timestamp"' not in line)
    return data


def differing_files(dir_a, dir_b) -> list[str]:
    """Sorted names of the files that differ between two directories or that one lacks."""
    a, b = Path(dir_a), Path(dir_b)
    names_a, names_b = {p.name for p in a.iterdir()}, {p.name for p in b.iterdir()}
    changed = {n for n in names_a & names_b if _content(a / n) != _content(b / n)}
    return sorted((names_a ^ names_b) | changed)


def report_numbers(path) -> dict:
    """{file name: report without its timestamp} of a report directory's JSON files, or of a
    snapshot file holding that dict."""
    path = Path(path)
    if path.is_file():
        return json.loads(path.read_text())
    reports = {}
    for file in sorted(path.glob("*.json")):
        report = json.loads(file.read_text())
        report.pop("timestamp", None)
        reports[file.name] = report
    return reports


def _changes(a, b, where=""):
    """(path, relative change) of each number of two JSON values, inf where anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _changes(a[key], b[key], f"{where}.{key}" if where else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _changes(x, y, f"{where}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            yield where, 0.0
        else:
            change = abs(a - b) / max(abs(a), abs(b))
            yield where, math.inf if math.isnan(change) else change
    else:
        yield where, 0.0 if a == b and type(a) is type(b) else math.inf


def largest_changes(a: dict, b: dict) -> dict[str, tuple[float, str]]:
    """{report name: (largest relative change, its path or '')} between two `report_numbers` dicts."""
    out = {}
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            out[name] = math.inf, "(one side only)"
        else:
            change, where = max(((c, w) for w, c in _changes(a[name], b[name])), default=(0.0, ""))
            out[name] = change, where if change else ""
    return out


def main(argv: list[str]) -> int:
    numbers = argv[:1] == ["--numbers"]
    if len(argv) != 2 + numbers:
        print("usage: compare_reports.py [--numbers] A B", file=sys.stderr)
        return 2
    if numbers:
        changes = largest_changes(*map(report_numbers, argv[1:]))
        for name, (change, where) in changes.items():
            print(f"{name}\t{change:.3g}\t{where}")
        return 1 if max((change for change, _ in changes.values()), default=0.0) > REPORT_RTOL else 0
    differ = differing_files(*argv)
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
