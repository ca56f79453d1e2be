#!/usr/bin/env python3
"""Compare two report directories file by file.

    python scripts/compare_reports.py DIR_A DIR_B

Exits 0 when both directories hold the same file names and every file is
equal, apart from the JSON ``"timestamp"`` lines.  Otherwise it prints the
name of each file that differs or that only one directory holds, and
exits 1.
"""

import sys
from pathlib import Path


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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    differ = differing_files(*argv)
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
