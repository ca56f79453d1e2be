"""The README's copy of each experiment kind's declaration matches `EXPERIMENTS`."""

from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from splab.harness import EXPERIMENTS

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| kind | config key | flag | type | default |"


def readme_options_table() -> list[list[str]]:
    lines = README.read_text().splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its separator
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _type(hint, choices) -> str:
    if choices:
        return f"{hint.__name__}: {', '.join(choices)}"
    if get_origin(hint) is tuple:
        return f"list of {get_args(hint)[0].__name__}"
    return hint.__name__


def _default(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def declared_options_table() -> list[list[str]]:
    rows = []
    for kind, (cls, _) in EXPERIMENTS.items():
        hints = get_type_hints(cls)
        for i, f in enumerate(fields(cls)):
            assert f.default is not MISSING, f"{kind}.{f.name} has no default"
            flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            if hints[f.name] is bool:
                flag = f"{flag}`, `--no-{flag[2:]}"
            rows.append([
                f"`{kind}`" if i == 0 else "",
                f"`{f.name}`",
                f"`{flag}`",
                _type(hints[f.name], f.metadata.get("choices")),
                f"`{_default(f.default)}`",
            ])
    return rows


def test_readme_options_table_matches_experiments():
    readme = readme_options_table()
    declared = declared_options_table()
    assert len(readme) == len(declared) == 30
    for got, expected in zip(readme, declared):
        assert got == expected
