"""The README matches the code: each experiment kind's declaration matches `EXPERIMENTS`, and
every code name it cites is defined in `src/splab`."""

import re
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from splab.config import RunConfig
from splab.harness import EXPERIMENTS

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "splab"
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


EXTERNAL = ("np.", "numpy.", "math.", "os.")  # prefixes of names defined outside splab
# an environment variable, and the config keys the README lists as rejected since
NOT_CODE = {"SPL_WORKERS", "node_budget", "xi_side", "selftest_samples"}
FILE_NAME = re.compile(r".*\.(?:py|json|md|svg|csv)")


def defines(text: str, name: str) -> bool:
    """Whether ``text`` defines ``name``: a def, a class, an assignment, an annotation or a parameter."""
    return re.search(rf"\b(?:def|class)\s+{name}\b|(?:^|self\.|[(,])\s*\**{name}\s*(?:[:=,)]|$)",
                     text, re.MULTILINE) is not None


def config_keys() -> set[str]:
    keys = {f.name for f in fields(RunConfig)}
    for cls, _ in EXPERIMENTS.values():
        keys |= {f.name for f in fields(cls)}
    return keys


def code_names(text: str) -> list[str]:
    """Code names in the backticks of markdown ``text``: ``Class.attr``, ``module.attr`` of a
    splab module, leading-underscore names, UPPER_CASE constants and snake_case names that are
    not config keys, each without a call's arguments."""
    modules, keys = {path.stem for path in SOURCE.glob("*.py")}, config_keys()
    names = []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL)):
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(?:\(.*\))?", span, re.DOTALL)
        if match is None or match[1].startswith(EXTERNAL) or match[1] in NOT_CODE \
                or FILE_NAME.fullmatch(match[1]):
            continue
        name = match[1]
        head, _, attr = name.partition(".")
        if attr:
            if "." not in attr and (head[0].isupper() or head in modules):
                names.append(name)
        elif name.startswith("_") or re.fullmatch(r"[A-Z][A-Z0-9]*_[A-Z0-9_]+|[A-Z]{2,}", name) \
                or ("_" in name and name.islower() and name not in keys):
            names.append(name)
    return names


def undefined_names(text: str) -> list[str]:
    """The code names of ``text`` that no module of `src/splab` defines."""
    sources = {path.stem: path.read_text() for path in SOURCE.glob("*.py")}
    everything = "\n".join(sources.values())
    missing = []
    for name in code_names(text):
        head, _, attr = name.partition(".")
        if not attr:
            found = name in sources or defines(everything, name)
        elif head in sources:
            found = defines(sources[head], attr)
        else:  # Class.attr: the file that defines the class defines the attribute
            found = any(defines(src, head) and defines(src, attr) for src in sources.values())
        if not found:
            missing.append(name)
    return missing


def test_readme_code_names_are_defined():
    readme = README.read_text()
    assert {"LatticeCounts.kernels", "_pairsum.LatticeCounts", "_root_power", "INLINE_WORK",
            "class_kernel"} <= set(code_names(readme))
    assert undefined_names(readme) == []
    stale = ("`LatticeCounts.template_kernels`, `template_kernels`, `_half_power` and "
             "`_pairsum.SKIP_RULE`, beside `np.power`, `harness.py`, `n_max` and `SPL_WORKERS`")
    assert undefined_names(stale) == ["LatticeCounts.template_kernels", "template_kernels",
                                      "_half_power", "_pairsum.SKIP_RULE"]
