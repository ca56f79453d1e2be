"""Run configuration: JSON schema and validation.

The schema is strict: unknown keys and wrongly typed values are rejected
with a JSON-pointer path; a free-form "description" string is allowed in
every object.  The keys of each experiment kind are the fields of its
options class in `harness.EXPERIMENTS`, plus an optional report "name".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigurationError
from .harness import EXPERIMENTS, named

# keys every experiment accepts besides the fields of its options class
_COMMON_KEYS = {"name": str, "description": str}


def _typed(value, hint, pointer: str):
    """`value` checked against the type hint `hint`, converted to it."""
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(f"expected a non-empty list at {pointer}, got {value!r}")
        return tuple(_typed(v, get_args(hint)[0], f"{pointer}/{i}") for i, v in enumerate(value))
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"expected {hint.__name__} at {pointer}, got {value!r}")
    try:
        out = hint(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if hint is float and not math.isfinite(out):
        raise ConfigurationError(f"expected a finite number at {pointer}, got {out!r}")
    return out


def _typed_fields(cls, data: dict, pointer: str, extra: dict) -> dict:
    """Keyword arguments of dataclass `cls` from `data`, type-checked per field.

    Keys of `extra` are type-checked against their value but not returned.
    """
    hints = get_type_hints(cls)
    choices = {f.name: f.metadata.get("choices") for f in fields(cls)}
    out = {}
    for key, value in data.items():
        ptr = f"{pointer}/{key}"
        if key in extra:
            _typed(value, extra[key], ptr)
        elif key in hints:
            out[key] = _typed(value, hints[key], ptr)
            if choices[key] and out[key] not in choices[key]:
                raise ConfigurationError(f"expected one of {choices[key]} at {ptr}, got {value!r}")
        else:
            raise ConfigurationError(f"unknown key at {ptr}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    options: dict

    @property
    def name(self) -> str:
        return self.options.get("name", self.kind)

    def spec(self, pointer: str = ""):
        """The typed options of this experiment, checked against its kind's schema and values."""
        if self.kind not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r} at {pointer}/kind")
        cls = EXPERIMENTS[self.kind][0]
        return cls(**_typed_fields(cls, self.options, pointer, _COMMON_KEYS))


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[ExperimentConfig, ...] = ()
    output_dir: str = "reports"
    seed: int = 7
    worker_count: int = 1
    description: str = ""


def validate_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object at /")
    top = _typed_fields(RunConfig, data, "", {"experiments": list})
    experiments = []
    for i, entry in enumerate(data.get("experiments", [])):
        ptr = f"/experiments/{i}"
        if not isinstance(entry, dict):
            raise ConfigurationError(f"expected an object at {ptr}")
        exp = ExperimentConfig(kind=entry.get("kind"),
                               options={k: v for k, v in entry.items() if k != "kind"})
        named(exp.name, lambda: exp.spec(ptr))
        experiments.append(exp)
    cfg = RunConfig(experiments=tuple(experiments), **top)
    if cfg.worker_count < 1:
        raise ConfigurationError("worker_count must be >= 1 at /worker_count")
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {p} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {p}: {exc}") from exc
    return validate_config(data)
