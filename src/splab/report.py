"""Experiment reports and their CSV / JSON / SVG serializations.

All output is byte-deterministic for identical inputs: floats use the
shortest round-trip decimal representation, JSON keys are ordered, and
the SVG plots are hand-rolled polylines with no external dependency.
The timestamp lives in a single JSON field and nowhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericalError, OutputError

CSV_COLUMNS = ("n_or_eps", "upper", "lower", "ratio", "log2_ratio", "slope", "verdict")


@dataclass
class AssertionResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ExperimentReport:
    """One experiment's rows, constants, and assertion outcomes."""

    name: str
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    scheme: str = ""
    timestamp: str = ""

    def add_row(self, n_or_eps, upper=None, lower=None, slope=None, verdict="", **extra):
        ratio = None
        log2_ratio = None
        if upper is not None and lower is not None and upper > 0:
            ratio = lower / upper
            log2_ratio = math.log2(ratio) if ratio > 0 else float("-inf")
        row = {
            "n_or_eps": n_or_eps,
            "upper": upper,
            "lower": lower,
            "ratio": ratio,
            "log2_ratio": log2_ratio,
            "slope": slope,
            "verdict": verdict,
        }
        row.update(extra)
        self.rows.append(row)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.assertions.append(AssertionResult(name, bool(passed), detail))
        return bool(passed)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def validate(self):
        """NumericalError at a non-finite number; ConfigurationError at a row whose ratio is not lower/upper."""
        for section in ("params", "rows", "constants"):
            key = _non_finite(getattr(self, section), section)
            if key is not None:
                raise NumericalError(f"report {self.name!r}: {key} is not a finite number")
        for i, row in enumerate(self.rows):
            up, lo, ratio = row.get("upper"), row.get("lower"), row.get("ratio")
            if up is not None and lo is not None and ratio is not None and up > 0:
                if abs(ratio - lo / up) > 1e-12 * max(1.0, abs(ratio)):
                    raise ConfigurationError(f"row {i}: stored ratio disagrees with lower/upper")


def _non_finite(value, key: str) -> str | None:
    """The key of the first NaN or infinity in ``value`` (nested dicts, lists and tuples), or None."""
    if isinstance(value, dict):
        items = [(f"{key}.{k}", v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{key}[{i}]", v) for i, v in enumerate(value)]
    else:
        return key if isinstance(value, (float, np.floating)) and not math.isfinite(value) else None
    return next((bad for k, v in items if (bad := _non_finite(v, k)) is not None), None)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def to_csv(report: ExperimentReport) -> str:
    report.validate()
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def to_json(report: ExperimentReport) -> str:
    report.validate()
    payload = {
        "name": report.name,
        "params": report.params,
        "rows": report.rows,
        "constants": report.constants,
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail} for a in report.assertions
        ],
        "scheme": report.scheme,
        "timestamp": report.timestamp,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def to_svg(report: ExperimentReport) -> str:
    """Line plot of log2-ratio against the row index variable."""
    width, height, margin = 480, 320, 48
    pts = [
        (float(r["n_or_eps"]), float(r["log2_ratio"]))
        for r in report.rows
        if r.get("log2_ratio") is not None and math.isfinite(r.get("log2_ratio", float("nan")))
    ]
    body = []
    body.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">')
    body.append('<rect width="100%" height="100%" fill="white"/>')
    body.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>'
    )
    body.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>')
    body.append(
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">n</text>'
    )
    body.append(
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">log2 ratio</text>'
    )
    body.append(
        f'<text x="{width // 2}" y="24" font-size="13" text-anchor="middle">{report.name}</text>'
    )
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1
        if y1 == y0:
            y1 = y0 + 1
        sx = (width - 2 * margin) / (x1 - x0)
        sy = (height - 2 * margin) / (y1 - y0)
        scaled = [
            (margin + (x - x0) * sx, height - margin - (y - y0) * sy) for x, y in pts
        ]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in scaled)
        body.append(f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{coords}"/>')
        for (px, py), (x, y) in zip(scaled, pts):
            body.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="black"/>')
        body.append(
            f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{_fmt(x0)}</text>'
        )
        body.append(
            f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" text-anchor="end">{_fmt(x1)}</text>'
        )
        body.append(f'<text x="{margin - 4}" y="{height - margin}" font-size="10" text-anchor="end">{_fmt(round(y0, 4))}</text>')
        body.append(f'<text x="{margin - 4}" y="{margin + 4}" font-size="10" text-anchor="end">{_fmt(round(y1, 4))}</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


FORMATS = ("csv", "json", "svg")


def emit_report(report: ExperimentReport, out_dir, formats=FORMATS, stem=None) -> list[str]:
    """Write the requested serializations once the report validates; returns the written paths."""
    report.validate()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    stem = stem or report.name
    written = []
    try:
        if "csv" in formats:
            p = out / f"{stem}.csv"
            p.write_text(to_csv(report))
            written.append(str(p))
        if "json" in formats:
            p = out / f"{stem}.json"
            p.write_text(to_json(report))
            written.append(str(p))
        if "svg" in formats:
            p = out / f"{stem}.svg"
            p.write_text(to_svg(report))
            written.append(str(p))
    except OSError as exc:
        raise OutputError(f"cannot write report files under {out}: {exc}") from exc
    return written
