"""Command-line surface: one subcommand per experiment plus `suite`.

Exit codes: 0 all assertions pass, 1 an experiment assertion failed,
2 configuration error, 3 IO error.  The SPL_WORKERS environment variable
overrides the configured worker count.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import fields, replace
from typing import get_args, get_origin, get_type_hints

from .config import ExperimentConfig, RunConfig, load_config
from .errors import ConfigurationError, SplabError
from .harness import EXPERIMENTS, run_suite
from .report import FORMATS, ExperimentReport, emit_report


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", default=None, help="output directory for reports")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--formats", default=",".join(FORMATS))
    sub.add_argument("--name", default=None)


def _list_of(item):
    def parse(text: str) -> tuple:
        return tuple(item(tok) for tok in text.split(",") if tok != "")
    parse.__name__ = f"list of {item.__name__}"
    return parse


def _add_fields(sub, cls):
    """One flag per field of an experiment's options class."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        kw = {"dest": f.name, "default": f.default, "choices": f.metadata.get("choices")}
        hint = hints[f.name]
        if hint is bool:
            kw["action"] = argparse.BooleanOptionalAction
        else:
            kw["type"] = _list_of(get_args(hint)[0]) if get_origin(hint) is tuple else hint
        sub.add_argument(flag, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl", description="Numerical laboratory for singular projections of Sobolev maps"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind, (cls, _) in EXPERIMENTS.items():
        p = subs.add_parser(kind, help=cls.__doc__)
        _add_common(p)
        _add_fields(p, cls)
    p = subs.add_parser("suite", help="run a configured experiment pipeline")
    _add_common(p)
    return parser


def _worker_count(value, source: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise ConfigurationError(f"{source} must be a positive integer, got {value!r}") from None
    if count < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {count}")
    return count


def _series_stems(report: ExperimentReport) -> list[tuple[str, ExperimentReport]]:
    """Split a report into per-(s, p) series for SVG naming."""
    pairs = []
    for row in report.rows:
        if "s" in row and "p" in row:
            key = (row["s"], row["p"])
            if key not in pairs:
                pairs.append(key)
    if not pairs:
        s = report.params.get("s")
        p = report.params.get("p")
        if s is not None and p is not None:
            return [(f"{report.name}-{s}-{p}", report)]
        return [(report.name, report)]
    out = []
    for s, p in pairs:
        sub = ExperimentReport(name=f"{report.name} (s={s}, p={p})", params=report.params)
        sub.rows = [r for r in report.rows if r.get("s") == s and r.get("p") == p]
        out.append((f"{report.name}-{s}-{p}", sub))
    return out


def _emit(reports: list[ExperimentReport], out_dir: str, formats: tuple) -> bool:
    """Write the reports, print their assertions; whether every assertion passed."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    all_ok = True
    for report in reports:
        report.timestamp = stamp
        emit_report(report, out_dir, formats=[f for f in formats if f != "svg"], stem=report.name)
        if "svg" in formats:
            for stem, sub in _series_stems(report):
                sub.timestamp = stamp
                emit_report(sub, out_dir, formats=("svg",), stem=stem)
        for a in report.assertions:
            status = "PASS" if a.passed else "FAIL"
            print(f"[{status}] {report.name}: {a.name}" + (f" ({a.detail})" if a.detail else ""))
            all_ok &= a.passed
    return all_ok


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.command != "suite":
            cls = EXPERIMENTS[args.command][0]
            options = {f.name: getattr(args, f.name) for f in fields(cls)}
            if args.name:
                options["name"] = args.name
            cfg = replace(cfg, experiments=(ExperimentConfig(args.command, options),))
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.workers is not None:
            cfg = replace(cfg, worker_count=_worker_count(args.workers, "--workers"))
        env_workers = os.environ.get("SPL_WORKERS")
        if env_workers is not None:
            cfg = replace(cfg, worker_count=_worker_count(env_workers, "SPL_WORKERS"))
        if cfg.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {cfg.seed}")
        formats = tuple(tok for tok in args.formats.split(",") if tok)
        unknown = [f for f in formats if f not in FORMATS]
        if unknown:
            raise ConfigurationError(
                f"unknown --formats {','.join(unknown)}; choose from {','.join(FORMATS)}"
            )
        try:
            reports, failure = run_suite(cfg), None
        except SplabError as exc:
            reports, failure = getattr(exc, "completed", []), exc
        all_ok = _emit(reports, cfg.output_dir, formats)
        if failure is not None:
            raise failure
        return 0 if all_ok else 1
    except SplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
