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

from .config import ExperimentConfig, RunConfig, load_config
from .errors import ConfigurationError, SplabError
from .harness import run_suite
from .report import ExperimentReport, emit_report


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", default=None, help="output directory for reports")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--formats", default="csv,json,svg")
    sub.add_argument("--name", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl", description="Numerical laboratory for singular projections of Sobolev maps"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("seminorm", help="fractional seminorm of a reference map")
    _add_common(p)
    p.add_argument("--map", default="indicator1d", dest="map_kind")
    p.add_argument("--s", type=float, default=0.25)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--spacing", type=float, default=1e-3)

    p = subs.add_parser("patch", help="patch energies and projected lower bounds")
    _add_common(p)
    p.add_argument("--s", type=float, default=0.4)
    p.add_argument("--p", type=float, default=2.5)
    p.add_argument("--n-values", default="1,2,3")
    p.add_argument("--shifts", type=int, default=100)

    p = subs.add_parser("layer", help="one glued dyadic layer")
    _add_common(p)
    p.add_argument("--s", type=float, default=0.4)
    p.add_argument("--p", type=float, default=2.5)
    p.add_argument("--n", type=int, default=1)

    p = subs.add_parser("geometry", help="empirical chord-bound constants")
    _add_common(p)
    p.add_argument("--lemma", choices=("geom1", "geom2"), default="geom1")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8)

    p = subs.add_parser("averaging", help="Monte Carlo shift averaging")
    _add_common(p)
    p.add_argument("--s", type=float, default=0.4)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-mc", type=int, default=128)
    p.add_argument("--spacing", type=float, default=0.04)

    p = subs.add_parser("threshold", help="layer ratio growth across parameters")
    _add_common(p)
    p.add_argument("--s", default="0.4,0.4,0.5")
    p.add_argument("--p", default="2.5,1.5,2.0")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)

    p = subs.add_parser("almost", help="almost retraction rates and blow-up scan")
    _add_common(p)
    p.add_argument("--s", type=float, default=0.6)
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)

    p = subs.add_parser("suite", help="run a configured experiment pipeline")
    _add_common(p)
    return parser


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _worker_count(value, source: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise ConfigurationError(f"{source} must be a positive integer, got {value!r}") from None
    if count < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {count}")
    return count


def _experiment_from_args(args) -> ExperimentConfig | None:
    cmd = args.command
    if cmd == "suite":
        return None
    opts: dict = {}
    if args.name:
        opts["name"] = args.name
    if cmd == "seminorm":
        opts.update(map=args.map_kind, s=args.s, p=args.p, spacing=args.spacing)
    elif cmd == "patch":
        opts.update(s=args.s, p=args.p, n_values=_ints(args.n_values), shift_count=args.shifts)
    elif cmd == "layer":
        opts.update(s=args.s, p=args.p, n=args.n)
    elif cmd == "geometry":
        opts.update(lemma=args.lemma, ell=args.ell, samples=args.samples,
                    n_min=args.n_min, n_max=args.n_max)
    elif cmd == "averaging":
        opts.update(s=args.s, p=args.p, alpha=args.alpha, n_mc=args.n_mc, spacing=args.spacing)
    elif cmd == "threshold":
        opts.update(s_values=_floats(args.s), p_values=_floats(args.p),
                    ell=args.ell, n_max=args.n_max)
    elif cmd == "almost":
        opts.update(s=args.s, p=args.p, alpha=args.alpha, n_min=args.n_min, n_max=args.n_max)
    return ExperimentConfig(kind=cmd, options=opts)


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        else:
            cfg = RunConfig()
        exp = _experiment_from_args(args)
        if exp is not None:
            cfg = RunConfig(
                experiments=(exp,),
                output_dir=cfg.output_dir,
                seed=cfg.seed,
                node_budget=cfg.node_budget,
                worker_count=cfg.worker_count,
            )
        overrides = {}
        if args.out is not None:
            overrides["output_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["worker_count"] = _worker_count(args.workers, "--workers")
        env_workers = os.environ.get("SPL_WORKERS")
        if env_workers is not None:
            overrides["worker_count"] = _worker_count(env_workers, "SPL_WORKERS")
        if overrides:
            cfg = RunConfig(
                experiments=cfg.experiments,
                output_dir=overrides.get("output_dir", cfg.output_dir),
                seed=overrides.get("seed", cfg.seed),
                node_budget=cfg.node_budget,
                worker_count=overrides.get("worker_count", cfg.worker_count),
                description=cfg.description,
            )
        formats = tuple(tok for tok in args.formats.split(",") if tok)
        reports = run_suite(cfg)
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        all_ok = True
        for report in reports:
            report.timestamp = stamp
            emit_report(report, cfg.output_dir, formats=[f for f in formats if f != "svg"],
                        stem=report.name)
            if "svg" in formats:
                for stem, sub in _series_stems(report):
                    sub.timestamp = stamp
                    emit_report(sub, cfg.output_dir, formats=("svg",), stem=stem)
            for a in report.assertions:
                status = "PASS" if a.passed else "FAIL"
                print(f"[{status}] {report.name}: {a.name}" + (f" ({a.detail})" if a.detail else ""))
                all_ok &= a.passed
        return 0 if all_ok else 1
    except SplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
