"""Command-line interface.

Subcommands:
  run        execute a configured experiment and write raw CSV, summary
             JSON and a result bundle into an output directory
  report     recompute the grouped summary JSON from a raw CSV
  plot       render grouped boxplots from a raw CSV as SVG
  scenarios  list the built-in experiment configurations (fig2, fig3,
             fig5, fig6) or print one fully resolved

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import BUILTIN_SCENARIOS, resolve_config
from .errors import ValidationError
from .harness import run_experiment
from .reporting import read_records_csv, summarize_records, write_records_csv, write_summary_json
from .svgplot import render_boxplots_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="alperf",
        description="Simulate and stress-test runtime performance estimators "
        "for actively trained classifiers on synthetic tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--workers", type=int, default=1, help="parallel workers")
    run_p.set_defaults(handler=_cmd_run)

    report_p = sub.add_parser("report", help="summarize a raw CSV into JSON")
    report_p.add_argument("raw_csv", help="raw records CSV from a run")
    report_p.add_argument("--out", required=True, help="summary JSON path")
    report_p.set_defaults(handler=_cmd_report)

    plot_p = sub.add_parser("plot", help="render boxplots from a raw CSV")
    plot_p.add_argument("raw_csv", help="raw records CSV from a run")
    plot_p.add_argument("--out", required=True, help="SVG output path")
    plot_p.set_defaults(handler=_cmd_plot)

    scen_p = sub.add_parser("scenarios", help="list built-in experiment configs")
    scen_p.add_argument(
        "name", nargs="?", help="print this built-in config, fully resolved"
    )
    scen_p.set_defaults(handler=_cmd_scenarios)
    return parser


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{args.config}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None
    resolved = resolve_config(text)
    spec = resolved.spec
    document = dict(resolved.document)
    defaults_applied = list(resolved.defaults_applied)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
        document["master_seed"] = args.seed
        # The seed was given, so it is no longer a default.
        defaults_applied = [key for key in defaults_applied if key != "master_seed"]
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")

    # An unusable --out fails here, before the study runs, and an invalid
    # config above leaves no directory behind.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Written last: a directory holds a finished run exactly when it holds one.
    bundle_path = out_dir / "bundle.json"
    bundle_path.unlink(missing_ok=True)

    records = run_experiment(spec, workers=args.workers)

    raw_path = out_dir / "raw.csv"
    write_records_csv(records, raw_path)
    # summarize_records takes each value as raw.csv holds it, so this equals
    # the summary of raw.csv itself, without reading it back.
    rows = summarize_records(records)
    summary_path = out_dir / "summary.json"
    write_summary_json(rows, summary_path)
    bundle = {
        "raw_csv": raw_path.name,
        "summary_json": summary_path.name,
        "svg": [],
        "config": document,
        "defaults_applied": defaults_applied,
        "version": __version__,
        "seed": spec.master_seed,
    }
    temp = out_dir / "bundle.json.tmp"
    temp.write_text(json.dumps(bundle, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    temp.replace(bundle_path)
    print(f"wrote {raw_path}")
    print(f"wrote {summary_path}")
    print(f"wrote {bundle_path}")
    return 0


def _cmd_report(args) -> int:
    rows = summarize_records(read_records_csv(args.raw_csv))
    write_summary_json(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    rows = summarize_records(read_records_csv(args.raw_csv))
    svg = render_boxplots_svg(rows)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_scenarios(args) -> int:
    if args.name is None:
        for name, builtin in BUILTIN_SCENARIOS.items():
            print(f"{name}  {builtin.description}")
        return 0
    builtin = BUILTIN_SCENARIOS.get(args.name)
    if builtin is None:
        raise ValidationError(
            f"unknown scenario {args.name!r}; available: "
            + ", ".join(BUILTIN_SCENARIOS)
        )
    resolved = resolve_config(json.dumps(builtin.config))
    print(json.dumps(resolved.document, indent=2))
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
