"""Command-line driver.

Subcommands: analyze, fetch, score, detectors.
Exit codes: 0 = clean, 1 = findings present (or imperfect score),
2 = usage/parse error, 3 = I/O or fetch failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analyzer import analyze_paths
from .config import (FORMATS, MODES, ConfigError, RunConfig, load_config_file,
                     parse_detector_ids, parse_jobs)
from .detectors import REGISTRY
from .report import IMPACT_LEVELS, filter_by_impact, render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the formats of the score card and the catalog, which have no SARIF form
TABLE_FORMATS = ("text", "json")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soldefect",
        description="Detect 20 smart-contract defect kinds in Solidity "
                    "source and EVM bytecode.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze .sol/.hex files or directories")
    analyze.add_argument("inputs", nargs="+", help="files or directories")
    analyze.add_argument("--min-impact", choices=IMPACT_LEVELS, default=None)
    _add_run_flags(analyze, FORMATS)

    fetch = sub.add_parser("fetch", help="fetch contract source/bytecode by address")
    fetch.add_argument("address", help="0x-prefixed 20-byte contract address")
    fetch.add_argument("--api-base", default=None,
                       help="explorer API base URL (or fetch.api_base_url in config)")
    fetch.add_argument("--cache-dir", default=None)
    fetch.add_argument("--config", default=None)

    score_cmd = sub.add_parser("score", help="score analyzer output against a manifest")
    score_cmd.add_argument("--manifest", required=True)
    score_cmd.add_argument("root", nargs="?", default=None,
                           help="corpus root (defaults to the manifest's directory)")
    score_cmd.add_argument("--wildcard", action="store_true",
                           help="ignore manifest line numbers (per-contract labels)")
    _add_run_flags(score_cmd, TABLE_FORMATS)

    detectors = sub.add_parser("detectors", help="print the 20-detector catalog")
    detectors.add_argument("--format", choices=TABLE_FORMATS, default="text")
    return parser


def _add_run_flags(cmd: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    cmd.add_argument("--format", choices=formats, default=None)
    cmd.add_argument("--enable", action="append", default=None,
                     metavar="ID", help="run only these detectors (repeatable)")
    cmd.add_argument("--disable", action="append", default=None, metavar="ID")
    cmd.add_argument("--mode", choices=MODES, default=None)
    cmd.add_argument("--output", default=None, help="write the report here "
                                                    "instead of stdout")
    cmd.add_argument("--config", default=None, help="flat INI-style config file")
    cmd.add_argument("--jobs", type=int, default=None,
                     help="worker processes, 0 or more (default and 0: "
                          "usable CPUs)")


def _make_run_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        load_config_file(config, args.config)
    if args.format:
        config.format = args.format
    if getattr(args, "min_impact", None):  # score scores every label
        config.min_impact = args.min_impact
    if args.mode:
        config.mode = args.mode
    if args.jobs is not None:
        config.jobs = parse_jobs(args.jobs)
    if args.output:
        config.output = args.output
    if args.enable is not None:
        config.detectors.enable = parse_detector_ids(",".join(args.enable))
    if args.disable is not None:
        config.detectors.disable = parse_detector_ids(",".join(args.disable))
    return config


def _emit(data: bytes, output: str | None) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        config = _make_run_config(args)
    except (ConfigError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report, outcomes = analyze_paths(args.inputs, config)
    if not outcomes:
        print("soldefect: no inputs found", file=sys.stderr)
        return EXIT_IO

    failed = [o for o in outcomes if o.error is not None]
    for outcome in failed:
        print(f"soldefect: {outcome.error}", file=sys.stderr)
    for outcome in outcomes:
        for diag in outcome.diagnostics:
            print(f"soldefect: {diag}", file=sys.stderr)

    filtered = filter_by_impact(report, config.min_impact)
    _emit(render(filtered, config.format), config.output)

    if len(failed) == len(outcomes):
        all_io = all(o.phase == "read" for o in failed)
        return EXIT_IO if all_io else EXIT_USAGE
    return EXIT_FINDINGS if filtered.findings else EXIT_CLEAN


def cmd_fetch(args: argparse.Namespace) -> int:
    from .fetch import AddressFormatError, FetchError, fetch_contract
    config = RunConfig()
    try:
        if args.config:
            load_config_file(config, args.config)
    except (ConfigError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.api_base:
        config.fetch.api_base_url = args.api_base
    if args.cache_dir:
        config.fetch.cache_dir = args.cache_dir
    try:
        result = fetch_contract(args.address, config.fetch)
    except AddressFormatError as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FetchError, OSError) as exc:  # OSError: writing the cache
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_IO
    for notice in result.notices:
        print(f"soldefect: {notice}", file=sys.stderr)
    for path in result.paths:
        print(path)
    if result.from_cache:
        print("soldefect: served from cache", file=sys.stderr)
    return EXIT_CLEAN


def cmd_score(args: argparse.Namespace) -> int:
    from .corpus import (ManifestError, load_manifest, render_scorecard_text,
                         score, scorecard_to_obj)
    try:
        config = _make_run_config(args)
        if config.format not in TABLE_FORMATS:  # only a config file sets that
            raise ConfigError(f"format = {config.format}: not a score card format")
    except (ConfigError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        manifest = load_manifest(args.manifest, args.root)
    except (ManifestError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report, outcomes = analyze_paths([manifest.root], config)
    for outcome in outcomes:
        if outcome.error:
            print(f"soldefect: {outcome.error}", file=sys.stderr)
    card = score(report, manifest, force_wildcard=args.wildcard)
    if config.format == "json":
        import json as _json
        _emit((_json.dumps(scorecard_to_obj(card), indent=2) + "\n").encode(),
              config.output)
    else:
        _emit(render_scorecard_text(card).encode(), config.output)
    return EXIT_CLEAN if card.perfect else EXIT_FINDINGS


def cmd_detectors(args: argparse.Namespace) -> int:
    if args.format == "json":
        import json as _json
        payload = [
            {"code": d.code, "id": d.id, "name": d.name, "category": d.category,
             "impact": d.impact, "impact_note": d.impact_note,
             "frontends": sorted(d.frontends),
             "description": d.description, "advice": d.advice}
            for d in REGISTRY
        ]
        print(_json.dumps(payload, indent=2))
        return EXIT_CLEAN
    for d in REGISTRY:
        frontends = "+".join(sorted(d.frontends))
        print(f"{d.code}  {d.id:34} {d.impact}  {d.category:15} "
              f"[{frontends}]  {d.name}")
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "analyze": cmd_analyze,
        "fetch": cmd_fetch,
        "score": cmd_score,
        "detectors": cmd_detectors,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
