"""Command-line driver.

Subcommands: analyze, fetch, score, detectors.
Exit codes: 0 = clean, 1 = findings present (or imperfect score),
2 = usage/parse error, 3 = I/O or fetch failure, or a report that could
not be written, 4 = internal error (a fault of soldefect, with its
traceback), 120 = stdout closed before all was written.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import __version__
from .catalog import REGISTRY
from .config import (FORMATS, MODES, ConfigError, RunConfig,
                     apply_config_values, load_config_file)
from .report import IMPACT_LEVELS, filter_by_impact, render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_CLOSED = 120  # what Python exits with when its exit flush fails

# the formats of the score card and the catalog, which have no SARIF form
TABLE_FORMATS = ("text", "json")


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width it would take from
    ``shutil.get_terminal_size``, found without loading shutil (and the
    compression modules it imports) at every start: COLUMNS, else
    stdout's terminal, else 80 columns, less 2."""

    def __init__(self, prog: str) -> None:
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soldefect", formatter_class=_HelpFormatter,
        description="Detect 20 smart-contract defect kinds in Solidity "
                    "source and EVM bytecode.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)

    analyze = add_parser("analyze", help="analyze .sol/.hex files or directories")
    analyze.add_argument("inputs", nargs="+", help="files or directories")
    analyze.add_argument("--min-impact", choices=IMPACT_LEVELS, default=None)
    _add_run_flags(analyze, FORMATS)

    fetch = add_parser("fetch", help="fetch contract source/bytecode by address")
    fetch.add_argument("address", help="0x-prefixed 20-byte contract address")
    fetch.add_argument("--api-base", default=None,
                       help="explorer API base URL (or fetch.api_base_url in config)")
    fetch.add_argument("--cache-dir", default=None)
    fetch.add_argument("--config", default=None)

    score_cmd = add_parser("score", help="score analyzer output against a manifest")
    score_cmd.add_argument("--manifest", required=True)
    score_cmd.add_argument("root", nargs="?", default=None,
                           help="corpus root (defaults to the manifest's directory)")
    score_cmd.add_argument("--wildcard", action="store_true",
                           help="ignore manifest line numbers (per-contract labels)")
    _add_run_flags(score_cmd, TABLE_FORMATS)

    detectors = add_parser("detectors", help="print the 20-detector catalog")
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


# each flag that sets a run option, by its argparse dest, and the config
# key it is applied as; --output has no key
FLAG_KEYS = {"format": "format", "min_impact": "min_impact", "mode": "mode",
             "jobs": "jobs", "enable": "enable", "disable": "disable",
             "api_base": "fetch.api_base_url", "cache_dir": "fetch.cache_dir"}


def _make_run_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings: the --config file's keys, then every flag given,
    applied as its config key through the same validator, so it wins."""
    config = RunConfig()
    if getattr(args, "config", None):
        load_config_file(config, args.config)
    flags = {}
    for dest, key in FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value not in (None, ""):  # an empty --api-base or --cache-dir
            flags[key] = ",".join(value) if isinstance(value, list) else str(value)
    apply_config_values(config, flags)
    if getattr(args, "output", None):
        config.output = args.output
    return config


def _emit(data: bytes, output: str | None, code: int) -> int:
    """Write ``data`` to the file ``output``, or to stdout, and return
    ``code``: the command's exit code, EXIT_IO if ``output`` cannot be
    written, or EXIT_CLOSED if stdout's reader is gone (stdout then goes to
    the null device, so that no later flush fails)."""
    if output:
        try:
            with open(output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"soldefect: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        try:
            sys.stdout.buffer.write(data)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            print(f"soldefect: stdout: {type(exc).__name__}: {exc}", file=sys.stderr)
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return EXIT_CLOSED
    return code


def _analyze(inputs: list[str], config: RunConfig) -> tuple:
    """``analyze_paths``, then on stderr every failed input and after them
    every diagnostic. Returns the report, the outcomes and the failed ones.
    Only the commands that analyze load the analyzer, the detectors and the
    parser."""
    from .analyzer import analyze_paths
    report, outcomes = analyze_paths(inputs, config)
    failed = [o for o in outcomes if o.error is not None]
    for outcome in failed:
        print(f"soldefect: {outcome.error}", file=sys.stderr)
    for outcome in outcomes:
        for diag in outcome.diagnostics:
            print(f"soldefect: {diag}", file=sys.stderr)
    return report, outcomes, failed


def cmd_analyze(args: argparse.Namespace, config: RunConfig) -> int:
    report, outcomes, failed = _analyze(args.inputs, config)
    if not outcomes:
        print("soldefect: no inputs found", file=sys.stderr)
        return EXIT_IO

    filtered = filter_by_impact(report, config.min_impact)
    if len(failed) == len(outcomes):
        all_io = all(o.phase == "read" for o in failed)
        code = EXIT_IO if all_io else EXIT_USAGE
    else:
        code = EXIT_FINDINGS if filtered.findings else EXIT_CLEAN
    return _emit(render(filtered, config.format), config.output, code)


def cmd_fetch(args: argparse.Namespace, config: RunConfig) -> int:
    from .fetch import AddressFormatError, FetchError, fetch_contract
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
    if result.from_cache:
        print("soldefect: served from cache", file=sys.stderr)
    return _emit("".join(f"{path}\n" for path in result.paths).encode(), None,
                 EXIT_CLEAN)


def cmd_score(args: argparse.Namespace, config: RunConfig) -> int:
    from .corpus import (ManifestError, load_manifest, render_scorecard_text,
                         score, scorecard_to_obj)
    try:
        if config.format not in TABLE_FORMATS:  # only a config file sets that
            raise ConfigError(f"format = {config.format}: not a score card format")
        manifest = load_manifest(args.manifest, args.root)
    except (ConfigError, ManifestError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report, _, _ = _analyze([manifest.root], config)
    card = score(report, manifest, force_wildcard=args.wildcard)
    if config.format == "json":
        import json as _json
        data = _json.dumps(scorecard_to_obj(card), indent=2) + "\n"
    else:
        data = render_scorecard_text(card)
    return _emit(data.encode(), config.output,
                 EXIT_CLEAN if card.perfect else EXIT_FINDINGS)


def cmd_detectors(args: argparse.Namespace, config: RunConfig) -> int:
    if args.format == "json":
        import json as _json
        payload = [
            {"code": d.code, "id": d.id, "name": d.name, "category": d.category,
             "impact": d.impact, "impact_note": d.impact_note,
             "frontends": sorted(d.frontends),
             "description": d.description, "advice": d.advice}
            for d in REGISTRY
        ]
        text = _json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{d.code}  {d.id:34} {d.impact}  {d.category:15} "
                       f"[{'+'.join(sorted(d.frontends))}]  {d.name}\n"
                       for d in REGISTRY)
    return _emit(text.encode(), None, EXIT_CLEAN)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _make_run_config(args)
    except (ConfigError, OSError) as exc:
        print(f"soldefect: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "analyze": cmd_analyze,
        "fetch": cmd_fetch,
        "score": cmd_score,
        "detectors": cmd_detectors,
    }
    return handlers[args.command](args, config)


def run() -> None:
    """The console entry point: ``main()`` with the cycle collector off,
    since reference counting frees the analysis (it builds no reference
    cycles, which tests pin), then flush stdout and stderr and exit without
    interpreter teardown, which only frees what the run built. A flush that
    fails (a closed pipe) exits through teardown as before. An exception
    out of ``main()`` is soldefect's own fault: its traceback and one line
    naming it go to stderr, and the exit code is EXIT_INTERNAL, not the 1
    of findings present."""
    gc.disable()
    try:
        code = main()
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"soldefect: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        code = EXIT_INTERNAL
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
