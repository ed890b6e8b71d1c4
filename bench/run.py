"""The soldefect benchmark: end-to-end throughput through the real CLI and a
per-layer split from a traced in-process pass.

Run from anywhere inside a checkout:

    python3 bench/run.py --workload source-large --seed 1 --seconds 30 --trace 0

Each run checks the golden listings (``soldefect score`` must be perfect),
then writes the workload's corpus from ``--seed`` under ``bench/.work/``.

``--trace 0`` alternates, for ``--seconds``, a fresh interpreter importing
the CLI (``setup_s``) and a fresh ``python -m soldefect.cli analyze
<corpus>`` process; the throughputs are per CLI process, from the median
wall time, and ``peak_rss_mb`` is the median of each run's largest peak
RSS among the CLI and its pool workers. Each timed process is bracketed by
runs of a fixed calibration task (``calibration_s``), and its wall time is
scaled to the speed at which that task takes ``REFERENCE_CALIBRATION_S``:
on a shared host the machine's speed swings by up to 2x for tens of
seconds, and the scaling takes most of those swings out of the end-to-end
metrics.
The unscaled wall-clock figures are printed and recorded beside them.

``--trace 1`` instead repeats a traced in-process pass for ``--seconds``
and reports the median self time of each layer (unscaled), the work counts
of each layer, and import times from ``-X importtime``.

Both modes check correctness the same way, with one serial in-process run
of the analyzer, one traced pass and at least one CLI run:

* the CLI report must be byte-identical to the serial render (so output
  does not depend on ``--jobs``), and so must the traced pass's report;
* every input must be analyzed without error and appear in the report;
* each source file must show every defect its templates planted, and each
  bytecode file exactly the bytecode findings its assembler planted.

A file failing any of these counts in ``failed``; a crashed CLI or a report
mismatch fails every file. The last stdout line is the JSON result; the
lines before it are a table of the metrics and the run record (seed,
machine facts, tracing overhead, failed share), also written with the
spans to ``bench/.work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from workloads import WORKLOADS, write_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join("bench", ".work")
MANIFEST = os.path.join("corpus", "listings", "manifest.txt")
CLI = [sys.executable, "-m", "soldefect.cli"]
MIN_SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_REPEATS = 3
DEADLINE_S = 140  # stop repeating after this, to end well inside 180 s
CHILD_TIMEOUT_S = 60
# What calibration_s() takes on a 2-vCPU shared cloud VM in its usual state,
# so that scaled times there read close to wall times.
REFERENCE_CALIBRATION_S = 0.18
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    os.chdir(ROOT)
    missing = [p for p in (os.path.join("src", "soldefect", "cli.py"),
                           MANIFEST, "BENCHMARK.json") if not os.path.isfile(p)]
    if missing:
        print(f"bench: not a soldefect checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    machine = {"nproc": os.cpu_count(),
               "usable_cpus": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "loadavg_start": list(os.getloadavg())}

    problem = preflight(env)
    if problem:
        print(f"bench: preflight failed, the golden listings do not score "
              f"perfectly:\n{problem}", file=sys.stderr)
        return 1

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    corpus = os.path.join(run_dir, "corpus")
    files = write_corpus(workload, args.seed, corpus)
    bench = Bench(workload, corpus, run_dir, env, started + DEADLINE_S)

    if args.trace:
        metrics, record = bench.traced(args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, record = bench.untraced(args.seconds, files)
        wanted = spec["end_to_end"]
    failures = bench.failures(files)
    record.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine,
        "files": len(files), "failed_share": len(failures) / len(files),
        "failures": dict(sorted(failures.items())[:20]),
        "checks": bench.checks})
    correct = not failures and all(bench.checks.values())

    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    shutil.rmtree(corpus)
    bench.remove_report()
    result = {"correct": correct, "attempted": len(files),
              "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    for m in wanted:
        print(f"{m['name']:34} {metrics[m['name']]:>16.6g} {m['unit']}")
    for m in wanted:
        if m["name"] in record.get("unscaled", {}):
            print(f"{m['name'] + ' (wall clock)':34} "
                  f"{record['unscaled'][m['name']]:>16.6g} {m['unit']}")
    print(f"{'failed_share':34} {record['failed_share']:>16.6g} share of files")
    print("record:", json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def preflight(env: dict) -> str | None:
    proc = subprocess.run(CLI + ["score", "--manifest", MANIFEST], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return (proc.stdout + proc.stderr)[-2000:]
    return None


@dataclass
class CliRun:
    code: int
    wall_s: float
    rss_mib: float
    output: bytes


class Bench:
    """One run's measurements and checks over a written corpus."""

    def __init__(self, workload, corpus: str, run_dir: str, env: dict,
                 deadline: float) -> None:
        self.workload = workload
        self.corpus = corpus
        self.run_dir = run_dir
        self.env = env
        self.deadline = deadline
        self.checks: dict[str, bool] = {}
        self.cli: CliRun | None = None
        self.serial_bytes = b""
        self.analyzed: set[str] = set()  # no error and listed in the report

    # -- untraced: end-to-end metrics ------------------------------------

    def untraced(self, seconds: int, files) -> tuple[dict, dict]:
        # One set-up sample before each CLI run spreads both kinds of sample
        # over the whole run, so a slow spell of the machine hits few of them.
        calibrations = [calibration_s(), calibration_s()]  # the first warms up
        setup_wall: list[float] = []
        setup: list[float] = []
        cli: list[float] = []

        def scaled(wall: float) -> float:
            """``wall`` at the reference speed, from the calibrations timed
            just before and just after it."""
            calibrations.append(calibration_s())
            return wall * 2 * REFERENCE_CALIBRATION_S / sum(calibrations[-2:])

        def time_setup() -> None:
            setup_wall.append(self.time_setup())
            setup.append(scaled(setup_wall[-1]))

        def step() -> CliRun:
            time_setup()
            run = self.run_cli()
            cli.append(scaled(run.wall_s))
            return run
        runs = self.repeat(seconds, step, stop=lambda run: run.code not in (0, 1))
        while len(setup) < MIN_SETUP_SAMPLES:
            time_setup()
        self.checks["cli_output_stable"] = all(r.output == runs[0].output
                                               for r in runs)
        self.cli = runs[-1]
        record = self.reference()
        work = {"lines_per_s": sum(f.lines for f in files),
                "files_per_s": len(files),
                "kb_per_s": sum(f.size for f in files) / 1024}
        wall = statistics.median(cli)
        metrics = {name: amount / wall for name, amount in work.items()}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = statistics.median(r.rss_mib for r in runs)
        unscaled_wall = statistics.median(r.wall_s for r in runs)
        unscaled = {name: amount / unscaled_wall for name, amount in work.items()}
        unscaled["setup_s"] = statistics.median(setup_wall)
        record.update({"cli_runs": len(runs),
                       "cli_wall_s": [r.wall_s for r in runs],
                       "cli_scaled_s": cli,
                       "setup_wall_s": setup_wall,
                       "setup_scaled_s": setup,
                       "calibration_s": calibrations[1:],
                       "unscaled": unscaled})
        return metrics, record

    def time_setup(self) -> float:
        code, wall, _usage = run_child(
            [sys.executable, "-c",
             "import soldefect.cli; soldefect.cli.build_arg_parser()"],
            self.env, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"importing soldefect.cli exited {code}")
        return wall

    def report_path(self) -> str:
        return os.path.join(self.run_dir, f"report.{self.workload.format}")

    def remove_report(self) -> None:
        if os.path.exists(self.report_path()):
            os.remove(self.report_path())

    def run_cli(self) -> CliRun:
        out = self.report_path()
        self.remove_report()
        cmd = CLI + ["analyze", self.corpus, "--jobs", str(self.workload.jobs),
                     "--format", self.workload.format, "--output", out]
        with open(os.path.join(self.run_dir, "cli.stderr"), "wb") as err:
            code, wall, usage = run_child(cmd, self.env, err)
        output = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                output = fh.read()
        return CliRun(code, wall, usage.ru_maxrss / 1024, output)

    def repeat(self, seconds: int, step, stop=lambda result: False) -> list:
        """Call ``step`` for ``seconds``, at least MIN_REPEATS times, unless
        the deadline passes or ``stop`` holds for a result."""
        results = []
        until = time.perf_counter() + seconds
        while True:
            results.append(step())
            now = time.perf_counter()
            if stop(results[-1]) or now >= self.deadline or (
                    now >= until and len(results) >= MIN_REPEATS):
                return results

    # -- correctness references ------------------------------------------

    def reference(self) -> dict:
        """Serial in-process run, then one traced pass; compare the reports."""
        from tracing import Tracer, traced_pass

        serial_wall, _analyze_wall = self.serial()
        tracer = Tracer()
        traced = traced_pass(self.corpus, self.workload.format, tracer)
        self.checks["traced_matches_serial"] = traced.rendered == self.serial_bytes
        self.write_spans(tracer)
        return {"untraced_wall_s": serial_wall, "traced_wall_s": traced.wall_s,
                "tracing_overhead_s": traced.wall_s - serial_wall}

    def serial(self) -> tuple[float, float]:
        from soldefect.analyzer import analyze_paths
        from soldefect.config import RunConfig
        from soldefect.report import filter_by_impact, render

        config = RunConfig(jobs=1, format=self.workload.format)
        start = time.perf_counter()
        try:
            report, outcomes = analyze_paths([self.corpus], config)
        except Exception as exc:  # no serial report: every file fails below
            self.checks["serial_run_completed"] = False
            print(f"bench: serial run raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return time.perf_counter() - start, time.perf_counter() - start
        analyzed = time.perf_counter()
        self.serial_bytes = render(filter_by_impact(report, config.min_impact),
                                   config.format)
        done = time.perf_counter()
        listed = {i.path for i in report.inputs}
        self.analyzed = {o.path for o in outcomes
                         if o.error is None and o.path in listed}
        return done - start, analyzed - start

    def write_spans(self, tracer) -> None:
        with open(os.path.join(self.run_dir, "spans.jsonl"), "w") as fh:
            tracer.write_jsonl(fh)

    def failures(self, files) -> dict[str, str]:
        """Input path -> why it failed, over the last CLI run's report."""
        cli = self.cli
        if cli is None or cli.code not in (0, 1) or not cli.output:
            why = f"CLI exited {cli.code if cli else None} without a report"
            return {f.path: why for f in files}
        if cli.output != self.serial_bytes:
            return {f.path: f"--jobs {self.workload.jobs} report differs from "
                            f"the serial report" for f in files}
        found = findings_by_file(cli.output, self.workload.format)
        failed = {}
        for f in files:
            got = found.get(f.path, set())
            if f.path not in self.analyzed:
                failed[f.path] = "errored or missing from the report's inputs"
            elif f.kind == "source" and not f.expected <= got:
                failed[f.path] = f"missed {sorted(f.expected - got)}"
            elif f.kind == "bytecode" and f.expected != got:
                failed[f.path] = (f"missed {sorted(f.expected - got)}, "
                                  f"unexpected {sorted(got - f.expected)}")
        return failed

    # -- traced: per-layer metrics -----------------------------------------

    def traced(self, seconds: int) -> tuple[dict, dict]:
        from tracing import Tracer, traced_pass

        self.cli = self.run_cli()
        serial_wall, analyze_wall = self.serial()
        pool_wall = analyze_wall
        if self.workload.jobs > 1:
            pool_wall = self.pool_wall()
        passes = []

        def one_pass():
            tracer = Tracer()
            passes.append((tracer, traced_pass(self.corpus, self.workload.format,
                                               tracer)))
        self.repeat(seconds, one_pass)
        self.write_spans(passes[0][0])
        self.checks["traced_matches_serial"] = all(
            run.rendered == self.serial_bytes for _, run in passes)
        self.checks["counts_repeat"] = all(
            run.counts == passes[0][1].counts for _, run in passes)
        efficiency = analyze_wall / (self.workload.jobs * pool_wall)
        per_pass = [layer_metrics(t, run) for t, run in passes]
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["analyzer.pool_efficiency"] = efficiency
        metrics.update(import_times(self.env))
        traced_wall = statistics.median(run.wall_s for _, run in passes)
        return metrics, {"untraced_wall_s": serial_wall,
                         "traced_wall_s": traced_wall,
                         "tracing_overhead_s": traced_wall - serial_wall,
                         "traced_passes": len(passes),
                         "pool_wall_s": pool_wall}

    def pool_wall(self) -> float:
        from soldefect.analyzer import analyze_paths
        from soldefect.config import RunConfig

        start = time.perf_counter()
        analyze_paths([self.corpus], RunConfig(jobs=self.workload.jobs))
        return time.perf_counter() - start


def run_child(cmd: list[str], env: dict, stderr) -> tuple[int, float, object]:
    """Run ``cmd`` to completion; return its exit code, wall time and rusage.

    ``os.wait4`` blocks until exit, so the wall time is not rounded up to a
    polling interval, and its rusage gives the peak RSS of the child and of
    every process the child waited for (the CLI's pool workers)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def calibration_s() -> float:
    """Wall time of a fixed, allocation-heavy pure-Python task.

    It runs no program code, so no change to the program moves it. On a
    shared host, neighbours' load changes the speed of every process by up
    to 2x for seconds to minutes at a time; this task slows nearly in step
    with the analyzer and the interpreter's start-up (on a 2-vCPU VM, where
    wall times moved by 1.9x, their ratio to it moved by 10% at most), so
    timing it around each sample takes most of the host's swings out.
    """
    start = time.perf_counter()
    for _ in range(48):
        # Small batches keep the benchmark's own peak RSS low: a child
        # started with vfork inherits it as its own ru_maxrss.
        rows = [{"n": n, "key": (n, str(n))} for n in range(5_000)]
        rows.sort(key=lambda row: row["key"][1])
    return time.perf_counter() - start


def layer_metrics(tracer, run) -> dict[str, float]:
    from tracing import ALONE

    t = tracer.self_times()
    per_file = sorted(tracer.durations("analyzer.analyze_file"))
    n = len(per_file)
    tail = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    c = run.counts
    m = {
        "analyzer.collect_inputs_s": t["analyzer.collect_inputs"],
        "analyzer.read_s": t.get("analyzer.read", 0.0),
        "analyzer.analyze_file_s": t.get("analyzer.analyze_file", 0.0),
        "analyzer.analyze_file_p50_ms": nearest_rank(per_file, 50) * 1e3,
        "analyzer.analyze_file_tail_ms": nearest_rank(per_file, tail) * 1e3,
        "analyzer.analyze_file_tail_pct": tail,
        "analyzer.files": n,
        "analyzer.errors": len(run.errors),
        "lexer.tokenize_s": t.get("lexer.tokenize", 0.0),
        "lexer.tokens": c["lexer.tokens"],
        "parser.parse_s": t.get("parser.parse", 0.0),
        "parser.nodes": c["parser.nodes"],
        "parser.diagnostics": c["parser.diagnostics"],
        "semantic.flatten_s": t.get("semantic.flatten", 0.0),
        "semantic.call_graph_s": t.get("semantic.call_graph", 0.0),
        "semantic.def_use_s": t.get("semantic.def_use", 0.0),
        "detectors.findings": c["detectors.findings"],
        "evm.disasm_s": t.get("evm.disasm", 0.0),
        "evm.cfg_s": t.get("evm.cfg", 0.0) - t.get("evm.dominators", 0.0),
        "evm.dominators_s": t.get("evm.dominators", 0.0),
        "evm.loops_s": t.get("evm.loops", 0.0),
        "evm.selectors_s": t.get("evm.selectors", 0.0),
        "evm.capped_ratio": (c["evm.capped_blocks"] / c["evm.reachable_blocks"]
                             if c["evm.reachable_blocks"] else 0.0),
        "report.render_s": t["report.render"],
        "report.bytes": len(run.rendered),
    }
    m["lexer.tokens_per_s"] = (m["lexer.tokens"] / m["lexer.tokenize_s"]
                               if m["lexer.tokenize_s"] else 0.0)
    for name in ("evm.instructions", "evm.blocks", "evm.capped_blocks",
                 "evm.unresolved_jumps", "evm.loops", "evm.bounded_loops",
                 "evm.selectors"):
        m[name] = c[name]
    for desc, _config in ALONE:
        m[f"detectors.{desc.code}_s"] = t.get(f"detectors.{desc.code}", 0.0)
        if "bytecode" in desc.frontends:
            m[f"detectors.bc.{desc.code}_s"] = t.get(f"detectors.bc.{desc.code}", 0.0)
    return m


def nearest_rank(ordered: list[float], percent: float) -> float:
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def import_times(env: dict) -> dict[str, float]:
    """Median cumulative import time per module, from ``-X importtime``."""
    modules = {"soldefect.cli": "import.soldefect.cli_s",
               "requests": "import.requests_s",
               "soldefect.detectors": "import.soldefect.detectors_s"}
    samples: dict[str, list[float]] = {name: [] for name in modules.values()}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import soldefect.cli"], env=env, check=True,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seen = dict.fromkeys(modules.values(), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in modules:
                seen[modules[parts[2].strip()]] = int(parts[1]) / 1e6
        for name, value in seen.items():
            samples[name].append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def findings_by_file(data: bytes, fmt: str) -> dict[str, set[tuple[str, int]]]:
    """(detector, line or pc) per file, read back from a JSON or SARIF report."""
    doc = json.loads(data)
    out: dict[str, set[tuple[str, int]]] = {}
    if fmt == "json":
        for f in doc["findings"]:
            where = f["line"] if f["line"] is not None else f["pc"]
            out.setdefault(f["file"], set()).add((f["detector"], where))
    else:
        for r in doc["runs"][0]["results"]:
            loc = r["locations"][0]["physicalLocation"]
            region = loc["region"]
            where = region.get("startLine", region.get("byteOffset"))
            out.setdefault(loc["artifactLocation"]["uri"], set()).add(
                (r["ruleId"], where))
    return out


if __name__ == "__main__":
    sys.exit(main())
