"""Scaled-fleet benchmark of skygraph: CI-gate verdict time, query latency
and per-layer costs.

    python3 bench/run.py --workload fleet --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark imports skygraph from ``src/``
next to this directory and drives it only through its public functions, on
inputs it generates from the seed under ``.bench_work/``. Every metric is
printed as ``metric <name> = <value> <unit>``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times of skygraph's operations are in seconds at reference speed: the wall
time scaled by a fixed reference loop timed before, during and after each
operation (see speed.py), so the host's swings in speed cancel out. Input
generation is timed as wall time. The wall medians are printed too, as
``wall <name> = <value> <unit>`` lines.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
spends half of the time untraced and half traced, reports the per-layer
metrics, and writes every span to ``.bench_work/traces/``. See README.md
for the workloads and for which layer metric should move which end-to-end
metric.

An operation fails when it raises or a command returns the wrong exit code;
those make ``correct`` false. Result counts are checked against the
hand-written table in expected.py: deviations are reported as
``wrong_findings``, as ``failed_share`` (share of operations that failed or
gave a wrong count) and as ``findings_error_ratio``, which is
(expected + wrong) / expected and so reads 1 when every count is right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

from speed import Stopwatch, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "skygraph" / "data"

# tenants, URL path mode, and what one operation is
WORKLOADS = {
    "fleet": (100, "unique", "gate"),
    "shared-paths": (16, "shared", "gate"),
    "query-mix": (60, "unique", "queries"),
}
# Set-ups per run; setup_s is their median. The first one or two are slow
# while the process warms up, so the median needs several more.
GATE_SETUPS = 3  # input generation, one warm-up build
QUERY_MIX_SETUPS = 4  # input generation, one CI-gate cycle, graph import
MIN_DECKS = 12  # query-mix runs at least this many shuffles of all queries

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "build_s": "s",
    "scan_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "export_mb": "MB",
    "findings_error_ratio": "ratio",
}

@dataclass
class Tally:
    """Outcome of every checked operation in a run."""

    attempted: int = 0
    failed: int = 0  # raised, or a command returned the wrong exit code
    miscounted: int = 0  # completed, but some result count was wrong
    expected_results: int = 0
    wrong_findings: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, counts: list[tuple[int | None, int]], what: str) -> None:
        """Record one operation: `ok` is False when it failed, `counts` holds
        (got, expected) result counts, got None when unknown."""
        self.attempted += 1
        wrong = sum(abs(got - exp) for got, exp in counts if got is not None)
        self.expected_results += sum(exp for _, exp in counts)
        self.wrong_findings += wrong
        if not ok or any(got is None for got, _ in counts):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        elif wrong:
            self.miscounted += 1


def run_cli(args: list[str]) -> tuple[int | None, str]:
    """`skygraph <args>` in this process; (exit code, stdout). The exit code
    is None when the command raised."""
    from skygraph import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue()


def _result_count(output: str) -> int | None:
    match = re.search(r"^(\d+) results$", output, re.MULTILINE)
    return int(match.group(1)) if match else None


@dataclass
class Inputs:
    manifest: Path
    graph_file: Path
    query_files: dict[str, Path]
    templates: list[str]


def set_up_inputs(out: Path, workload: str, seed: int) -> Inputs:
    import expected
    import fleet

    tenants, paths, _ = WORKLOADS[workload]
    generated = fleet.generate(DATA, out, tenants, seed, paths)
    query_dir = out / "queries"
    query_dir.mkdir()
    query_files = {}
    for name, text in expected.query_texts(DATA).items():
        query_files[name] = query_dir / f"{name}.cypher"
        query_files[name].write_text(text, encoding="utf-8")
    return Inputs(
        generated.manifest,
        out / "graph.json",
        query_files,
        [t.template for t in generated.tenants],
    )


# A timing as (seconds at reference speed, wall seconds).
Timing = tuple[float, float]


@dataclass
class Cycle:
    build: Timing
    queries: list[Timing]

    def scan(self, kind: int) -> float:
        return sum(q[kind] for q in self.queries)

    def verdict(self, kind: int) -> float:
        return self.build[kind] + self.scan(kind)


def gate_cycle(inputs: Inputs, tally: Tally, watch: Stopwatch, tracer=None, op: int = 0) -> Cycle:
    """One CI-gate cycle: build the graph, then each bundled query with
    --fail-if-found, each command on its own as a CI job would run it.
    The garbage of earlier cycles is collected first, untimed, so each
    cycle starts from a heap like a fresh CI job's."""
    import expected

    gc.collect()
    watch.pause()
    if tracer is not None:
        tracer.op, tracer.label = op, "build"
    (code, output), *build = watch.time(
        lambda: run_cli(["build", str(inputs.manifest), "--out", str(inputs.graph_file)])
    )
    ok = code == 0
    what = f"build exited {code}: {output[-200:]}"
    counts = []
    queries = []
    for name in expected.BUNDLED:
        if tracer is not None:
            tracer.label = name
        want = expected.expected_count(name, inputs.templates)
        args = ["query", str(inputs.graph_file), f"@{inputs.query_files[name]}", "--fail-if-found"]
        (code, output), *timing = watch.time(lambda: run_cli(args))
        queries.append(tuple(timing))
        if code != (1 if want else 0):
            ok = False
            what = f"query {name} exited {code}: {output[-200:]}"
        counts.append((_result_count(output) if code is not None else None, want))
    tally.check(ok, counts, what)
    return Cycle(tuple(build), queries)


def render_results(graph, results) -> list[str]:
    """Result lines as `skygraph query` prints them."""
    from skygraph import cli

    lines = []
    for result in results:
        if result.path is not None:
            lines.append(cli.render_path(graph, result.path))
        else:
            lines.append(
                ", ".join(
                    f"{var}={graph.node(node_id).name}({graph.node(node_id).class_name})"
                    for var, node_id in sorted(result.bindings.items())
                )
            )
    return lines


def query_loop(graph, inputs: Inputs, seed: int, seconds: float, tally: Tally,
               watch: Stopwatch, tracer=None, first_op: int = 0) -> list[Timing]:
    """Closed loop with one client over seeded shuffles ("decks") of all
    queries. Only whole decks run, so every run has the same mix and each
    percentile falls inside one query's latency band instead of moving
    between bands with the share of a partial deck; at least MIN_DECKS run,
    so at least ten samples lie beyond p90. Returns the latencies."""
    import expected
    import skygraph.query

    names = sorted(inputs.query_files)
    texts = {name: inputs.query_files[name].read_text(encoding="utf-8") for name in names}
    star_max = graph.settings.get("star_max", 10)
    rng = random.Random(seed)
    watch.pause()
    latencies: list[Timing] = []
    decks = asked = 0
    start = clock()
    while decks < MIN_DECKS or clock() - start < seconds:
        decks += 1
        deck = list(names)
        rng.shuffle(deck)
        for name in deck:
            if tracer is not None:
                tracer.op, tracer.label = first_op + asked, name
            asked += 1

            def one_query(name=name):
                ast = skygraph.query.parse_query(texts[name])
                results = skygraph.query.evaluate(graph, ast, star_max=star_max)
                render_results(graph, results)
                return results

            try:
                results, *timing = watch.time(one_query)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                watch.pause()
                tally.check(False, [(None, 0)], f"query {name} raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(tuple(timing))
            want = expected.expected_count(name, inputs.templates)
            tally.check(True, [(len(results), want)], name)
    return latencies


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@contextlib.contextmanager
def traced(tracer):
    """Wrappers installed for the block when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


@dataclass
class Measured:
    setups: list[Timing] = field(default_factory=list)
    cycles: list[Cycle] = field(default_factory=list)
    queries: list[Timing] = field(default_factory=list)
    export_bytes: int = 0


def measure(workload: str, seed: int, seconds: float, work: Path, tally: Tally,
            tracer=None) -> Measured:
    """Set up and run `workload` once; traced when a tracer is given."""
    from skygraph.graph import import_graph

    _, _, kind = WORKLOADS[workload]
    m = Measured()
    setups = GATE_SETUPS if kind == "gate" else QUERY_MIX_SETUPS
    if tracer is not None:
        setups = 1

    # Spans must not include the reference samples.
    watch = Stopwatch(sample=tracer is None)
    inputs = graph = None
    for i in range(setups):
        if inputs is not None:
            shutil.rmtree(inputs.manifest.parent)
        # Input generation mostly creates files, whose speed the reference
        # loop does not track; it is timed as wall time only. Set-up then
        # builds the graph, as a CI job's first run would, which also keeps
        # the file system's swings a small part of set-up time.
        began = clock()
        inputs = set_up_inputs(work / f"setup{i}", workload, seed)
        generated = clock() - began
        if kind == "gate":
            args = ["build", str(inputs.manifest), "--out", str(inputs.graph_file)]
            (code, output), *built = watch.time(lambda: run_cli(args))
            tally.check(code == 0, [], f"warm-up build exited {code}: {output[-200:]}")
        else:
            with traced(tracer):
                cycle = gate_cycle(inputs, tally, watch, tracer, op=0)
                if tracer is not None:
                    tracer.label = "import"
                text = inputs.graph_file.read_text(encoding="utf-8")
                graph, *loaded = watch.time(lambda: import_graph(text))
            m.cycles.append(cycle)
            built = [cycle.verdict(0) + loaded[0], cycle.verdict(1) + loaded[1]]
        m.setups.append((generated + built[0], generated + built[1]))
    with traced(tracer):
        if kind == "gate":
            start = clock()
            while not m.cycles or clock() - start < seconds:
                m.cycles.append(gate_cycle(inputs, tally, watch, tracer, op=len(m.cycles)))
        else:
            m.queries = query_loop(graph, inputs, seed, seconds, tally, watch, tracer, first_op=1)
    m.export_bytes = inputs.graph_file.stat().st_size
    shutil.rmtree(inputs.manifest.parent)
    return m


TIMES = ("setup_s", "verdict_s", "build_s", "scan_s", "query_ms.p50", "query_ms.p90",
         "queries_per_s")


def end_to_end(m: Measured, tally: Tally, kind: int = 0) -> dict[str, float]:
    """The end-to-end metrics, times at reference speed (`kind` 0) or wall
    times (`kind` 1)."""
    # On query-mix the gate cycles and the export come from set-up, and the
    # query latencies from the timed loop; on the gate workloads every query
    # sample is one `skygraph query` command, graph import included.
    query_s = [q[kind] for q in m.queries or [q for c in m.cycles for q in c.queries]]
    return {
        "setup_s": statistics.median(s[kind] for s in m.setups),
        "verdict_s": statistics.median(c.verdict(kind) for c in m.cycles),
        "build_s": statistics.median(c.build[kind] for c in m.cycles),
        "scan_s": statistics.median(c.scan(kind) for c in m.cycles),
        "query_ms.p50": 1000 * percentile(query_s, 50),
        "query_ms.p90": 1000 * percentile(query_s, 90),
        "queries_per_s": len(query_s) / sum(query_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "export_mb": m.export_bytes / 1e6,
        "findings_error_ratio": (tally.expected_results + tally.wrong_findings)
        / max(tally.expected_results, 1),
    }


def checks(tally: Tally) -> dict[str, float]:
    return {
        "wrong_findings": tally.wrong_findings,
        "failed_share": (tally.failed + tally.miscounted) / tally.attempted,
    }


CHECK_UNITS = {"wrong_findings": "count", "failed_share": "share"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "skygraph" / "__init__.py").is_file():
        print(f"error: no skygraph sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skygraph

    if Path(skygraph.__file__).resolve().parent != (SRC / "skygraph").resolve():
        print(f"error: imported skygraph from {skygraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            import layers
            from tracing import Tracer

            half = args.seconds / 2
            plain = measure(args.workload, args.seed, half, work, tally)
            tracer = Tracer()
            with_trace = measure(args.workload, args.seed, half, work / "traced", tally, tracer)
            metrics = {**layers.per_layer(tracer, plain, with_trace), **checks(tally)}
            units = {**layers.UNITS, **CHECK_UNITS}
            trace_file = ROOT / ".bench_work" / "traces" / f"{args.workload}-{args.seed}.jsonl"
            tracer.write(trace_file)
            print(f"trace written to {trace_file.relative_to(ROOT)}")
        else:
            measured = measure(args.workload, args.seed, args.seconds, work, tally)
            metrics = end_to_end(measured, tally)
            units = END_TO_END_UNITS
            wall = end_to_end(measured, tally, kind=1)
            for name in TIMES:
                print(f"wall {name} = {wall[name]} {units[name]}")
            for name, value in checks(tally).items():
                print(f"metric {name} = {value} {CHECK_UNITS[name]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in tally.errors:
        print(f"failed: {error}")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
