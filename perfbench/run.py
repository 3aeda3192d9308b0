#!/usr/bin/env python3
"""Regime-map benchmark of cantor-spectra: sweep, phase-cli and queries.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload is a closed loop with one client.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
a separate run reports per-layer metrics from spans recorded around the
library's public functions (see tracer.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print every metric with its unit.  A
traced run does a fixed stretch of work and ignores ``--seconds``.
``--smoke`` shrinks every input for the smoke test.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import inputs
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("sweep", "phase-cli", "queries")
PROBES = 7  # fresh interpreters per set-up measurement
WARM_PER_COLD = 6  # phase-cli warm reruns after each cold run
TRACED_OPS = {"sweep": 3, "queries": 15}  # sweep slices or requests per traced run
REPEATED = {"sweep": 3, "queries": 5}  # leading operations run twice: cold, then warm
# Wall seconds of one round of five requests at the seed on a 2-vCPU host.
# A queries run makes round(--seconds / QUERY_ROUND_S) rounds, so the
# same seed and --seconds always give the same requests and failures.
QUERY_ROUND_S = 7.5

UNITS = {
    "setup_s": "s",
    "couplings_per_s": "1/s",
    "cold_s": "s",
    "warm_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

LAYER_UNITS = {
    "spectrum.band_set.calls": "count",
    "spectrum.band_set.self_s": "s",
    "spectrum.band_set.max_s": "s",
    "spectrum.band_set.self_frac": "ratio",
    "spectrum.band_set.repeat_frac": "ratio",
    "spectrum.band_coverage": "ratio",
    "spectrum.cache.hit_frac": "ratio",
    "spectrum.cache.files_written": "count",
    "spectrum.cache.bytes": "B",
    "spectrum.cache.hit_s": "s",
    "spectrum.finite_chain_dos.self_s": "s",
    "cantor_core.box_dimension_estimate.self_s": "s",
    "cantor_core.normalize.self_s": "s",
    "cantor_core.minkowski_sum.self_s": "s",
    "measures.convolve.calls": "count",
    "measures.convolve.self_s": "s",
    "measures.measure_dimension_estimate.self_s": "s",
    "trace_dynamics.classify_orbit.calls": "count",
    "trace_dynamics.classify_orbit.self_s": "s",
    "phase_diagram.dims_for_lambda.p50_s": "s",
    "phase_diagram.dims_for_lambda.max_s": "s",
    "phase_diagram.pool_speedup": "ratio",
    "cli.startup_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed; a raised or exact failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def add(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(m for _, m in failures)
            if any(kind != "oracle" for kind, _ in failures):
                self.correct = False


# -- measurements --------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def startup_probe(code):
    """Median wall time of fresh interpreters running ``code``."""
    times = []
    for _ in range(PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def setup_seconds(workload, seed, size_name):
    """Fresh interpreter to package imported and workload inputs generated."""
    module = "cantor_spectra.cli" if workload == "phase-cli" else "cantor_spectra"
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import {module}, inputs; "
        f"inputs.make({workload!r}, {seed}, inputs.{size_name})"
    )
    return startup_probe(code)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies and the maximum is
    reported as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def latency_metrics(latencies, wall):
    value, pct = tail(latencies)
    return (
        {
            "query_p50_s": statistics.median(latencies),
            "query_tail_s": value,
            "queries_per_s": len(latencies) / wall,
        },
        f"query_tail_s is the p{pct:.1f} of {len(latencies)} samples",
    )


# -- sweep and queries: in-process closed loop ----------------------------


def in_process_ops(workload, seed, size):
    """Endless (couplings, task) pairs: a sweep slice, or one request."""
    if workload == "sweep":
        pass_index = 0
        while True:
            for axis in inputs.sweep_slices(seed, size, pass_index):
                yield len(axis), wl.sweep_task(axis, size)
            pass_index += 1
    else:
        for batch in inputs.query_rounds(seed, size):
            for q in batch:
                yield len(q.couplings), wl.query_task(q, size)


def run_op(task, tally, latencies=None):
    """Run one operation and check its output; returns its wall time."""
    dt, failures = wl.timed(task)
    tally.add(failures)
    if latencies is not None:
        latencies.append(dt)
    return dt


def in_process_untraced(workload, seed, size, seconds, tally):
    """Operations in order; the first few run twice in a row.

    sweep runs slices until time is up.  queries runs a fixed number of
    whole rounds sized from ``seconds``, so that which requests fail their
    oracle check (where the band scan loses bands at large couplings) and
    how many requests they are out of depend on the seed alone, not on the
    host's speed.  The
    repeated operations give cold_s (first run) and warm_s (repeat with the
    same inputs) as means, which damp the noise of single timings.
    """
    ops = in_process_ops(workload, seed, size)
    repeated = REPEATED[workload]
    if workload == "queries":
        requests = len(inputs.QUERY_KINDS) * max(1, round(seconds / QUERY_ROUND_S))
    latencies, first, again = [], [], []
    couplings = 0
    t0 = perf_counter()

    def more():
        if len(first) < repeated:
            return True
        if workload == "queries":
            return len(first) < requests
        return perf_counter() - t0 < seconds

    while more():
        n, task = next(ops)
        first.append(run_op(task, tally, latencies))
        couplings += n
        if len(first) == 1:
            # Peak after the first operation: later ones add the allocator's
            # unreturned free memory, +-10 % of run-to-run noise.
            peak = peak_rss_mb(resource.RUSAGE_SELF)
        if len(first) <= repeated:
            again.append(run_op(task, tally, latencies))
    wall = perf_counter() - t0
    metrics, note = latency_metrics(latencies, wall)
    metrics.update(
        {
            "couplings_per_s": couplings / sum(first),
            "cold_s": statistics.mean(first[:repeated]),
            "warm_s": statistics.mean(again),
            "peak_rss_mb": peak,
        }
    )
    return metrics, [note, f"{len(first)} operations, the first {repeated} run twice"]


def in_process_traced(workload, seed, size, tally):
    """A fixed stretch of work, so per-layer counts compare between versions.

    The first operation runs cold (warming the process up), traced, and
    untraced again; the tracing overhead is the traced minus the second
    untraced run.  Then the next TRACED_OPS[workload] - 1 operations run
    traced.
    """
    ops = in_process_ops(workload, seed, size)
    _, first = next(ops)
    run_op(first, tally)
    tracer = Tracer()
    with tracer:
        traced_s = run_op(first, tally)
    overhead = traced_s - run_op(first, tally)
    with tracer:
        for _ in range(TRACED_OPS[workload] - 1):
            traced_s += run_op(next(ops)[1], tally)
    layers = layer_metrics(tracer, traced_s)
    layers["trace.overhead_s"] = overhead
    return layers, tracer


# -- phase-cli: the CLI as a subprocess -----------------------------------


def fresh_dir(parent, prefix):
    return tempfile.mkdtemp(prefix=prefix, dir=parent)


def cli_untraced(seed, size, seconds, tally, work):
    """Cold runs into empty caches, each followed by warm reruns, until time is up."""
    grid = inputs.cli_grid(seed, size)
    out = fresh_dir(work, "out-")
    env = child_env()
    reference = None
    cold, warm = [], []
    t0 = perf_counter()
    while True:
        cache = fresh_dir(work, "cache-")
        argv = wl.phase_argv(grid, size, 2, cache, out)
        for i in range(WARM_PER_COLD + 1):
            result = wl.run_cli(argv, env)
            reference = reference or (result if result[1] == 0 else None)
            tally.add(wl.cli_failures(result, reference))
            (warm if i else cold).append(result[0])
            if i and perf_counter() - t0 >= seconds:
                break
        shutil.rmtree(cache)
        if perf_counter() - t0 >= seconds:
            break
    wall = perf_counter() - t0
    metrics, note = latency_metrics(cold + warm, wall)
    metrics.update(
        {
            "couplings_per_s": size.cli_n / statistics.median(cold),
            "cold_s": statistics.median(cold),
            "warm_s": statistics.median(warm),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    )
    return metrics, [note, f"{len(cold)} cold and {len(warm)} warm CLI runs"]


def cli_traced(seed, size, tally, work):
    """Per-layer numbers of the CLI, taken from outside its process.

    Two cold subprocess runs (2 workers, then 1) give the pool speed-up and
    the cache's files and bytes.  The CLI's main is then replayed in-process
    with one worker, traced: into the filled cache (hit time, hit fraction,
    tracing overhead against an untraced replay) and into an empty cache
    (band_set and dims_for_lambda as the cold run's workers do them).
    """
    cli = wl.lib("cli")
    grid = inputs.cli_grid(seed, size)
    env = child_env()
    filled, serial_cache, empty = (fresh_dir(work, "cache-") for _ in range(3))
    out = fresh_dir(work, "out-")

    parallel = wl.run_cli(wl.phase_argv(grid, size, 2, filled, out), env)
    tally.add(wl.cli_failures(parallel, None))
    serial = wl.run_cli(wl.phase_argv(grid, size, 1, serial_cache, out), env)
    tally.add(wl.cli_failures(serial, parallel))
    names = os.listdir(filled)
    files_written = len(names)
    cache_bytes = sum(os.path.getsize(os.path.join(filled, n)) for n in names)

    def replay(cache):
        argv = wl.phase_argv(grid, size, 1, cache, out)[3:]
        code = 0
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            try:
                cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        elapsed = perf_counter() - t0
        result = (elapsed, code, buf.getvalue().encode(), wl.read_artifacts(out))
        tally.add(wl.cli_failures(result, parallel))
        return elapsed

    untraced = replay(filled)
    warm_tracer = Tracer()
    with warm_tracer:
        traced = replay(filled)
    cold_tracer = Tracer()
    with cold_tracer:
        cold_traced = replay(empty)

    layers = layer_metrics(cold_tracer, cold_traced)
    hits = warm_tracer.band_set_counters()
    layers.update(
        {
            "spectrum.cache.hit_frac": hits["hit_frac"],
            "spectrum.cache.hit_s": hits["hit_s"],
            "spectrum.cache.files_written": files_written,
            "spectrum.cache.bytes": cache_bytes,
            "phase_diagram.pool_speedup": serial[0] / parallel[0],
            "trace.overhead_s": traced - untraced,
        }
    )
    return layers, cold_tracer


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer, traced_s):
    out = {name: 0 for name in LAYER_UNITS}
    calls, self_s, max_s, _ = tracer.layer("spectrum.band_set")
    counters = tracer.band_set_counters()
    out.update(
        {
            "spectrum.band_set.calls": calls,
            "spectrum.band_set.self_s": self_s,
            "spectrum.band_set.max_s": max_s,
            "spectrum.band_set.self_frac": self_s / traced_s,
            "spectrum.band_set.repeat_frac": counters["repeat_frac"],
            "spectrum.band_coverage": counters["coverage"],
            "spectrum.cache.hit_frac": counters["hit_frac"],
            "spectrum.cache.hit_s": counters["hit_s"],
            "trace.traced_s": traced_s,
        }
    )
    for name in (
        "spectrum.finite_chain_dos",
        "cantor_core.box_dimension_estimate",
        "cantor_core.normalize",
        "cantor_core.minkowski_sum",
        "measures.convolve",
        "measures.measure_dimension_estimate",
        "trace_dynamics.classify_orbit",
    ):
        n, self_s, _, _ = tracer.layer(name)
        out[f"{name}.self_s"] = self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = n
    _, _, dims_max, dims = tracer.layer("phase_diagram.dims_for_lambda")
    out["phase_diagram.dims_for_lambda.p50_s"] = statistics.median(dims) if dims else 0.0
    out["phase_diagram.dims_for_lambda.max_s"] = dims_max
    return out


# -- entry point ------------------------------------------------------------


def report(workload, seed, trace, tally, metrics, units, notes):
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name in units:
        if name in metrics:
            print(f"  {name:44s} {metrics[name]!r} {units[name]}")
    for note in notes:
        print(f"  note: {note}")
    for message in tally.messages[:20]:
        print(f"  failed: {message}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics and name != "failed_frac"
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "cantor_spectra" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = inputs.SMOKE if args.smoke else inputs.FULL
    size_name = "SMOKE" if args.smoke else "FULL"
    SCRATCH.mkdir(exist_ok=True)
    work = fresh_dir(SCRATCH, f"{args.workload}-")
    tally = Tally()
    notes = []
    try:
        if args.trace:
            if args.workload == "phase-cli":
                metrics, tracer = cli_traced(args.seed, size, tally, work)
            else:
                metrics, tracer = in_process_traced(args.workload, args.seed, size, tally)
            metrics["cli.startup_s"] = startup_probe("import cantor_spectra.cli")
            spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans)
            notes.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
            units = LAYER_UNITS
        else:
            setup = setup_seconds(args.workload, args.seed, size_name)
            if args.workload == "phase-cli":
                metrics, notes = cli_untraced(args.seed, size, args.seconds, tally, work)
            else:
                metrics, notes = in_process_untraced(args.workload, args.seed, size, args.seconds, tally)
            metrics["setup_s"] = setup
            metrics["failed_frac"] = tally.failed / tally.attempted
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, args.trace, tally, metrics, units, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
