"""FgNVM reproduction benchmark: one command, every metric, checked.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-serial --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced passes;
``--trace 1`` runs one untraced pass, then traced passes with per-layer
span wrappers installed, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import passes
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = BENCH_DIR / "tmp"
PINS = BENCH_DIR / "pinned_digests.json"

#: Set-up samples before every pass and after the last (each a fresh
#: interpreter), so the set-up median is not one moment's host speed.
SETUP_PROBES = 2

#: Layers reported by self time only: one call per job or batch.
UNCOUNTED = ("sim.loop", "sim.parallel.run_jobs")

#: Layer self times plus ``other`` and the wrapper bucket must match
#: the traced wall within this share of it.
ATTRIBUTION_TOLERANCE = 0.02


def bootstrap() -> None:
    """Put the simulator sources first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC.name}/ "
              "next to the benchmark; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("error: imported repro from outside this checkout",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig4-serial", "mix4-shared",
                                 "reproduce-pooled"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure passes until this much time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="override requests per trace (smoke runs; "
                             "pinned digests then do not apply)")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite this workload's pinned digests from "
                             "one seed-0 pass and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-helper", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- helpers ---------------------------------------------------------------


def percentile(values, percent: int) -> float:
    """Percentile interpolated between order statistics.

    The inclusive method keeps p90 inside the sample for the few jobs
    of ``mix4-shared`` instead of extrapolating towards its maximum.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[percent - 1]


def measure_setup(args, probes: int) -> list:
    """(host s, reference-speed s) from launch to 'ready', per probe.

    The probe samples the host's speed itself while it sets up and
    reports the samples' total and mean with its 'ready' line.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.requests is not None:
        command += ["--requests", str(args.requests)]
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
        words = line.split()
        if probe.returncode != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({probe.returncode})")
        spent, mean = float(words[1]), float(words[2])
        samples.append((elapsed,
                        (elapsed - spent) * speed.REFERENCE_S / mean))
    return samples


def setup_probe(args) -> int:
    """Probe side: build what set-up builds while sampling the speed."""
    speedometer = speed.Speedometer()
    speedometer.take()
    with speedometer.watch():
        bootstrap()
        requests = args.requests or passes.DEFAULT_REQUESTS
        workload = passes.make_workload(args.workload, args.seed, requests,
                                        TMP_DIR)
        TMP_DIR.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP_DIR))
        try:
            workload.new_engine(scratch / "cache")
            ready = time.perf_counter()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    spent, mean = speedometer.window(0.0, ready)
    print(f"ready {spent!r} {mean!r}", flush=True)
    return 0


class ProbeHelper:
    """Runs the set-up probes from a helper process.

    The probes are the helper's children, so their RSS reaches this
    process's ``RUSAGE_CHILDREN`` only when the helper is reaped, which
    :meth:`close` does after ``peak_rss_mib`` is read.
    """

    def __init__(self, args):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--probe-helper", "--workload", args.workload,
                   "--seed", str(args.seed)]
        if args.requests is not None:
            command += ["--requests", str(args.requests)]
        self.helper = subprocess.Popen(command, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def measure(self, probes: int) -> list:
        self.helper.stdin.write(f"{probes}\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe helper exited")
        return json.loads(line)

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_probes(args) -> int:
    """Helper side: for each line ``n`` on stdin, run ``n`` probes."""
    for line in sys.stdin:
        print(json.dumps(measure_setup(args, int(line))), flush=True)
    return 0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Ledger:
    """Counts operations and compares digests against a reference."""

    def __init__(self, reference):
        self.reference = dict(reference) if reference else None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, result) -> None:
        if self.reference is None:
            self.reference = dict(result.digests)
        for label, digest in result.digests:
            self.attempted += 1
            if self.reference.get(label) != digest:
                self.failed += 1
                self.problems.append(f"digest mismatch: {label}")
        produced = dict(result.digests)
        for label in self.reference:
            if label not in produced:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"missing output: {label}")

    def fail_pass(self, operations: int, exc: BaseException) -> None:
        self.attempted += operations
        self.failed += operations
        self.problems.append(f"pass raised {type(exc).__name__}: {exc}")


def load_pins(workload, requests: int):
    """Pinned digests, when they apply to this seed and trace length."""
    if requests != passes.DEFAULT_REQUESTS or not PINS.is_file():
        return None
    if workload.seed != 0 and not workload.seed_free_digests:
        return None
    entry = json.loads(PINS.read_text()).get(workload.name)
    if entry is None or entry["requests"] != requests:
        return None
    return [tuple(pair) for pair in entry["digests"]]


# -- passes ---------------------------------------------------------------


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The engine's shared-memory segments start the tracker as a child of
    this process; left alone, it outlives the benchmark briefly.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_checked(workload, ledger, hygiene, runner=None):
    """One pass: timed part (optionally via ``runner``), then checks."""
    runner = runner or (lambda fn: fn())
    try:
        result = runner(workload.run_pass)
        workload.check_pass(result)
    except Exception as exc:  # every operation of the pass fails
        ledger.fail_pass(workload.operations, exc)
        hygiene.extend(_leftovers(workload.tmp_root))
        return None
    ledger.check(result)
    hygiene.extend(result.hygiene)
    return result


def _leftovers(tmp_root: Path) -> list:
    found = [f"shared-memory segment survived: {name}"
             for name in passes.live_segments()]
    if tmp_root.is_dir():
        found += [f"temp dir survived: {p.name}" for p in tmp_root.iterdir()]
    return found


def traced_pass(workload, ledger, hygiene):
    """One pass with span wrappers installed around the timed part."""
    tracer = layers.SpanTracer()
    timing = {}

    def runner(run_pass):
        with layers.Installed(tracer):
            started = time.perf_counter()
            result = tracer.root(run_pass)
            timing["wall"] = time.perf_counter() - started
        return result

    result = run_checked(workload, ledger, hygiene, runner)
    return result, tracer, timing.get("wall")


def measure(args, workload, ledger, hygiene, probes, speedometer):
    """Run passes until the next one would end past ``--seconds``.

    Untraced runs take set-up probes before every pass and after the
    last, so the set-up median spans the whole run, and sample the
    host's speed during every pass.  A traced run is one untraced pass
    (the overhead baseline) and then traced passes, at least one, all
    unsampled.  The first failed pass ends the run.
    Returns (untraced results, traced entries, set-up samples).
    """
    started = time.perf_counter()
    untraced, traced, setup = [], [], []
    durations = {False: [], True: []}
    while True:
        round_started = time.perf_counter()
        tracing = bool(args.trace and untraced)
        if tracing:
            entry = traced_pass(workload, ledger, hygiene)
            if entry[0] is None:
                break
            traced.append(entry)
        else:
            runner = None
            if not args.trace:
                setup += probes.measure(SETUP_PROBES)

                def runner(run_pass):
                    with speedometer.watch():
                        return run_pass()
            result = run_checked(workload, ledger, hygiene, runner)
            if speedometer.spool is not None:
                speedometer.collect()
            if result is None:
                break
            untraced.append(result)
        durations[tracing].append(time.perf_counter() - round_started)
        next_tracing = bool(args.trace)
        if next_tracing and not traced:
            continue
        estimate = statistics.median(durations[next_tracing])
        if time.perf_counter() - started + estimate > args.seconds:
            break
    if not args.trace:
        setup += probes.measure(SETUP_PROBES)
    return untraced, traced, setup


# -- metrics --------------------------------------------------------------


def scaled_walls(results, speedometer, workers: int):
    """Pass walls and per-job walls, at the reference speed.

    Jobs run in this process are scaled by the speed inside their own
    window; pool jobs as their pass is.  Each of ``workers`` processes
    sampled a pool pass, so a pool's wall pays for 1/workers of the
    sample time.
    """
    walls, jobs = [], {}
    for p in results:
        wall = speedometer.scaled(*p.window, p.wall_s, 1 / workers)
        walls.append(wall)
        for key, job_wall in p.job_walls.items():
            window = p.job_windows.get(key)
            jobs.setdefault(key, []).append(
                speedometer.scaled(*window, job_wall) if window
                else job_wall * wall / p.wall_s)
    return walls, jobs


def end_to_end(results, walls, job_runs, setup, ledger, rss_mib):
    """Host times at the reference speed: medians over passes and runs."""
    from repro.sim.experiment import geometric_mean

    wall = statistics.median(walls)
    jobs = [statistics.median(runs) for runs in job_runs.values()]
    first = results[0]
    return {
        "wall_s": (wall, "s"),
        "sim_requests_per_s": (first.requests / wall, "1/s"),
        "sim_cycles_per_s": (first.cycles / wall, "1/s"),
        "job_wall_p50_s": (percentile(jobs, 50), "s"),
        "job_wall_p90_s": (percentile(jobs, 90), "s"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "sim_ipc_gmean": (geometric_mean(first.ipcs), "ipc"),
        "fig4_mi_err_vs_paper": (
            abs(first.mi_speedup - passes.PAPER_MI_SPEEDUP)
            / passes.PAPER_MI_SPEEDUP, "fraction"),
    }, {
        "passes": len(results),
        "job_samples": len(jobs),
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
    }


def simulated_counters(stats) -> dict:
    from repro.memsys.stats import histogram_percentile

    reads = sum(s.reads for s in stats)
    histogram = [sum(column) for column in
                 zip(*(s.latency_histogram for s in stats))] if stats else []
    latency_max = max((s.read_latency_max for s in stats), default=0)
    per_read = (lambda total: total / reads) if reads else (lambda _: 0.0)
    return {
        "memsys.row_hit_rate": (
            per_read(sum(s.row_hits for s in stats)), "fraction"),
        "memsys.avg_read_latency_cycles": (
            per_read(sum(s.read_latency_sum for s in stats)), "cycles"),
        "memsys.read_latency_p95_cycles": (
            histogram_percentile(histogram, 95, latency_max)
            if histogram else 0, "cycles"),
        "memsys.write_drain_entries": (
            sum(s.write_drain_entries for s in stats), "count"),
        "memsys.queue_full_events": (
            sum(s.read_queue_full_events + s.write_queue_full_events
                for s in stats), "count"),
        "core.multi_activation_senses": (
            sum(s.multi_activation_senses for s in stats), "count"),
        "core.reads_under_write": (
            sum(s.reads_under_write for s in stats), "count"),
        "core.writes_overlapped": (
            sum(s.writes_overlapped for s in stats), "count"),
        "core.underfetch_rate": (
            per_read(sum(s.underfetches for s in stats)), "fraction"),
    }


def per_layer(untraced, traced):
    """Per-layer metrics averaged over the traced passes."""
    n = len(traced)

    def mean(fn):
        return sum(fn(result, tracer, wall)
                   for result, tracer, wall in traced) / n

    metrics = {}
    for layer in layers.LAYERS:
        if layer not in UNCOUNTED:
            metrics[f"{layer}.calls"] = (mean(
                lambda r, t, w: t.calls[layer]), "count")
        metrics[f"{layer}.self_s"] = (mean(
            lambda r, t, w: t.self_s[layer]), "s")
    metrics["workloads.tracegen.rows"] = (mean(
        lambda r, t, w: t.counts["workloads.tracegen.rows"]), "count")
    metrics["memsys.controller.issue_frac"] = (mean(
        lambda r, t, w: t.counts["memsys.controller.tick.issued"]
        / max(t.calls["memsys.controller.tick"], 1)), "fraction")
    metrics["sim.ticks_per_cycle"] = (mean(
        lambda r, t, w: t.calls["memsys.controller.tick"]
        / max(r.cycles, 1)), "ratio")
    for name, unit in (("warm_readback_s", "s"), ("worker_util", "fraction"),
                       ("result_bytes", "bytes"), ("shm_attached", "count"),
                       ("regenerated_jobs", "count"),
                       ("cache_hits", "count")):
        metrics[f"sim.parallel.{name}"] = (mean(
            lambda r, t, w: r.engine.get(name, 0)), unit)
    metrics.update(simulated_counters(traced[0][0].stats))
    metrics["bench.other_s"] = (mean(
        lambda r, t, w: t.self_s[layers.ROOT]), "s")
    metrics["bench.wrapper_s"] = (mean(
        lambda r, t, w: t.wrapper_s()), "s")
    metrics["bench.traced_wall_s"] = (mean(lambda r, t, w: w), "s")
    metrics["bench.attribution_err"] = (mean(
        lambda r, t, w: abs(attributed(t) - w) / w), "fraction")
    metrics["bench.trace_overhead_x"] = (
        statistics.median(r.wall_s for r, _, _ in traced)
        / statistics.median(p.wall_s for p in untraced), "x")
    return metrics


def attributed(tracer) -> float:
    return (sum(tracer.self_s[layer] for layer in layers.LAYERS)
            + tracer.self_s[layers.ROOT] + tracer.wrapper_s())


# -- output ---------------------------------------------------------------


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


def report(ledger, hygiene, metrics, extra_lines) -> int:
    for line in extra_lines:
        print(line)
    show(metrics)
    for problem in ledger.problems + hygiene:
        print(f"FAIL {problem}")
    correct = ledger.failed == 0 and not hygiene
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def shape_lines(result) -> list:
    lines = [f"speedup gmean {label} = {value:.4f}"
             for label, value in result.series.items()]
    for artifact, problems in sorted(result.problems.items()):
        status = "ok" if not problems else "; ".join(problems)
        lines.append(f"shape {artifact}: {status}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_helper:
        return serve_probes(args)
    if args.setup_probe:
        return setup_probe(args)
    bootstrap()
    requests = args.requests or passes.DEFAULT_REQUESTS
    workload = passes.make_workload(args.workload, args.seed, requests,
                                    TMP_DIR)
    if args.repin:
        return repin(args, workload, requests)

    pins = load_pins(workload, requests)
    ledger = Ledger(pins)
    hygiene = []
    speedometer = speed.Speedometer(
        spool=OUT_DIR / f"speed-{os.getpid()}" if workload.workers > 1
        else None)
    try:
        with (contextlib.nullcontext() if args.trace
              else ProbeHelper(args)) as probes:
            untraced, traced, setup = measure(args, workload, ledger,
                                              hygiene, probes, speedometer)
            rss_mib = peak_rss_mib()
    finally:
        if speedometer.spool is not None:
            shutil.rmtree(speedometer.spool, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    lines = [f"workload {args.workload} seed {args.seed} "
             f"requests {requests} pinned "
             f"{'yes' if pins else 'no (reference: first pass)'}"]
    if not untraced or (args.trace and not traced):
        return report(ledger, hygiene, {}, lines)
    lines += shape_lines(untraced[0])
    lines.append(f"digests checked {ledger.attempted}, "
                 f"mismatched {ledger.failed}")
    if args.trace:
        metrics = per_layer(untraced, traced)
        out = spans_path(args.workload, args.seed)
        count = 0
        for n, (_, tracer, _) in enumerate(traced):
            path = out if n == 0 else out.with_suffix(f".{n}.jsonl")
            count += tracer.write_spans(path, {
                "workload": args.workload, "seed": args.seed,
                "traced_pass": n, "sample_every": layers.SAMPLE_EVERY,
                "jobs": tracer.jobs,
            })
        lines.append(f"spans: {count} sampled records -> {out}")
        for _, tracer, wall in traced:
            total = attributed(tracer)
            err = abs(total - wall) / wall
            lines.append(
                f"attribution: layers + other + wrapper = {total:.4f} s "
                f"(wrapper {tracer.wrapper_s():.4f} s) vs traced wall "
                f"{wall:.4f} s (err {err:.3%}, tolerance "
                f"{ATTRIBUTION_TOLERANCE:.0%})")
            if err > ATTRIBUTION_TOLERANCE:
                hygiene.append(f"attribution error {err:.3%} over tolerance")
    else:
        walls, job_runs = scaled_walls(untraced, speedometer,
                                       workload.workers)
        metrics, extra = end_to_end(untraced, walls, job_runs, setup,
                                    ledger, rss_mib)
        lines.append(f"passes {extra['passes']}, job samples "
                     f"{extra['job_samples']} (each the median of "
                     f"{extra['passes']} runs), failed_frac "
                     f"{extra['failed_frac']:.6g} fraction")
        sampled = statistics.median(e - s for s, e in speedometer.samples)
        lines.append(f"host speed: {len(speedometer.samples)} reference "
                     f"samples, median {sampled * 1e3:.3f} ms "
                     f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
        lines.append("pass walls, host s: " + " ".join(
            f"{p.wall_s:.3f}" for p in untraced)
            + "; at reference speed: " + " ".join(
            f"{w:.3f}" for w in walls))
        lines.append("set-up probes, host s: " + " ".join(
            f"{s:.3f}" for s, _ in setup)
            + "; at reference speed: " + " ".join(
            f"{s:.3f}" for _, s in setup))
    return report(ledger, hygiene, metrics, lines)


def spans_path(workload: str, seed: int) -> Path:
    """Where the traced run writes its first pass's sampled spans."""
    return OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"


def repin(args, workload, requests) -> int:
    if args.seed != 0 or requests != passes.DEFAULT_REQUESTS:
        print("error: pins are taken at --seed 0 and default requests",
              file=sys.stderr)
        return 2
    result = workload.run_pass()
    workload.check_pass(result)
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins[args.workload] = {"requests": requests,
                           "digests": [list(d) for d in result.digests]}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(result.digests)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_resource_tracker()
