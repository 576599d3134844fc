"""The benchmark's own tests (tiny traces; not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

run.bootstrap()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 40
SEED = 3


def bench(workload: str, trace: int):
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", str(trace), "--requests", str(TINY)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    spans = run.spans_path(workload, SEED)
    spans.unlink(missing_ok=True)
    lines, result = bench(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    if trace:
        assert spans.is_file()
    else:
        assert any("failed_frac 0 fraction" in line for line in lines)


def test_wrappers_fully_removed_after_traced_run():
    from repro.config.presets import fgnvm
    from repro.sim.simulator import simulate
    from repro.workloads.spec_profiles import get_profile
    from repro.workloads.tracegen import generate_trace

    before = {(owner, name): vars(owner).get(name)
              for owner, name, _, _ in layers._targets()}
    tracer = layers.SpanTracer()
    with layers.Installed(tracer):
        assert layers.installed_wrappers()
        simulate(fgnvm(8, 2), generate_trace(get_profile("mcf"), TINY))
    assert tracer.calls["sim.loop"] == 1
    assert tracer.calls["core.fgnvm_bank.issue"] > 0
    assert layers.installed_wrappers() == []
    after = {(owner, name): vars(owner).get(name)
             for owner, name, _, _ in layers._targets()}
    assert after == before

    seen = dict(tracer.calls)
    simulate(fgnvm(8, 2), generate_trace(get_profile("lbm"), TINY))
    assert dict(tracer.calls) == seen


def test_forked_child_runs_unwrapped():
    with layers.Installed(layers.SpanTracer()):
        pid = os.fork()
        if pid == 0:
            os._exit(1 if layers.installed_wrappers() else 0)
        _, status = os.waitpid(pid, 0)
        assert layers.installed_wrappers()
    assert os.waitstatus_to_exitcode(status) == 0


def test_wrapper_cost_goes_to_its_own_bucket():
    from repro.config.presets import fgnvm
    from repro.sim.simulator import simulate
    from repro.workloads.spec_profiles import get_profile
    from repro.workloads.tracegen import generate_trace

    tracer = layers.SpanTracer()
    with layers.Installed(tracer):
        started = time.perf_counter()
        tracer.root(simulate, fgnvm(8, 2),
                    generate_trace(get_profile("mcf"), 400))
        wall = time.perf_counter() - started
    assert tracer.wrapper_s() > 0
    assert tracer.self_s["sim.loop"] > 0
    assert run.attributed(tracer) == pytest.approx(wall, rel=0.02)


def test_failed_pass_leaves_no_segment_or_temp_dir(monkeypatch, tmp_path):
    from repro.analysis import reproduce

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure after the pooled grid")

    monkeypatch.setattr(reproduce, "render_figure4", broken)
    workload = passes.make_workload("reproduce-pooled", 0, TINY,
                                    tmp_path / "tmp")
    ledger = run.Ledger(None)
    hygiene = []
    assert run.run_checked(workload, ledger, hygiene) is None
    assert ledger.failed == ledger.attempted == workload.operations
    assert hygiene == []
    assert passes.live_segments() == []
    assert list((tmp_path / "tmp").iterdir()) == []


def test_digest_mismatch_counts_as_failed():
    ledger = run.Ledger([("a", "1"), ("b", "2")])
    result = passes.PassResult(wall_s=1.0, digests=[("a", "1"), ("b", "3")])
    ledger.check(result)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_self_times_add_up_to_the_root_wall():
    tracer = layers.SpanTracer()

    def leaf():
        return sum(range(20_000))

    inner = tracer.span("inner", lambda: [leaf() for _ in range(3)])
    # A layer re-entering itself is one call, not a child span.
    reentrant = tracer.span("inner", inner)
    outer = tracer.span("outer", lambda: [reentrant() for _ in range(2)])
    started = time.perf_counter()
    tracer.root(outer)
    wall = time.perf_counter() - started
    assert tracer.calls == {"inner": 2, "outer": 1, layers.ROOT: 1}
    assert tracer.passthroughs == {"inner": 2}
    assert tracer.wrapper_s() == 0.0
    assert all(v >= 0 for v in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= wall
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=0.05)


def test_calibrated_cost_is_positive_and_small():
    inside, outside, passthrough = layers.calibrate()
    assert 0 < inside + outside < 1e-4
    assert 0 <= passthrough < 1e-4


def test_scaled_time_reads_at_the_reference_speed():
    ref = speed.REFERENCE_S
    meter = speed.Speedometer()
    # The host at half speed: every sample takes twice the reference.
    meter.samples = [(t, t + 2 * ref) for t in (1.0, 1.5, 2.0)]
    assert meter.scaled(0.9, 2.6, 1.7) == pytest.approx((1.7 - 6 * ref) / 2)
    # Two pool workers sampled: the pass paid half of the sample time.
    assert meter.scaled(0.9, 2.6, 1.7, share=0.5) == pytest.approx(
        (1.7 - 3 * ref) / 2)
    # A window too short for a sample borrows the nearest ones.
    assert meter.scaled(5.0, 5.01, 0.01) == pytest.approx(0.005)


def test_forked_children_sample_instead_of_the_parent(tmp_path):
    meter = speed.Speedometer(spool=tmp_path / "spool")
    with meter.watch():
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        pid = os.fork()
        if pid == 0:
            time.sleep(5 * speed.INTERVAL_S)
            os._exit(0)
        os.waitpid(pid, 0)
    assert meter.samples == []
    meter.collect()
    assert len(meter.samples) >= 2
    assert all(end > start for start, end in meter.samples)
    assert list((tmp_path / "spool").iterdir()) == []


def test_resource_tracker_is_stopped_and_reaped():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)
