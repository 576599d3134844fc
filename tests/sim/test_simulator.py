"""Simulation main loop: end-to-end runs, skipping, guards."""

import os

import pytest

from repro.config import baseline_nvm, fgnvm, fgnvm_multi_issue, many_banks
from repro.errors import SimulationError
from repro.memsys.request import OpType
from repro.memsys.scheduler import SCHEDULER_ENV
from repro.sim.multicore import isolate_address_spaces
from repro.sim.simulator import Simulator, simulate
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import multi_stream_kernel, stream_kernel
from tests.dense_tick import (
    CORE_COUNTS,
    VISIT_COUNTED,
    assert_matches_dense,
    build,
)


def small(cfg):
    cfg.org.rows_per_bank = 256
    return cfg


#: The Figure 4 organisations: ready writes held back by the read/write
#: phase (baseline, 128-banks), by the one-write-per-bank cap (fgnvm)
#: and with four command slots per cycle (multi-issue).
FIG4_PRESETS = {
    "baseline": baseline_nvm,
    "128-banks": many_banks,
    "fgnvm": lambda: fgnvm(8, 2),
    "fgnvm-multi-issue": fgnvm_multi_issue,
}


def write_heavy(cores, gap, seed=5):
    """Half-write stream mixes, one isolated address space per core."""
    return isolate_address_spaces([
        multi_stream_kernel(150, streams=4, gap=gap, write_fraction=0.5,
                            seed=seed + core)
        for core in range(cores)
    ])


def queue_filling(preset, channels=1):
    """``preset`` with 8-entry queues that a gap-2 trace keeps full."""
    cfg = small(FIG4_PRESETS[preset]())
    cfg.org.channels = channels
    cfg.controller.read_queue_entries = 8
    cfg.controller.write_queue_entries = 8
    cfg.controller.write_high_watermark = 6
    cfg.controller.write_low_watermark = 2
    return cfg


#: (preset, cores, channels, trace seed) -> (read, write) refusals of
#: the skipping loop on the queue-filling cases, recorded before the
#: controller horizon learned the phase policy and the write cap: the
#: skipped cycles must stay dead ones.  The two-channel case has one
#: channel's queue full while the other rests on its quiet memo.
QUEUE_FILL_REFUSALS = {
    ("baseline", 1, 1, 5): (188, 20),
    ("baseline", 2, 1, 5): (8472, 877),
    ("128-banks", 1, 1, 5): (195, 15),
    ("128-banks", 2, 1, 5): (9396, 297),
    ("fgnvm", 1, 1, 5): (183, 21),
    ("fgnvm", 2, 1, 5): (8582, 1219),
    ("fgnvm-multi-issue", 1, 1, 5): (183, 21),
    ("fgnvm-multi-issue", 2, 1, 5): (8582, 1223),
    ("128-banks", 2, 2, 1): (3635, 483),
}


class TestEndToEnd:
    def test_stream_completes_and_reports(self):
        result = simulate(small(baseline_nvm()), stream_kernel(200, gap=20))
        assert result.stats.reads == 200
        assert result.instructions == 200 * 21
        assert result.ipc > 0
        assert result.cycles > 0
        assert result.energy.total_pj > 0

    def test_write_trace_fully_drains(self):
        trace = [TraceRecord(5, OpType.WRITE, i * 64) for i in range(50)]
        result = simulate(small(baseline_nvm()), trace)
        assert result.stats.writes == 50

    def test_summary_is_flat(self):
        result = simulate(small(baseline_nvm()), stream_kernel(50))
        summary = result.summary()
        assert summary["config"] == "baseline-nvm"
        assert "energy_total_pj" in summary
        assert "row_hit_rate" in summary

    def test_empty_trace(self):
        result = simulate(small(baseline_nvm()), [])
        assert result.stats.reads == 0
        assert result.instructions == 0


class TestDeterminism:
    def test_same_trace_same_result(self):
        trace = multi_stream_kernel(300, streams=4, write_fraction=0.3)
        first = simulate(small(fgnvm(4, 4)), trace)
        second = simulate(small(fgnvm(4, 4)), trace)
        assert first.cycles == second.cycles
        assert first.ipc == second.ipc
        assert first.stats.as_dict() == second.stats.as_dict()


class TestEventSkipping:
    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_skipping_matches_dense_ticking(self, cores):
        """The event-skip fast path must not change simulated behaviour."""
        traces = isolate_address_spaces([
            multi_stream_kernel(150, streams=3, write_fraction=0.25,
                                seed=13 + core)
            for core in range(cores)
        ])
        assert_matches_dense(lambda: build(small(fgnvm(4, 4)), traces))

    @pytest.mark.parametrize("cores", (1, 2))
    @pytest.mark.parametrize("preset", FIG4_PRESETS)
    def test_skipping_matches_dense_on_figure4_presets(self, preset, cores):
        traces = write_heavy(cores, gap=20)
        assert_matches_dense(
            lambda: build(small(FIG4_PRESETS[preset]()), traces)
        )

    @pytest.mark.parametrize("preset, cores, channels, seed",
                             QUEUE_FILL_REFUSALS)
    def test_queue_filling_matches_dense(self, preset, cores, channels,
                                         seed):
        """The pinned refusals are the configured policies' counts, so
        they are only checked without a ``REPRO_SCHEDULER`` override."""
        traces = write_heavy(cores, gap=2, seed=seed)
        skipped = assert_matches_dense(
            lambda: build(queue_filling(preset, channels), traces),
            fills_queues=True,
        )
        if SCHEDULER_ENV not in os.environ:
            refusals = tuple(skipped["stats"][key] for key in VISIT_COUNTED)
            assert refusals == QUEUE_FILL_REFUSALS[
                (preset, cores, channels, seed)
            ]

    def test_long_gaps_do_not_blow_up_runtime(self):
        # Huge compute gap between two accesses: must finish quickly.
        trace = [TraceRecord(0, OpType.READ, 0x40),
                 TraceRecord(100_000, OpType.READ, 0x80)]
        result = simulate(small(baseline_nvm()), trace)
        assert result.instructions == 100_002


def small_window(cfg, rob=16, mshrs=2):
    """``cfg`` with a window that blocks on nearly every load."""
    cfg = small(cfg)
    cfg.cpu.rob_entries = rob
    cfg.cpu.mshr_entries = mshrs
    return cfg


def sleep_log(simulator):
    """Record ``(cycle, core, reason)`` each time a core falls asleep
    and ``(cycle, core)`` for each tick that leaves a core awake."""
    asleep, awake = [], []
    for cpu in simulator.cpus:
        tick = cpu.tick

        def logged(now, cpu=cpu, tick=tick):
            tick(now)
            if cpu.asleep:
                asleep.append((now, cpu.owner, cpu._sleep_reason()))
            else:
                awake.append((now, cpu.owner))

        cpu.tick = logged
    return asleep, awake


class TestSleepingCores:
    """Cores asleep on their own reads are not ticked; the dense oracle
    ticks every core every cycle and must agree."""

    @pytest.mark.parametrize("cores", CORE_COUNTS)
    @pytest.mark.parametrize("rob, mshrs, gap", [(16, 2, 3), (96, 2, 40)])
    def test_small_window_matches_dense(self, rob, mshrs, gap, cores):
        """The long-gap case leaves gap instructions unfetched behind
        exhausted MSHRs, where the core must not sleep."""
        traces = isolate_address_spaces([
            multi_stream_kernel(150, streams=4, gap=gap, write_fraction=0.2,
                                seed=21 + core)
            for core in range(cores)
        ])
        make = lambda: build(small_window(fgnvm(8, 2), rob, mshrs), traces)
        simulator = make()
        asleep, _ = sleep_log(simulator)
        simulator.run()
        assert {reason for _, _, reason in asleep} == {"mshr", "rob_full", "drained"}
        assert_matches_dense(make)

    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_write_heavy_small_window_matches_dense(self, cores):
        traces = write_heavy(cores, gap=2)
        assert_matches_dense(
            lambda: build(small_window(baseline_nvm(), rob=16, mshrs=4),
                          traces),
            fills_queues=True,
        )

    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_non_integral_clock_ratio_matches_dense(self, cores):
        def config():
            cfg = small_window(fgnvm(4, 4))
            # 0.5 GHz x 2.5 ns x width 1 = 1.25 instructions per memory
            # cycle: a budget small enough for the carry to bind.
            cfg.cpu.clock_ghz = 0.5
            cfg.cpu.retire_width = 1
            return cfg

        traces = write_heavy(cores, gap=3)
        simulator = build(config(), traces)
        asleep, _ = sleep_log(simulator)
        simulator.run()
        assert asleep == []
        assert_matches_dense(lambda: build(config(), traces))

    def test_probe_counts_sleeps_and_per_visit_stalls(self):
        from repro.obs import ListSink, make_probe
        from repro.obs.events import EV_CPU_STALL

        traces = write_heavy(1, gap=2)
        plain = simulate(queue_filling("fgnvm"), traces[0])
        sink = ListSink()
        probed = Simulator(queue_filling("fgnvm"), traces[0],
                           probe=make_probe(sink))
        asleep, awake = sleep_log(probed)
        result = probed.run()
        assert result.summary() == plain.summary()
        assert result.stats.as_dict() == plain.stats.as_dict()

        stalls = [e for e in sink.events if e.kind == EV_CPU_STALL]
        sleeps = [(e.cycle, e.value, e.service) for e in stalls
                  if e.service not in ("retire", "fetch")]
        # One event per fall asleep, naming its reason ...
        assert sleeps == asleep and sleeps
        # ... and per-visit stalls only from cores that stayed awake,
        # here a core refused by a full queue.
        visits = [(e.cycle, e.value) for e in stalls
                  if e.service in ("retire", "fetch")]
        assert visits and set(visits) <= set(awake)
        assert result.stats.read_queue_full_events + \
            result.stats.write_queue_full_events > 0


class TestGuards:
    def test_max_cycles_guard(self):
        cfg = small(baseline_nvm())
        cfg.sim.max_cycles = 10
        with pytest.raises(SimulationError):
            simulate(cfg, stream_kernel(1000, gap=100))

    def test_invalid_config_rejected_up_front(self):
        cfg = baseline_nvm()
        cfg.org.channels = 3
        with pytest.raises(Exception):
            Simulator(cfg, [])


class TestCrossArchitectureSanity:
    def test_fgnvm_not_slower_than_baseline_on_parallel_load(self):
        trace = multi_stream_kernel(
            400, streams=8, gap=5, write_fraction=0.3,
            stream_spacing_bytes=1 << 16,
        )
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 2)), trace)
        assert fg.ipc >= base.ipc * 0.98
