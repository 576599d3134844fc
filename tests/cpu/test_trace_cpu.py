"""Trace-replay CPU: fetch/retire mechanics and IPC accounting."""

import pytest

from repro.config import baseline_nvm
from repro.cpu.trace_cpu import TraceCpu
from repro.memsys.controller import MemoryController
from repro.memsys.request import OpType
from repro.memsys.stats import StatsCollector
from repro.workloads.record import TraceRecord


def build(trace, cfg=None):
    cfg = cfg or baseline_nvm()
    cfg.org.rows_per_bank = 256
    stats = StatsCollector()
    controller = MemoryController(cfg, stats)
    cpu = TraceCpu(cfg.cpu, trace, controller, stats, cfg.timing.tck_ns)
    return cpu, controller, stats, cfg


def run(cpu, controller, stats, max_cycles=100_000):
    """Simple coupled loop (the Simulator adds event skipping on top)."""
    for cycle in range(max_cycles):
        done = controller.tick(cycle)
        reads = sum(1 for r in done if r.is_read)
        if reads:
            cpu.on_read_completed(reads)
        cpu.tick(cycle)
        if cpu.done():
            controller.begin_flush()
            if not controller.busy():
                stats.cycles = cycle + 1
                return cycle + 1
    raise AssertionError("run did not finish")


class TestPureCompute:
    def test_compute_only_trace_retires_at_peak(self):
        # One memory access after 3199 instructions, then nothing.
        trace = [TraceRecord(3199, OpType.READ, 0x40)]
        cpu, controller, stats, cfg = build(trace)
        cycles = run(cpu, controller, stats)
        ratio = cfg.cpu.cpu_cycles_per_mem_cycle(cfg.timing.tck_ns)
        ipc = stats.ipc(ratio)
        # 3200 instructions at width 4 with one ~52-cycle miss at the
        # end: IPC must be close to (but below) the peak width of 4.
        assert 2.0 < ipc <= 4.0
        assert stats.instructions == 3200
        assert cycles < 3200


class TestMemoryBound:
    def test_dependent_misses_serialise(self):
        # Gap-0 loads to distinct rows of one bank: each waits ~52cy.
        trace = [
            TraceRecord(0, OpType.READ, i * 1024 * 8 * 8)
            for i in range(20)
        ]
        cpu, controller, stats, _ = build(trace)
        cycles = run(cpu, controller, stats)
        assert cycles > 20 * 40  # strongly memory-bound

    def test_mshr_limit_caps_outstanding_reads(self):
        cfg = baseline_nvm()
        cfg.cpu.mshr_entries = 2
        trace = [TraceRecord(0, OpType.READ, i * 0x100000) for i in range(8)]
        cpu, controller, stats, _ = build(trace, cfg)
        controller.tick(0)
        cpu.tick(0)
        assert cpu.loads_issued == 2  # capped by MSHRs, not the queue

    def test_rob_limit_caps_fetch(self):
        cfg = baseline_nvm()
        cfg.cpu.rob_entries = 8
        trace = [TraceRecord(6, OpType.READ, 0x40),
                 TraceRecord(50, OpType.READ, 0x80)]
        cpu, controller, stats, _ = build(trace, cfg)
        controller.tick(0)
        cpu.tick(0)
        # 6 gap instructions + 1 load fill 7 of 8 slots; the second
        # record's 50-instruction gap cannot fit past slot 8.
        assert cpu.loads_issued == 1


class TestStores:
    def test_stores_do_not_block_retirement(self):
        trace = [TraceRecord(10, OpType.WRITE, i * 64) for i in range(10)]
        cpu, controller, stats, _ = build(trace)
        run(cpu, controller, stats)
        assert stats.instructions == 10 * 11
        assert cpu.stores_issued == 10

    def test_full_write_queue_stalls_fetch(self):
        cfg = baseline_nvm()
        trace = [TraceRecord(0, OpType.WRITE, i * 64) for i in range(100)]
        cpu, controller, stats, _ = build(trace, cfg)
        cpu.tick(0)
        assert cpu.stores_issued <= cfg.controller.write_queue_entries


class TestProgressQueries:
    def test_done_lifecycle(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, controller, stats, _ = build(trace)
        assert not cpu.done()
        run(cpu, controller, stats)
        assert cpu.done()
        assert cpu.trace_done

    def test_fully_stalled_on_blocked_head(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, controller, stats, _ = build(trace)
        cpu.tick(0)  # issues the load, head now blocked
        assert cpu.fully_stalled()

    def test_not_stalled_while_instructions_available(self):
        trace = [TraceRecord(0, OpType.READ, 0x40),
                 TraceRecord(500, OpType.READ, 0x80)]
        cpu, controller, stats, _ = build(trace)
        cpu.tick(0)
        # Head load pending but the gap still feeds the front end.
        assert not cpu.fully_stalled()

    def test_mshr_underflow_detected(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, _, _, _ = build(trace)
        with pytest.raises(ValueError):
            cpu.on_read_completed(1)


def deliver_next_read(cpu, controller, start=1, limit=20_000):
    """Tick only the controller until one of ``cpu``'s reads returns,
    hand the completion to the core, and return that cycle."""
    for cycle in range(start, start + limit):
        reads = sum(1 for r in controller.tick(cycle) if r.is_read)
        if reads:
            cpu.on_read_completed(reads)
            return cycle
    raise AssertionError("no read completed")


class TestSleep:
    """A core sleeps only where an own read completion is the one thing
    that can change it, and that completion wakes it."""

    def assert_sleeps_and_wakes(self, cpu, controller):
        assert cpu.asleep
        assert cpu.fully_stalled()
        cycle = deliver_next_read(cpu, controller)
        assert not cpu.asleep
        return cycle

    def test_drained_trace_sleeps_on_its_last_read(self):
        cpu, controller, _, _ = build([TraceRecord(0, OpType.READ, 0x40)])
        cpu.tick(0)
        assert cpu.trace_done and cpu._sleep_reason() == "drained"
        cycle = self.assert_sleeps_and_wakes(cpu, controller)
        cpu.tick(cycle)
        assert cpu.done() and not cpu.asleep

    def test_full_rob_sleeps(self):
        cfg = baseline_nvm()
        cfg.cpu.rob_entries = 8
        trace = [TraceRecord(0, OpType.READ, 0x40),
                 TraceRecord(50, OpType.READ, 0x80)]
        cpu, controller, _, _ = build(trace, cfg)
        cpu.tick(0)  # the load plus 7 gap instructions fill the ROB
        assert cpu.rob.free_slots == 0
        assert cpu._sleep_reason() == "rob_full"
        cycle = self.assert_sleeps_and_wakes(cpu, controller)
        cpu.tick(cycle)  # the load retires, the gap refills the window
        assert cpu.instructions_retired > 0

    def test_exhausted_mshrs_sleep(self):
        cfg = baseline_nvm()
        cfg.cpu.mshr_entries = 2
        trace = [TraceRecord(0, OpType.READ, i * 0x100000) for i in range(8)]
        cpu, controller, _, _ = build(trace, cfg)
        cpu.tick(0)
        assert cpu.loads_issued == 2
        assert cpu._sleep_reason() == "mshr"
        cycle = self.assert_sleeps_and_wakes(cpu, controller)
        cpu.tick(cycle)  # a freed MSHR admits the next read
        assert cpu.loads_issued == 3

    def test_full_read_queue_keeps_ticking(self):
        cfg = baseline_nvm()
        cfg.controller.read_queue_entries = 2
        trace = [TraceRecord(0, OpType.READ, i * 0x100000) for i in range(8)]
        cpu, controller, stats, _ = build(trace, cfg)
        for cycle in range(3):
            cpu.tick(cycle)
            assert cpu.fully_stalled() and not cpu.asleep
            # Each visit's admission retry is a counted refusal.
            assert stats.read_queue_full_events == cycle + 1

    def test_full_write_queue_keeps_ticking(self):
        cfg = baseline_nvm()
        cfg.controller.write_queue_entries = 8
        cfg.controller.write_high_watermark = 6
        cfg.controller.write_low_watermark = 2
        trace = [TraceRecord(0, OpType.READ, 0x40)] + [
            TraceRecord(0, OpType.WRITE, i * 64) for i in range(1, 20)
        ]
        cpu, controller, stats, _ = build(trace, cfg)
        cpu.tick(0)
        assert cpu.rob.head_blocked() and cpu.fully_stalled()
        assert not cpu.asleep
        assert stats.write_queue_full_events == 1

    def test_non_integral_clock_ratio_keeps_ticking(self):
        cfg = baseline_nvm()
        # 3.05 GHz x 2.5 ns x width 4 = 30.5 instructions per memory
        # cycle, so the retire budget carries a fraction every tick.
        cfg.cpu.clock_ghz = 3.05
        cpu, _, _, _ = build([TraceRecord(0, OpType.READ, 0x40)], cfg)
        assert cpu._budget_int is None
        cpu.tick(0)
        assert cpu._sleep_reason() == "drained"
        # Its carry moves every cycle: neither asleep nor skippable.
        assert not cpu.asleep and not cpu.fully_stalled()
