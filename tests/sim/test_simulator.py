"""Simulation main loop: end-to-end runs, skipping, guards."""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.errors import SimulationError
from repro.memsys.request import OpType
from repro.sim.multicore import isolate_address_spaces
from repro.sim.simulator import Simulator, simulate
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import multi_stream_kernel, stream_kernel
from tests.dense_tick import CORE_COUNTS, assert_matches_dense, build


def small(cfg):
    cfg.org.rows_per_bank = 256
    return cfg


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

    def test_long_gaps_do_not_blow_up_runtime(self):
        # Huge compute gap between two accesses: must finish quickly.
        trace = [TraceRecord(0, OpType.READ, 0x40),
                 TraceRecord(100_000, OpType.READ, 0x80)]
        result = simulate(small(baseline_nvm()), trace)
        assert result.instructions == 100_002


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
