"""Epoch time series and warm-up statistics."""

import pytest

from repro.config import fgnvm
from repro.memsys.stats import StatsCollector
from repro.sim.epochs import (
    EpochRecorder,
    epoch_table,
    ipc_series,
    phase_summary,
    sparkline,
)
from repro.sim.multicore import isolate_address_spaces
from repro.sim.simulator import simulate
from repro.workloads.synthetic import multi_stream_kernel
from tests.dense_tick import assert_matches_dense, build, core_cases


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_zero_series_renders_floor(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        levels = [" .:-=+*#%@".index(ch) for ch in line]
        assert levels == sorted(levels)
        assert line[-1] == "@"


class TestRecorder:
    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            EpochRecorder(StatsCollector(), 0)

    def test_deltas_not_totals(self):
        stats = StatsCollector()
        recorder = EpochRecorder(stats, epoch_cycles=100)
        stats.instructions = 50
        recorder.observe(100, pending=3)
        stats.instructions = 80
        recorder.observe(200, pending=1)
        assert [s.instructions for s in recorder.samples] == [50, 30]
        assert [s.pending for s in recorder.samples] == [3, 1]

    def test_skipped_boundaries_are_materialised(self):
        stats = StatsCollector()
        recorder = EpochRecorder(stats, epoch_cycles=10)
        stats.instructions = 100
        recorder.observe(45, pending=0)  # jumped over 4 boundaries
        assert len(recorder.samples) == 4
        assert [s.start_cycle for s in recorder.samples] == [0, 10, 20, 30]
        # The jump's work lands in the first epoch processed; the
        # backfilled ones are empty.
        assert sum(s.instructions for s in recorder.samples) == 100


class TestSimulatorIntegration:
    def trace(self):
        return multi_stream_kernel(
            300, streams=4, gap=6, write_fraction=0.25, seed=5,
        )

    def test_epochs_disabled_by_default(self):
        result = simulate(small(fgnvm(4, 4)), self.trace())
        assert result.epochs is None

    def test_epoch_series_covers_the_run(self):
        cfg = small(fgnvm(4, 4))
        cfg.sim.epoch_cycles = 500
        result = simulate(cfg, self.trace())
        assert result.epochs
        assert sum(s.instructions for s in result.epochs) <= (
            result.instructions
        )
        assert result.epochs[-1].start_cycle < result.cycles
        ratio = cfg.cpu.cpu_cycles_per_mem_cycle(cfg.timing.tck_ns)
        series = ipc_series(result.epochs, 500, ratio)
        assert all(v >= 0 for v in series)

    def test_renderers(self):
        cfg = small(fgnvm(4, 4))
        cfg.sim.epoch_cycles = 500
        result = simulate(cfg, self.trace())
        ratio = cfg.cpu.cpu_cycles_per_mem_cycle(cfg.timing.tck_ns)
        table = epoch_table(result.epochs, 500, ratio)
        assert "epoch" in table and "pending" in table
        digest = phase_summary(result.epochs, 500, ratio)
        assert set(digest) == {"ipc", "reads", "writes", "pending"}
        assert len(digest["ipc"]) == len(result.epochs)


class TestSkippedCycleEpochs:
    """Epoch sampling under clock skipping matches the unskipped loop.

    The event-driven clock can jump over epoch boundaries; the simulator
    materialises those boundaries at the next visited cycle with the
    counters the cycle-by-cycle loop would have sampled.  This pins the
    whole epoch series — boundary cycles included — plus cycles,
    per-core instructions and every counter against a simulator whose
    ``_next_cycle`` never skips, on one core and on N sharing memory.
    """

    def traces(self, cores):
        return isolate_address_spaces([
            multi_stream_kernel(
                300, streams=4, gap=6, write_fraction=0.25, seed=5 + core,
            )
            for core in range(cores)
        ])

    @pytest.mark.parametrize("epoch_cycles,cores",
                             core_cases((250, 500, 1000)))
    def test_epoch_series_identical_to_unskipped(self, epoch_cycles, cores):
        def simulator():
            cfg = small(fgnvm(4, 4))
            cfg.sim.epoch_cycles = epoch_cycles
            return build(cfg, self.traces(cores))

        assert assert_matches_dense(simulator)["epochs"]


class TestWarmup:
    def test_warmup_excludes_early_requests(self):
        cfg = small(fgnvm(4, 4))
        cfg.sim.warmup_requests = 100
        trace = self_trace = multi_stream_kernel(
            300, streams=4, gap=6, write_fraction=0.25, seed=5,
        )
        warm = simulate(cfg, trace)
        cold = simulate(small(fgnvm(4, 4)), self_trace)
        assert warm.stats.requests < cold.stats.requests
        assert warm.cycles < cold.cycles
        assert warm.instructions < cold.instructions

    def test_zero_warmup_is_default_behaviour(self):
        cfg = small(fgnvm(4, 4))
        assert cfg.sim.warmup_requests == 0
        result = simulate(cfg, self.trace()) if hasattr(self, "trace") else (
            simulate(cfg, multi_stream_kernel(50, streams=2, gap=5))
        )
        assert result.stats.requests == 50


class TestSparklineEdges:
    def test_single_value_renders_one_glyph(self):
        assert len(sparkline([7])) == 1

    def test_constant_nonzero_series_renders_uniformly(self):
        line = sparkline([5, 5, 5, 5])
        assert len(set(line)) == 1
        assert line[0] != " "  # non-zero activity must be visible

    def test_negative_values_clamped_to_floor(self):
        line = sparkline([-10, 0, 10])
        assert len(line) == 3
        assert line[0] == " "

    def test_extremes_hit_first_and_last_levels(self):
        line = sparkline([0, 1_000_000])
        assert line[0] == " " and line[-1] == "@"

    def test_tiny_range_does_not_divide_by_zero(self):
        assert sparkline([3, 3]) != ""


class TestEpochCliPlumbing:
    """--epoch-cycles reaches SimParams through the CLI layer."""

    def test_run_epoch_table_printed(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "400", "--epoch-cycles", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert "ipc" in out

    def test_compare_accepts_epoch_cycles(self, capsys):
        from repro.cli import main

        assert main([
            "compare", "--configs", "baseline", "fgnvm-8x2",
            "--benchmark", "sphinx3", "--requests", "300",
            "--epoch-cycles", "400",
        ]) == 0
        assert "speedup" in capsys.readouterr().out
