"""Blame figure at reduced scale: structure, shape, and determinism.

The acceptance surface for the blame decomposition ( ``repro blame`` /
``figure-blame``): per-(benchmark, policy) reports whose cause shares
are structurally sound, and the paper's causal claim — FgNVM's win is
the conflict blame collapsing — measurable on the default workloads.
"""

import pytest

from repro.analysis.figure_blame import (
    CONFLICT_CAUSES,
    SERIES,
    check_figure_blame_shape,
    conflict_share,
    render_figure_blame,
    run_figure_blame,
)
from repro.analysis.figure_policies import DEFAULT_BENCHMARKS
from repro.config import fgnvm
from repro.obs.trace import (
    BLAME_CAUSES,
    RequestTracer,
    blame_report,
    seed_from_digest,
)
from repro.sim.experiment import run_benchmark
from repro.sim.parallel import config_digest

REQUESTS = 600
SAMPLE = 2


@pytest.fixture(scope="module")
def fig():
    return run_figure_blame(
        list(DEFAULT_BENCHMARKS), REQUESTS, sample_every=SAMPLE,
        keep_spans=True,
    )


class TestFigureBlame:
    def test_all_cells_present(self, fig):
        assert set(fig.reports) == set(DEFAULT_BENCHMARKS)
        for bench in DEFAULT_BENCHMARKS:
            assert set(fig.reports[bench]) == set(SERIES)

    def test_shape_checks_pass(self, fig):
        assert check_figure_blame_shape(fig) == []

    def test_reports_are_structurally_sound(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            for series in SERIES:
                report = fig.reports[bench][series]
                assert report["spans"] > 0
                assert report["unattributed_cycles"] == 0
                assert set(report["blame_cycles"]) <= set(BLAME_CAUSES)
                assert sum(report["blame_share"].values()) == pytest.approx(
                    1.0, abs=0.01
                )

    def test_fgnvm_collapses_conflict_blame(self, fig):
        """The paper's mechanism, as blame: 2D subdivision removes
        tile conflicts, so FgNVM's conflict share drops well below
        the baseline bank's on both workload extremes."""
        for bench in DEFAULT_BENCHMARKS:
            row = fig.reports[bench]
            assert conflict_share(row["fgnvm"]) < conflict_share(
                row["baseline"]
            )

    def test_organisations_annotated(self, fig):
        assert fig.organisations == {
            "baseline": "1x1", "fgnvm": "8x2", "palp": "8x2",
            "salp": "8x1",
        }

    def test_spans_kept_and_sound(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            for series in SERIES:
                spans = fig.spans[(bench, series)]
                assert len(spans) == fig.reports[bench][series]["spans"]
                assert all(span.check() == [] for span in spans)

    def test_jobs_record_provenance(self, fig):
        for key, (wall_s, cycles, instructions) in fig.jobs.items():
            assert wall_s > 0
            assert cycles > 0
            assert instructions > 0

    def test_render_contains_panels_and_causes(self, fig):
        text = render_figure_blame(fig)
        assert "conflict-blame share" in text
        assert "p95 latency" in text
        for series in SERIES:
            assert series in text
        for cause in CONFLICT_CAUSES:
            assert cause in text

    def test_same_seeding_reproduces_reports(self, fig):
        """The config-digest-derived sampling seed makes the whole
        figure deterministic: a re-run produces identical reports."""
        again = run_figure_blame(["mcf"], REQUESTS, sample_every=SAMPLE)
        assert again.reports["mcf"] == fig.reports["mcf"]


#: Blame cycles per cause of fully traced ``fgnvm-8x2`` runs at 1500
#: requests (one write in flight per bank), recorded before the
#: controller's event horizon learned the write cap.  ``write_cap`` vs
#: ``sched_order`` is decided at each blame observation, so a scheduling
#: pass skipped while a traced request waits under the cap moves cycles
#: between them; the eager=False cell covers a capped controller whose
#: write queue is only scanned once the reads run out.
CAPPED_BLAME = {
    ("mcf", True): {
        "bus_conflict": 9615, "multi_activation": 33737,
        "read_under_write": 8737, "sched_order": 1706, "service": 80176,
        "tile_busy": 10474, "write_cap": 2206,
    },
    ("lbm", True): {
        "bus_conflict": 12383, "multi_activation": 50553,
        "read_under_write": 12815, "sched_order": 1704, "service": 68108,
        "tile_busy": 156804, "write_cap": 43209,
    },
    ("mcf", False): {
        "bus_conflict": 8830, "drain_phase": 31419,
        "multi_activation": 49300, "read_under_write": 10120,
        "sched_order": 2063, "service": 80524, "tile_busy": 22460,
        "write_cap": 7391,
    },
}


@pytest.mark.parametrize(
    "bench,eager", list(CAPPED_BLAME),
    ids=[f"{bench}-eager" if eager else f"{bench}-lazy"
         for bench, eager in CAPPED_BLAME],
)
def test_capped_blame_is_pinned(bench, eager):
    config = fgnvm(8, 2)
    config.controller.eager_writes = eager
    tracer = RequestTracer(
        sample_every=1, seed=seed_from_digest(config_digest(config))
    )
    run_benchmark(config, bench, 1500, tracer=tracer)
    report = blame_report(tracer.finished, tracer.queue_full)
    assert report["spans"] == 1500
    assert report["blame_cycles"] == CAPPED_BLAME[(bench, eager)]
