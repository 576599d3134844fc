"""Memory controller: admission, phases, issue, completion, flush."""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.memsys.controller import MemoryController
from repro.memsys.request import MemRequest, OpType, RequestState
from repro.memsys.scheduler import SCHEDULER_ENV
from repro.memsys.stats import StatsCollector


def controller_for(cfg):
    cfg.org.rows_per_bank = 256
    return MemoryController(cfg, StatsCollector())


@pytest.fixture
def ctrl():
    return controller_for(baseline_nvm())


@pytest.fixture
def fg_ctrl():
    return controller_for(fgnvm(4, 4))


def run_until(ctrl, req, limit=20_000):
    """Tick the controller until ``req`` completes; returns the cycle."""
    for cycle in range(limit):
        done = ctrl.tick(cycle)
        if req in done:
            return cycle
    raise AssertionError(f"request {req} never completed")


class TestAdmission:
    def test_enqueue_decodes(self, ctrl):
        req = MemRequest(OpType.READ, 0x4040)
        ctrl.enqueue(req, 0)
        assert req.decoded is not None
        assert len(ctrl.read_queue) == 1

    def test_can_accept_tracks_queue_space(self, ctrl):
        for i in range(32):
            assert ctrl.can_accept(OpType.READ)
            ctrl.enqueue(MemRequest(OpType.READ, i * 0x100000), 0)
        assert not ctrl.can_accept(OpType.READ)
        assert ctrl.can_accept(OpType.WRITE)

    def test_read_forwarded_from_write_queue(self, ctrl):
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x80), 0)
        read = MemRequest(OpType.READ, 0x80)
        ctrl.enqueue(read, 1)
        assert len(ctrl.read_queue) == 0
        assert read.service_kind == "forwarded"
        assert ctrl.forwarded_reads == 1
        cycle = run_until(ctrl, read)
        assert cycle <= 1 + ctrl.timing.tcas_hit + ctrl.timing.tburst


class TestReadService:
    def test_single_read_latency(self, ctrl):
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 0)
        run_until(ctrl, req)
        assert req.state is RequestState.COMPLETED
        # tRCD + tCAS + tBURST for a cold miss.
        assert req.latency == 10 + 38 + 4

    def test_row_hits_ride_the_open_row(self, ctrl):
        miss = MemRequest(OpType.READ, 0x0)
        hit = MemRequest(OpType.READ, 0x40)  # same row, next line
        ctrl.enqueue(miss, 0)
        ctrl.enqueue(hit, 0)
        run_until(ctrl, hit)
        assert miss.service_kind == "row_miss"
        assert hit.service_kind == "row_hit"
        assert hit.completion_cycle > miss.completion_cycle

    def test_reads_to_different_banks_overlap(self, ctrl):
        bank_stride = 1 << 14  # one full row span x banks
        first = MemRequest(OpType.READ, 0)
        second = MemRequest(OpType.READ, 0x400)  # next bank, same row idx
        ctrl.enqueue(first, 0)
        ctrl.enqueue(second, 0)
        run_until(ctrl, second)
        # Bank-parallel: the second finishes well before 2x the miss
        # latency (it only loses the command slot and bus if contended).
        assert second.completion_cycle < first.completion_cycle + 20
        assert bank_stride  # silence unused (documentation constant)


class TestWritePhases:
    def test_writes_wait_for_drain_in_baseline(self, ctrl):
        write = MemRequest(OpType.WRITE, 0x40)
        read = MemRequest(OpType.READ, 0x20000)
        ctrl.enqueue(write, 0)
        ctrl.enqueue(read, 0)
        ctrl.tick(0)
        # The read got the slot; below watermark, the write waits.
        assert read.state is RequestState.ISSUED
        assert write.state is RequestState.QUEUED

    def test_writes_issue_when_no_reads(self, ctrl):
        write = MemRequest(OpType.WRITE, 0x40)
        ctrl.enqueue(write, 0)
        ctrl.tick(0)
        assert write.state is RequestState.ISSUED

    def test_watermark_drain_prioritises_writes(self, ctrl):
        high = ctrl.config.controller.write_high_watermark
        for i in range(high):
            ctrl.enqueue(MemRequest(OpType.WRITE, 0x40 * (i + 1)), 0)
        read = MemRequest(OpType.READ, 0x100000)
        ctrl.enqueue(read, 0)
        ctrl.tick(0)
        assert read.state is RequestState.QUEUED  # a write went first

    def test_eager_writes_fill_idle_slots(self, fg_ctrl):
        fg_ctrl.config.controller.eager_writes = True
        write = MemRequest(OpType.WRITE, 0x40)  # bank 0
        fg_ctrl.enqueue(write, 0)
        read = MemRequest(OpType.READ, 0x400)  # bank 1
        fg_ctrl.enqueue(read, 0)
        fg_ctrl.tick(0)   # read wins the first slot
        fg_ctrl.tick(1)   # write sneaks into the next idle slot
        assert write.state is RequestState.ISSUED
        assert write.issue_cycle == 1

    def test_write_cap_limits_inflight_writes_per_bank(self, fg_ctrl):
        fg_ctrl.config.controller.eager_writes = True
        fg_ctrl.config.controller.max_writes_per_bank = 1
        # Two writes to the same bank, different tiles.
        first = MemRequest(OpType.WRITE, 0x0)
        second = MemRequest(OpType.WRITE, 0x200)  # other CD, same bank
        fg_ctrl.enqueue(first, 0)
        fg_ctrl.enqueue(second, 0)
        fg_ctrl.tick(0)
        fg_ctrl.tick(1)
        assert first.state is RequestState.ISSUED
        assert second.state is RequestState.QUEUED


class TestFlushAndProgress:
    def test_flush_drains_everything(self, ctrl):
        for i in range(5):
            ctrl.enqueue(MemRequest(OpType.WRITE, 0x40 * i), 0)
        ctrl.begin_flush()
        for cycle in range(20_000):
            ctrl.tick(cycle)
            if not ctrl.busy():
                break
        assert not ctrl.busy()
        assert ctrl.stats.writes == 5

    def test_next_event_after_idle_is_none(self, ctrl):
        assert ctrl.next_event_after(100) is None

    def test_next_event_after_points_at_completion(self, ctrl):
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 0)
        ctrl.tick(0)
        horizon = ctrl.next_event_after(0)
        assert horizon == req.completion_cycle

    def test_pending_counts_queues_and_inflight(self, ctrl):
        ctrl.enqueue(MemRequest(OpType.READ, 0x40), 0)
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x80000), 0)
        assert ctrl.pending == 2
        ctrl.tick(0)
        assert ctrl.pending == 2  # one in flight, one queued


class TestQueueFullAccounting:
    def _fill_reads(self, ctrl):
        i = 0
        while ctrl.has_space(OpType.READ):
            ctrl.enqueue(MemRequest(OpType.READ, i * 0x100000), 0)
            i += 1

    def test_read_refusal_counts_event(self, ctrl):
        self._fill_reads(ctrl)
        before = ctrl.stats.read_queue_full_events
        assert not ctrl.can_accept(OpType.READ)
        assert not ctrl.can_accept(OpType.READ)
        assert ctrl.stats.read_queue_full_events == before + 2

    def test_write_refusal_counts_event(self, ctrl):
        i = 0
        while ctrl.has_space(OpType.WRITE):
            ctrl.enqueue(MemRequest(OpType.WRITE, i * 0x100000), 0)
            i += 1
        assert not ctrl.can_accept(OpType.WRITE)
        assert ctrl.stats.write_queue_full_events == 1

    def test_successful_admission_not_counted(self, ctrl):
        assert ctrl.can_accept(OpType.READ)
        assert ctrl.can_accept(OpType.WRITE)
        assert ctrl.stats.read_queue_full_events == 0
        assert ctrl.stats.write_queue_full_events == 0

    def test_has_space_is_pure(self, ctrl):
        self._fill_reads(ctrl)
        for _ in range(5):
            assert not ctrl.has_space(OpType.READ)
        assert ctrl.stats.read_queue_full_events == 0

    def test_refusal_emits_queue_stall_event(self):
        from repro.memsys.stats import StatsCollector
        from repro.obs import ListSink, make_probe
        from repro.obs.events import EV_QUEUE_STALL

        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        sink = ListSink()
        ctrl = MemoryController(
            cfg, StatsCollector(), probe=make_probe(sink)
        )
        self._fill_reads(ctrl)
        sink.events.clear()
        assert not ctrl.can_accept(OpType.READ, now=42)
        stalls = [e for e in sink.events if e.kind == EV_QUEUE_STALL]
        assert len(stalls) == 1
        assert stalls[0].cycle == 42
        assert stalls[0].op == "R"
        assert stalls[0].value == len(ctrl.read_queue)


class TestNotDueTick:
    """A tick below the quiet memo with no completion due returns at
    once, and that early return is invisible."""

    @pytest.fixture(autouse=True)
    def incremental(self, monkeypatch):
        # Only the incremental scheduler installs the quiet memo.
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)

    @staticmethod
    def snapshot(ctrl):
        return (
            ctrl.stats.as_dict(), list(ctrl._completions),
            ctrl.read_queue.entries(), ctrl.write_queue.entries(),
            ctrl._quiet_until, ctrl._was_draining, ctrl._minc_dirty,
            ctrl.command_bus.commands_issued,
            [(r.req_id, r.state) for r in ctrl.read_queue],
        )

    def test_not_due_tick_is_empty_and_changes_nothing(self):
        from repro.obs import ListSink, make_probe

        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        sink = ListSink()
        ctrl = MemoryController(cfg, StatsCollector(),
                                probe=make_probe(sink))
        # Two rows of one bank: the second read waits for the first.
        first = MemRequest(OpType.READ, ctrl.mapper.encode(bank=0, row=1))
        second = MemRequest(OpType.READ, ctrl.mapper.encode(bank=0, row=2))
        ctrl.enqueue(first, 0)
        ctrl.enqueue(second, 0)
        ctrl.tick(0)
        ctrl.tick(1)
        assert second.state is RequestState.QUEUED
        now = 2
        assert now < ctrl._quiet_until and ctrl._completions[0][0] > now
        before, seen = self.snapshot(ctrl), len(sink.events)
        assert ctrl.tick(now) == ()
        assert self.snapshot(ctrl) == before
        assert len(sink.events) == seen

    def test_flush_edge_is_reported_while_the_memo_is_live(self):
        from repro.obs import ListSink, make_probe
        from repro.obs.events import EV_DRAIN

        def drive(restless):
            sink = ListSink()
            ctrl = controller_for(fgnvm(4, 4))
            ctrl.probe = make_probe(sink)
            if restless:
                tick = ctrl.tick

                def tick_without_memo(now):
                    ctrl._quiet_until = 0
                    return tick(now)

                ctrl.tick = tick_without_memo
            for row in (1, 2):
                ctrl.enqueue(MemRequest(
                    OpType.WRITE, ctrl.mapper.encode(bank=0, row=row)), 0)
            for cycle in range(5):
                ctrl.tick(cycle)
            if not restless:
                # The second write waits on the first: the memo is live.
                assert ctrl._quiet_until > 5 and len(ctrl.write_queue) == 1
            ctrl.begin_flush()
            for cycle in range(5, 1000):
                ctrl.tick(cycle)
            assert not ctrl.busy()
            return [(e.cycle, e.value) for e in sink.events
                    if e.kind == EV_DRAIN]

        resting = drive(False)
        assert resting[0] == (5, 1)
        assert resting == drive(True)

    def test_drain_events_match_a_run_that_never_rests(self):
        """The early return skips the drain-edge check; a run whose
        memo is cleared before every tick sees every edge."""
        from repro.obs import ListSink, make_probe
        from repro.obs.events import EV_DRAIN
        from repro.sim.multicore import isolate_address_spaces
        from repro.sim.simulator import Simulator
        from repro.workloads.synthetic import multi_stream_kernel

        trace = isolate_address_spaces([multi_stream_kernel(
            400, streams=4, gap=2, write_fraction=0.6, seed=3)])[0]

        def run(restless):
            cfg = fgnvm(8, 2)
            cfg.org.rows_per_bank = 256
            sink = ListSink()
            simulator = Simulator(cfg, trace, probe=make_probe(sink))
            ctrl = simulator.controller.controllers[0]
            if restless:
                tick = ctrl.tick

                def tick_without_memo(now):
                    ctrl._quiet_until = 0
                    return tick(now)

                ctrl.tick = tick_without_memo
            result = simulator.run()
            drains = [(e.cycle, e.value) for e in sink.events
                      if e.kind == EV_DRAIN]
            return result.summary(), drains

        resting, restless = run(False), run(True)
        assert resting[1], "the trace must cross the drain watermarks"
        assert resting == restless


class TestBankSummaryMemo:
    """Per-(queue, bank) scan summaries and their invalidation points."""

    @staticmethod
    def request(ctrl, op, bank, row, col=0):
        return MemRequest(op, ctrl.mapper.encode(bank=bank, row=row, col=col))

    @staticmethod
    def flat_min(ctrl):
        starts = [ctrl.banks[req.decoded.flat_bank].earliest_start(req, 0)
                  for queue in (ctrl.read_queue, ctrl.write_queue)
                  for req in queue]
        return min(starts) if starts else None

    def summarize_all(self, ctrl, now):
        ctrl._pick_fast(ctrl.read_queue, now)
        ctrl._pick_fast(ctrl.write_queue, now)
        return (dict(ctrl.read_queue.summaries),
                dict(ctrl.write_queue.summaries))

    def test_enqueue_drops_only_that_banks_summary(self, fg_ctrl):
        for bank in (0, 1):
            fg_ctrl.enqueue(self.request(fg_ctrl, OpType.READ, bank, 3), 0)
        fg_ctrl.enqueue(self.request(fg_ctrl, OpType.WRITE, 0, 9), 0)
        reads, writes = self.summarize_all(fg_ctrl, 0)
        assert set(reads) == {0, 1} and set(writes) == {0}
        fg_ctrl.enqueue(self.request(fg_ctrl, OpType.READ, 0, 4), 0)
        assert 0 not in fg_ctrl.read_queue.summaries
        assert fg_ctrl.read_queue.summaries[1] is reads[1]
        assert fg_ctrl.write_queue.summaries[0] is writes[0]

    def test_issue_drops_the_banks_read_and_write_summaries(self, fg_ctrl):
        read = self.request(fg_ctrl, OpType.READ, 0, 3)
        fg_ctrl.enqueue(read, 0)
        fg_ctrl.enqueue(self.request(fg_ctrl, OpType.READ, 1, 3), 0)
        fg_ctrl.enqueue(self.request(fg_ctrl, OpType.WRITE, 0, 9), 0)
        reads, writes = self.summarize_all(fg_ctrl, 0)
        # Straight to the bank: the drop lives in FgNvmBank.issue itself.
        fg_ctrl.banks[0].issue(read, 0)
        assert 0 not in fg_ctrl.read_queue.summaries
        assert 0 not in fg_ctrl.write_queue.summaries
        assert fg_ctrl.read_queue.summaries[1] is reads[1]

    def test_pass_at_blocked_min_rebuilds_the_summary(self, fg_ctrl):
        first = self.request(fg_ctrl, OpType.READ, 0, 1)
        second = self.request(fg_ctrl, OpType.READ, 0, 2)
        assert first.address != second.address
        fg_ctrl.enqueue(first, 0)
        fg_ctrl.enqueue(second, 0)
        assert (first.decoded.sag, first.decoded.cd) == (
            second.decoded.sag, second.decoded.cd)
        fg_ctrl.tick(0)
        assert first.state is RequestState.ISSUED
        picked, blocked = fg_ctrl._pick_fast(fg_ctrl.read_queue, 1)
        summary = fg_ctrl.read_queue.summaries[0]
        assert picked is None and summary.winner is None
        assert (summary.at, summary.until) == (1, blocked)
        assert blocked == fg_ctrl.banks[0].earliest_start(second, 1) > 1
        fg_ctrl._pick_fast(fg_ctrl.read_queue, blocked - 1)
        assert fg_ctrl.read_queue.summaries[0] is summary
        picked, _ = fg_ctrl._pick_fast(fg_ctrl.read_queue, blocked)
        rebuilt = fg_ctrl.read_queue.summaries[0]
        assert rebuilt is not summary and rebuilt.at == blocked
        assert picked[0] is second and rebuilt.winner is second

    def test_swapped_scheduler_starts_from_no_summaries(self, fg_ctrl):
        from repro.memsys.scheduler import IncrementalFcfs

        for bank in (0, 1):
            fg_ctrl.enqueue(self.request(fg_ctrl, OpType.READ, bank, 3), 0)
        fg_ctrl.enqueue(self.request(fg_ctrl, OpType.WRITE, 0, 9), 0)
        reads, writes = self.summarize_all(fg_ctrl, 0)
        fg_ctrl.scheduler = IncrementalFcfs()
        fg_ctrl._recompute_min_constraint(0)
        for queue, old in ((fg_ctrl.read_queue, reads),
                           (fg_ctrl.write_queue, writes)):
            assert set(queue.summaries) == set(old)
            assert all(queue.summaries[bank] is not summary
                       for bank, summary in old.items())

    def test_min_constraint_matches_flat_min_after_each_step(self, fg_ctrl):
        steps = [
            (OpType.READ, 0, 1), (OpType.READ, 0, 2), (OpType.WRITE, 1, 7),
            (OpType.READ, 1, 7), (OpType.WRITE, 0, 5), (OpType.READ, 2, 3),
        ]
        now = 0
        for op, bank, row in steps:
            fg_ctrl.enqueue(self.request(fg_ctrl, op, bank, row), now)
            assert fg_ctrl._recompute_min_constraint(now) == \
                self.flat_min(fg_ctrl)
            fg_ctrl.tick(now)
            assert fg_ctrl._recompute_min_constraint(now) == \
                self.flat_min(fg_ctrl)
            now += 7
        while fg_ctrl.pending:
            fg_ctrl.tick(now)
            assert fg_ctrl._recompute_min_constraint(now) == \
                self.flat_min(fg_ctrl)
            now += 1
