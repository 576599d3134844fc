"""Controller event horizon: the quiet-until memo drives the clock.

``next_event_after`` is what the simulation loop jumps to once every
core is stalled.  When a scheduling pass issued nothing, the controller
knows more than the raw earliest-start constraints: a ready write may
still be held back by the read/write phase policy or by the per-bank
write cap.  These cases pin that the horizon then skips to the first
cycle work can really start, and falls back to the min-constraint
horizon (``_next_event_after_reference`` computes the same value by an
exhaustive scan) whenever that would change what the loop counts.
"""

from repro.config import baseline_nvm, fgnvm
from repro.memsys.controller import MemoryController
from repro.memsys.request import MemRequest, OpType, RequestState
from repro.memsys.stats import StatsCollector
from repro.obs.trace import RequestTracer
from repro.sim.system import MemorySystem


def controller_for(cfg, tracer=None):
    cfg.org.rows_per_bank = 256
    if tracer is None:
        return MemoryController(cfg, StatsCollector())
    return MemoryController(cfg, StatsCollector(), tracer=tracer)


def capped_fgnvm(tracer=None):
    """FgNVM 4x4 with one in-flight write per bank (eager writes on)."""
    ctrl = controller_for(fgnvm(4, 4), tracer)
    assert ctrl.config.controller.max_writes_per_bank == 1
    return ctrl


def queue_capped_write(ctrl):
    """A write in flight in bank 0 and a second one held by the cap.

    Returns ``(first, second)``; ``second`` targets another SAG and CD
    of the same bank, so only the cap keeps it from issuing at cycle 5.
    """
    first = MemRequest(OpType.WRITE, 0x0)          # bank 0, SAG 0, CD 0
    second = MemRequest(OpType.WRITE, 0x100100)    # bank 0, SAG 2, CD 1
    ctrl.enqueue(first, 0)
    ctrl.enqueue(second, 0)
    ctrl.tick(0)
    assert first.state is RequestState.ISSUED
    ctrl.tick(5)
    assert second.state is RequestState.QUEUED
    return first, second


class TestWriteCapHorizon:
    def test_horizon_is_the_write_release(self):
        ctrl = capped_fgnvm()
        first, second = queue_capped_write(ctrl)
        release = first.completion_cycle
        # The raw constraints say "now + 1": the capped write is ready.
        assert ctrl._next_event_after_reference(5) == 6
        expected = release if ctrl._incremental else 6
        assert ctrl.next_event_after(5) == expected

    def test_capped_write_issues_exactly_at_release(self):
        ctrl = capped_fgnvm()
        first, second = queue_capped_write(ctrl)
        release = first.completion_cycle
        for cycle in range(6, release):
            ctrl.tick(cycle)
        assert second.state is RequestState.QUEUED
        ctrl.tick(release)
        assert second.state is RequestState.ISSUED
        assert second.issue_cycle == release

    def test_traced_wait_under_cap_keeps_every_pass(self):
        """Blame reads the cap at each observation, so a traced request
        waiting under a cap installs no memo and keeps the horizon the
        min-constraint one."""
        ctrl = capped_fgnvm(RequestTracer(sample_every=1))
        queue_capped_write(ctrl)
        assert ctrl._traced
        assert ctrl._quiet_until == 0
        assert ctrl.next_event_after(5) == 6


class TestPhaseHorizon:
    def blocked_reads_and_ready_write(self, forward=False):
        """Baseline bank: one read in flight, one blocked behind it,
        and a ready write held back by read priority."""
        ctrl = controller_for(baseline_nvm())
        first = MemRequest(OpType.READ, 0x0)          # bank 0, row 0
        ctrl.enqueue(first, 0)
        ctrl.tick(0)
        blocked = MemRequest(OpType.READ, 0x2000)     # bank 0, row 1
        write = MemRequest(OpType.WRITE, 0x1000)      # bank 4, idle
        ctrl.enqueue(blocked, 5)
        ctrl.enqueue(write, 5)
        forwarded = None
        if forward:
            forwarded = MemRequest(OpType.READ, 0x1000)
            ctrl.enqueue(forwarded, 5)
            assert forwarded.service_kind == "forwarded"
        ctrl.tick(5)
        assert blocked.state is RequestState.QUEUED
        assert write.state is RequestState.QUEUED
        return ctrl, first, blocked, forwarded

    def test_horizon_is_the_blocked_reads_constraint(self):
        ctrl, first, blocked, _ = self.blocked_reads_and_ready_write()
        read_constraint = ctrl.banks[0].kind_and_constraint(blocked)[1]
        assert 6 < read_constraint < first.completion_cycle
        assert ctrl._next_event_after_reference(5) == 6
        expected = read_constraint if ctrl._incremental else 6
        assert ctrl.next_event_after(5) == expected

    def test_sooner_completion_wins(self):
        ctrl, _, blocked, forwarded = self.blocked_reads_and_ready_write(
            forward=True
        )
        read_constraint = ctrl.banks[0].kind_and_constraint(blocked)[1]
        assert 6 < forwarded.completion_cycle < read_constraint
        expected = forwarded.completion_cycle if ctrl._incremental else 6
        assert ctrl.next_event_after(5) == expected


class TestFullQueueHorizon:
    def test_full_read_queue_keeps_min_constraint_horizon(self):
        """Refusals are counted on visited cycles, so a full queue must
        not stretch the horizon past the min-constraint one."""
        ctrl = controller_for(baseline_nvm())
        entries = ctrl.config.controller.read_queue_entries
        for row in range(entries):
            ctrl.enqueue(MemRequest(OpType.READ, row * 0x2000), 0)
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x1000), 0)
        ctrl.tick(0)
        ctrl.enqueue(MemRequest(OpType.READ, entries * 0x2000), 1)
        assert ctrl.read_queue.is_full
        ctrl.tick(1)
        assert ctrl.command_bus.commands_issued == 1
        if ctrl._incremental:
            assert ctrl._quiet_until > 2  # a memo exists but is unused
        assert ctrl.next_event_after(1) == 2
        assert ctrl._next_event_after_reference(1) == 2

    def test_a_full_channel_keeps_every_channel_stepping(self):
        """A refusal on one channel's full queue is counted on every
        cycle the whole system visits, so the other channels' quiet
        memos must not stretch the system horizon either."""
        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        cfg.org.channels = 2
        system = MemorySystem(cfg, StatsCollector())
        full, quiet = system.controllers

        def address(channel, flat_bank, row):
            for line in range(1 << 16):
                dec = system.mapper.decode(line * 64)
                if (dec.channel, dec.flat_bank, dec.row) == (
                        channel, flat_bank, row):
                    return line * 64
            raise AssertionError("no such address")

        # Channel 0: one read in flight and a full queue of reads to
        # other rows of the same bank.  Channel 1: a read in flight, a
        # blocked read and a ready write held back by read priority.
        system.enqueue(MemRequest(OpType.READ, address(0, 0, 0)), 0)
        system.enqueue(MemRequest(OpType.READ, address(1, 0, 0)), 0)
        system.tick(0)
        for row in range(1, cfg.controller.read_queue_entries + 1):
            system.enqueue(MemRequest(OpType.READ, address(0, 0, row)), 5)
        system.enqueue(MemRequest(OpType.READ, address(1, 0, 1)), 5)
        system.enqueue(MemRequest(OpType.WRITE, address(1, 4, 0)), 5)
        system.tick(5)
        assert full.queue_full and not quiet.queue_full
        assert full._next_event_after_reference(5) > 6
        assert quiet._next_event_after_reference(5) == 6
        assert system.next_event_after(5) == 6
        if quiet._incremental:
            assert quiet.next_event_after(5) > 6  # its memo, unused here
