"""The simulation main loop.

Couples N :class:`~repro.cpu.trace_cpu.TraceCpu` cores (one for a
plain run, one per trace for :mod:`~repro.sim.multicore`) to one
:class:`~repro.sim.system.MemorySystem` on a shared integer clock of
memory cycles.  The loop is event-driven: every iteration the clock
jumps to ``min(next CPU-visible event, next controller event)``.  A
runnable core's next event is the very next cycle, so execution phases
step cycle-by-cycle; whenever every core is blocked on memory (or has
finished and only the write drain remains), the clock jumps straight to
the controller's next completion or earliest-issuable cycle — a large
win given PCM's 60-cycle write pulses.  The set of simulated cycles is
identical either way, which is what keeps results bit-identical to an
unskipped run (see docs/performance.md, "Hot-path architecture").
Within a visited cycle, a core asleep on its own in-flight read is not
ticked until that read returns.

End of run: every trace is fully retired, the controller has drained
every queued write (a flush is forced once the last core finishes), and
no transfer is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..config.params import SystemConfig
from ..config.validate import validate_config
from ..core.energy import (
    EnergyBreakdown,
    measure_energy,
    measure_perfect_energy,
)
from ..cpu.trace_cpu import TraceCpu
from ..errors import SimulationError
from ..memsys.stats import StatsCollector
from ..obs.events import EV_RUN_END, NULL_PROBE, Event, Probe
from ..obs.trace import NULL_TRACER, RequestTracer
from ..obs.perf.profiler import (
    NULL_PROFILER,
    PH_CLOCK,
    PH_CPU_TICK,
    PH_CTRL_TICK,
    PH_RUN,
    PH_STATS,
    PhaseTimer,
)
from ..workloads.record import TraceRecord
from .epochs import EpochRecorder, EpochSample
from .system import MemorySystem


@dataclass
class SimResult:
    """Everything one simulation produced."""

    config: SystemConfig
    stats: StatsCollector
    energy: EnergyBreakdown
    perfect_energy: EnergyBreakdown
    ipc: float
    cycles: int
    instructions: int
    #: Per-epoch counter deltas when sim.epoch_cycles is set.
    epochs: "list[EpochSample] | None" = None

    def summary(self) -> dict:
        """Flat dict for reports (EXPERIMENTS.md rows)."""
        data = {
            "config": self.config.name,
            "ipc": round(self.ipc, 4),
        }
        data.update(self.stats.as_dict())
        data.update(
            {f"energy_{k}": v for k, v in self.energy.as_dict().items()}
        )
        return data


class Simulator:
    """Cores + one memory system, run to completion on one clock."""

    def __init__(self, config: SystemConfig, trace: Iterable[TraceRecord],
                 probe: "Probe | None" = None,
                 profiler: "PhaseTimer | None" = None,
                 tracer: "RequestTracer | None" = None,
                 epoch_hook=None):
        validate_config(config)
        self.config = config
        self.stats = StatsCollector()
        self.probe = probe if probe is not None else NULL_PROBE
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.controller = MemorySystem(config, self.stats, probe=self.probe,
                                       profiler=self.profiler,
                                       tracer=self.tracer)
        self.cpus = [
            TraceCpu(config.cpu, core_trace, self.controller, self.stats,
                     config.timing.tck_ns, owner=owner, probe=self.probe,
                     profiler=self.profiler)
            for owner, core_trace in enumerate(self._core_traces(trace))
        ]
        #: Cores not yet done, in core order: the only ones ticked.
        self._active = [cpu for cpu in self.cpus if not cpu.done()]
        self.now = 0
        self._flush_started = False
        self._warmup_left = config.sim.warmup_requests
        self._warmup_cycle = 0
        #: Each core's retired count when warm-up ended.
        self._warmup_retired = [0] * len(self.cpus)
        self._epochs = (
            EpochRecorder(self.stats, config.sim.epoch_cycles)
            if config.sim.epoch_cycles
            else None
        )
        # Live-telemetry tap: called per materialised epoch sample.  A
        # hook only observes samples the recorder stores regardless, so
        # the run is bit-identical with or without one (no-op when epoch
        # sampling is off).
        if self._epochs is not None and epoch_hook is not None:
            self._epochs.on_sample = epoch_hook

    def _core_traces(self, trace) -> list:
        """One trace per core: a plain run has a single core."""
        return [trace]

    def run(self) -> SimResult:
        """Run to completion and return the results."""
        sim = self.config.sim
        controller = self.controller
        cpus = self.cpus
        active = self._active
        stats = self.stats
        epochs = self._epochs
        # No-progress guard state, sampled once per deadlock window.
        last_progress = self._progress_marker()
        last_progress_cycle = 0
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            prof.enter(PH_RUN)

        while True:
            if epochs is not None and epochs.next_boundary < self.now:
                # Epoch boundaries the clock jumped over: materialise
                # them *before* this cycle's tick, with the counters the
                # unskipped loop would have had at each boundary (dead
                # cycles change none of the sampled counters).
                if profiling:
                    prof.enter(PH_STATS)
                    epochs.observe_gap(self.now, controller.pending)
                    prof.exit(PH_STATS)
                else:
                    epochs.observe_gap(self.now, controller.pending)
            if profiling:
                prof.enter(PH_CTRL_TICK)
                completed = controller.tick(self.now)
                prof.exit(PH_CTRL_TICK)
            else:
                completed = controller.tick(self.now)
            for req in completed:
                if req.is_read:
                    cpus[req.owner].on_read_completed(1)
            if profiling:
                prof.enter(PH_CPU_TICK)
            finished = False
            for cpu in active:
                if cpu.asleep:
                    continue  # its tick is a no-op until a read returns
                cpu.tick(self.now)
                if cpu.done():
                    finished = True
            if profiling:
                prof.exit(PH_CPU_TICK)
            if epochs is not None and self.now >= epochs.next_boundary:
                # A boundary landing on a simulated cycle samples after
                # that cycle's tick, exactly like the unskipped loop.
                if profiling:
                    prof.enter(PH_STATS)
                    epochs.observe(self.now, controller.pending)
                    prof.exit(PH_STATS)
                else:
                    epochs.observe(self.now, controller.pending)
            if (self._warmup_left
                    and stats.requests >= self._warmup_left):
                # Warm-up complete: statistics restart here.
                stats.reset()
                self._warmup_left = 0
                self._warmup_cycle = self.now
                self._warmup_retired = [
                    cpu.instructions_retired for cpu in cpus
                ]

            if finished:
                # A core only finishes inside its own tick, and a done
                # core's tick is a no-op: stop ticking it.
                active = self._active = [
                    cpu for cpu in active if not cpu.done()
                ]
            if not active:
                if not self._flush_started:
                    controller.begin_flush()
                    self._flush_started = True
                if not controller.busy():
                    break

            if self.now - last_progress_cycle > sim.deadlock_cycles:
                # Sampled lazily: a wedged run trips at most one window
                # later than a per-visit check would notice it.
                progress = self._progress_marker()
                if progress == last_progress:
                    raise SimulationError(
                        f"no progress for {sim.deadlock_cycles} cycles at "
                        f"cycle {self.now} (config {self.config.name}); "
                        f"pending={controller.pending}"
                    )
                last_progress = progress
                last_progress_cycle = self.now

            if profiling:
                prof.enter(PH_CLOCK)
                self.now = self._next_cycle()
                prof.exit(PH_CLOCK)
            else:
                self.now = self._next_cycle()
            if self.now > sim.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={sim.max_cycles} "
                    f"(config {self.config.name})"
                )

        self.stats.cycles = max(self.now - self._warmup_cycle, 1)
        if self.probe.enabled:
            self.probe.emit(Event(EV_RUN_END, self.stats.cycles,
                                  value=self.stats.instructions))
        cpu_ratio = self.config.cpu.cpu_cycles_per_mem_cycle(
            self.config.timing.tck_ns
        )
        if profiling:
            prof.enter(PH_STATS)
        result = SimResult(
            config=self.config,
            stats=self.stats,
            energy=measure_energy(self.config, self.stats),
            perfect_energy=measure_perfect_energy(self.config, self.stats),
            ipc=self.stats.ipc(cpu_ratio),
            cycles=self.stats.cycles,
            instructions=self.stats.instructions,
            epochs=self._epochs.samples if self._epochs else None,
        )
        if profiling:
            prof.exit(PH_STATS)
            prof.exit(PH_RUN)
        return result

    def _progress_marker(self) -> tuple:
        """Retired instructions, issued commands and pending requests.

        The per-core retired counts survive the warm-up statistics
        reset, so a run that retires or issues anything between two
        samples always shows a different marker.
        """
        return (
            sum(cpu.instructions_retired for cpu in self.cpus),
            self.controller.commands_issued(),
            self.controller.pending,
        )

    # -- clock advance ------------------------------------------------------

    def _next_cycle(self) -> int:
        """Next cycle to simulate: the event rule, applied every iteration.

        The clock jumps to ``min(next CPU-visible event, next controller
        event)``.  Whenever any core can make progress its next visible
        event is simply ``now + 1``, which bounds the min from below —
        so the controller horizon query is short-circuited and the clock
        steps by one.  When every core is done, asleep or blocked on
        memory, the CPU term drops out and the clock jumps straight to
        the controller's next completion or earliest-issuable cycle.
        """
        naive = self.now + 1
        for cpu in self._active:
            if not cpu.asleep and not cpu.fully_stalled():
                return naive  # next CPU event is the very next cycle
        horizon = self.controller.next_event_after(self.now)
        if horizon is None:
            # Cores blocked with no memory event: only legal when every
            # core is done and the controller is empty (loop exits first).
            return naive
        return horizon if horizon > naive else naive


def simulate(config: SystemConfig, trace: Iterable[TraceRecord],
             probe: "Probe | None" = None,
             profiler: "PhaseTimer | None" = None,
             tracer: "RequestTracer | None" = None,
             epoch_hook=None) -> SimResult:
    """Build and run a simulator in one call (the common entry point)."""
    return Simulator(
        config, trace, probe=probe, profiler=profiler, tracer=tracer,
        epoch_hook=epoch_hook,
    ).run()
