"""Multi-core simulation: several replay cores sharing one memory system.

An extension beyond the paper's single-threaded SPEC2006 evaluation:
``MultiCoreSimulator`` runs the :class:`~repro.sim.simulator.Simulator`
loop with N :class:`~repro.cpu.trace_cpu.TraceCpu` cores (one trace
each) on its single :class:`~repro.sim.system.MemorySystem`.  The
cores contend for queues, buses and bank tiles — the regime where
tile-level parallelism should matter most, since a multi-programmed mix
supplies far more memory-level parallelism than one ROB can.

The conventional multi-programmed metric is reported:
**weighted speedup** = sum over cores of IPC_shared / IPC_alone, with
the solo runs executed on the same memory architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..config.params import SystemConfig
from ..core.energy import EnergyBreakdown
from ..memsys.stats import StatsCollector
from ..workloads.record import TraceRecord
from ..workloads.transform import offset_trace
from .epochs import EpochSample
from .simulator import Simulator, simulate


@dataclass
class MultiCoreResult:
    """Outcome of one multi-programmed run."""

    config: SystemConfig
    cycles: int
    per_core_instructions: List[int]
    per_core_ipc: List[float]
    stats: StatsCollector
    energy: EnergyBreakdown
    labels: List[str] = field(default_factory=list)
    #: Per-epoch counter deltas when sim.epoch_cycles is set.
    epochs: "list[EpochSample] | None" = None

    @property
    def throughput_ipc(self) -> float:
        """Aggregate instructions per CPU cycle across all cores."""
        return sum(self.per_core_ipc)

    def weighted_speedup(self, solo_ipc: Sequence[float]) -> float:
        """Sum of per-core shared/alone IPC ratios."""
        if len(solo_ipc) != len(self.per_core_ipc):
            raise ValueError("solo IPC list must match core count")
        if any(ipc <= 0 for ipc in solo_ipc):
            raise ValueError("solo IPCs must be positive")
        return sum(
            shared / alone
            for shared, alone in zip(self.per_core_ipc, solo_ipc)
        )

    def summary(self) -> Dict[str, object]:
        labels = self.labels or [
            f"core{i}" for i in range(len(self.per_core_ipc))
        ]
        data: Dict[str, object] = {
            "config": self.config.name,
            "cycles": self.cycles,
            "throughput_ipc": round(self.throughput_ipc, 4),
        }
        for label, ipc in zip(labels, self.per_core_ipc):
            data[f"ipc[{label}]"] = round(ipc, 4)
        return data


class MultiCoreSimulator(Simulator):
    """The shared simulation loop with one core per trace."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Sequence[TraceRecord]],
        labels: "Sequence[str] | None" = None,
    ):
        if not traces:
            raise ValueError("need at least one trace")
        self.labels = list(labels) if labels else [
            f"core{i}" for i in range(len(traces))
        ]
        if len(self.labels) != len(traces):
            raise ValueError("labels must match trace count")
        super().__init__(config, traces)

    def _core_traces(self, traces) -> list:
        return list(traces)

    def run(self) -> MultiCoreResult:
        """Run the shared loop; report it per core."""
        result = super().run()
        ratio = self.config.cpu.cpu_cycles_per_mem_cycle(
            self.config.timing.tck_ns
        )
        instructions = [
            cpu.instructions_retired - at_reset
            for cpu, at_reset in zip(self.cpus, self._warmup_retired)
        ]
        return MultiCoreResult(
            config=self.config,
            cycles=result.cycles,
            per_core_instructions=instructions,
            per_core_ipc=[
                count / (result.cycles * ratio) for count in instructions
            ],
            stats=result.stats,
            energy=result.energy,
            labels=self.labels,
            epochs=result.epochs,
        )


def run_mix(
    config: SystemConfig,
    traces: Sequence[Sequence[TraceRecord]],
    labels: "Sequence[str] | None" = None,
) -> MultiCoreResult:
    """Build and run a multi-core simulation in one call."""
    return MultiCoreSimulator(config, traces, labels).run()


#: Default inter-program address stride: 32 MiB plus one row span.
#: Deliberately *not* a multiple of any power-of-two capacity — a
#: multiple would wrap back onto identical lines and remove nothing.
#: The row-span term also decorrelates the programs' row/SAG phase.
DEFAULT_REGION_BYTES = (1 << 25) + (1 << 13)


def isolate_address_spaces(
    traces: Sequence[Sequence[TraceRecord]],
    region_bytes: int = DEFAULT_REGION_BYTES,
) -> "list[list[TraceRecord]]":
    """Relocate each trace into its own address region.

    Distinct programs should not alias physical lines: shared addresses
    couple the cores through store-to-load forwarding and row buffers.
    With footprints larger than the simulated capacity some wrap-around
    overlap is unavoidable, but a capacity-coprime stride decorrelates
    the streams; bank/tile contention stays, systematic false sharing
    goes.
    """
    return [
        offset_trace(trace, index * region_bytes)
        for index, trace in enumerate(traces)
    ]


def weighted_speedup_study(
    config: SystemConfig,
    traces: Sequence[Sequence[TraceRecord]],
    labels: "Sequence[str] | None" = None,
    isolate: bool = True,
) -> Dict[str, float]:
    """Shared run plus the solo baselines it is normalised against.

    Returns weighted speedup, aggregate throughput and per-core
    shared/alone ratios — all on the *same* memory configuration, so
    the number isolates inter-core interference.  ``isolate`` (default)
    relocates each program into a private address region first.
    """
    if isolate:
        traces = isolate_address_spaces(traces)
    shared = run_mix(config, traces, labels)
    solo_ipc = [
        simulate(config, trace).ipc for trace in traces
    ]
    ratios = [
        shared_ipc / alone
        for shared_ipc, alone in zip(shared.per_core_ipc, solo_ipc)
    ]
    result = {
        "weighted_speedup": shared.weighted_speedup(solo_ipc),
        "throughput_ipc": shared.throughput_ipc,
    }
    names = shared.labels
    for name, ratio in zip(names, ratios):
        result[f"ratio[{name}]"] = ratio
    return result
