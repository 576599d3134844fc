"""Dense-tick oracle for the simulation loop.

The event-driven clock may only skip cycles in which nothing can happen,
so a run that steps every cycle must agree with the skipping run in
every result.  Shared by the skipped-vs-unskipped suites.
"""

import pytest

from repro.sim.multicore import MultiCoreSimulator
from repro.sim.simulator import Simulator

#: Core counts every skipped-vs-dense comparison covers.
CORE_COUNTS = (1, 2, 4)

#: Admission refusals, counted once per *visited* cycle on which a core
#: retries a full queue.  With N cores one core can sit on a full shared
#: queue while the others keep the clock stepping; the dense loop counts
#: its retry on every cycle, the skipping loop only on the cycles it
#: visits, so on N cores these may only be lower when skipping.
VISIT_COUNTED = ("read_queue_full_events", "write_queue_full_events")


def core_cases(values):
    """``(value, cores)`` params; single-core ids stay the bare value."""
    return [
        pytest.param(value, cores,
                     id=str(value) if cores == 1 else f"{value}-{cores}cores")
        for cores in CORE_COUNTS
        for value in values
    ]


def dense(simulator):
    """``simulator`` with clock skipping off: one cycle per iteration."""
    simulator._next_cycle = lambda: simulator.now + 1
    return simulator


def build(config, traces):
    """``Simulator`` for one trace, ``MultiCoreSimulator`` for several."""
    if len(traces) == 1:
        return Simulator(config, traces[0])
    return MultiCoreSimulator(config, traces)


def assert_matches_dense(make):
    """Skipping and dense runs of ``make()`` agree; returns the former."""
    skipped = outcome(make())
    stepped = outcome(dense(make()))
    if len(skipped["per_core_instructions"]) > 1:
        for key in VISIT_COUNTED:
            assert skipped["stats"].pop(key) <= stepped["stats"].pop(key)
    assert skipped == stepped
    return skipped


def outcome(simulator):
    """Run ``simulator``; what a skipped and a dense run must share."""
    result = simulator.run()
    return {
        "cycles": result.cycles,
        "per_core_instructions": [
            cpu.instructions_retired for cpu in simulator.cpus
        ],
        "stats": result.stats.as_dict(),
        "epochs": result.epochs,
        "summary": result.summary(),
    }
