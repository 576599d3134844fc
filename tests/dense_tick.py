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
#: retries a full queue.  The dense loop counts a stalled core's retry
#: on every cycle, the skipping loop only on the cycles it visits, so
#: these may only be lower when skipping — on N>1 cores, where one core
#: can sit on a full shared queue while the others keep the clock
#: stepping, and on any N for runs that fill a queue.
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
    """``simulator`` with clock skipping off: one cycle per iteration,
    every core ticked on every cycle (no core is ever left asleep)."""
    simulator._next_cycle = lambda: simulator.now + 1
    for cpu in simulator.cpus:
        cpu.tick = _insomniac(cpu)
    return simulator


def _insomniac(cpu):
    """``cpu.tick`` that clears the sleep flag the tick may set."""
    tick = cpu.tick

    def tick_awake(now):
        tick(now)
        cpu.asleep = False

    return tick_awake


def build(config, traces):
    """``Simulator`` for one trace, ``MultiCoreSimulator`` for several."""
    if len(traces) == 1:
        return Simulator(config, traces[0])
    return MultiCoreSimulator(config, traces)


def assert_matches_dense(make, fills_queues=False):
    """Skipping and dense runs of ``make()`` agree; returns the former.

    ``fills_queues`` marks a run that fills a queue, whose
    :data:`VISIT_COUNTED` refusals may then be lower on one core too.
    """
    skipped = outcome(make())
    stepped = outcome(dense(make()))
    if fills_queues or len(skipped["per_core_instructions"]) > 1:
        for part in ("stats", "summary"):
            for key in VISIT_COUNTED:
                if key in skipped[part]:
                    assert skipped[part][key] <= stepped[part][key]
                    stepped[part][key] = skipped[part][key]
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
