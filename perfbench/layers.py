"""Per-layer span tracing for the traced benchmark run.

Wrappers are installed on the simulator's classes (and on the
reproduction module's rendering functions) from outside the program,
before any simulator is built, and removed afterwards; an untraced pass
never executes a wrapper.  A process forked while they are installed
(a pool worker) removes them at once, so its calls are never traced.

Each wrapped call is one span.  Every span feeds two in-memory
aggregates per layer -- calls and self time (duration minus the time its
child spans cover).  The wrappers' own cost is measured once per traced
pass on a no-op (:func:`calibrate`) and taken out of every span, so it
lands in the ``bench.wrapper`` bucket (calls x cost) rather than in the
layer or its caller.  Full records ``(span_id, parent_id, job, layer,
start_s, end_s)`` are kept only for a sample of jobs (plus the few spans
outside any job, job -1), each capped, so memory stays bounded.  A root
span around each pass collects the time no layer covers: the explicit
``other`` bucket.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: Name of the root span whose self time is the ``other`` bucket.
ROOT = "bench.other"

#: The layers whose self times (plus ``other`` and the wrapper bucket)
#: must add up to the traced pass wall clock.
LAYERS = (
    "core.fgnvm_bank.issue",
    "core.fgnvm_bank.kind_and_constraint",
    "memsys.scheduler.pick",
    "memsys.controller.tick",
    "memsys.controller.next_event_after",
    "cpu.trace_cpu.tick",
    "sim.loop",
    "workloads.tracegen",
    "sim.parallel.run_jobs",
    "sim.parallel.disk_put",
    "analysis.render",
)

#: Layer whose span starts a new job (one simulator run).
JOB_LAYER = "sim.loop"

#: Full span records are kept for one job in this many.
SAMPLE_EVERY = 16

#: Cap on the records kept per sampled job (and outside any job).
MAX_SPANS_PER_JOB = 20_000

#: Calls per calibration round, and rounds (the median round is used).
CALIBRATION_CALLS = 5_000
CALIBRATION_ROUNDS = 5

#: Zero wrapper cost: ``(inside, outside, passthrough)`` seconds.
NO_COST = (0.0, 0.0, 0.0)


class SpanTracer:
    """Span stack plus per-layer aggregates and sampled span records."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        #: Layer-specific counts observed at the boundary (rows, ...).
        self.counts = defaultdict(int)
        #: Pass-through calls per layer (see :meth:`span`).
        self.passthroughs = defaultdict(int)
        #: Calibrated wrapper cost per layer: (per call, per pass-through).
        self.cost = {}
        #: Open spans: ``[layer, start, child_s, span_id]``.
        self.stack = []
        self.records = []
        #: Jobs begun so far; ``job`` is the current one (-1: none).
        self.jobs = 0
        self.job = -1
        self._next_id = 1
        self._job_spans = 0
        self._outside_spans = 0
        #: One-element cell so wrappers read the flag without a lookup
        #: on the tracer object.
        self.sampling = [True]

    def begin_job(self) -> None:
        """A new simulator run starts: decide whether to sample it."""
        self.job = self.jobs
        self.jobs += 1
        self.sampling[0] = self.job % SAMPLE_EVERY == 0
        self._job_spans = 0

    def end_job(self) -> None:
        self.job = -1
        self.sampling[0] = True

    def record(self, frame, end: float) -> None:
        if self.job < 0:
            if self._outside_spans >= MAX_SPANS_PER_JOB:
                return
            self._outside_spans += 1
        else:
            if self._job_spans >= MAX_SPANS_PER_JOB:
                return
            self._job_spans += 1
        parent = self.stack[-1][3] if self.stack else 0
        self.records.append(
            (frame[3], parent, self.job, frame[0], frame[1], end)
        )

    def new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def wrapper_s(self) -> float:
        """Calibrated cost of every wrapper call made so far."""
        return sum(self.calls[layer] * per_call
                   + self.passthroughs[layer] * per_passthrough
                   for layer, (per_call, per_passthrough)
                   in self.cost.items())

    def span(self, layer: str, fn, before=None, starts_job=False,
             cost=NO_COST):
        """``fn`` wrapped in a span of ``layer``.

        ``before(args)`` runs inside the span before the call and may
        return a callable that runs after it.  ``starts_job`` opens a new
        job inside the span, so a sampled job's records include its own
        root.  A call made while the same layer is already the innermost
        open span (``pick`` -> ``pick_with_horizon``) passes straight
        through, so it is neither a second call nor a child.

        ``cost`` is ``(inside, outside, passthrough)`` from
        :func:`calibrate`: the wrapper's bookkeeping inside the span's
        own window, the part its caller pays, and a pass-through call.
        All three are moved out of the layers into :meth:`wrapper_s`.
        """
        stack = self.stack
        clock = time.perf_counter
        calls = self.calls
        passthroughs = self.passthroughs
        self_s = self.self_s
        sampling = self.sampling
        tracer = self
        inside, outside, passthrough = cost
        self.cost[layer] = (inside + outside, passthrough)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            if stack and stack[-1][0] == layer:
                stack[-1][2] += passthrough
                passthroughs[layer] += 1
                return fn(*args, **kwargs)
            if starts_job:
                tracer.begin_job()
            frame = [layer, start, 0.0,
                     tracer.new_id() if sampling[0] else 0]
            stack.append(frame)
            try:
                after = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after()
                return result
            finally:
                stack.pop()
                if frame[3]:
                    tracer.record(frame, clock())
                if starts_job:
                    tracer.end_job()
                duration = clock() - start
                self_s[layer] += duration - frame[2] - inside
                calls[layer] += 1
                if stack:
                    stack[-1][2] += duration + outside

        wrapper.perfbench_layer = layer
        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` under the root span; returns its result."""
        return self.span(ROOT, fn)(*args, **kwargs)

    def write_spans(self, path: Path, meta: dict) -> int:
        """Write the sampled span records as JSON lines; returns count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for span_id, parent, job, layer, start, end in self.records:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "job": job,
                    "layer": layer, "start_s": start, "end_s": end,
                }) + "\n")
        return len(self.records)


def calibrate(hook=None, args=(None, 0)):
    """Per-call cost ``(inside, outside, passthrough)`` of a wrapper.

    A no-op is called ``CALIBRATION_CALLS`` times bare, through the
    wrapper (with ``hook``, on ``args``) under a parent span, and as a
    pass-through, with span records off as in an unsampled job.  ``inside`` is the span's measured window less one
    bare call (the layer keeps its own call); ``outside`` is the rest of
    the added cost, which the caller would otherwise pay.  Each is the
    median over ``CALIBRATION_ROUNDS`` rounds.
    """
    def noop(*_):
        return None

    clock = time.perf_counter
    rounds = []
    for _ in range(CALIBRATION_ROUNDS):
        scratch = SpanTracer()
        scratch.sampling[0] = False
        wrapped = scratch.span("probe", noop,
                               hook(scratch) if hook is not None else None)
        started = clock()
        for _ in range(CALIBRATION_CALLS):
            noop(*args)
        bare = (clock() - started) / CALIBRATION_CALLS
        scratch.stack.append(["parent", 0.0, 0.0, 0])
        started = clock()
        for _ in range(CALIBRATION_CALLS):
            wrapped(*args)
        traced = (clock() - started) / CALIBRATION_CALLS
        scratch.stack[-1][0] = "probe"
        started = clock()
        for _ in range(CALIBRATION_CALLS):
            wrapped(*args)
        passthrough = (clock() - started) / CALIBRATION_CALLS
        window = scratch.self_s["probe"] / CALIBRATION_CALLS
        inside = max(window - bare, 0.0)
        rounds.append((inside, max(traced - bare - inside, 0.0),
                       max(passthrough - bare, 0.0)))
    return tuple(statistics.median(r[i] for r in rounds) for i in range(3))


# -- installation ------------------------------------------------------------


def _targets():
    """(owner, attribute, layer, hook) for every wrapper.

    ``hook`` is None, a factory for a ``before`` hook, or
    :data:`JOB_LAYER` for the spans that open a job.
    """
    from repro.analysis import reproduce
    from repro.core.fgnvm_bank import FgNvmBank
    from repro.cpu.trace_cpu import TraceCpu
    from repro.memsys import policies  # noqa: F401  (registers policies)
    from repro.memsys.controller import MemoryController
    from repro.memsys.scheduler import SchedulingPolicy
    from repro.sim.multicore import MultiCoreSimulator
    from repro.sim.parallel import DiskResultCache, ParallelExperimentEngine
    from repro.sim.simulator import Simulator
    from repro.workloads.tracegen import ProfileTraceGenerator

    targets = [
        (FgNvmBank, "issue", "core.fgnvm_bank.issue", None),
        (FgNvmBank, "kind_and_constraint",
         "core.fgnvm_bank.kind_and_constraint", None),
        (MemoryController, "tick", "memsys.controller.tick", _count_issue),
        (MemoryController, "next_event_after",
         "memsys.controller.next_event_after", None),
        (TraceCpu, "tick", "cpu.trace_cpu.tick", None),
        (Simulator, "run", JOB_LAYER, JOB_LAYER),
        (MultiCoreSimulator, "run", JOB_LAYER, JOB_LAYER),
        (ProfileTraceGenerator, "packed", "workloads.tracegen", _count_rows),
        (ParallelExperimentEngine, "run_jobs", "sim.parallel.run_jobs", None),
        (DiskResultCache, "put", "sim.parallel.disk_put", None),
    ]
    policies_seen = [SchedulingPolicy]
    for cls in policies_seen:
        policies_seen.extend(sub for sub in cls.__subclasses__()
                             if sub not in policies_seen)
        for name in ("pick", "pick_with_horizon"):
            if name in vars(cls):
                targets.append((cls, name, "memsys.scheduler.pick", None))
    for name in sorted(vars(reproduce)):
        if (name.startswith(("render_", "check_")) or name.endswith("_csv")) \
                and callable(getattr(reproduce, name)):
            targets.append((reproduce, name, "analysis.render", None))
    return targets


def _count_issue(tracer):
    counts = tracer.counts

    def before(args):
        bus = args[0].command_bus
        issued = bus.commands_issued

        def after():
            if bus.commands_issued != issued:
                counts["memsys.controller.tick.issued"] += 1
        return after
    return before


def _count_rows(tracer):
    counts = tracer.counts

    def before(args):
        counts["workloads.tracegen.rows"] += args[1]
    return before


class _Bus:
    commands_issued = 0


class _Controller:
    """Stand-in argument for calibrating the issue-counting hook."""

    command_bus = _Bus()


#: Arguments each hook reads when it is calibrated on a no-op.
_CALIBRATION_ARGS = {_count_issue: (_Controller(), 0)}

#: Installations live in this process (cleared in a forked child).
_ACTIVE = []


def _remove_in_child() -> None:
    for installed in list(_ACTIVE):
        installed.remove()


os.register_at_fork(after_in_child=_remove_in_child)


class Installed:
    """Wrappers live on their owners until :meth:`remove`.

    The wrapper cost is calibrated first, once per hook kind; a job
    span (called once per job) uses the plain wrapper's cost.
    """

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._saved = []
        costs = {}
        for owner, name, layer, hook in _targets():
            had_own = name in vars(owner)
            original = vars(owner)[name] if had_own else None
            fn = getattr(owner, name)
            before_factory = None if hook == JOB_LAYER else hook
            if before_factory not in costs:
                costs[before_factory] = calibrate(
                    before_factory,
                    _CALIBRATION_ARGS.get(before_factory, (None, 0)))
            wrapper = tracer.span(
                layer, fn,
                before_factory(tracer) if before_factory else None,
                starts_job=hook == JOB_LAYER,
                cost=costs[before_factory])
            setattr(owner, name, wrapper)
            self._saved.append((owner, name, had_own, original))
        _ACTIVE.append(self)

    def remove(self) -> None:
        for owner, name, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved = []
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def installed_wrappers() -> list:
    """Every wrapper currently reachable on a target (empty when clean)."""
    found = []
    for owner, name, layer, _ in _targets():
        if hasattr(getattr(owner, name), "perfbench_layer"):
            found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
