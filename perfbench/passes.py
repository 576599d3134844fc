"""The benchmark's workloads: one timed pass each, plus its checks.

Every workload reaches the simulator only through a public entry point:

* ``fig4-serial`` -- :meth:`ParallelExperimentEngine.run_jobs` over the
  Figure 4 grid with ``workers=1`` and no disk cache,
* ``mix4-shared`` -- :func:`repro.sim.multicore.run_mix` on a
  four-program mix,
* ``reproduce-pooled`` -- :func:`repro.analysis.reproduce.reproduce_all`
  with a pooled engine and a fresh cache directory per pass.

A pass is split in two: :meth:`run_pass` is the timed part (and the part
the traced run wraps); :meth:`check_pass` computes digests and does the
untimed work (the warm read-back, hygiene checks) afterwards.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The paper's combined (Multi-Issue) average speedup over baseline.
PAPER_MI_SPEEDUP = 1.565

FIG4_LABELS = ("baseline", "fgnvm", "128-banks", "fgnvm-multi-issue")
MIX_BENCHMARKS = ("mcf", "lbm", "milc", "omnetpp")
MIX_LABELS = ("baseline", "fgnvm", "fgnvm-multi-issue")

#: Requests per simulated trace (per core for the mix).
DEFAULT_REQUESTS = 2500

#: Every file ``reproduce_all`` writes; ``MANIFEST.txt`` embeds the
#: output path, so it is checked for presence but not hashed.
REPRODUCE_ARTIFACTS = (
    "figure3.txt", "figure4.csv", "figure4.txt", "figure5.csv",
    "figure5.txt", "headline.txt", "table1.csv", "table1.txt",
    "table2.txt",
)
UNHASHED = ("MANIFEST.txt",)

#: Where the engine's shared-memory trace segments appear.
SHM_DIR = Path("/dev/shm")


def live_segments() -> List[str]:
    """This process's trace segments still present in /dev/shm."""
    if not SHM_DIR.is_dir():
        return []
    prefix = f"repro-trace-{os.getpid()}-"
    return sorted(n for n in os.listdir(SHM_DIR) if n.startswith(prefix))


def trace_seed(profile_seed: int, seed: int) -> Optional[int]:
    """Trace seed for one profile: the profile's own at seed 0."""
    return None if seed == 0 else profile_seed + 1000 * seed


def sha256_json(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float
    #: perf_counter() at the start and end of the timed part.
    window: Tuple[float, float] = (0.0, 0.0)
    #: Host seconds per simulated job, keyed by the job.
    job_walls: Dict[str, float] = field(default_factory=dict)
    #: perf_counter() window of each job run in this process.
    job_windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    requests: int = 0
    cycles: int = 0
    ipcs: List[float] = field(default_factory=list)
    #: Gmean over benchmarks of Multi-Issue IPC / baseline IPC.
    mi_speedup: float = 0.0
    #: Per-series gmean speedups, printed beside the accuracy metric.
    series: Dict[str, float] = field(default_factory=dict)
    #: (label, sha256) per checked operation, in job/file order.
    digests: List[Tuple[str, str]] = field(default_factory=list)
    #: StatsCollector of every distinct job (simulated counters).
    stats: list = field(default_factory=list)
    #: Shape-check violations per artifact (empty lists = clean).
    problems: Dict[str, List[str]] = field(default_factory=dict)
    #: Engine figures (reproduce-pooled only).
    engine: Dict[str, float] = field(default_factory=dict)
    #: Hygiene violations (leaked segments or temp dirs).
    hygiene: List[str] = field(default_factory=list)
    #: Private hand-off from run_pass to check_pass.
    pending: object = None


def figure4_summary(results_by_bench) -> Tuple[Dict[str, float], list]:
    """(series gmeans, shape problems) from {bench: {label: SimResult}}."""
    from repro.analysis.figure4 import Figure4Result, check_figure4_shape

    figure = Figure4Result(requests=0)
    for bench, row in results_by_bench.items():
        base = row["baseline"].ipc
        figure.baseline_ipc[bench] = base
        figure.speedups[bench] = {
            label: row[label].ipc / base for label in FIG4_LABELS[1:]
        }
    return figure.series_summary(), check_figure4_shape(figure)


class Workload:
    """One workload: its inputs (from the seed) and its pass."""

    name = ""
    #: Checked operations in one pass (all fail when the pass raises).
    operations = 0
    #: Processes that simulate (more than one: a pool of them).
    workers = 1
    #: Whether the pinned digests hold at every seed, not just seed 0.
    seed_free_digests = False

    def __init__(self, seed: int, requests: int, tmp_root: Path):
        self.seed = seed
        self.requests = requests
        #: Parent of every temporary directory a pass creates.
        self.tmp_root = tmp_root

    def new_engine(self, cache_dir: Path):
        """Build what set-up builds (the set-up probe times this).

        ``cache_dir`` is where an engine with a disk cache keeps it.
        """
        return None

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check_pass(self, result: PassResult) -> None:
        raise NotImplementedError


class Fig4Serial(Workload):
    """The Figure 4 grid, simulated in-process job by job."""

    name = "fig4-serial"

    def __init__(self, seed: int, requests: int, tmp_root: Path):
        super().__init__(seed, requests, tmp_root)
        from repro.config.presets import figure4_configs
        from repro.sim.parallel import ExperimentJob
        from repro.workloads.spec_profiles import benchmark_names, get_profile

        configs = figure4_configs()
        self.jobs = [
            ExperimentJob(configs[label], bench, requests,
                          trace_seed(get_profile(bench).seed, seed))
            for bench in benchmark_names()
            for label in FIG4_LABELS
        ]
        self.operations = len(self.jobs)

    def new_engine(self, cache_dir: Path, progress=None):
        """A serial engine; this workload keeps no disk cache.

        ``progress`` is the engine's progress hook.
        """
        from repro.sim.parallel import ParallelExperimentEngine

        return ParallelExperimentEngine(workers=1, progress=progress)

    def run_pass(self) -> PassResult:
        # The engine reports progress once before the first job and
        # once after each, which dates the end of every job.
        reports = []
        engine = self.new_engine(
            self.tmp_root, progress=lambda event: reports.append(
                time.perf_counter()))
        started = time.perf_counter()
        results = engine.run_jobs(self.jobs)
        ended = time.perf_counter()
        job_walls = simulated_walls(engine)
        job_windows = {
            key: (end - wall, end)
            for (key, wall), end in zip(job_walls.items(), reports[1:])
        }
        return PassResult(wall_s=ended - started, window=(started, ended),
                          job_walls=job_walls, job_windows=job_windows,
                          pending=results)

    def check_pass(self, result: PassResult) -> None:
        results = result.pending
        result.pending = None
        grid: Dict[str, Dict[str, object]] = {}
        for job, label, sim in zip(self.jobs, itertools.cycle(FIG4_LABELS),
                                        results):
            grid.setdefault(job.benchmark, {})[label] = sim
            result.digests.append(
                (f"{job.benchmark}/{job.config.name}",
                 sha256_json(sim.summary()))
            )
        result.stats = [sim.stats for sim in results]
        result.requests = sum(s.requests for s in result.stats)
        result.cycles = sum(sim.cycles for sim in results)
        result.ipcs = [sim.ipc for sim in results]
        result.series, result.problems["figure4"] = figure4_summary(grid)
        result.mi_speedup = result.series["fgnvm-multi-issue"]


class Mix4Shared(Workload):
    """mcf+lbm+milc+omnetpp sharing one memory system, per config.

    ``run_mix`` takes no seed, so the traces are always the profiles'
    own; the seed only orders the configurations within a pass, which
    leaves every simulated result (and its pinned digest) unchanged.
    """

    name = "mix4-shared"
    seed_free_digests = True

    def __init__(self, seed: int, requests: int, tmp_root: Path):
        super().__init__(seed, requests, tmp_root)
        from repro.config.presets import figure4_configs
        from repro.workloads.spec_profiles import get_profile

        configs = figure4_configs()
        self.labels = list(MIX_LABELS)
        if seed != 0:
            random.Random(seed).shuffle(self.labels)
        self.configs = [configs[label] for label in self.labels]
        self.profiles = [get_profile(bench) for bench in MIX_BENCHMARKS]
        self.operations = len(self.configs)

    def run_pass(self) -> PassResult:
        from repro.sim.multicore import isolate_address_spaces, run_mix
        from repro.workloads.tracegen import generate_trace

        started = time.perf_counter()
        traces = isolate_address_spaces([
            generate_trace(profile, self.requests)
            for profile in self.profiles
        ])
        job_walls, job_windows = {}, {}
        results = []
        for label, config in zip(self.labels, self.configs):
            job_started = time.perf_counter()
            results.append(run_mix(config, traces, labels=MIX_BENCHMARKS))
            job_ended = time.perf_counter()
            job_walls[label] = job_ended - job_started
            job_windows[label] = (job_started, job_ended)
        ended = time.perf_counter()
        return PassResult(wall_s=ended - started, window=(started, ended),
                          job_walls=job_walls, job_windows=job_windows,
                          pending=results)

    def check_pass(self, result: PassResult) -> None:
        by_label = dict(zip(self.labels, result.pending))
        result.pending = None
        results = [by_label[label] for label in MIX_LABELS]
        for mix in results:
            data = dict(mix.summary())
            data.update(mix.stats.as_dict())
            result.digests.append((mix.config.name, sha256_json(data)))
        result.stats = [mix.stats for mix in results]
        result.requests = sum(s.requests for s in result.stats)
        result.cycles = sum(mix.cycles for mix in results)
        result.ipcs = [mix.throughput_ipc for mix in results]
        base = by_label["baseline"].throughput_ipc
        result.series = {
            label: by_label[label].throughput_ipc / base
            for label in MIX_LABELS[1:]
        }
        result.mi_speedup = result.series["fgnvm-multi-issue"]


class ReproducePooled(Workload):
    """``repro reproduce`` on a pool, cold, then read back warm."""

    name = "reproduce-pooled"

    def __init__(self, seed: int, requests: int, tmp_root: Path):
        super().__init__(seed, requests, tmp_root)
        from repro.analysis.reproduce import reproduce_all  # noqa: F401
        from repro.workloads.spec_profiles import benchmark_names

        names = benchmark_names()
        if seed != 0:
            # reproduce_all takes no seed; the seed orders the grid,
            # which changes pool scheduling and batch tails, not work.
            names = random.Random(seed).sample(names, len(names))
        self.benchmarks = names
        self.workers = len(os.sched_getaffinity(0))
        self.operations = 2 * len(REPRODUCE_ARTIFACTS)

    def new_engine(self, cache_dir: Path):
        from repro.sim.parallel import ParallelExperimentEngine

        return ParallelExperimentEngine(workers=self.workers,
                                        cache_dir=cache_dir)

    def _reproduce(self, out: Path, engine):
        from repro.analysis.reproduce import reproduce_all

        return reproduce_all(out, self.requests, benchmarks=self.benchmarks,
                             engine=engine)

    def run_pass(self) -> PassResult:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=self.tmp_root))
        try:
            engine = self.new_engine(tmp / "cache")
            started = time.perf_counter()
            manifest = self._reproduce(tmp / "cold", engine)
            ended = time.perf_counter()
        except BaseException:
            self._cleanup(tmp, PassResult(wall_s=0.0))
            raise
        return PassResult(
            wall_s=ended - started,
            window=(started, ended),
            job_walls=simulated_walls(engine),
            problems=dict(manifest.problems),
            pending=(tmp, engine),
        )

    def check_pass(self, result: PassResult) -> None:
        from repro.config.presets import figure4_configs
        from repro.sim.parallel import DiskResultCache

        tmp, engine = result.pending
        result.pending = None
        try:
            cold = _artifact_digests(tmp / "cold")
            result.digests = [(f"cold/{name}", d) for name, d in cold]
            cache = DiskResultCache(tmp / "cache")
            sims = {}
            for record in engine.records:
                if record.key not in sims:
                    sims[record.key] = (record, cache.get(record.key))
            simulated = [sim for rec, sim in sims.values()
                         if rec.source == "simulated"]
            result.stats = [sim.stats for sim in simulated]
            result.requests = sum(s.requests for s in result.stats)
            result.cycles = sum(sim.cycles for sim in simulated)
            result.ipcs = [sim.ipc for _, sim in sims.values()]
            grid: Dict[str, Dict[str, object]] = {}
            names = {cfg.name: label
                     for label, cfg in figure4_configs().items()}
            for rec, sim in sims.values():
                if rec.config in names:
                    grid.setdefault(rec.benchmark, {})[names[rec.config]] = sim
            result.series, _ = figure4_summary(grid)
            result.mi_speedup = result.series["fgnvm-multi-issue"]
            manifest = engine.manifest()
            busy = manifest.busy_s / max(manifest.wall_s * engine.workers,
                                         1e-9)
            warm_engine = self.new_engine(tmp / "cache")
            warm_started = time.perf_counter()
            self._reproduce(tmp / "warm", warm_engine)
            warm_s = time.perf_counter() - warm_started
            cold_by_name = dict(cold)
            result.digests += [
                (f"warm/{name}",
                 d if d == cold_by_name.get(name) else "differs from cold")
                for name, d in _artifact_digests(tmp / "warm")
            ]
            result.engine = {
                "warm_readback_s": warm_s,
                "worker_util": busy,
                "result_bytes": sum(
                    (cache.root / key[:2] / f"{key}.pkl").stat().st_size
                    for key in cache.keys()
                ),
                "shm_attached": engine.trace_stats.shm_attached,
                "regenerated_jobs": engine.trace_stats.regenerated_jobs,
                "cache_hits": (engine.stats.cache_hits
                               + warm_engine.stats.cache_hits),
            }
        finally:
            self._cleanup(tmp, result)

    @staticmethod
    def _cleanup(tmp: Path, result: PassResult) -> None:
        """Delete the pass's directory; record anything that survives."""
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.exists():
            result.hygiene.append(f"temp dir survived: {tmp.name}")
        leaked = live_segments()
        if leaked:
            result.hygiene.append(
                f"shared-memory segments survived: {', '.join(leaked)}"
            )


def simulated_walls(engine) -> Dict[str, float]:
    """The engine's own wall per job it simulated, keyed by job."""
    return {r.key: r.wall_s for r in engine.records
            if r.source == "simulated"}


def _artifact_digests(out: Path) -> List[Tuple[str, str]]:
    """sha256 of every artifact in order; a missing file digests as ''.

    A file outside :data:`REPRODUCE_ARTIFACTS` (and not unhashed) is
    reported as an extra operation that can never match.
    """
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    digests = []
    for name in REPRODUCE_ARTIFACTS:
        path = out / name
        data = path.read_bytes() if path.is_file() else None
        digests.append((name,
                        hashlib.sha256(data).hexdigest() if data else ""))
    for name in present:
        if name not in REPRODUCE_ARTIFACTS and name not in UNHASHED:
            digests.append((name, "unexpected"))
    for name in UNHASHED:
        if name not in present:
            digests.append((name, "missing"))
    return digests


WORKLOADS = {
    cls.name: cls for cls in (Fig4Serial, Mix4Shared, ReproducePooled)
}


def make_workload(name: str, seed: int, requests: int, tmp_root: Path):
    return WORKLOADS[name](seed, requests, tmp_root)
