"""The benchmark's three workloads: inputs, timed ops and output checks.

Every workload is a closed loop: one client in one process, each op
starting only after the previous one has finished.  The workload seed
is passed to every sweep-space builder.

* ``soc_scaling`` — one op is one ``repro.jobs.execute`` point job of
  the registered ``pe_scaling`` sweep (PE counts 1..16, 1024 words),
  each PE count once on the default backend and once compiled,
  interleaved.  Figure 6's fast-mode SoC: kernel, channels, NoC, SoC
  and compiled engine do the work.
* ``sweep_cold`` — one op is one ``repro.sweep.run_sweep`` pass over
  the shipped sweep spaces against a fresh, empty ``ResultCache``, with
  CLI defaults (telemetry on, default backend) and one worker per
  usable CPU: many short points, so the engine, pool, per-point
  telemetry, construction, fault watchdog runs and cache writes count.
* ``sweep_reuse`` — one op is the 480-point ``li_latency`` grid run
  incrementally, then again from the same cache.  Every op starts from
  the same ~960-entry cache of other seeds of the grid, restored
  outside the timed window: trace capture/replay and cache I/O work.

An op fails when the program raises, reports an error outcome, or an
output check fails; the checks run outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

DEFAULT_SEED = 0
WORKLOADS = ("soc_scaling", "sweep_cold", "sweep_reuse")

PE_COUNTS = (1, 2, 4, 8, 16)
TOTAL_WORDS = 1024

#: The shipped spaces of ``sweep_cold`` with the options that restrict
#: them.  Figure 3's 16-port points take about a minute each and its RTL
#: model is reference load, so only the sim-/signal-accurate models at
#: 2 and 4 ports run.
COLD_SPACES = (
    ("stall_verification", {}),
    ("li_latency", {}),
    ("pe_scaling", {}),
    ("crossbar_qor", {}),
    ("gals_overhead", {}),
    ("fault_campaign", {}),
    ("fig3_crossbar", {"ports": (2, 4),
                       "models": ("sim-accurate", "signal-accurate")}),
)

REUSE_PERIODS = range(5, 25)
REUSE_PROBABILITIES = (0.0, 0.2, 0.4)
#: Seeds of the grid the ``sweep_reuse`` cache is filled with, as
#: offsets from the workload seed.
REUSE_FILL_OFFSETS = (1, 2)

PINS_FILE = pathlib.Path(__file__).with_name("pins.json")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reuse_grid(seed: int):
    from repro import registry

    space = registry.get_sweep("li_latency").space
    return [p for period in REUSE_PERIODS
            for p in space(probabilities=REUSE_PROBABILITIES, trials=1,
                           period=period, seed=seed)]


def cold_spaces(seed: int):
    from repro import registry

    return [(name, registry.get_sweep(name).space(seed=seed, **opts))
            for name, opts in COLD_SPACES]


def fill_reuse_cache(root: str, seed: int) -> None:
    """Fill ``root`` with other seeds of the grid.

    The base traces are keyed without the seed, so the fill would also
    serve every later op's captures; they are dropped, which leaves
    only other seeds' point entries and lets each op capture its two
    bases.
    """
    from repro import registry
    from repro.sweep import ResultCache, SweepPoint, run_sweep

    cache = ResultCache(root)
    for offset in REUSE_FILL_OFFSETS:
        run_sweep(reuse_grid(seed + offset), jobs=1, cache=cache,
                  incremental=True)
    adapter = registry.get_sweep("li_latency").replay
    for point in reuse_grid(seed):
        base = SweepPoint(point.experiment,
                          adapter.base_params(dict(point.params)),
                          seed=adapter.base_seed(dict(point.params),
                                                 point.seed))
        key = cache.key_for(base, mode="trace")
        (pathlib.Path(root) / f"{key}.json").unlink(missing_ok=True)


def load_pins(path: Optional[str] = None) -> dict:
    with open(path or PINS_FILE) as fh:
        return json.load(fh)


class Workload:
    """Base class: ``run_pass`` appends the ops of one pass to ``ops``.

    An op is a dict of ``latency`` (s), ``points`` completed,
    simulated ``cycles`` and the ``problems`` that fail it.

    ``workdir`` holds caches and is inside the checkout.  ``refs`` are
    the reference digests (see :meth:`references`), and ``tracer``,
    when set, opens an op window around each op's program calls.
    """

    name = ""
    #: Run one untimed pass before timing (lazy imports, first touch).
    warmup = True

    def __init__(self, seed: int, workdir: str, *, jobs: int, pins: dict):
        self.seed = seed
        self.workdir = pathlib.Path(workdir)
        self.jobs = jobs
        self.pins = pins.get(self.name, {}) \
            if pins.get("seed") == seed else {}
        self.refs: dict = {}
        self.tracer = None
        self.ops: List[dict] = []
        self.sweeps: List[tuple] = []  # (busy, wall, jobs) per sweep

    def _window(self):
        return self.tracer.op() if self.tracer is not None \
            else nullcontext()

    def references(self) -> dict:
        """Serial/plain reference digests the ops are checked against."""
        return {}

    def _check_digest(self, problems: List[str], key: str,
                      got: str) -> None:
        if got != self.refs[key]:
            problems.append(f"{key}: digest differs from the reference")
        if key in self.pins and got != self.pins[key]:
            problems.append(f"{key}: digest differs from the pinned one")

    def _note_sweep(self, result) -> None:
        self.sweeps.append((sum(o.wall_seconds for o in result.outcomes),
                            result.wall_seconds, result.jobs))

    def run_pass(self) -> None:
        raise NotImplementedError

    def probe(self) -> dict:
        """Untimed layer probes run once after a traced run."""
        return {}


class SocScaling(Workload):
    name = "soc_scaling"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro import registry

        self.points = registry.get_sweep("pe_scaling").space(
            pe_counts=PE_COUNTS, total_words=TOTAL_WORDS, seed=self.seed)

    def run_pass(self) -> None:
        from repro import jobs

        for point in self.points:
            pair = []
            for backend in (None, "compiled"):
                extra = {"backend": backend} if backend else {}
                request = jobs.JobRequest(point.experiment,
                                          dict(point.params),
                                          seed=point.seed, kind="point",
                                          **extra)
                problems: List[str] = []
                result = None
                with self._window():
                    t0 = time.perf_counter()
                    try:
                        result = jobs.execute(request)
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        problems.append(f"{type(exc).__name__}: {exc}")
                    latency = time.perf_counter() - t0
                cycles = result.payload["cycles"] if result else 0
                if result is not None and cycles <= 0:
                    problems.append("no cycles simulated")
                pair.append(cycles)
                if len(pair) == 2 and all(pair) and pair[0] != pair[1]:
                    problems.append(
                        f"n_pes={point.params['n_pes']}: compiled ran "
                        f"{pair[1]} cycles, default {pair[0]}")
                self.ops.append(dict(latency=latency,
                                     points=int(result is not None),
                                     cycles=cycles, problems=problems))


class SweepCold(Workload):
    name = "sweep_cold"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spaces = cold_spaces(self.seed)

    def references(self) -> dict:
        from repro.sweep import run_sweep

        return {name: digest(run_sweep(points, jobs=1).canonical())
                for name, points in self.spaces}

    def run_pass(self) -> None:
        from repro import sweep

        root = self.workdir / "cold"
        shutil.rmtree(root, ignore_errors=True)
        cache = sweep.ResultCache(str(root))
        problems: List[str] = []
        results = []
        with self._window():
            t0 = time.perf_counter()
            try:
                for _, points in self.spaces:
                    results.append(sweep.run_sweep(points, jobs=self.jobs,
                                                   cache=cache))
            except Exception as exc:  # noqa: BLE001 - a failed op
                problems.append(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0
        done = 0
        for (name, _), result in zip(self.spaces, results):
            self._note_sweep(result)
            done += sum(1 for o in result.outcomes if o.status != "error")
            if result.errors:
                problems.append(f"{name}: {result.errors} error outcomes")
            self._check_digest(problems, name, digest(result.canonical()))
        self.ops.append(dict(latency=latency, points=done, cycles=0,
                             problems=problems, entries_at_start=0))

    def probe(self) -> dict:
        """The eviction probe on the cache the last op filled."""
        return {"cache.put_full_ms": eviction_probe_ms(
            str(self.workdir / "cold"), self.workdir / "probe",
            reuse_grid(self.seed + 3)[0])}


class SweepReuse(Workload):
    name = "sweep_reuse"
    GRID = "li_latency_grid"
    #: The plain reference sweep has already run every module this op
    #: imports, and an op takes ~6 s, so no warm-up pass.
    warmup = False

    def __init__(self, *args, template: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.grid = reuse_grid(self.seed)
        self.template = template

    def references(self) -> dict:
        from repro.sweep import run_sweep

        plain = run_sweep(self.grid, jobs=1, telemetry=False)
        return {self.GRID: digest(plain.canonical())}

    def run_pass(self) -> None:
        from repro import sweep

        root = self.workdir / "reuse"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(self.template, root)
        cache = sweep.ResultCache(str(root))
        entries = len(cache)
        problems: List[str] = []
        first = rerun = None
        with self._window():
            t0 = time.perf_counter()
            try:
                first = sweep.run_sweep(self.grid, jobs=1, cache=cache,
                                        incremental=True)
                rerun = sweep.run_sweep(self.grid, jobs=1, cache=cache,
                                        incremental=True)
            except Exception as exc:  # noqa: BLE001 - a failed op
                problems.append(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0
        done = 0
        if rerun is not None:
            for result in (first, rerun):
                self._note_sweep(result)
                done += sum(1 for o in result.outcomes
                            if o.status != "error")
                if result.errors:
                    problems.append(f"{result.errors} error outcomes")
            canonical = first.canonical()
            self._check_digest(problems, self.GRID, digest(canonical))
            if rerun.canonical() != canonical:
                problems.append("cached rerun differs from the first pass")
            if rerun.cache_hits != len(self.grid):
                problems.append(f"rerun served {rerun.cache_hits} of "
                                f"{len(self.grid)} points from the cache")
        self.ops.append(dict(latency=latency, points=done, cycles=0,
                             problems=problems, entries_at_start=entries))
        shutil.rmtree(root, ignore_errors=True)

    def probe(self) -> dict:
        return {"cache.put_full_ms": eviction_probe_ms(
            self.template, self.workdir / "probe",
            reuse_grid(self.seed + 3)[0])}


def eviction_probe_ms(source: str, root: pathlib.Path, point) -> float:
    """Median ms of one ``put`` into a copy of ``source`` reopened with
    ``max_entries`` equal to its entry count: the over-limit path."""
    from statistics import median

    from repro.sweep import ResultCache

    times = []
    for _ in range(3):
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(source, root)
        entries = len(ResultCache(str(root)))
        cache = ResultCache(str(root), max_entries=entries)
        t0 = time.perf_counter()
        cache.put(point, {"result": {}, "telemetry": None})
        times.append((time.perf_counter() - t0) * 1e3)
    shutil.rmtree(root, ignore_errors=True)
    return median(times)


CLASSES: Dict[str, type] = {cls.name: cls
                            for cls in (SocScaling, SweepCold, SweepReuse)}
