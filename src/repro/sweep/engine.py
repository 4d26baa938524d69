"""The sweep engine: one pipeline, classify → execute → merge.

1. **Classify.**  Every point gets one logical cache lookup (exact
   entries, plus derived ones for an ``incremental`` sweep) and then
   one label: *cached*; *derived* — a member of a trace-replay group,
   or an analytic evaluation for an experiment with no kernel; or
   *simulate*, with the reason it could not be derived.
2. **Execute.**  Incremental sweeps first capture one full simulation
   per structural base (trace-cache fronted) and replay every group
   member analytically in this process; a refused replay demotes its
   point to *simulate* with the reason recorded.  Then the *simulate*
   set runs as one batch through the job core — in-process for
   ``jobs <= 1``, otherwise as chunks on a ``ProcessPoolExecutor``,
   each point under a SIGALRM watchdog (``timeout`` seconds) and in
   its own telemetry capture window.  Failed points (exception,
   timeout, or a crashed worker that took its chunk down) are retried
   (``retries``), each in its own single-point chunk; a point that
   fails again is recorded as an ``error`` outcome.
3. **Merge.**  One loop builds every :class:`PointOutcome` **in point
   order** and writes the cache, so the result is identical in content
   to a serial run regardless of which worker finished first.

Determinism: the engine never invents randomness.  Seeds live in the
points (assigned by the space builders), telemetry labels are derived
from point indices, and ``SweepResult.canonical()`` strips the only
nondeterministic fields (wall-clock times) — two runs of the same sweep
are bit-identical under it, whether serial, parallel, cache-served or
incremental (which matches a plain ``telemetry=False`` sweep).
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cache import CacheHit, ResultCache
from .point import SweepPoint
from .serialize import NONDETERMINISTIC_FIELDS, canonical_json

__all__ = ["PointTimeout", "PointOutcome", "SweepResult", "run_sweep"]


class PointTimeout(Exception):
    """A sweep point exceeded its per-point wall-clock budget."""


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`PointTimeout` in the current process after ``seconds``.

    SIGALRM-based, so it fires even inside a busy simulation loop.
    Where the signal cannot be armed (non-main thread, platforms
    without SIGALRM) the point instead runs under the kernel's ambient
    wall-clock budget (:func:`repro.kernel.time_budget`), which the
    simulator's timestep loop polls — a slightly softer deadline, but
    never silently unbounded.  A no-op only when no timeout was
    requested at all.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    usable = hasattr(signal, "SIGALRM")
    if usable:
        try:
            old = signal.signal(
                signal.SIGALRM,
                lambda signum, frame: (_ for _ in ()).throw(
                    PointTimeout(f"point exceeded {seconds:.3g}s")))
        except ValueError:  # not in the main thread
            usable = False
    if not usable:
        from ..kernel.simulator import TimeBudgetExceeded, time_budget

        try:
            with time_budget(seconds):
                yield
        except TimeBudgetExceeded as exc:
            raise PointTimeout(
                f"point exceeded {seconds:.3g}s "
                f"(kernel cycle-budget fallback)") from exc
        return
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _execute_point(index: int, point: SweepPoint, *,
                   telemetry: bool) -> dict:
    """Run one point in the current process; returns its raw payload.

    The point is wrapped as a :class:`~repro.jobs.JobRequest` and
    submitted to the job core, which resolves the runner from the
    experiment registry by name — the point itself stays plain data.
    With ``telemetry`` the job runs inside its own capture window and
    the flattened report records ride along (and into the cache),
    labelled by point index so serial and parallel runs produce
    identical records.
    """
    from ..jobs import JobRequest, execute

    job = execute(JobRequest.from_point(point, telemetry=telemetry),
                  telemetry_label=f"{point.experiment}[{index}]")
    return {"result": job.payload, "telemetry": job.telemetry,
            "wall_seconds": job.wall_seconds}


def _run_chunk(items: Sequence[Tuple[int, SweepPoint]], telemetry: bool,
               timeout: Optional[float]) -> List[dict]:
    """Worker entry point: execute one chunk of (index, point) pairs.

    Per-point failures are caught and returned as data — only a hard
    crash of the worker process itself (segfault, OOM kill) loses the
    chunk, and the engine retries those points individually.
    """
    out = []
    for index, point in items:
        try:
            with _alarm(timeout):
                payload = _execute_point(index, point, telemetry=telemetry)
            out.append({"index": index, "ok": True, **payload})
        except Exception as exc:  # noqa: BLE001 - reported per point
            out.append({"index": index, "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"})
    return out


def _capture_chunk(items: Sequence[Tuple[str, SweepPoint]],
                   timeout: Optional[float]) -> List[dict]:
    """Worker entry point: capture the trace of each structural base.

    ``items`` are ``(group id, base point)`` pairs; the replay adapter
    is re-resolved from the registry by experiment name so only plain
    data crosses the process boundary.
    """
    from ..trace.adapter import adapter_for

    out = []
    for gid, base in items:
        t0 = time.perf_counter()
        try:
            adapter = adapter_for(base.experiment)
            with _alarm(timeout):
                trace = adapter.capture(dict(base.params), base.seed)
            out.append({"index": gid, "ok": True, "trace": trace,
                        "wall_seconds": time.perf_counter() - t0})
        except Exception as exc:  # noqa: BLE001 - reported per capture
            out.append({"index": gid, "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"})
    return out


@dataclass
class PointOutcome:
    """What happened to one point: executed, cache-served, or failed."""

    index: int
    point: SweepPoint
    status: str  # "ok" | "cached" | "error"
    result: Optional[dict] = None
    telemetry: Optional[List[dict]] = None
    wall_seconds: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    #: How the result was produced: "exact" (full simulation, or a
    #: cached one) vs "derived" (trace replay / analytic evaluation).
    mode: str = "exact"
    #: For incremental sweeps only: why this point could not be
    #: derived and fell back to a full simulation (None when it didn't).
    fallback_reason: Optional[str] = None


@dataclass
class SweepResult:
    """An ordered sweep outcome plus engine/cache accounting."""

    experiment: str
    outcomes: List[PointOutcome] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    errors: int = 0
    retried: int = 0
    cache: Optional[dict] = None  # ResultCache.describe() snapshot
    incremental: bool = False
    #: Points served by trace replay or analytic evaluation this run.
    derived: int = 0
    #: Structural base simulations captured this run (not point-indexed).
    captures: int = 0
    #: reason -> count for points that fell back to full simulation.
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def points(self) -> List[SweepPoint]:
        return [o.point for o in self.outcomes]

    @property
    def results(self) -> List[Optional[dict]]:
        """Per-point result records, point order (``None`` for errors)."""
        return [o.result for o in self.outcomes]

    @property
    def ok_results(self) -> List[dict]:
        return [o.result for o in self.outcomes if o.result is not None]

    def report(self, *, label: Optional[str] = None):
        """Merge per-point telemetry into one ordered TelemetryReport.

        Reports are merged in point-index order, so the merged report's
        content is independent of worker scheduling — identical to what
        a serial run produces.
        """
        from ..observe import from_records, merge

        parts = [from_records(o.telemetry) for o in self.outcomes
                 if o.telemetry]
        return merge(parts, label=label or self.experiment)

    def canonical(self) -> str:
        """Bit-comparable serialization of everything deterministic."""
        from ..observe import to_records

        return canonical_json({
            "experiment": self.experiment,
            "points": [p.identity() for p in self.points],
            "results": self.results,
            "telemetry": to_records(self.report()),
        }, exclude=NONDETERMINISTIC_FIELDS)

    def summary(self) -> str:
        """One status line: point counts, cache traffic, wall clock."""
        traffic = f"{self.cache_hits} cached / {self.executed} executed"
        if self.incremental:
            traffic = (f"{self.cache_hits} cached / {self.derived} derived"
                       f" / {self.executed} simulated"
                       f" (+{self.captures} captures)")
        parts = [f"sweep {self.experiment}: {len(self.outcomes)} points",
                 traffic + (f" / {self.errors} errors" if self.errors
                            else ""),
                 f"jobs={self.jobs}", f"{self.wall_seconds:.2f}s wall"]
        if self.retried:
            parts.insert(2, f"{self.retried} retried")
        return " | ".join(parts)

    def to_payload(self) -> dict:
        """Full JSON-able dump (CLI ``--json``): points, results, stats."""
        return {
            "experiment": self.experiment,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "errors": self.errors,
            "retried": self.retried,
            "cache": self.cache,
            "incremental": self.incremental,
            "derived": self.derived,
            "captures": self.captures,
            "fallback_reasons": self.fallback_reasons,
            "points": [o.point.identity() for o in self.outcomes],
            "results": self.results,
            "statuses": [o.status for o in self.outcomes],
            "modes": [o.mode for o in self.outcomes],
            "telemetry": [r for o in self.outcomes
                          for r in (o.telemetry or ())],
        }


def _chunked(items: List[Tuple[int, SweepPoint]], jobs: int,
             chunksize: Optional[int]) -> List[List[Tuple[int, SweepPoint]]]:
    if chunksize is None:
        # ~4 chunks per worker balances dispatch overhead against
        # stragglers holding the tail of the sweep.
        chunksize = max(1, len(items) // max(1, jobs * 4))
    return [items[i:i + chunksize] for i in range(0, len(items), chunksize)]


def _run_chunks(fn: Callable[..., List[dict]], chunks: List[list],
                jobs: int, *args) -> dict:
    """Run ``fn(chunk, *args)`` over every chunk; records keyed by index.

    ``fn`` returns one record per ``(index, item)`` pair of its chunk,
    per-item failures caught as data.  Chunks run in this process for
    ``jobs <= 1`` or a single item, otherwise as one task each on a
    fresh ``ProcessPoolExecutor`` — fresh per batch, so one crash never
    poisons the retry.  A worker crash surfaces as ``BrokenProcessPool``
    on every outstanding future of that pool; the affected items come
    back as failed records for the caller's retry or fallback.
    """
    raw: dict = {}
    if jobs <= 1 or sum(len(chunk) for chunk in chunks) <= 1:
        for chunk in chunks:
            for rec in fn(chunk, *args):
                raw[rec.pop("index")] = rec
        return raw
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        futures = [(pool.submit(fn, chunk, *args), chunk)
                   for chunk in chunks]
        for future, chunk in futures:
            try:
                records = future.result()
            except BrokenProcessPool:
                records = [{"index": i, "ok": False,
                            "error": "BrokenProcessPool: worker crashed"}
                           for i, _ in chunk]
            except Exception as exc:  # noqa: BLE001 - whole-chunk failure
                records = [{"index": i, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
                           for i, _ in chunk]
            for rec in records:
                raw[rec.pop("index")] = rec
    return raw


def _execute_batch(items: List[Tuple[int, SweepPoint]], *, jobs: int,
                   telemetry: bool, timeout: Optional[float],
                   chunksize: Optional[int]) -> Dict[int, dict]:
    """Execute (index, point) pairs; returns raw payloads keyed by index."""
    return _run_chunks(_run_chunk, _chunked(items, jobs, chunksize), jobs,
                       telemetry, timeout)


def _classify(points: List[SweepPoint], cache: Optional[ResultCache],
              adapter, *, incremental: bool, telemetry: bool):
    """Step 1: one logical cache lookup per point, then one label.

    Returns ``(hits, groups, simulate)``: the *cached* points' hits by
    index; the replay groups (group id -> base point + ``(index,
    point)`` members) whose points are *derived* by trace replay; and
    the points to execute through the job core, index -> fallback
    reason.  The reason is ``None`` for a plain sweep and for an
    analytic evaluation, which executes like a simulation but is
    accounted as derived.
    """
    from ..trace.adapter import classify

    # A telemetry-enabled sweep must not be served by telemetry-less
    # entries (the merged report would silently lose those points); the
    # predicate makes them honest misses.  In the mirror case the
    # stored telemetry is stripped so a cache hit is indistinguishable
    # from a fresh telemetry=False execution.  Exact entries come
    # first: they are authoritative and never shadowed by derived ones.
    require = (lambda value: value.get("telemetry") is not None) \
        if telemetry else None
    modes = ("exact", "derived") if incremental else "exact"
    analytic = adapter is not None and adapter.kind == "analytic"
    hits: Dict[int, CacheHit] = {}
    groups: Dict[str, dict] = {}
    simulate: Dict[int, Optional[str]] = {}
    for i, point in enumerate(points):
        hit = cache.get(point, mode=modes, require=require) \
            if cache is not None else None
        if hit is not None:
            hits[i] = hit
            continue
        if not incremental or analytic:
            simulate[i] = None
            continue
        mode, reason, bparams, bseed = classify(
            adapter, dict(point.params), point.seed)
        if mode == "structural":
            simulate[i] = reason
            continue
        gid = canonical_json({"experiment": point.experiment,
                              "params": bparams, "seed": bseed})
        group = groups.setdefault(gid, {
            "base": SweepPoint(point.experiment, bparams, seed=bseed),
            "members": []})
        group["members"].append((i, point))
    return hits, groups, simulate


def _replay_groups(groups: Dict[str, dict], adapter,
                   simulate: Dict[int, Optional[str]], *,
                   cache: Optional[ResultCache], jobs: int,
                   timeout: Optional[float]) -> Tuple[Dict[int, dict], int]:
    """Step 2a: capture each group's base once, replay every member.

    Captures are trace-cache fronted and run through the same pool as
    point execution.  Ineligible traces are cached too: the recorded
    reasons are stable for a given base, so a rerun skips straight to
    the fallback.  A failed or ineligible capture, and a replay the
    replayer refuses, demotes the point to ``simulate`` with its
    reason.  Returns the replayed records by index and the number of
    captures run.
    """
    from ..trace.replay import ReplayError, Replayer

    traces: Dict[str, dict] = {}
    need: List[Tuple[str, SweepPoint]] = []
    for gid, group in groups.items():
        hit = cache.get(group["base"], mode="trace") \
            if cache is not None else None
        if hit is not None:
            traces[gid] = {"ok": True, "trace": hit["trace"]}
        else:
            need.append((gid, group["base"]))
    captured = _run_chunks(_capture_chunk, [[item] for item in need], jobs,
                           timeout)
    if cache is not None:
        for gid, base in need:
            rec = captured[gid]
            if rec["ok"]:
                cache.put(base, {"trace": rec["trace"]}, mode="trace",
                          cost=rec["wall_seconds"])
    traces.update(captured)

    raw: Dict[int, dict] = {}
    for gid, group in groups.items():
        rec = traces[gid]
        trace = rec.get("trace") or {}
        reason = None
        if not rec["ok"]:
            reason = f"capture failed: {rec.get('error', 'unknown')}"
        elif not trace.get("eligible", False):
            reason = ("capture ineligible: "
                      + "; ".join(trace.get("reasons") or ["unrecorded"]))
        if reason is not None:
            simulate.update((i, reason) for i, _ in group["members"])
            continue
        # One precompiled evaluator per base: the trace is parsed once
        # and identical channel-override signatures (e.g. period-only
        # satellites) are served from its memo.
        replayer = Replayer(trace)
        for i, point in group["members"]:
            p0 = time.perf_counter()
            try:
                res = adapter.derive(
                    trace,
                    replayer.replay(adapter.overrides(dict(point.params),
                                                      point.seed)),
                    dict(point.params), point.seed)
            except ReplayError as exc:
                simulate[i] = f"replay refused: {exc}"
                continue
            except Exception as exc:  # noqa: BLE001 - fall back, record
                simulate[i] = f"replay failed: {type(exc).__name__}: {exc}"
                continue
            raw[i] = {"ok": True, "result": res,
                      "wall_seconds": time.perf_counter() - p0}
    return raw, sum(1 for rec in captured.values() if rec["ok"])


def run_sweep(points: Sequence[SweepPoint], *, jobs: int = 1,
              cache: Optional[ResultCache] = None,
              timeout: Optional[float] = None, retries: int = 1,
              telemetry: bool = True,
              chunksize: Optional[int] = None,
              incremental: bool = False) -> SweepResult:
    """Execute a parameter sweep; returns ordered outcomes + accounting.

    ``jobs`` is the worker-process count (``<=1`` = in this process),
    ``cache`` fronts execution with the content-addressed result store,
    ``timeout`` is the per-point wall-clock budget in seconds, and
    ``retries`` is how many times a failed point is re-run before being
    recorded as an error.

    The sweep runs as classify → execute → merge (see the module
    docstring).  With ``incremental`` the classify step uses the
    experiment's registered :class:`~repro.trace.adapter.ReplayAdapter`
    to label points: one full simulation is captured per structural
    base, every derivable point is replayed analytically in-process,
    and any point the capability check or the replayer refuses falls
    back to full simulation with its reason recorded in
    ``SweepResult.fallback_reasons``.  Incremental sweeps run with
    telemetry off (a replayed point has no kernel to observe; mixing
    instrumented and derived records would make the merged report lie),
    so their canonical form matches a plain ``telemetry=False`` sweep.
    """
    points = list(points)
    if not points:
        raise ValueError("run_sweep needs at least one SweepPoint")
    experiment = points[0].experiment
    adapter = None
    if incremental:
        if any(p.experiment != experiment for p in points):
            raise ValueError("incremental sweeps require a single experiment")
        from ..registry import get_sweep

        adapter = get_sweep(experiment).replay
        telemetry = False
    # Analytic experiments have no kernel: the runner *is* the derived
    # evaluator, so it runs in this process (skipping the pool) and its
    # output is cached as exact (it is the exact result) while the
    # outcome is accounted as derived (no simulation was dispatched).
    analytic = adapter is not None and adapter.kind == "analytic"
    t0 = time.perf_counter()

    # 1. Classify.
    hits, groups, simulate = _classify(points, cache, adapter,
                                       incremental=incremental,
                                       telemetry=telemetry)

    # 2. Execute: replay groups first (they may demote points), then
    #    one batch plus one retry loop over the whole simulate set.
    raw, captures = _replay_groups(groups, adapter, simulate, cache=cache,
                                   jobs=jobs, timeout=timeout)
    batch = [(i, points[i]) for i in sorted(simulate)]
    batch_jobs = 1 if analytic else jobs
    raw.update(_execute_batch(batch, jobs=batch_jobs, telemetry=telemetry,
                              timeout=timeout, chunksize=chunksize))
    attempts = {i: 1 for i in raw}
    retried = 0
    for _ in range(max(0, retries)):
        failed = [(i, p) for i, p in batch if not raw[i]["ok"]]
        if not failed:
            break
        retried += len(failed)
        retry_raw = _execute_batch(failed, jobs=batch_jobs,
                                   telemetry=telemetry, timeout=timeout,
                                   chunksize=1)
        for i, rec in retry_raw.items():
            attempts[i] += 1
            if rec["ok"] or not raw[i]["ok"]:
                raw[i] = rec

    # 3. Merge, in point order.
    outcomes: List[PointOutcome] = []
    fallback_reasons: Dict[str, int] = {}
    for i, point in enumerate(points):
        hit = hits.get(i)
        if hit is not None:
            outcomes.append(PointOutcome(
                index=i, point=point, status="cached",
                result=hit.get("result"),
                telemetry=hit.get("telemetry") if telemetry else None,
                mode=hit.mode))
            continue
        rec = raw[i]
        replayed = i not in simulate
        mode = "derived" if replayed or analytic else "exact"
        reason = simulate.get(i)
        if reason is not None:
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
        if not rec["ok"]:
            outcomes.append(PointOutcome(
                index=i, point=point, status="error",
                error=rec.get("error", "unknown failure"),
                attempts=attempts[i], mode=mode, fallback_reason=reason))
            continue
        wall = rec.get("wall_seconds", 0.0)
        outcomes.append(PointOutcome(
            index=i, point=point, status="ok", result=rec["result"],
            telemetry=rec.get("telemetry"), wall_seconds=wall,
            attempts=attempts[i], mode=mode, fallback_reason=reason))
        if cache is not None:
            cache.put(point, {"result": rec["result"],
                              "telemetry": rec.get("telemetry")},
                      mode="derived" if replayed else "exact", cost=wall)

    ok = [o for o in outcomes if o.status == "ok"]
    result = SweepResult(
        experiment=experiment,
        outcomes=outcomes,
        jobs=jobs,
        wall_seconds=time.perf_counter() - t0,
        cache_hits=len(hits),
        cache_misses=len(points) - len(hits),
        executed=sum(1 for o in ok if o.mode == "exact"),
        errors=sum(1 for o in outcomes if o.status == "error"),
        retried=retried,
        cache=cache.describe() if cache is not None else None,
        incremental=incremental,
        derived=sum(1 for o in ok if o.mode == "derived"),
        captures=captures,
        fallback_reasons=fallback_reasons,
    )
    if cache is not None:
        cache.flush_stats()
    return result
