"""Runtime span tracing for the benchmark's traced run.

The benchmark never edits the program: :func:`install` wraps public
functions and methods of the ``repro`` package at runtime, and each
wrapper records one span (name, start, end, parent, op id) in memory.
Spans are only recorded inside an op window opened by
:meth:`Tracer.op`, so set-up, warm-up and the benchmark's own output
checks cost nothing and show up nowhere.  :func:`layer_metrics` turns
the spans of one traced run into the per-layer figures, normalised per
op.

Span names and the layer each stands for:

==========================  =========================================
``jobs.execute``            ``repro.jobs.execute``
``experiments.runner``      every registered sweep's point runner
``design.elaborate``        ``repro.design.elaborate.elaborate``
``design.lower``            ``repro.design.lower.lower``
``compile.attach``          ``repro.compile.try_attach``
``sim.run``                 ``Simulator.run`` / ``Simulator.run_cycles``
                            (classified kernel vs compiled by the
                            simulator's ``backend`` after the run)
``sweep.run``               ``repro.sweep.run_sweep``
``cache.get`` / ``.put``    ``ResultCache.get`` / ``ResultCache.put``
``serialize.canonical``     ``canonical_json`` / ``canonical_digest``
``trace.capture``           every replay adapter's ``capture``
``trace.replay``            ``Replayer.replay``
``observe.report``          ``repro.observe.to_records`` / ``merge``
``faults.execute``          ``repro.faults.campaign.execute``
==========================  =========================================
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "install", "layer_metrics"]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, id, name, start, parent, op):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """In-memory span recorder with one open op at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.op_id: Optional[int] = None
        self._ops = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.op_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """One benchmark op: spans opened inside it carry its id."""
        self.op_id = self._ops
        self._ops += 1
        span = self._open("bench.op")
        try:
            yield
        finally:
            self._close(span)
            self.op_id = None

    def wrap(self, name: str, fn: Callable, *,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call inside an op.

        ``before(args, kwargs)`` returns state handed to
        ``after(span, args, result, state)``, which may annotate the
        span once the call has returned.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result, state)
            return result

        return traced

    def time_call(self, name: str, fn: Callable, *args, **kwargs) -> Span:
        """Call ``fn`` once outside any op; returns the kept span."""
        span = self._open(name)
        try:
            fn(*args, **kwargs)
        finally:
            self._close(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


# ----------------------------------------------------------------------
# installation: wrap the program's public entry points in place
# ----------------------------------------------------------------------
def _repro_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]


def _replace_everywhere(orig, new) -> None:
    """Rebind every ``repro`` module global that is ``orig`` to ``new``.

    Modules that did ``from x import f`` hold their own reference, so
    patching only the defining module would miss them.
    """
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _clock_cycles(sim) -> List[int]:
    # Simulators expose no public clock list; the benchmark reads the
    # kernel's own registry to count simulated cycles per run.
    return [clk.cycles for clk in getattr(sim, "_clocks", ())]


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an already-loaded catalog."""
    import repro.compile
    import repro.faults.campaign
    import repro.jobs
    import repro.observe
    import repro.sweep
    from repro import registry
    from repro.design.elaborate import elaborate
    from repro.design.lower import lower
    from repro.kernel.simulator import Simulator
    from repro.sweep import serialize
    from repro.sweep.cache import ResultCache
    from repro.trace.replay import Replayer

    def patch(name, fn, **hooks):
        _replace_everywhere(fn, tracer.wrap(name, fn, **hooks))

    def job_done(span, args, result, state):
        span.attrs["backend"] = result.backend

    def sweep_done(span, args, result, state):
        span.attrs.update(
            jobs=result.jobs, wall=result.wall_seconds,
            busy=sum(o.wall_seconds for o in result.outcomes),
            derived=result.derived, executed=result.executed,
            retried=result.retried, errors=result.errors)

    def attach_done(span, args, result, state):
        span.attrs["ok"] = result is not None

    def get_done(span, args, result, state):
        span.attrs["hit"] = result is not None

    def records_done(span, args, result, state):
        span.attrs["records"] = len(result)

    def run_start(args, kwargs):
        return _clock_cycles(args[0])

    def run_done(span, args, result, before):
        sim = args[0]
        after = _clock_cycles(sim)
        span.attrs["backend"] = sim.backend
        span.attrs["cycles"] = max(
            (a - b for a, b in zip(after, before)), default=0)

    patch("jobs.execute", repro.jobs.execute, after=job_done)
    patch("sweep.run", repro.sweep.run_sweep, after=sweep_done)
    patch("design.elaborate", elaborate)
    patch("design.lower", lower)
    patch("compile.attach", repro.compile.try_attach, after=attach_done)
    patch("serialize.canonical", serialize.canonical_json)
    patch("serialize.canonical", serialize.canonical_digest)
    patch("observe.report", repro.observe.to_records, after=records_done)
    patch("observe.report", repro.observe.merge)
    patch("faults.execute", repro.faults.campaign.execute)

    for method in ("run", "run_cycles"):
        setattr(Simulator, method, tracer.wrap(
            "sim.run", getattr(Simulator, method),
            before=run_start, after=run_done))
    ResultCache.get = tracer.wrap("cache.get", ResultCache.get,
                                  after=get_done)
    ResultCache.put = tracer.wrap("cache.put", ResultCache.put)
    Replayer.replay = tracer.wrap("trace.replay", Replayer.replay)

    # Runners and capture functions are held by the registered specs,
    # so they are wrapped by re-registering each sweep.
    for sweep in list(registry.sweep_specs_view().values()):
        changes = {"runner": tracer.wrap("experiments.runner",
                                         sweep.runner)}
        if sweep.replay is not None and sweep.replay.capture is not None:
            changes["replay"] = replace(
                sweep.replay,
                capture=tracer.wrap("trace.capture", sweep.replay.capture))
        registry.register_sweep(replace(sweep, **changes))


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer figures from one traced run, each divided by its ops.

    Every ``*_s`` figure is seconds per op and counts are per op.  A
    span nested in a span of the same layer is not counted again.
    Runs exclude the compiled-engine attach they trigger (reported as
    ``compile.attach_s``), and ``experiments.build_s`` is runner time
    outside every simulator run and attach.
    """
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    ops = [s for s in spans if s.name == "bench.op"]
    n_ops = max(1, len(ops))

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def outermost(name):
        return [s for s in spans if s.name == name and s.op is not None
                and all(a.name != name for a in ancestors(s))]

    def within(span, name):
        """Outermost ``name`` spans below ``span``."""
        out, todo = [], list(children.get(span.id, ()))
        while todo:
            s = todo.pop()
            if s.name == name:
                out.append(s)
            else:
                todo.extend(children.get(s.id, ()))
        return out

    def total(items):
        return sum(s.dur for s in items)

    def self_time(span):
        return span.dur - total(children.get(span.id, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, float] = {}

    execs = outermost("jobs.execute")
    runners = outermost("experiments.runner")
    runs = outermost("sim.run")
    m["jobs.execute_s"] = total(execs)
    m["jobs.self_s"] = sum(e.dur - total(within(e, "experiments.runner"))
                           for e in execs)
    mismatches = 0
    for e in execs:
        seen = {r.attrs["backend"] for r in within(e, "sim.run")}
        if seen and seen != {e.attrs.get("backend")}:
            mismatches += 1
    m["jobs.provenance_mismatches"] = mismatches
    m["experiments.runner_s"] = total(runners)
    m["experiments.build_s"] = sum(r.dur - total(within(r, "sim.run"))
                                   for r in runners)

    for layer, name in (("design.elaborate", "design.elaborate"),
                        ("design.lower", "design.lower")):
        spans_of = outermost(name)
        m[f"{layer}_s"] = total(spans_of)
        m[f"{layer}_calls"] = len(spans_of)
    attaches = outermost("compile.attach")
    m["compile.attach_s"] = total(attaches)
    m["compile.attach_ok_ratio"] = ratio(
        sum(1 for a in attaches if a.attrs.get("ok")), len(attaches))

    for layer, backend in (("kernel", "threaded"), ("compile", "compiled")):
        mine = [r for r in runs if r.attrs.get("backend") == backend]
        run_s = sum(r.dur - total(within(r, "compile.attach")) for r in mine)
        cycles = sum(r.attrs.get("cycles", 0) for r in mine)
        m[f"{layer}.run_s"] = run_s
        m[f"{layer}.host_us_per_cycle"] = ratio(run_s * 1e6, cycles)
        if layer == "kernel":
            m["kernel.runs"] = len(mine)
            m["kernel.sim_cycles"] = cycles
        else:
            m["compile.ran_share"] = ratio(len(mine), len(runs))

    sweeps = outermost("sweep.run")
    m["sweep.run_s"] = total(sweeps)
    m["sweep.self_s"] = sum(self_time(s) for s in sweeps)
    m["sweep.point_busy_s"] = sum(s.attrs.get("busy", 0.0) for s in sweeps)
    m["sweep.retried"] = sum(s.attrs.get("retried", 0) for s in sweeps)
    m["sweep.errors"] = sum(s.attrs.get("errors", 0) for s in sweeps)

    puts, gets = outermost("cache.put"), outermost("cache.get")
    m["cache.put_s"] = total(puts)
    m["cache.puts"] = len(puts)
    m["cache.get_s"] = total(gets)
    m["cache.gets"] = len(gets)
    m["cache.hit_ratio"] = ratio(sum(1 for g in gets if g.attrs.get("hit")),
                                 len(gets))

    canon = outermost("serialize.canonical")
    m["serialize.canonical_s"] = total(canon)
    m["serialize.calls"] = len(canon)

    captures, replays = outermost("trace.capture"), outermost("trace.replay")
    m["trace.capture_s"] = total(captures)
    m["trace.captures"] = len(captures)
    m["trace.replay_s"] = total(replays)
    m["trace.replays"] = len(replays)
    derived = sum(s.attrs.get("derived", 0) for s in sweeps)
    m["trace.derived_ratio"] = ratio(
        derived, derived + sum(s.attrs.get("executed", 0) for s in sweeps))

    reports = outermost("observe.report")
    m["observe.report_s"] = total(reports)
    m["observe.records"] = sum(s.attrs.get("records", 0) for s in reports)

    faults = outermost("faults.execute")
    m["faults.execute_s"] = total(faults)
    m["faults.cases"] = len(faults)

    m["bench.unattributed_s"] = sum(self_time(op) for op in ops)

    ratios = {"compile.attach_ok_ratio", "compile.ran_share",
              "cache.hit_ratio", "trace.derived_ratio",
              "kernel.host_us_per_cycle", "compile.host_us_per_cycle"}
    return {k: (v if k in ratios else v / n_ops) for k, v in m.items()}
