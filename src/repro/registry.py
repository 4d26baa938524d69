"""The unified experiment registry: one declarative spec per experiment.

Each experiment module registers exactly **one** :class:`ExperimentSpec`
that declares everything the system can do with the experiment: its CLI
runner and formatter, its construction-only design builder, its
parameter sweep, and its fault-campaign harness.  The CLI's verbs and
choices, the sweep worker's runner resolution, and the campaign runner
all look experiments up here, so they can never disagree about what the
system can run.  :func:`names`, :func:`specs`, :func:`sweep_specs_view`
and :func:`harnesses_view` enumerate the catalog; :func:`get`,
:func:`get_sweep`, :func:`get_harness` and :func:`build_design` look
one entry up.

Registration is import-driven and lazy: importing this module costs
nothing, and the first lookup calls :func:`load`, which imports the
experiment catalog (``repro.experiments`` and ``repro.faults.campaign``
— every experiment module registers its spec at import time).  Worker
processes resolve runners by name through the same path, so spawn- and
fork-started pools both see the full catalog.

Usage::

    from repro import registry

    spec = registry.get("fig3")
    payload = spec.runner({"ports": "2,4", "txns": 10}, seed=1)
    print(spec.formatter(payload))

See ``docs/REGISTRY.md`` for the full walkthrough, including the
job-oriented execution core (:mod:`repro.jobs`) built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional
from typing import Tuple

__all__ = [
    "CliParam", "SweepSpec", "ExperimentSpec",
    "register", "register_sweep", "attach_harness",
    "get", "names", "specs", "load",
    "build_design", "get_sweep", "get_harness",
    "sweep_specs_view", "harnesses_view",
]


@dataclass(frozen=True)
class CliParam:
    """One experiment-specific CLI parameter (e.g. ``fig3 --ports``).

    The same declaration drives the legacy verb's flag
    (``repro fig3 --ports 2,4``), the generic runner's key/value form
    (``repro run fig3 -p ports=2,4``), and ``repro describe``'s
    parameter table.  ``type`` parses the string form; the parsed value
    lands in the runner's ``params`` dict under ``name``.
    """

    name: str
    default: Any
    type: Callable[[str], Any] = str
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class SweepSpec:
    """One registered sweep: space builder + point runner + formatter.

    ``space(**options)`` enumerates the parameter grid as
    :class:`~repro.sweep.point.SweepPoint`\\ s (cheap, no simulation;
    every builder accepts ``seed=`` to re-seed the whole space).
    ``runner(params, seed)`` executes one point and returns a plain
    JSON-able record; workers resolve it by sweep name, so points stay
    dumb data across the pool.  ``summarize(results)`` renders the
    merged records as the experiment's usual table.

    ``replay``, when set, opts the experiment into incremental sweeps
    (``run_sweep(..., incremental=True)``): it carries the semantic map
    from sweep points to captured traces and back.
    Experiments without one still work incrementally — every point just
    falls back to full simulation with the reason recorded.
    """

    name: str
    help: str
    space: Callable[..., List[Any]]
    runner: Callable[[dict, int], dict]
    summarize: Optional[Callable[[List[dict]], str]] = None
    replay: Optional[Any] = None  # repro.trace.adapter.ReplayAdapter


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the system knows how to do with one experiment.

    One spec per experiment, declared where the experiment lives.  The
    capability fields are all optional; a spec with only a fault
    harness (``packet_stream``) or only a sweep (``fault_campaign``) is
    legal and simply ``hidden`` from the CLI's experiment verbs.

    ``runner(params, seed)`` returns the experiment's result payload
    (plain dataclasses/dicts, serializable through
    :mod:`repro.sweep.serialize`); ``formatter(payload)`` renders it as
    the verb's usual table.  ``seed=None`` means "use the experiment's
    default" — deterministic experiments accept and ignore it.
    """

    name: str
    summary: str
    #: (params, seed) -> result payload.  ``None`` = not directly
    #: runnable (harness- or sweep-only specs).
    runner: Optional[Callable[[dict, Optional[int]], Any]] = None
    #: payload -> human-readable text (the legacy verb's output).
    formatter: Optional[Callable[[Any], str]] = None
    #: Construction-only design builder (returns the Simulator) for
    #: ``inspect``/``lint``.  ``None`` = analytic, no simulated design.
    design: Optional[Callable[[], Any]] = None
    #: Parameter-sweep capability (space/runner/summarize/replay).
    sweep: Optional[SweepSpec] = None
    #: Fault-campaign harness (attached by ``repro.faults.campaign``).
    harness: Optional[Any] = None
    #: Experiment-specific CLI parameters.
    params: Tuple[CliParam, ...] = ()
    #: Declared compiled-backend eligibility: whether
    #: ``--backend compiled`` is expected to engage (False = the
    #: capability check is known to fall back; the run still works).
    compiled: bool = True
    #: Whether ``--seed`` changes the result (False = accepted, ignored).
    seedable: bool = True
    #: Canonical result schema tag + version, stamped on every
    #: :class:`repro.jobs.JobResult` for downstream consumers.
    schema: str = ""
    schema_version: int = 1
    #: Hidden specs have no CLI experiment verb (harness fixtures, the
    #: fault_campaign meta-sweep).
    hidden: bool = False
    #: Stable ordering for ``repro list`` (ascending, then name).
    order: int = 1000

    def __post_init__(self):
        if not self.schema:
            object.__setattr__(
                self, "schema", self.name.replace("-", "_"))

    @property
    def runnable(self) -> bool:
        """True when the spec backs a CLI experiment verb."""
        return self.runner is not None and not self.hidden

    def capabilities(self) -> Dict[str, Any]:
        """Capability summary (``repro list`` / ``repro describe``)."""
        return {
            "design": self.design is not None,
            "sweep": self.sweep.name if self.sweep else None,
            "replay": (getattr(self.sweep.replay, "kind", None)
                       if self.sweep and self.sweep.replay else None),
            "harness": (getattr(self.harness, "name", None)
                        if self.harness else None),
            "compiled": self.compiled,
            "seedable": self.seedable,
            "schema": f"{self.schema}/v{self.schema_version}",
        }


# ----------------------------------------------------------------------
# the registry proper
# ----------------------------------------------------------------------
_SPECS: Dict[str, ExperimentSpec] = {}
#: sweep name -> spec name (a spec's sweep may use a different name:
#: the "stalls" experiment owns the "stall_verification" sweep).
_SWEEP_INDEX: Dict[str, str] = {}
#: harness name -> spec name.
_HARNESS_INDEX: Dict[str, str] = {}

_LOADED = False
_LOADING = False

#: Modules whose import registers the bundled experiment catalog.
_CATALOG_MODULES = ("repro.experiments", "repro.faults.campaign",
                    "repro.verify")


def load() -> None:
    """Import the experiment catalog (idempotent, re-entrant safe).

    Every bundled experiment module registers its spec at import time;
    this imports them all so enumerations and lookups are complete.  Safe to
    call from inside a catalog module's own import (the re-entrancy
    guard makes the nested call a no-op).
    """
    global _LOADED, _LOADING
    if _LOADED or _LOADING:
        return
    _LOADING = True
    try:
        import importlib

        for module in _CATALOG_MODULES:
            importlib.import_module(module)
        _LOADED = True
    finally:
        _LOADING = False


def _reindex(spec: ExperimentSpec) -> None:
    if spec.sweep is not None:
        owner = _SWEEP_INDEX.get(spec.sweep.name)
        if owner is not None and owner != spec.name:
            raise ValueError(
                f"sweep {spec.sweep.name!r} is already registered by "
                f"experiment {owner!r}")
        _SWEEP_INDEX[spec.sweep.name] = spec.name
    if spec.harness is not None:
        hname = spec.harness.name
        owner = _HARNESS_INDEX.get(hname)
        if owner is not None and owner != spec.name:
            raise ValueError(
                f"fault harness {hname!r} is already registered by "
                f"experiment {owner!r}")
        _HARNESS_INDEX[hname] = spec.name


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register (or re-register) one experiment's spec.

    Returns the stored spec.  Re-registering the same name replaces the
    old spec (module reloads); sweep/harness *names* stay unique across
    distinct specs.
    """
    _reindex(spec)
    _SPECS[spec.name] = spec
    return spec


def attach_harness(name: str, harness: Any) -> None:
    """Attach a fault harness to the named, already registered spec.

    ``repro.faults.campaign`` lives downstream of the experiment
    modules (it imports them first), so harnesses are attached after
    the fact.  Raises ``KeyError`` for an unknown experiment.
    """
    spec = _SPECS.get(name)
    if spec is None:
        raise KeyError(f"cannot attach fault harness {harness.name!r}: "
                       f"unknown experiment {name!r}; one of "
                       f"{sorted(_SPECS)}")
    register(replace(spec, harness=harness))


def register_sweep(sweep: SweepSpec) -> SweepSpec:
    """Register a bare sweep, outside any experiment module.

    If a spec already owns a sweep with this name the sweep is replaced
    in place; otherwise a hidden sweep-only spec is created (tests
    register synthetic experiments this way, and fork-started workers
    inherit them).
    """
    owner = _SWEEP_INDEX.get(sweep.name)
    if owner is not None:
        register(replace(_SPECS[owner], sweep=sweep))
    else:
        register(ExperimentSpec(
            name=sweep.name, summary=sweep.help, sweep=sweep, hidden=True))
    return sweep


def get(name: str) -> ExperimentSpec:
    """Look up a spec by experiment name (loads the catalog first)."""
    load()
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; one of "
            f"{sorted(_SPECS)}") from None


def names(*, hidden: bool = False, runnable: bool = False) -> List[str]:
    """Registered experiment names in ``order``-then-name order."""
    load()
    out = [s for s in _SPECS.values() if hidden or not s.hidden]
    if runnable:
        out = [s for s in out if s.runnable]
    return [s.name for s in sorted(out, key=lambda s: (s.order, s.name))]


def specs(*, hidden: bool = False) -> List[ExperimentSpec]:
    """Registered specs in ``order``-then-name order."""
    return [_SPECS[n] for n in names(hidden=hidden)]


# ----------------------------------------------------------------------
# capability lookups and enumerations
# ----------------------------------------------------------------------
def build_design(experiment: str):
    """Construct the named experiment's design; returns its Simulator.

    Raises ``KeyError`` for unknown experiments and ``ValueError`` for
    analytic experiments that have no simulated design.
    """
    load()
    if experiment not in _SPECS or _SPECS[experiment].hidden:
        raise KeyError(
            f"unknown experiment {experiment!r}; one of "
            f"{sorted(names(runnable=True))}")
    spec = _SPECS[experiment]
    if spec.design is None:
        raise ValueError(f"experiment {experiment!r} is analytic — "
                         "it builds no simulated design")
    return spec.design()


def get_sweep(name: str) -> SweepSpec:
    """Look up a sweep by *sweep* name (may differ from the spec name)."""
    load()
    try:
        return _SPECS[_SWEEP_INDEX[name]].sweep
    except KeyError:
        raise KeyError(f"unknown sweep experiment {name!r}; one of "
                       f"{sorted(_SWEEP_INDEX)}") from None


def get_harness(name: str) -> Any:
    """Look up a fault harness by *harness* name."""
    load()
    try:
        return _SPECS[_HARNESS_INDEX[name]].harness
    except KeyError:
        raise KeyError(f"unknown fault-campaign harness {name!r}; "
                       f"one of {sorted(_HARNESS_INDEX)}") from None


def sweep_specs_view() -> Dict[str, SweepSpec]:
    """Sweep name -> :class:`SweepSpec`, in registration order.

    A snapshot: later registrations need a fresh call.
    """
    load()
    return {name: _SPECS[owner].sweep for name, owner in _SWEEP_INDEX.items()}


def harnesses_view() -> Dict[str, Any]:
    """Harness name -> fault harness, in attach order.

    The order is load-bearing: it fixes the default fault-campaign
    matrix's point order.  A snapshot, like :func:`sweep_specs_view`.
    """
    load()
    return {name: _SPECS[owner].harness
            for name, owner in _HARNESS_INDEX.items()}
