"""The unified experiment registry: one declarative spec per experiment.

Before this module existed the repository kept four parallel, hand-
synchronized per-experiment registries — CLI verbs in ``repro.cli``,
``DESIGN_BUILDERS`` in ``repro.experiments.designs``, ``SWEEP_SPECS``
in ``repro.experiments.sweeps``, and fault ``HARNESSES`` in
``repro.faults.campaign`` — and drift between them was a matter of
time (the CLI's fault-harness choices were a static copy).  This module
replaces all four with **one** declarative :class:`ExperimentSpec` that
each experiment module registers exactly once; every legacy registry
survives as a read-through view derived from the specs:

* :func:`design_builders_view` → ``repro.experiments.designs
  .DESIGN_BUILDERS`` (experiment name → construction-only builder),
* :func:`sweep_specs_view` → ``repro.experiments.sweeps.SWEEP_SPECS``
  (sweep name → :class:`SweepSpec`),
* :func:`harnesses_view` → ``repro.faults.campaign.HARNESSES``
  (harness name → fault harness),
* :func:`commands_view` → the CLI's verb table.

The views are live: registering a spec (or attaching a capability to
one) updates every view at once, so the CLI's choices, the sweep
worker's runner resolution, and the campaign runner can never disagree
about what the system can run.

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

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional
from typing import Tuple

__all__ = [
    "CliParam", "SweepSpec", "ExperimentSpec",
    "register", "register_sweep", "attach_harness",
    "get", "names", "specs", "load",
    "build_design", "get_sweep", "get_harness",
    "design_builders_view", "sweep_specs_view", "harnesses_view",
    "commands_view",
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

    (Moved here from ``repro.experiments.sweeps``, which still re-exports
    it.)  ``replay``, when set, opts the experiment into incremental
    sweeps (``run_sweep(..., incremental=True)``): it carries the
    semantic map from sweep points to captured traces and back.
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
#: Harnesses attached before their spec was registered (import-order
#: independence for ``repro.faults.campaign``).
_PENDING_HARNESSES: Dict[str, Any] = {}

_LOADED = False
_LOADING = False

#: Modules whose import registers the bundled experiment catalog.
_CATALOG_MODULES = ("repro.experiments", "repro.faults.campaign",
                    "repro.verify")


def load() -> None:
    """Import the experiment catalog (idempotent, re-entrant safe).

    Every bundled experiment module registers its spec at import time;
    this imports them all so views and lookups are complete.  Safe to
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

    Returns the stored spec — with any harness that was attached before
    registration folded in.  Re-registering the same name replaces the
    old spec (module reloads); sweep/harness *names* stay unique across
    distinct specs.
    """
    pending = _PENDING_HARNESSES.pop(spec.name, None)
    if pending is not None and spec.harness is None:
        spec = replace(spec, harness=pending)
    _reindex(spec)
    _SPECS[spec.name] = spec
    return spec


def attach_harness(name: str, harness: Any) -> None:
    """Attach a fault harness to the named spec (deferred if unknown).

    ``repro.faults.campaign`` lives downstream of the experiment
    modules, so harnesses are attached after the fact; attaching before
    the spec exists parks the harness until :func:`register` sees it.
    """
    spec = _SPECS.get(name)
    if spec is None:
        _PENDING_HARNESSES[name] = harness
        return
    register(replace(spec, harness=harness))


def register_sweep(sweep: SweepSpec) -> SweepSpec:
    """Register a bare sweep (the legacy ``register_sweep`` surface).

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
# capability lookups (the programmatic face of the old registries)
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
            f"{sorted(design_builders_view())}")
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


def sweep_owner(sweep_name: str) -> Optional[ExperimentSpec]:
    """The spec that owns the named sweep (None when unregistered)."""
    load()
    owner = _SWEEP_INDEX.get(sweep_name)
    return _SPECS.get(owner) if owner is not None else None


# ----------------------------------------------------------------------
# deprecated read-through views (the old registries' import surface)
# ----------------------------------------------------------------------
class _RegistryView(Mapping):
    """A live, read-only Mapping derived from the registered specs.

    ``keys`` enumerates the view's key set from the current registry
    state and ``value`` projects one key to the legacy registry's value
    — so code importing ``DESIGN_BUILDERS`` / ``SWEEP_SPECS`` /
    ``HARNESSES`` keeps working, while the specs stay the single source
    of truth.
    """

    def __init__(self, keys: Callable[[], List[str]],
                 value: Callable[[str], Any], kind: str):
        self._keys = keys
        self._value = value
        self._kind = kind

    def __getitem__(self, key: str) -> Any:
        load()
        if key not in self._keys():
            raise KeyError(key)
        return self._value(key)

    def __iter__(self) -> Iterator[str]:
        load()
        return iter(self._keys())

    def __len__(self) -> int:
        load()
        return len(self._keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<registry view: {self._kind} ({len(self)} entries)>"


def design_builders_view() -> Mapping:
    """``DESIGN_BUILDERS``: experiment verb -> builder (None=analytic)."""
    return _RegistryView(
        keys=lambda: [n for n, s in _SPECS.items() if s.runnable],
        value=lambda n: _SPECS[n].design,
        kind="design builders")


def sweep_specs_view() -> Mapping:
    """``SWEEP_SPECS``: sweep name -> :class:`SweepSpec`."""
    return _RegistryView(
        keys=lambda: list(_SWEEP_INDEX),
        value=lambda n: _SPECS[_SWEEP_INDEX[n]].sweep,
        kind="sweep specs")


def harnesses_view() -> Mapping:
    """``HARNESSES``: harness name -> fault harness."""
    return _RegistryView(
        keys=lambda: list(_HARNESS_INDEX),
        value=lambda n: _SPECS[_HARNESS_INDEX[n]].harness,
        kind="fault harnesses")


def commands_view() -> Mapping:
    """The CLI's verb table: name -> (runner, summary) for compat."""
    return _RegistryView(
        keys=lambda: names(runnable=True),
        value=lambda n: (_SPECS[n].runner, _SPECS[n].summary),
        kind="CLI commands")
