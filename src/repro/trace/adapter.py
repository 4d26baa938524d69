"""Replay adapters: per-experiment glue for incremental sweeps.

The trace subsystem is experiment-agnostic — it captures op scripts
and replays timing.  What it cannot know is an experiment's *semantic*
mapping: which swept parameters are structural (they change the design
or the behaviour, so the point needs a fresh simulation) vs derivable
(they only retune replay-safe latency knobs), how a parameter point
projects onto its structural **base** configuration, and how a
:class:`~repro.trace.replay.ReplayResult` folds back into the
experiment's usual result record.  A :class:`ReplayAdapter` packages
exactly that, and hangs off the experiment registry
(:class:`repro.registry.SweepSpec.replay`); :func:`adapter_for`
resolves one by sweep name.

Two adapter kinds exist:

* ``"trace"`` — the real thing: one full capture per structural base,
  analytical replay per satellite point (``li_latency``);
* ``"analytic"`` — for experiments with no simulation kernel at all
  (``gals_overhead``): every point is trivially derivable by evaluating
  the closed-form runner in-process, skipping the process pool.

:func:`classify` is the static half of the capability check (the
dynamic half is capture's recorded reasons): it verifies that a point
differs from its base projection only in declared replay-safe
parameters, returning a recorded fallback reason otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Optional, Tuple

__all__ = ["ReplayAdapter", "adapter_for", "classify"]


@dataclass(frozen=True)
class ReplayAdapter:
    """How one experiment's sweep points map onto capture + replay.

    ``capture(base_params, base_seed)`` runs one full simulation of the
    structural base under :func:`repro.trace.capture.capture` and
    returns the trace dict (including recorded ineligibility reasons —
    the engine falls back on those).  ``overrides(params, seed)`` and
    ``derive(trace, replay_result, params, seed)`` turn a satellite
    point into replay inputs and its result record.
    """

    kind: str = "trace"                       # "trace" | "analytic"
    #: Parameters a satellite point may change relative to its base.
    safe_params: FrozenSet[str] = frozenset()
    base_params: Optional[Callable[[dict], dict]] = None
    base_seed: Optional[Callable[[dict, int], int]] = None
    capture: Optional[Callable[[dict, int], dict]] = None
    overrides: Optional[Callable[[dict, int], dict]] = None
    derive: Optional[Callable[[dict, Any, dict, int], dict]] = None


def adapter_for(experiment: str) -> Optional[ReplayAdapter]:
    """The replay adapter registered for the named sweep, or ``None``.

    Resolved through :mod:`repro.registry` by sweep name — the lookup
    the engine's capture workers use, so only the experiment name (plain
    data) ever crosses a process boundary.  Raises ``KeyError`` for
    unregistered sweeps, exactly like ``registry.get_sweep``.
    """
    from ..registry import get_sweep

    return get_sweep(experiment).replay


def classify(adapter: Optional[ReplayAdapter], params: dict,
             seed: int) -> Tuple[str, Optional[str], Optional[dict],
                                 Optional[int]]:
    """Statically classify one sweep point.

    Returns ``(mode, reason, base_params, base_seed)`` where ``mode``
    is ``"derived"`` (replay can serve it, pending the capture's own
    eligibility) or ``"structural"`` (needs a fresh simulation, with
    the recorded ``reason``).
    """
    if adapter is None:
        return ("structural",
                "experiment registers no replay adapter", None, None)
    if adapter.kind == "analytic":
        return "derived", None, None, None
    base = adapter.base_params(params)
    diff = {k for k in set(params) | set(base)
            if params.get(k) != base.get(k)}
    unsafe = diff - adapter.safe_params
    if unsafe:
        return ("structural",
                f"parameters {sorted(unsafe)} are structural "
                f"(replay-safe: {sorted(adapter.safe_params)})",
                None, None)
    bseed = adapter.base_seed(params, seed) if adapter.base_seed else seed
    return "derived", None, base, bseed
