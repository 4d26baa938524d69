"""The unit of sweep work: one (experiment, params, seed) triple.

A :class:`SweepPoint` is deliberately dumb data — no callables, no
simulator handles — so it pickles cheaply across the process pool and
hashes stably into a cache key.  The experiment name is resolved to a
runner *inside* the worker via :func:`repro.registry.get_sweep`, which
also keeps spawn-based worker start methods working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from .serialize import canonical_json

__all__ = ["SweepPoint"]


@dataclass(frozen=True)
class SweepPoint:
    """One enumerable point of an experiment's parameter space.

    ``experiment`` names a registered sweep (see
    :func:`repro.registry.sweep_specs_view`), ``params`` are the
    keyword arguments of that experiment's point runner, and ``seed`` is
    the point's deterministic RNG seed — assigned by the space builder,
    never invented by the engine, so a point's identity fully determines
    its result.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Simulation backend the point runs under ("threaded" or
    #: "compiled").  The compiled backend is differentially tested to
    #: be byte-identical, so both values *should* produce the same
    #: result — the field still enters the cache key (for non-default
    #: values) because the cache must never assert that equivalence,
    #: only observe it.
    backend: str = "threaded"

    def identity(self) -> dict:
        """The content-addressed part of the point (no runtime state).

        The default backend is omitted so existing cached results keyed
        before the field existed remain addressable.
        """
        ident = {"experiment": self.experiment, "params": dict(self.params),
                 "seed": self.seed}
        if self.backend != "threaded":
            ident["backend"] = self.backend
        return ident

    @property
    def label(self) -> str:
        """Compact human-readable tag, e.g. ``stalls[p=0.3,trial=4]#104``."""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}[{inner}]#{self.seed}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label

    def canonical(self) -> str:
        return canonical_json(self.identity())
