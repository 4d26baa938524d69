"""repro.compile — the graph-compiled simulation backend.

The threaded kernel (:mod:`repro.kernel.simulator`) is the semantic
reference: generator threads resumed through a delta loop, channels
ticked by per-edge callbacks, clocks merged against a timed-event heap.
Profiling the paper's PE-array experiments shows where that model pays:
on ``pe_scaling`` roughly 60 thread resumes and 110 channel ticks run
*per cycle*, and in steady state almost all of them observe nothing —
idle consumers polling empty queues, empty channels updating empty
bookkeeping.

This package removes that cost without changing a single observable:

1. :func:`repro.design.lower.lower` compiles the elaborated design into
   a static event/dataflow graph (:class:`~repro.design.lower.
   NodeSchedule`): clock edge, channel-tick nodes, thread nodes,
   data/handshake edges.
2. :mod:`.capability` proves the design shape is one the engine can
   execute equivalently (single periodic clock, no methods, no timed
   events, no instrumentation) — anything else **falls back** to the
   threaded kernel, recording why.
3. :class:`.engine.CompiledEngine` executes the schedule with a flat,
   allocation-free dispatch loop: parked threads and idle channels are
   skipped, a posedge costs four integer updates, and any construct
   outside the proof detaches back to the threaded loop mid-run with
   exact state restoration.

Select it per simulator (``Simulator(backend="compiled")``), ambiently
(:func:`repro.kernel.use_backend`), or from the command line
(``python -m repro <experiment> --backend compiled``).  The contract —
checked by ``tests/test_compiled_backend.py`` across every registered
experiment — is that results are byte-identical to the threaded kernel.

See ``docs/COMPILED_BACKEND.md`` for the full pipeline walkthrough.
"""

from __future__ import annotations

from typing import Optional

from .capability import check as check_capability
from .engine import CompiledEngine

__all__ = ["CompiledEngine", "check_capability", "try_attach"]


def try_attach(sim) -> Optional[CompiledEngine]:
    """Attach a compiled engine to ``sim`` if the design is eligible.

    Called lazily by the simulator at the first run of a
    ``backend="compiled"`` request.  On ineligibility the reason is
    recorded (``sim.backend_fallback_reason``) and ``None`` is
    returned; the caller proceeds with the threaded kernel.
    """
    reason = check_capability(sim)
    if reason is None:
        from ..design.lower import lower

        try:
            schedule = lower(sim)
        except Exception as exc:  # defensive: lowering must never kill a run
            reason = f"lowering failed: {exc}"
        else:
            engine = CompiledEngine(sim, schedule)
            sim._engine = engine
            return engine
    sim._backend_fallback = reason
    return None
