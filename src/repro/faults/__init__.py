"""Robustness layer: fault injection + hang watchdog (``repro.faults``).

Three pieces, layered on the PR 3 design hierarchy and the PR 4 sweep
engine:

* :mod:`.watchdog` — deadlock/livelock detection for a running
  simulator, raising :class:`HangError` with a path-level
  :class:`HangDiagnosis` instead of spinning to ``max_steps``;
* :mod:`.plan` — seeded deterministic :class:`FaultPlan` schedules
  (message drop/duplicate/corruption, stall bursts, clock
  jitter/drift) applied to any built design by dotted channel path;
* :mod:`.campaign` — the campaign runner behind ``repro faults``:
  seeded cases per experiment harness, outcome triage
  (clean/detected/hang/crash), and shrinking of failing schedules.

Everything is zero-cost when off: without a watchdog or fault plan the
kernel and channels pay at most one ``is None`` test on their hot paths
(the ``python -m repro bench`` gate enforces this).
"""

from .campaign import (
    Harness,
    Rig,
    build_deadlock_fixture,
    default_plan,
    execute,
    outcome_class,
    shrink,
)
from .plan import (
    AppliedFaults,
    ChannelFaults,
    FaultDirective,
    FaultPlan,
    default_corrupter,
)
from .watchdog import (
    BlockedThread,
    ChannelSnapshot,
    HangDiagnosis,
    HangError,
    Watchdog,
)

__all__ = [
    "Watchdog", "HangError", "HangDiagnosis", "BlockedThread",
    "ChannelSnapshot",
    "FaultPlan", "FaultDirective", "AppliedFaults", "ChannelFaults",
    "default_corrupter",
    "Harness", "Rig", "build_deadlock_fixture",
    "default_plan", "execute", "shrink", "outcome_class",
]
