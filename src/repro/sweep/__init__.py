"""repro.sweep — parallel sweep engine with content-addressed caching.

Every experiment in this reproduction is an embarrassingly parallel
parameter sweep: independent, seeded simulation points whose results
only ever change when the code or the parameters do.  This package
exploits both properties:

* :class:`SweepPoint` — one (experiment, params, seed) triple, plain
  data, enumerated by each experiment's space builder (declared on its
  :class:`~repro.registry.SweepSpec` and looked up with
  :func:`repro.registry.get_sweep`);
* :func:`run_sweep` — executes points across a process pool with
  chunked distribution, per-point SIGALRM timeouts, retry-once-on-crash,
  and an ordered merge of per-point telemetry reports that is identical
  in content to a serial run;
* :class:`ResultCache` — a disk-backed content-addressed store keyed on
  experiment + canonical params + seed + package version + git rev,
  with LRU and max-size eviction, so re-running an unchanged sweep is
  near-instant and incremental sweeps only simulate new points;
* :mod:`.serialize` — the canonical serializer shared by the cache key,
  the merge layer, and the CLI's ``--json`` output.

Usage::

    from repro.experiments.stall_verification import sweep_space
    from repro.sweep import ResultCache, run_sweep

    points = sweep_space()                       # 40 seeded points
    result = run_sweep(points, jobs=4, cache=ResultCache(".sweep-cache"))
    print(result.summary())                      # cache traffic + wall time
    print(observe.format_report(result.report()))

From the command line::

    python -m repro sweep stall_verification --jobs 4
"""

from .cache import CacheStats, ResultCache, default_cache_dir, repo_rev
from .engine import PointOutcome, PointTimeout, SweepResult, run_sweep
from .point import SweepPoint
from .serialize import (
    NONDETERMINISTIC_FIELDS,
    canonical_digest,
    canonical_json,
    dump_json,
    to_jsonable,
)

__all__ = [
    "SweepPoint",
    "run_sweep",
    "SweepResult",
    "PointOutcome",
    "PointTimeout",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "repo_rev",
    "canonical_json",
    "canonical_digest",
    "to_jsonable",
    "dump_json",
    "NONDETERMINISTIC_FIELDS",
]
