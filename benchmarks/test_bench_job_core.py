"""Dispatch overhead of the job execution core (:mod:`repro.jobs`).

Every entry point — the CLI verbs, ``repro run``, the sweep engine's
workers — routes experiment execution through
``jobs.execute(JobRequest(...))``.  That indirection (registry lookup,
backend context, provenance bookkeeping, formatter call) must stay
negligible against the cheapest real experiment, or the unification
taxes every sweep point.  Benchmarked on the analytic ``backend``
experiment (runner ~1-2 ms), the cheapest job the CLI can submit.

Both legs are warmed first and then timed in interleaved rounds
(alternating which leg goes first), so neither pays first-call costs
or a different phase of host noise; the overhead is the median of the
per-round differences.
"""

import statistics
import time

from repro import registry
from repro.jobs import JobRequest, execute

ROUNDS = 20
CALLS_PER_ROUND = 10


def _per_call(fn) -> float:
    t0 = time.perf_counter()
    for _ in range(CALLS_PER_ROUND):
        fn()
    return (time.perf_counter() - t0) / CALLS_PER_ROUND


def test_bench_job_dispatch_overhead(benchmark, save_result):
    registry.load()
    spec = registry.get("backend")
    request = JobRequest(experiment="backend")

    def direct_call():
        return spec.runner({}, None)

    def routed_call():
        return execute(request)

    # Warm both legs before anything is timed.
    for _ in range(CALLS_PER_ROUND):
        direct_call()
        routed_call()

    result = benchmark.pedantic(routed_call, rounds=5, iterations=10)

    direct, routed = [], []
    for i in range(ROUNDS):
        legs = [(direct, direct_call), (routed, routed_call)]
        for samples, fn in (legs if i % 2 == 0 else legs[::-1]):
            samples.append(_per_call(fn))
    overhead = statistics.median(r - d for r, d in zip(routed, direct))

    save_result(
        "job_core_overhead",
        "job core dispatch overhead (analytic 'backend' experiment)\n"
        f"warmed, {ROUNDS} interleaved rounds x {CALLS_PER_ROUND} calls "
        "per leg; medians\n"
        f"direct runner call : {1e6 * statistics.median(direct):10.1f} us\n"
        f"jobs.execute       : {1e6 * statistics.median(routed):10.1f} us\n"
        f"dispatch overhead  : {1e6 * overhead:10.1f} us/job")

    assert result.payload == spec.runner({}, None)
    assert result.text == spec.formatter(result.payload)
    # The core's own bookkeeping stays under a millisecond per job —
    # noise against any experiment that actually simulates something.
    assert overhead < 1e-3, f"job dispatch overhead {overhead:.6f}s"
