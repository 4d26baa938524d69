"""The sweep engine: ordering, parallel identity, retry, timeout, cache.

Synthetic experiments are registered into the live sweep registry; the
runners are module-level so fork-started worker processes can resolve
them by name (parallel tests skip on platforms without fork).
"""

import multiprocessing as mp
import os
import time

import pytest

from repro import registry
from repro.registry import SweepSpec, register_sweep
from repro.sweep import PointTimeout, ResultCache, SweepPoint, run_sweep
from repro.trace.adapter import ReplayAdapter

_FORK = mp.get_start_method(allow_none=False) == "fork"
needs_fork = pytest.mark.skipif(
    not _FORK, reason="parallel registry tests need fork-started workers")


def _echo_runner(params, seed):
    return {"i": params["i"], "seed": seed, "square": params["i"] ** 2}


def _crash_once_runner(params, seed):
    """Crashes on first call (per sentinel file), succeeds on retry."""
    sentinel = params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("injected crash")
    return {"i": params["i"], "recovered": True}


def _always_crash_runner(params, seed):
    raise RuntimeError("this point always explodes")


def _sleepy_runner(params, seed):
    time.sleep(params["sleep"])
    return {"slept": params["sleep"]}


_FAKES = [
    SweepSpec("echo_test", "test", space=lambda **kw: [],
              runner=_echo_runner),
    SweepSpec("crash_once_test", "test", space=lambda **kw: [],
              runner=_crash_once_runner),
    SweepSpec("crash_once_analytic_test", "test", space=lambda **kw: [],
              runner=_crash_once_runner,
              replay=ReplayAdapter(kind="analytic")),
    SweepSpec("always_crash_test", "test", space=lambda **kw: [],
              runner=_always_crash_runner),
    SweepSpec("sleepy_test", "test", space=lambda **kw: [],
              runner=_sleepy_runner),
]
for _spec in _FAKES:
    register_sweep(_spec)


def _echo_points(n):
    return [SweepPoint("echo_test", {"i": i}, seed=1000 + i)
            for i in range(n)]


# ----------------------------------------------------------------------
# ordering and serial/parallel identity
# ----------------------------------------------------------------------
def test_results_keep_point_order_serial():
    result = run_sweep(_echo_points(7), jobs=1, telemetry=False)
    assert [r["i"] for r in result.results] == list(range(7))
    assert result.executed == 7 and result.errors == 0
    assert [o.attempts for o in result.outcomes] == [1] * 7


@needs_fork
def test_parallel_results_identical_to_serial():
    points = _echo_points(11)
    serial = run_sweep(points, jobs=1, telemetry=False)
    parallel = run_sweep(points, jobs=3, telemetry=False, chunksize=2)
    assert serial.results == parallel.results
    assert serial.canonical() == parallel.canonical()


def test_empty_sweep_rejected():
    with pytest.raises(ValueError):
        run_sweep([])


# ----------------------------------------------------------------------
# retry-once-on-crash
# ----------------------------------------------------------------------
def test_crash_is_retried_and_recovers_serial(tmp_path):
    points = [SweepPoint("crash_once_test",
                         {"i": 0, "sentinel": str(tmp_path / "s0")})]
    result = run_sweep(points, jobs=1, telemetry=False)
    assert result.errors == 0 and result.retried == 1
    assert result.outcomes[0].status == "ok"
    assert result.outcomes[0].attempts == 2
    assert result.results[0]["recovered"] is True


@needs_fork
def test_crash_is_retried_and_recovers_parallel(tmp_path):
    points = _echo_points(4) + [
        SweepPoint("crash_once_test",
                   {"i": 9, "sentinel": str(tmp_path / "s9")})]
    result = run_sweep(points, jobs=2, telemetry=False)
    assert result.errors == 0 and result.retried == 1
    assert result.results[-1]["recovered"] is True
    assert [r["i"] for r in result.results[:4]] == [0, 1, 2, 3]


@pytest.mark.parametrize("experiment,reason", [
    ("crash_once_analytic_test", None),
    ("crash_once_test", "experiment registers no replay adapter"),
])
def test_plain_and_incremental_share_one_retry_loop(tmp_path, experiment,
                                                    reason):
    def sweep(incremental):
        root = tmp_path / ("inc" if incremental else "plain")
        root.mkdir()
        points = [SweepPoint(experiment,
                             {"i": i, "sentinel": str(root / f"s{i}")})
                  for i in range(3)]
        return run_sweep(points, jobs=1, telemetry=False,
                         incremental=incremental)

    plain, incremental = sweep(False), sweep(True)
    for result in (plain, incremental):
        assert (result.retried, result.errors) == (3, 0)
        assert [o.attempts for o in result.outcomes] == [2, 2, 2]
        assert all(o.status == "ok" for o in result.outcomes)
    assert all(o.fallback_reason is None for o in plain.outcomes)
    # The retry never overwrites the classification's reason.
    assert all(o.fallback_reason == reason for o in incremental.outcomes)


def test_persistent_crash_recorded_not_raised():
    points = _echo_points(2) + [SweepPoint("always_crash_test", {"i": 9})]
    result = run_sweep(points, jobs=1, telemetry=False, retries=1)
    assert result.errors == 1 and result.executed == 2
    bad = result.outcomes[-1]
    assert bad.status == "error" and bad.result is None
    assert "explodes" in bad.error
    assert bad.attempts == 2  # first run + one retry
    # The healthy points are unaffected.
    assert [r["i"] for r in result.results[:2]] == [0, 1]


def test_failed_points_never_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "c"), version="t", rev="r")
    points = [SweepPoint("always_crash_test", {"i": 0})]
    run_sweep(points, jobs=1, telemetry=False, retries=0, cache=cache)
    assert len(cache) == 0


# ----------------------------------------------------------------------
# per-point timeout
# ----------------------------------------------------------------------
def test_timeout_kills_wedged_point_serial():
    points = [SweepPoint("sleepy_test", {"sleep": 5.0})]
    t0 = time.perf_counter()
    result = run_sweep(points, jobs=1, telemetry=False, timeout=0.2,
                       retries=0)
    assert time.perf_counter() - t0 < 2.0
    assert result.errors == 1
    assert "PointTimeout" in result.outcomes[0].error


@needs_fork
def test_timeout_does_not_sink_the_sweep_parallel():
    points = [SweepPoint("sleepy_test", {"sleep": 5.0})] + _echo_points(3)
    t0 = time.perf_counter()
    result = run_sweep(points, jobs=2, telemetry=False, timeout=0.3,
                       retries=0, chunksize=1)
    assert time.perf_counter() - t0 < 5.0
    assert result.errors == 1 and result.executed == 3
    assert result.outcomes[0].status == "error"
    assert [r["i"] for r in result.results[1:]] == [0, 1, 2]


def test_point_timeout_is_an_exception_type():
    assert issubclass(PointTimeout, Exception)


# ----------------------------------------------------------------------
# cache integration
# ----------------------------------------------------------------------
def test_second_run_served_from_cache(tmp_path):
    cache_dir = str(tmp_path / "c")
    points = _echo_points(5)
    cold = run_sweep(points, jobs=1, telemetry=False,
                     cache=ResultCache(cache_dir, version="t", rev="r"))
    warm = run_sweep(points, jobs=1, telemetry=False,
                     cache=ResultCache(cache_dir, version="t", rev="r"))
    assert cold.executed == 5 and cold.cache_hits == 0
    assert warm.executed == 0 and warm.cache_hits == 5
    assert [o.status for o in warm.outcomes] == ["cached"] * 5
    assert warm.results == cold.results
    assert warm.canonical() == cold.canonical()


def test_incremental_sweep_only_runs_new_points(tmp_path):
    cache_dir = str(tmp_path / "c")
    run_sweep(_echo_points(3), jobs=1, telemetry=False,
              cache=ResultCache(cache_dir, version="t", rev="r"))
    grown = run_sweep(_echo_points(5), jobs=1, telemetry=False,
                      cache=ResultCache(cache_dir, version="t", rev="r"))
    assert grown.cache_hits == 3 and grown.executed == 2
    assert [r["i"] for r in grown.results] == list(range(5))


# ----------------------------------------------------------------------
# telemetry merge
# ----------------------------------------------------------------------
def test_telemetry_merges_in_point_order():
    from repro.experiments.stall_verification import sweep_space

    points = sweep_space(probabilities=(0.3,), trials=2)
    result = run_sweep(points, jobs=1, telemetry=True)
    report = result.report()
    assert report.simulators == len(points)
    assert report.kernel["events_fired"] > 0
    assert report.channels  # per-channel rows travelled with each point
    # Each point contributed a labelled per-point report in order.
    assert result.outcomes[0].telemetry[0]["label"] == "stall_verification[0]"
    assert result.outcomes[1].telemetry[0]["label"] == "stall_verification[1]"


def test_no_telemetry_mode_skips_records():
    result = run_sweep(_echo_points(2), jobs=1, telemetry=False)
    assert all(o.telemetry is None for o in result.outcomes)
    assert result.report().simulators == 0


# ----------------------------------------------------------------------
# registry hygiene
# ----------------------------------------------------------------------
def test_unknown_experiment_becomes_error_outcome():
    result = run_sweep([SweepPoint("no_such_exp", {})], jobs=1,
                       telemetry=False, retries=0)
    assert result.errors == 1
    bad = result.outcomes[0]
    assert bad.status == "error"
    assert "no_such_exp" in bad.error
    # The registry lookup error names known experiments as candidates.
    assert "echo_test" in bad.error


def test_fake_specs_are_registered():
    sweeps = registry.sweep_specs_view()
    for spec in _FAKES:
        assert sweeps[spec.name] is spec


# ----------------------------------------------------------------------
# telemetry / cache consistency
# ----------------------------------------------------------------------
def test_telemetry_sweep_skips_telemetry_less_entries(tmp_path):
    """A telemetry=False run must not poison later telemetry=True runs:
    entries without telemetry are honest misses and get re-executed."""
    from repro.experiments.stall_verification import sweep_space

    cache_dir = str(tmp_path / "c")
    points = sweep_space(probabilities=(0.3,), trials=1)
    run_sweep(points, jobs=1, telemetry=False,
              cache=ResultCache(cache_dir, version="t", rev="r"))
    rich = run_sweep(points, jobs=1, telemetry=True,
                     cache=ResultCache(cache_dir, version="t", rev="r"))
    assert rich.cache_hits == 0 and rich.executed == len(points)
    assert all(o.telemetry for o in rich.outcomes)
    # The re-execution upgrades the entry: the next rich run hits.
    again = run_sweep(points, jobs=1, telemetry=True,
                      cache=ResultCache(cache_dir, version="t", rev="r"))
    assert again.cache_hits == len(points)
    assert all(o.telemetry for o in again.outcomes)


def test_plain_sweep_strips_cached_telemetry(tmp_path):
    from repro.experiments.stall_verification import sweep_space

    cache_dir = str(tmp_path / "c")
    points = sweep_space(probabilities=(0.3,), trials=1)
    rich = run_sweep(points, jobs=1, telemetry=True,
                     cache=ResultCache(cache_dir, version="t", rev="r"))
    plain = run_sweep(points, jobs=1, telemetry=False,
                      cache=ResultCache(cache_dir, version="t", rev="r"))
    assert plain.cache_hits == len(points)
    assert all(o.telemetry is None for o in plain.outcomes)
    assert plain.results == rich.results
