"""The incremental sweep engine: differential oracle + accounting.

Every test compares ``run_sweep(..., incremental=True)`` against a
plain full-simulation sweep of the same points via
``SweepResult.canonical()`` — the byte-comparable serialization — so
replayed, analytically derived, cache-served and fallback results are
all held to the same standard: indistinguishable from fresh
simulations.
"""

from dataclasses import replace

import pytest

from repro.registry import SweepSpec, get_sweep, register_sweep
from repro.sweep import ResultCache, run_sweep
from repro.trace.adapter import ReplayAdapter

pytestmark = pytest.mark.usefixtures("pinned_rev")


@pytest.fixture
def pinned_rev(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_REV", "trace-test")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), version="trace-test")


def _canonical(points):
    return run_sweep(points, telemetry=False).canonical()


def test_li_latency_incremental_is_byte_identical(cache):
    points = get_sweep("li_latency").space()
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    # The headline property: 48 points, 2 structural bases, 0 fallbacks.
    assert result.derived == len(points)
    assert result.captures == 2
    assert result.executed == 0 and result.errors == 0
    assert result.fallback_reasons == {}
    assert all(o.mode == "derived" for o in result.outcomes)


def test_li_latency_meets_derived_floor(cache):
    """The CI gate: >= 90 % of the default space must be derived."""
    points = get_sweep("li_latency").space()
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.derived / len(points) >= 0.9


def test_warm_incremental_is_fully_cached_and_identical(cache):
    points = get_sweep("li_latency").space()
    run_sweep(points, cache=cache, incremental=True)
    warm = run_sweep(points, cache=cache, incremental=True)
    assert warm.cache_hits == len(points)
    assert warm.captures == 0 and warm.derived == 0
    assert warm.canonical() == _canonical(points)


def test_each_point_is_one_cache_lookup(cache):
    """Exact-then-derived lookups count as one hit or one miss."""
    points = get_sweep("li_latency").space()
    cold = ResultCache(cache.root, version="trace-test")
    run_sweep(points, cache=cold, incremental=True)
    # One miss per point plus one per structural base's trace.
    assert (cold.stats.hits, cold.stats.misses) == (0, len(points) + 2)
    rerun = ResultCache(cache.root, version="trace-test")
    run_sweep(points, cache=rerun, incremental=True)
    assert (rerun.stats.hits, rerun.stats.misses) == (len(points), 0)
    assert rerun.stats.hits_derived == len(points)


def test_warm_traces_skip_recapture(cache):
    points = get_sweep("li_latency").space()
    run_sweep(points, cache=cache, incremental=True)
    # New satellite points against the same structural bases: the
    # cached traces serve them without a single new simulation.
    fresh = get_sweep("li_latency").space(capacities=(3, 5))
    result = run_sweep(fresh, cache=cache, incremental=True)
    assert result.captures == 0
    assert result.derived == len(fresh)
    assert result.canonical() == _canonical(fresh)


def test_derived_entries_never_shadow_exact(cache):
    points = get_sweep("li_latency").space()[:4]
    run_sweep(points, cache=cache, incremental=True)
    # A plain sweep with the same cache sees only exact keys: the
    # derived entries must be invisible to it.
    plain = run_sweep(points, cache=cache, telemetry=False)
    assert plain.cache_hits == 0 and plain.executed == len(points)
    # And once exact entries exist, incremental lookups prefer them.
    marked = dict(plain.outcomes[0].result)
    cache.put(points[0], {"result": marked, "telemetry": None})
    warm = run_sweep(points, cache=cache, incremental=True)
    assert warm.outcomes[0].mode == "exact"
    assert warm.outcomes[0].result == marked


def test_stall_verification_falls_back_with_recorded_reasons(cache):
    points = get_sweep("stall_verification").space(trials=2)
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    # No replay adapter: the classifier labels every point for full
    # simulation without paying for a base capture.
    assert result.derived == 0
    assert result.executed == len(points)
    assert result.captures == 0
    assert result.fallback_reasons == {
        "experiment registers no replay adapter": len(points)}
    assert all(o.fallback_reason for o in result.outcomes)


def _stall_capture(base_params, base_seed):
    """Capture the stall harness, whose ops are non-blocking."""
    from repro.experiments.stall_verification import build_stall_testbench
    from repro.trace.capture import capture

    sim, _ = build_stall_testbench(
        base_params["stall_probability"], base_seed,
        n_msgs=base_params["n_msgs"], bug=base_params["bug"])
    with capture(sim) as session:
        sim.run(until=base_params["n_msgs"] * 1200)
    return session.trace


def _never_derive(trace, result, params, seed):
    raise AssertionError("an ineligible trace must never be replayed")


_INELIGIBLE = "stall_capture_ineligible_test"
register_sweep(SweepSpec(
    _INELIGIBLE, "test", space=lambda **kw: [],
    runner=get_sweep("stall_verification").runner,
    replay=ReplayAdapter(
        safe_params=frozenset({"stall_probability", "trial"}),
        base_params=lambda params: {**params, "stall_probability": 0.0,
                                    "trial": 0},
        base_seed=lambda params, seed: 100,
        capture=_stall_capture,
        overrides=lambda params, seed: {"channels": {}},
        derive=_never_derive)))


def test_ineligible_capture_falls_back_with_recorded_reasons(cache):
    points = [replace(p, experiment=_INELIGIBLE)
              for p in get_sweep("stall_verification").space(trials=2)]
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    # Statically derivable, dynamically refused: the one capture runs,
    # records the harness's non-blocking ops, and every point simulates.
    assert result.derived == 0
    assert result.executed == len(points)
    assert result.captures == 1
    reasons = "; ".join(result.fallback_reasons)
    assert reasons.startswith("capture ineligible: ")
    assert "pop_nb" in reasons and "push_nb" in reasons
    assert all(o.fallback_reason for o in result.outcomes)
    # The ineligible trace is cached, so a rerun skips the capture.
    rerun = run_sweep(points, cache=cache, incremental=True)
    assert rerun.cache_hits == len(points) and rerun.captures == 0


def test_gals_overhead_is_analytically_derived(cache):
    points = get_sweep("gals_overhead").space()
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    assert result.derived == len(points)
    assert result.captures == 0 and result.executed == 0


def test_experiment_without_adapter_falls_back(cache):
    points = get_sweep("fig3_crossbar").space(ports=(2,), txns_per_port=6)
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    assert result.derived == 0 and result.executed == len(points)
    assert list(result.fallback_reasons) == [
        "experiment registers no replay adapter"]


#: Space options that keep each shipped sweep's slice small: Figure 3
#: only at the sim-/signal-accurate models and 2 ports.
_SLICE_OPTS = {"fig3_crossbar": {"ports": (2,), "models": (
    "sim-accurate", "signal-accurate")}}


def _catalog_sweeps():
    from repro import registry

    return sorted(name for name, spec in registry.sweep_specs_view().items()
                  if spec.space.__module__.startswith("repro."))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", _catalog_sweeps())
def test_every_registered_sweep_is_identical_plain_and_incremental(
        name, jobs, tmp_path):
    space = get_sweep(name).space(**_SLICE_OPTS.get(name, {}))
    points = space[::max(1, len(space) // 6)]
    plain = run_sweep(points, jobs=jobs, telemetry=False)
    incremental = run_sweep(
        points, jobs=jobs, incremental=True,
        cache=ResultCache(str(tmp_path / "cache"), version="trace-test"))
    assert plain.errors == 0 and incremental.errors == 0
    assert incremental.canonical() == plain.canonical()


def test_incremental_requires_single_experiment(cache):
    mixed = (get_sweep("li_latency").space()[:1]
             + get_sweep("gals_overhead").space()[:1])
    with pytest.raises(ValueError, match="single experiment"):
        run_sweep(mixed, cache=cache, incremental=True)


def test_incremental_without_cache_still_works():
    points = get_sweep("li_latency").space()[:6]
    result = run_sweep(points, incremental=True)
    assert result.canonical() == _canonical(points)
    assert result.derived == len(points)


def test_payload_reports_modes_and_fallbacks(cache):
    points = get_sweep("li_latency").space()[:4]
    payload = run_sweep(points, cache=cache,
                        incremental=True).to_payload()
    assert payload["incremental"] is True
    assert payload["modes"] == ["derived"] * 4
    assert payload["derived"] == 4
    assert "fallback_reasons" in payload
