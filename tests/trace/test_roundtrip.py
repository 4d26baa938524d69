"""Capture -> identity replay round-trip over the designs registry.

The property: for every registered experiment design, either

* the captured trace is eligible, and replaying it with **unchanged**
  parameters reproduces the kernel's per-channel counters bit for bit
  (the final counters in the trace are the oracle — capture records
  them straight off the simulator), or
* the trace records at least one human-readable ineligibility reason,
  and the replayer refuses it.

There is no third outcome: a design may never be silently dropped, and
an "eligible" trace may never replay to different numbers.
"""

import pytest

from repro import registry
from repro.registry import build_design
from repro.trace import CaptureError, ReplayError, capture, replay

#: Small per-design horizons (ns) keeping the suite fast; the property
#: holds for any horizon.
_HORIZON = 3000

_SIMULATED = sorted(name for name in registry.names(runnable=True)
                    if registry.get(name).design is not None)


@pytest.mark.parametrize("experiment", _SIMULATED)
def test_capture_replay_roundtrip(experiment):
    sim = build_design(experiment)
    try:
        with capture(sim) as session:
            sim.run(until=_HORIZON)
    except CaptureError as exc:
        pytest.skip(f"{experiment}: capture refused ({exc})")
    trace = session.trace

    if not trace["eligible"]:
        assert trace["reasons"], (
            f"{experiment}: ineligible trace must record why")
        with pytest.raises(ReplayError):
            replay(trace, {})
        return

    result = replay(trace, {})
    for rec in trace["channels"]:
        assert result.channels[rec["path"]] == rec["stats"], (
            f"{experiment}: channel {rec['path']} diverged")
    assert result.cycles == trace["clock"]["cycles"]
    assert result.now == trace["now"]


def test_registry_has_replayable_and_fallback_designs():
    """The property above must be exercised from both sides."""
    eligible, ineligible = [], []
    for experiment in _SIMULATED:
        sim = build_design(experiment)
        try:
            with capture(sim) as session:
                sim.run(until=_HORIZON)
        except CaptureError:
            continue
        (eligible if session.trace["eligible"] else
         ineligible).append(experiment)
    assert "li-latency" in eligible
    assert ineligible, "expected at least one ineligible design"
