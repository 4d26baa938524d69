"""Unit tests for the job-oriented execution core (:mod:`repro.jobs`)."""

import dataclasses
import json

import pytest

from repro import registry
from repro.jobs import KINDS, JobRequest, JobResult, execute
from repro.sweep.point import SweepPoint


def test_request_is_frozen_plain_data():
    req = JobRequest(experiment="backend")
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.experiment = "other"
    assert req.kind == "experiment"
    assert req.backend == "threaded"
    assert req.params == {}


def test_request_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        JobRequest(experiment="backend", kind="nope")
    assert KINDS == ("experiment", "point")


def test_point_requests_require_a_seed():
    with pytest.raises(ValueError, match="seed"):
        JobRequest(experiment="li_latency", kind="point")


def test_identity_omits_default_backend():
    default = JobRequest(experiment="backend").identity()
    assert "backend" not in default
    compiled = JobRequest(experiment="backend",
                          backend="compiled").identity()
    assert compiled["backend"] == "compiled"


def test_from_point_round_trips_the_sweep_point():
    point = SweepPoint(experiment="li_latency",
                       params={"depth": 2, "payload": 3}, seed=11)
    req = JobRequest.from_point(point)
    assert req.kind == "point"
    assert req.experiment == "li_latency"
    assert req.params == {"depth": 2, "payload": 3}
    assert req.seed == 11


def test_execute_analytic_experiment_matches_direct_runner():
    spec = registry.get("backend")
    result = execute(JobRequest(experiment="backend"))
    assert isinstance(result, JobResult)
    assert result.payload == spec.runner({}, None)
    assert result.text == spec.formatter(result.payload)
    assert result.schema == "backend"
    assert result.schema_version == 1
    assert result.wall_seconds >= 0.0
    assert result.session is None  # no telemetry, no trace requested


def test_execute_point_kind_uses_the_sweep_runner():
    sweep = registry.get_sweep("gals_overhead")
    point = sweep.space()[0]
    job = execute(JobRequest.from_point(point))
    direct = sweep.runner(dict(point.params), point.seed)
    assert job.payload == direct
    assert job.text is None  # points have no CLI formatter


def test_execute_unknown_experiment_raises_registry_error():
    with pytest.raises(KeyError, match="unknown experiment"):
        execute(JobRequest(experiment="nope"))


def test_provenance_line_formats_backend_and_fallback():
    base = execute(JobRequest(experiment="backend"))
    assert base.provenance().startswith("simulation backend: ")
    forced = dataclasses.replace(base, backend="threaded",
                                 fallback_reason="demo reason")
    assert forced.provenance() == ("simulation backend: threaded "
                                   "(fallback: demo reason)")


def test_telemetry_flag_yields_a_report_session():
    job = execute(JobRequest(experiment="fig3",
                             params={"ports": "2", "txns": 3},
                             seed=1, telemetry=True),
                  telemetry_label="fig3")
    assert job.session is not None
    report = job.session.report(label="fig3")
    assert report.label == "fig3"


def test_canonical_payload_and_write_json_agree(tmp_path):
    job = execute(JobRequest(experiment="productivity"))
    path = tmp_path / "job.json"
    job.write_json(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == job.canonical_payload()


def test_write_json_is_deterministic_across_runs(tmp_path):
    a, b = (execute(JobRequest(experiment="backend")) for _ in range(2))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write_json(str(pa))
    b.write_json(str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_provenance_does_not_leak_from_the_previous_job():
    point = registry.get_sweep("pe_scaling").space(
        pe_counts=(2,), total_words=64)[0]
    compiled = execute(dataclasses.replace(
        JobRequest.from_point(point), backend="compiled"))
    assert (compiled.backend, compiled.fallback_reason) == ("compiled", None)
    default = execute(JobRequest.from_point(point))
    assert (default.backend, default.fallback_reason) == ("threaded", None)
    assert default.payload == compiled.payload
