"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "productivity" in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_gals_command(capsys):
    assert main(["gals"]) == 0
    out = capsys.readouterr().out
    assert "testchip chip-level GALS overhead" in out


def test_backend_command(capsys):
    assert main(["backend"]) == 0
    out = capsys.readouterr().out
    assert "turnaround" in out and "flat flow" in out


def test_productivity_command(capsys):
    assert main(["productivity"]) == 0
    out = capsys.readouterr().out
    assert "OOHLS" in out and "hand RTL" in out


def test_hls_qor_command(capsys):
    assert main(["hls-qor"]) == 0
    out = capsys.readouterr().out
    assert "worst |delta|" in out


def test_fig3_command_tiny(capsys):
    assert main(["fig3", "--ports", "2", "--txns", "10"]) == 0
    out = capsys.readouterr().out
    assert "cycles per transaction" in out


def test_adaptive_clocking_command(capsys):
    assert main(["adaptive-clocking"]) == 0
    assert "throughput gain" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_stats_command_prints_telemetry_report(capsys):
    assert main(["stats", "fig3", "--ports", "2", "--txns", "5"]) == 0
    out = capsys.readouterr().out
    assert "cycles per transaction" in out        # the experiment output
    assert "telemetry report — fig3" in out       # plus the stats report
    assert "events fired" in out
    assert "valid-but-not-ready" in out
    assert "clock domains" in out


def test_stats_command_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    assert main(["stats", "fig3", "--ports", "2", "--txns", "5",
                 "--json", str(path)]) == 0
    from repro.observe import from_records, read_jsonl

    with open(path) as fh:
        report = from_records(read_jsonl(fh))
    assert report.label == "fig3"
    assert report.kernel["events_fired"] > 0
    assert report.channels and report.clocks


def test_trace_vcd_flag_writes_gtkwave_file(tmp_path, capsys):
    path = tmp_path / "out.vcd"
    assert main(["fig3", "--ports", "2", "--txns", "5",
                 "--trace-vcd", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    text = path.read_text()
    assert text.startswith("$timescale")
    assert "$var wire" in text and "$enddefinitions $end" in text
    assert "#" in text  # at least one timestamped change block


def test_stats_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["stats", "frobnicate"])


def test_inspect_prints_hierarchy_tree(capsys):
    assert main(["inspect", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "xbar" in out and "ports bound" in out


def test_inspect_fig6_respects_max_depth(capsys):
    assert main(["inspect", "fig6", "--max-depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "chip" in out and "mesh" in out
    assert "more" in out  # depth-3 routers truncated


def test_inspect_no_channels_flag(capsys):
    assert main(["inspect", "fig3", "--no-channels"]) == 0
    assert "Buffer" not in capsys.readouterr().out


def test_inspect_analytic_experiment_is_a_noop(capsys):
    assert main(["inspect", "backend"]) == 0
    assert "analytic" in capsys.readouterr().out


def test_lint_clean_experiment_exits_zero(capsys):
    assert main(["lint", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "fig3: clean: 0 findings" in out


def test_lint_accepts_rule_subset(capsys):
    assert main(["lint", "stalls", "--rules", "unbound-port"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_analytic_experiment_exits_zero(capsys):
    assert main(["lint", "productivity"]) == 0
    assert "analytic" in capsys.readouterr().out


def test_inspect_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["inspect", "frobnicate"])


# ----------------------------------------------------------------------
# sweep verb, --seed, --json (PR 4)
# ----------------------------------------------------------------------
def test_sweep_command_runs_and_reports_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["sweep", "stall_verification", "--jobs", "1", "--limit", "4",
            "--cache-dir", cache_dir]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "sweep stall_verification" in cold
    assert "0 hits / 4 misses" in cold

    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "4 hits / 0 misses" in warm
    assert "100% hit rate" in warm


def test_sweep_command_writes_json_payload(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "sweep.json")
    assert main(["sweep", "gals_overhead", "--jobs", "1", "--no-cache",
                 "--json", out_path]) == 0
    with open(out_path) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "gals_overhead"
    assert payload["errors"] == 0
    assert len(payload["statuses"]) == len(payload["points"])
    assert len(payload["results"]) == len(payload["points"])


def test_sweep_no_cache_never_touches_disk(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["sweep", "crossbar_qor", "--jobs", "1", "--no-cache",
                 "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "hit rate" not in out  # no cache stats line when disabled
    assert not cache_dir.exists()


def test_sweep_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["sweep", "frobnicate"])


def test_list_advertises_sweep_experiments(capsys):
    assert main(["list"]) == 0
    assert "sweep <experiment>" in capsys.readouterr().out


def test_seed_flag_reproduces_stall_campaign(capsys):
    assert main(["stalls", "--seed", "7"]) == 0
    a = capsys.readouterr().out
    assert main(["stalls", "--seed", "7"]) == 0
    assert capsys.readouterr().out == a  # same seed, same table


def test_json_flag_dumps_experiment_payload(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "fig3.json")
    assert main(["fig3", "--ports", "2", "--txns", "5",
                 "--json", out_path]) == 0
    with open(out_path) as fh:
        points = json.load(fh)
    assert isinstance(points, list) and points
    assert points[0]["n_ports"] == 2


# ----------------------------------------------------------------------
# incremental sweep, li-latency verb, stats --cache (PR 7)
# ----------------------------------------------------------------------
def test_sweep_incremental_reports_derived_points(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["sweep", "li_latency", "--incremental", "--jobs", "1",
            "--limit", "6", "--cache-dir", cache_dir]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "6 derived / 0 simulated (+1 captures)" in cold
    assert "fallbacks to full simulation" not in cold

    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "6 cached / 0 derived" in warm
    assert "recompute saved" in warm


def test_sweep_incremental_reports_fallbacks(tmp_path, capsys):
    assert main(["sweep", "stall_verification", "--incremental",
                 "--jobs", "1", "--limit", "2",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "fallbacks to full simulation:" in out
    assert "experiment registers no replay adapter" in out


def test_li_latency_command(capsys):
    assert main(["li-latency"]) == 0
    out = capsys.readouterr().out
    assert "cycles/msg" in out


def test_stats_cache_prints_cache_block(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "li_latency", "--incremental", "--jobs", "1",
                 "--limit", "4", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["stats", "--cache", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "sweep cache" in out and "lifetime:" in out
    assert "derived" in out and "trace" in out


def test_stats_cache_hit_rate_counts_one_lookup_per_point(tmp_path, capsys):
    import os

    cache_dir = str(tmp_path / "cache")
    args = ["sweep", "li_latency", "--incremental", "--jobs", "1",
            "--cache-dir", cache_dir]
    assert main(args) == 0
    capsys.readouterr()
    # Start the lifetime counters at the fully cached second pass.
    os.remove(os.path.join(cache_dir, "_stats.json"))
    assert main(args) == 0
    assert "48 hits / 0 misses (100% hit rate)" in capsys.readouterr().out
    assert main(["stats", "--cache", "--cache-dir", cache_dir]) == 0
    assert "48 hits / 0 misses (100% hit rate)" in capsys.readouterr().out


def test_sweep_has_no_warm_flag():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "li_latency", "--warm"])
    assert exc.value.code == 2


def test_stats_without_experiment_or_cache_rejected():
    with pytest.raises(SystemExit):
        main(["stats"])
