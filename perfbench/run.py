"""perfbench — the simulator stack's benchmark, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload soc_scaling --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

One run sets the workload up three times in fresh processes (the
median is ``setup_s``), measures it untraced in a fresh process for
``--seconds``, and with ``--trace 1`` measures it again with every layer
boundary wrapped (see ``spans.py``).  It prints a readable report, a
detail JSON line, and as its last line the result object
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  End-to-end times are scaled to a nominal host speed
measured by a calibration loop around every pass (see
:data:`NOMINAL_CALIBRATION_MS`); the raw host figures are printed
beside them.  Work files go to ``.perfbench_work/`` in the current
directory; results and spans are kept under ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload_ops  # noqa: E402

SETUPS = 3
#: Whole-run budget in seconds; children are killed past it.
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: End-to-end times are scaled to a host on which the calibration loop
#: (:func:`host_calibration`) takes exactly this long.  Shared hosts
#: drift by up to 2x within minutes; the interpreter loop slows with
#: them, so scaled figures from different runs stay comparable.
NOMINAL_CALIBRATION_MS = 10.0


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _import_program(root: pathlib.Path) -> None:
    sys.path.insert(0, str(root / "src"))
    from repro import registry

    registry.load()


def host_calibration() -> List[float]:
    """ms per run of a fixed interpreter loop, nine times: how fast the
    host runs Python right now."""
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def phase_setup(args) -> None:
    """Import, load the catalog and build the workload's inputs."""
    _import_program(pathlib.Path.cwd())
    if args.workload == "sweep_reuse":
        workload_ops.fill_reuse_cache(str(args.workdir / "template"),
                                      args.seed)
    else:
        workload_ops.CLASSES[args.workload](
            args.seed, str(args.workdir), jobs=1, pins={})


def phase_measure(args) -> None:
    """One untraced (or traced) measurement; writes ``args.out``."""
    root = pathlib.Path.cwd()
    tracer = load_s = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        sys.path.insert(0, str(root / "src"))
        from repro import registry

        load_s = tracer.time_call("registry.load", registry.load).dur
        spans.install(tracer)
    else:
        _import_program(root)
    import multiprocessing

    from repro.sweep import repo_rev

    jobs = workload_ops.usable_cpus() \
        if args.workload == "sweep_cold" and not args.traced else 1
    refs_path = args.workdir / "refs.json"
    extra = {"template": str(args.workdir / "template")} \
        if args.workload == "sweep_reuse" else {}
    work = workload_ops.CLASSES[args.workload](
        args.seed, str(args.workdir / ("traced" if args.traced
                                       else "untraced")),
        jobs=jobs, pins=workload_ops.load_pins(args.pins), **extra)
    if refs_path.exists():
        work.refs = json.loads(refs_path.read_text())
    else:
        work.refs = work.references()
        refs_path.write_text(json.dumps(work.refs))

    if work.warmup:  # lazy imports and first-touch costs
        work.run_pass()
        work.ops.clear()
        work.sweeps.clear()
    work.tracer = tracer
    before = host_calibration()
    calibration = list(before)
    start = time.perf_counter()
    passes = 0
    while not work.ops or time.perf_counter() - start < args.seconds:
        first = len(work.ops)
        work.run_pass()
        after = host_calibration()
        slowness = statistics.median(before + after) \
            / NOMINAL_CALIBRATION_MS
        for op in work.ops[first:]:
            op["pass"] = passes
            op["slowness"] = slowness
        passes += 1
        calibration += after
        before = after
    work.tracer = None

    out = {"ops": work.ops, "sweeps": work.sweeps, "jobs": jobs,
           "context": {"usable_cpus": workload_ops.usable_cpus(),
                       "python": platform.python_version(),
                       "start_method": multiprocessing.get_start_method(),
                       "git_rev": repo_rev(), "seed": args.seed,
                       "jobs": jobs,
                       "calibration_ms": statistics.median(calibration),
                       "calibration_samples": len(calibration)}}
    if tracer is not None:
        import spans

        out["layers"] = spans.layer_metrics(tracer.spans)
        out["layers"]["registry.load_s"] = load_s
        out["layers"].update(work.probe())
        spans_path = args.out.with_suffix(".spans.jsonl")
        tracer.write(str(spans_path))
        out["spans_file"] = str(spans_path)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = own + kids
    args.out.write_text(json.dumps(out))


# ----------------------------------------------------------------------
# the parent: set up, measure, compose, report
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    pass


def _run_child(argv, root: pathlib.Path, deadline: float) -> float:
    """Run one child phase to completion; returns its wall seconds.

    Each child gets its own process group, so a timeout also stops the
    sweep pool workers it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv],
                            cwd=root, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{' '.join(argv[:4])}: timed out")
    finally:
        try:  # stray pool workers of a finished child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:4])} exited "
                          f"{proc.returncode}:\n{err[-4000:]}")
    return wall


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timings(ops, scaled: bool) -> dict:
    """The timed end-to-end figures of one run's ops.

    With ``scaled`` each op's latency is divided by its pass's host
    slowness (calibration / :data:`NOMINAL_CALIBRATION_MS`).  Rates and
    medians are taken per pass and then as the median over passes: on
    ``soc_scaling`` half of a pass's jobs run compiled and are ~3x
    faster, so the plain median of all jobs would fall in the gap
    between the two groups and follow their extreme jobs.
    """
    passes: dict = {}
    for op in ops:
        latency = op["latency"] / op["slowness"] if scaled \
            else op["latency"]
        passes.setdefault(op["pass"], []).append((latency, op))
    lat = sorted(latency for group in passes.values()
                 for latency, _ in group)
    out = {
        "points_per_s": statistics.median(
            sum(op["points"] for _, op in group)
            / sum(latency for latency, _ in group)
            for group in passes.values()),
        "op_p50_ms": 1e3 * statistics.median(
            statistics.median(latency for latency, _ in group)
            for group in passes.values()),
    }
    for q in TAIL_LADDER:
        if len(lat) >= 20 and len(lat) * (100 - q) / 100 >= 10:
            out["op_tail_ms"] = percentile(lat, q) * 1e3
            out["tail_percentile"] = f"p{q:g}"
            break
    cycles = sum(op["cycles"] for op in ops)
    if cycles:
        out["sim_cycles_per_s"] = cycles / sum(lat)
    return out


def end_to_end(setups: List[float], setup_calibration: float,
               run) -> dict:
    """Every end-to-end figure of one untraced run: scaled ``value``,
    host ``raw`` value, ``unit`` and sample count ``n``.

    ``setups`` are the set-ups' wall seconds and ``setup_calibration``
    the host's calibration (ms) around them.
    """
    ops = run["ops"]
    n_ops = len(ops)
    raw, scaled = timings(ops, False), timings(ops, True)
    failed = sum(1 for op in ops if op["problems"]) / n_ops
    setup = statistics.median(setups)
    out = {
        "setup_s": {"value": setup * NOMINAL_CALIBRATION_MS
                    / setup_calibration, "raw": setup, "unit": "s",
                    "n": len(setups)},
        "failed_ratio": {"value": failed, "raw": failed, "unit": "ratio",
                         "n": n_ops},
        "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0,
                        "raw": run["peak_rss_kb"] / 1024.0, "unit": "MB",
                        "n": 1},
    }
    units = {"points_per_s": ("1/s", len({op["pass"] for op in ops})),
             "op_p50_ms": ("ms", n_ops), "op_tail_ms": ("ms", n_ops),
             "sim_cycles_per_s": ("1/s", n_ops)}
    for name, (unit, n) in units.items():
        if name in raw:
            out[name] = {"value": scaled[name], "raw": raw[name],
                         "unit": unit, "n": n}
    if "op_tail_ms" in out:
        out["op_tail_ms"]["percentile"] = raw["tail_percentile"]
    return out


def per_layer(untraced, traced) -> dict:
    layers = dict(traced["layers"])
    ops = traced["ops"]
    layers["cache.entries_at_start"] = statistics.mean(
        op.get("entries_at_start", 0) for op in ops)
    layers.setdefault("cache.put_full_ms", 0.0)
    busy = sum(b for b, _, _ in untraced["sweeps"])
    capacity = sum(w * j for _, w, j in untraced["sweeps"])
    layers["sweep.parallel_efficiency"] = busy / capacity if capacity \
        else 0.0
    layers["bench.tracing_overhead_ratio"] = (
        timings(traced["ops"], True)["points_per_s"]
        / timings(untraced["ops"], True)["points_per_s"])
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            root: pathlib.Path, setups: int = SETUPS,
            pins: Optional[str] = None) -> dict:
    """Set up, measure and compose one run; raises :class:`ChildFailed`."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = root / ".perfbench_work"
    workdir = base / f"{workload}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    common = ["--workload", workload, "--seed", str(seed),
              "--workdir", str(workdir)]
    try:
        setup_times: List[float] = []
        calibration: List[float] = []
        for _ in range(setups):
            shutil.rmtree(workdir / "template", ignore_errors=True)
            calibration += host_calibration()
            setup_times.append(_run_child(["--phase", "setup", *common],
                                          root, deadline))
        stem = results / f"{workload}-seed{seed}-{os.getpid()}"
        runs = {}
        for traced in ((False, True) if trace else (False,)):
            out = stem.with_suffix(".traced.json" if traced else ".json")
            argv = ["--phase", "measure", *common, "--seconds",
                    str(seconds), "--out", str(out)]
            if traced:
                argv.append("--traced")
            if pins:
                argv += ["--pins", pins]
            _run_child(argv, root, deadline)
            runs[traced] = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": workload, "seconds": seconds,
              "context": runs[False]["context"],
              "end_to_end": end_to_end(setup_times,
                                       statistics.median(calibration),
                                       runs[False]),
              "problems": sorted({p for run in runs.values()
                                  for op in run["ops"]
                                  for p in op["problems"]})}
    all_ops = [op for run in runs.values() for op in run["ops"]]
    report["attempted"] = len(all_ops)
    report["failed"] = sum(1 for op in all_ops if op["problems"])
    if trace:
        report["per_layer"] = per_layer(runs[False], runs[True])
        report["traced_ops"] = len(runs[True]["ops"])
        report["spans_file"] = runs[True]["spans_file"]
    stem.with_suffix(".report.json").write_text(json.dumps(report, indent=1))
    return report


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    """The final result object, exactly the metrics ``BENCHMARK.json``
    names for this mode."""
    if trace:
        metrics = {m["name"]: {"value": report["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report["end_to_end"][m["name"]]
                               ["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def print_report(report: dict, spec: dict) -> None:
    ctx = report["context"]
    print(f"perfbench {report['workload']}: seed={ctx['seed']} "
          f"jobs={ctx['jobs']} usable_cpus={ctx['usable_cpus']} "
          f"python={ctx['python']} start_method={ctx['start_method']} "
          f"git_rev={ctx['git_rev']} seconds={report['seconds']} "
          f"calibration_ms={ctx['calibration_ms']:.3f} "
          f"(n={ctx['calibration_samples']}, "
          f"nominal {NOMINAL_CALIBRATION_MS})")
    print("end to end (untraced):")
    e2e = report["end_to_end"]
    for name in ("setup_s", "points_per_s", "op_p50_ms", "op_tail_ms",
                 "sim_cycles_per_s", "failed_ratio", "peak_rss_mb"):
        if name not in e2e:
            print(f"  {name:<18} {'n/a':>14}")
            continue
        fig = e2e[name]
        extra = f" {fig['percentile']}" if "percentile" in fig else ""
        print(f"  {name:<18} {fig['value']:>14.6g} {fig['unit']:<6} "
              f"n={fig['n']}{extra}  raw={fig['raw']:.6g}")
    if "per_layer" in report:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per layer (traced, n={report['traced_ops']} ops):")
        for name in sorted(report["per_layer"]):
            print(f"  {name:<30} {report['per_layer'][name]:>14.6g} "
                  f"{units.get(name, '')}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


# ----------------------------------------------------------------------
# maintenance modes
# ----------------------------------------------------------------------
def write_pins(root: pathlib.Path) -> None:
    """Regenerate ``pins.json`` from serial references at the default
    seed (run only after a change that is meant to alter results)."""
    _import_program(root)
    seed = workload_ops.DEFAULT_SEED
    pins = {"seed": seed}
    for cls in (workload_ops.SweepCold, workload_ops.SweepReuse):
        extra = {"template": ""} if cls is workload_ops.SweepReuse else {}
        pins[cls.name] = cls(seed, str(root / ".perfbench_work"), jobs=1,
                             pins={}, **extra).references()
    workload_ops.PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {workload_ops.PINS_FILE}")


def _expect(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def self_test(root: pathlib.Path, spec: dict) -> None:
    """Every workload for a few ops: every named metric is emitted with
    its unit, outputs pass, and a wrong pinned digest fails ops."""
    seed = workload_ops.DEFAULT_SEED
    for workload in workload_ops.WORKLOADS:
        report = measure(workload, seed, 1.0, True, root=root, setups=1)
        print_report(report, spec)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = result_line(report, spec, trace)
            for metric in spec[key]:
                got = line["metrics"].get(metric["name"], {})
                _expect(got.get("unit") == metric["unit"]
                        and isinstance(got.get("value"), (int, float)),
                        f"{workload}: {metric['name']} -> {got}")
            _expect(line["correct"], report["problems"])
        _expect(report["end_to_end"]["failed_ratio"]["value"] == 0.0,
                f"{workload}: failed ops")
    pins = workload_ops.load_pins()
    space = workload_ops.COLD_SPACES[0][0]
    pins["sweep_cold"][space] = "0" * 64
    wrong = root / ".perfbench_work" / "wrong-pins.json"
    wrong.write_text(json.dumps(pins))
    report = measure("sweep_cold", seed, 1.0, False, root=root, setups=1,
                     pins=str(wrong))
    wrong.unlink()
    _expect(report["end_to_end"]["failed_ratio"]["value"] > 0,
            "a wrong pinned digest did not fail any op")
    print("self-test passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_ops.WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=workload_ops.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    # internal: child phases
    parser.add_argument("--phase", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=pathlib.Path,
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=pathlib.Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pins", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase == "setup":
        phase_setup(args)
        return 0
    if args.phase == "measure":
        phase_measure(args)
        return 0

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.write_pins:
        write_pins(root)
        return 0
    if args.self_test:
        self_test(root, spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), root=root)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(report, spec)
    print(json.dumps({"detail": report}))
    print(json.dumps(result_line(report, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
