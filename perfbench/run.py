#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced quarters of ``--seconds``, prints the per-layer
metrics and the tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>.jsonl`` (the latest traced run of each
workload).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each
workload in a fresh process.  See perfbench/README.md.
"""

import os

# Thread pools must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("serve-churn", "solo-session", "paper-sweep")


def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m for m in json.load(handle)[kind]}


def _end_to_end(workload, window, rules) -> list:
    Metric = rules.Metric
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cycle = rules.fast_cycle(window.units)
    return [
        Metric("setup_s", rules.median(window.setups), "s", len(window.setups),
               float(sum(window.setups)), note=workload.setup),
        dataclasses.replace(
            cycle, name="work_per_s", value=_ratio(window.cycle_work(), cycle.value),
            unit="1/s",
            note=f"{workload.work_unit} of one cycle / summed fast times of its "
                 f"{len(window.units)} units"),
        workload.latency(window),
        Metric("peak_rss_mib", rss_mib, "MiB", 1, None, note="ru_maxrss of the process"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(tracer, base, traced, import_times, calib) -> dict:
    service = traced.service
    metrics = tracer.span_metrics()
    counts = tracer.counts
    kernel = service.get("kernel_seconds", 0.0)
    absorb = service.get("absorb_seconds", 0.0)
    build = service.get("lane_build_seconds", 0.0)
    hits = service.get("lane_cache_hits", 0)
    builds = service.get("lane_builds", 0)
    metrics.update({
        "serving.submit_many.lanes_per_call": _ratio(
            counts["serving.submit_many.lanes"], metrics["serving.submit_many.calls"]),
        "serving.submit_many.overhead_s": (
            metrics["serving.submit_many.busy_s"] - kernel - absorb - build
            if service else 0.0),
        "serving.kernel_s": kernel,
        "serving.lane_build_s": build,
        "serving.absorb_s": absorb,
        "serving.cohort_hit_ratio": _ratio(hits, hits + builds),
        "serving.lanes_per_lockstep_round": _ratio(
            service.get("lockstep_lanes", 0), service.get("lockstep_rounds", 0)),
        "serving.solo_rounds": service.get("solo_rounds", 0),
        "serving.restores": service.get("restores", 0),
        "session.snapshot.bytes_per_call": _ratio(
            counts["session.snapshot.bytes"], metrics["session.snapshot.calls"]),
        "runtime.cells_played": counts["runtime.cells_played"],
        "runtime.cells_cached": counts["runtime.cells_cached"],
        "runtime.store.save.bytes": counts["runtime.store.save.bytes"],
        "runtime.store.load.hit_ratio": _ratio(
            counts["runtime.store.load.hits"], metrics["runtime.store.load.calls"]),
        "env.calib_start_ms": calib[0],
        "env.calib_end_ms": calib[1],
        "trace.overhead_pct": 100.0 * (
            _ratio(base.work, base.work_s) / _ratio(traced.work, traced.work_s) - 1.0),
        "trace.spans": tracer.recorded,
    })
    metrics.update(import_times)
    return metrics


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rules
    import tracing
    import workloads

    declared = _declared("per_layer" if args.trace else "end_to_end")
    env = rules.environment(ROOT)
    calib_start = rules.calibration_ms()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    crashed = False
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            # Untraced and traced quarters alternate, so machine drift
            # during the run weighs on both sides of the overhead alike.
            base, window = workloads.Window(), workloads.Window()
            tracer = tracing.Tracer()
            for _ in range(2):
                base.absorb(workload.measure(args.seconds / 4, None, 1))
                tracer.install()
                try:
                    window.absorb(workload.measure(args.seconds / 4, tracer, 1))
                finally:
                    tracer.uninstall()
            attempted += base.attempted
            failed += base.failed
        else:
            window = workload.measure(args.seconds, None, rules.MIN_REPEATS)
        attempted += window.attempted
        failed += window.failed
        checked, mismatched = workload.check()
        attempted += checked
        failed += mismatched
    except Exception:
        traceback.print_exc()
        crashed = True
        attempted += 1
        failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = rules.calibration_ms()
    env["loadavg_end"] = list(os.getloadavg())
    env["calib_ms"] = [calib_start, calib_end]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    metrics = {}
    if not crashed and args.trace:
        path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(str(path))
        values = _per_layer(tracer, base, window, rules.import_times(SRC),
                            (calib_start, calib_end))
        for name, spec in declared.items():
            metrics[name] = {"value": values[name], "unit": spec["unit"]}
            print(f"  {name:<40} {values[name]:>14.6g} {spec['unit']}")
        print(f"  spans: {path.relative_to(ROOT)} ({len(tracer.kept)} of "
              f"{tracer.recorded} kept)")
    elif not crashed:
        try:
            built = _end_to_end(workload, window, rules)
            for metric in built:
                rules.check_metric(metric)
        except rules.MetricRuleError as exc:
            print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
            return 3
        for metric in built:
            metrics[metric.name] = {"value": metric.value, "unit": metric.unit}
            window_text = "" if metric.window_s is None else f", {metric.window_s:.2f} s timed"
            repeats_text = "" if metric.repeats is None else f", >={metric.repeats} per unit"
            print(f"  {metric.name:<14} {metric.value:>12.6g} {metric.unit:<4} "
                  f"({metric.note}; n={metric.samples}{repeats_text}{window_text})")
    if not crashed and set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 4
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _child_timeout(seconds: float) -> float:
    """Seconds a workload process may run: prepare, measure and check."""
    return 3 * seconds + 120


def run_all(args) -> int:
    """Each workload in a fresh process; exit non-zero if any fails."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=_child_timeout(args.seconds))
        except subprocess.TimeoutExpired as exc:
            print(f"perfbench: {name} ran past {exc.timeout:g} s and was killed",
                  file=sys.stderr)
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
        except (IndexError, json.JSONDecodeError):
            print("\n".join(lines))
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            result["correct"] = False
            result["failed"] = max(result["failed"], 1)
            result["attempted"] = max(result["attempted"], result["failed"])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
