"""Real-wall-clock campaign benchmark: one entry point.

Three ways to run it, all from the repository root:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as the benchmark driver runs it. Builds the pinned
    deployment, repeats the workload's pass until ``S`` seconds have been
    measured, checks the outputs, prints every metric by name with its
    unit, and ends with one JSON line: the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/perf/run.py [--seed N] [--out FILE]``
    Every workload, end-to-end and per-layer, plus the derived numbers;
    writes one JSON record (commit, bench-config digest, seed, host).

``python3 benchmarks/perf/run.py --check``
    Every workload at 1-2 CTIs; validates the record's schema, the metric
    names against ``BENCHMARK.json``, and the digest checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCHEMA = "snowcat-perf-bench/1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics every workload reports, with units. ``fail_share``
#: is reported beside them (and as ``failed``/``attempted`` to the
#: driver) but is not in ``BENCHMARK.json``: it is 0 on every healthy
#: run and the driver's metrics must never be 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "races_per_s": "1/s",
    "execs_per_s": "1/s",
    "cts_per_s": "1/s",
    "races_per_exec": "count",
    "cpu_s": "s",
}


def load_benchmark_json() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_fingerprint(workdir: str) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PINS},
        "journal_fs": filesystem_type(workdir),
    }


def filesystem_type(path: str) -> str:
    """Filesystem of ``path`` from the longest matching mount point."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pass_metrics(one) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass, bar ``setup_s``."""
    return {
        "wall_s": one.wall_s,
        "races_per_s": one.races / one.wall_s,
        "execs_per_s": one.executions / one.wall_s,
        "cts_per_s": (one.inferences + one.executions) / one.wall_s,
        "races_per_exec": one.races / one.executions,
        "cpu_s": one.cpu_s,
    }


def measure(bench, name: str, seconds: float, trace: bool) -> dict:
    """Repeat one workload's pass for ``seconds``; medians and checks.

    Each round is one untraced pass, then (``trace``) one traced pass
    over the same inputs, so the two kinds see the same machine noise.
    """
    from tracing import layer_table
    from workloads import WORKLOADS

    run_pass = WORKLOADS[name]
    # The fleet's output check needs the in-process campaign over the same
    # CTIs; its wall and CPU are also the base of the fleet ratios.
    reference = bench.mlpct_local(False) if name == "mlpct_fleet" else None
    plain: List = []
    traced: List = []
    # The reference pass spends the run's time budget like any other pass.
    measured = reference.wall_s if reference is not None else 0.0
    while not plain or measured < seconds:
        plain.append(run_pass(bench, False))
        measured += plain[-1].wall_s
        if trace:
            traced.append(run_pass(bench, True))
            measured += traced[-1].wall_s

    passes = plain + traced
    first = plain[0]
    problems = [text for one in passes for text in one.problems]
    if any(one.digest != first.digest for one in passes):
        problems.append("result digest differs between passes (traced or repeated)")
    if reference is not None and reference.digest != first.digest:
        problems.append("mlpct_fleet digest differs from mlpct_local's")
    for one in traced:
        spans = sum(one.tracer.self_seconds().values())
        if abs(spans - one.wall_s) > max(1e-3, 1e-3 * one.wall_s):
            problems.append(f"spans sum to {spans:.4f}s, traced wall {one.wall_s:.4f}s")
    counted = passes + ([reference] if reference is not None else [])
    attempted = sum(one.operations for one in counted)
    failed = sum(one.failures for one in counted) + len(problems)

    # Every pass brings a fresh deployment up: all of them are set-up samples.
    samples = {"setup_s": [bench.build_s + one.setup_s for one in counted]}
    for one in plain:
        for metric, value in pass_metrics(one).items():
            samples.setdefault(metric, []).append(value)
    result = {
        "workload": name,
        "seed": bench.seed,
        "passes": len(plain),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "digest": first.digest,
        "counts": {
            "ctis": first.ctis,
            "executions": first.executions,
            "inferences": first.inferences,
            "races": first.races,
        },
        "end_to_end": {
            metric: statistics.median(values) for metric, values in samples.items()
        },
        "samples": samples,
    }
    if trace:
        wall = result["end_to_end"]["wall_s"]
        tables = [layer_table(one) for one in traced]
        layers = {
            metric: statistics.median(table[metric] for table in tables)
            for metric in tables[0]
        }
        layers["bench.trace_overhead_ratio"] = (
            statistics.median(one.wall_s for one in traced) / wall
        )
        if reference is not None:
            layers["fleet.speedup_vs_local"] = reference.wall_s / wall
            layers["fleet.cpu_ratio_vs_local"] = (
                result["end_to_end"]["cpu_s"] / reference.cpu_s
            )
        result["per_layer"] = layers
    return result


def print_metrics(result: dict, units: Dict[str, str], section: str) -> None:
    for metric, value in result[section].items():
        print(f"{result['workload']:13s} {metric:34s} {value:16.6f} {units[metric]}")


def driver_line(result: dict, units: Dict[str, str], section: str) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in result[section].items()
            },
        }
    )


def derived(workloads: Dict[str, dict]) -> Dict[str, float]:
    """Ungated numbers the ROADMAP asks for, from the measured workloads."""
    local = workloads["mlpct_local"]
    layers = local["per_layer"]
    return {
        "mlpct_over_pct.races_per_s": local["end_to_end"]["races_per_s"]
        / workloads["pct_sc"]["end_to_end"]["races_per_s"],
        # Host cost of one dynamic execution over one PIC prediction; the
        # paper reports about 190.
        "exec_over_predict_cost": layers["execution.ms_per_run"]
        * 1e3
        / layers["ml.pic.us_per_graph"],
    }


def validate(record: dict, layer_units: Dict[str, str]) -> List[str]:
    """Schema, metric-name and agreement-with-BENCHMARK.json checks."""
    from workloads import WORKLOADS

    declared = load_benchmark_json()
    problems = []

    def names(section: str) -> List[str]:
        return [entry["name"] for entry in declared[section]]

    if names("workloads") != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    if names("end_to_end") != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from the benchmark's")
    if names("per_layer") != list(layer_units):
        problems.append("BENCHMARK.json per_layer differs from the benchmark's")
    for section, units in (("end_to_end", END_TO_END), ("per_layer", layer_units)):
        for entry in declared[section]:
            if units.get(entry["name"]) != entry["unit"]:
                problems.append(f"unit of {entry['name']} differs from BENCHMARK.json")
    for key in ("schema", "commit", "config_digest", "seed", "host", "workloads", "derived"):
        if key not in record:
            problems.append(f"record lacks {key!r}")
    for name, result in record.get("workloads", {}).items():
        if list(result["end_to_end"]) != list(END_TO_END):
            problems.append(f"{name}: end-to-end metrics incomplete")
        if list(result["per_layer"]) != list(layer_units):
            problems.append(f"{name}: per-layer metrics incomplete")
        for metric in (name, *result["end_to_end"], *result["per_layer"]):
            if not NAME.match(metric):
                problems.append(f"bad metric or workload name {metric!r}")
        problems.extend(f"{name}: {text}" for text in result["problems"])
        if result["fail_share"] != 0:
            problems.append(f"{name}: fail_share is {result['fail_share']}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="seconds to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="fast self-check")
    parser.add_argument("--out", help="where the full run writes its record")
    args = parser.parse_args(argv)

    # One BLAS thread, set before NumPy loads; forked fleet workers and the
    # forked server inherit it. Unpinned, a 2-worker fleet on 2 cores was
    # measured 4-5x slower than one process: scheduler noise, not the code.
    for name in BLAS_PINS:
        os.environ[name] = "1"
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    try:
        from tracing import LAYER_METRICS
        from workloads import CHECK, FULL, WORKLOADS, Bench
    except ImportError as error:
        print(f"error: cannot import the repro package from src/: {error}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_benchmark_json()["run_seconds"])

    scratch = os.path.join(REPO, ".bench_build", "perf")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Anything the program creates through tempfile stays in the checkout.
    tempfile.tempdir = workdir
    try:
        bench = Bench(CHECK if args.check else FULL, workdir, args.seed)
        print(f"deployment built in {bench.build_s:.2f} s (config {bench.config.digest()[:12]})")

        if args.workload is not None:
            result = measure(bench, args.workload, seconds, bool(args.trace))
            section, units = (
                ("per_layer", LAYER_METRICS) if args.trace else ("end_to_end", END_TO_END)
            )
            print_metrics(result, units, section)
            print(f"{args.workload:13s} {'fail_share':34s} {result['fail_share']:16.6f} ratio")
            for text in result["problems"]:
                print(f"check failed: {text}", file=sys.stderr)
            print(driver_line(result, units, section))
            return 0 if result["correct"] else 1

        record = {
            "schema": SCHEMA,
            "commit": git_commit(),
            "config_digest": bench.config.digest(),
            "seed": args.seed,
            "seconds": seconds,
            "host": host_fingerprint(workdir),
            "workloads": {},
        }
        for name in WORKLOADS:
            # Untraced and traced passes alternate, each kind measured for
            # ``seconds`` (one round in --check).
            result = measure(bench, name, 0 if args.check else 2 * seconds, True)
            record["workloads"][name] = result
            print_metrics(result, END_TO_END, "end_to_end")
            print(f"{name:13s} {'fail_share':34s} {result['fail_share']:16.6f} ratio")
            print_metrics(result, LAYER_METRICS, "per_layer")
        record["derived"] = derived(record["workloads"])
        for metric, value in record["derived"].items():
            print(f"{'derived':13s} {metric:34s} {value:16.6f} ratio")

        problems = validate(record, LAYER_METRICS)
        for text in problems:
            print(f"check failed: {text}", file=sys.stderr)
        out = args.out or os.path.join(scratch, "record.json")
        if args.out or not args.check:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"record written to {out}")
        if args.check and not problems:
            print("check ok")
        return 1 if problems else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
