"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload few-large-steps --seed 1 \\
        --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` is the separate traced run: it alternates an
untraced and a traced execution of each timed unit with the same inputs,
checks that tracing changes no output, and reports the per-layer
metrics, the tracing overhead and the time no layer accounts for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count, and the run's
environment.  The same document, with the failures and per-sample data,
is written to ``.perfbench_out/``; a traced run also writes its spans
there as ``.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("few-large-steps", "many-small-steps", "service-sweep")

#: Set-ups per run; the first in this process, the rest in fresh
#: interpreters so that import time is measured every time.
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "replica_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "jobs_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from tracing import CLIENT_OPS, DYNAMICS, ENGINES, STORE_OPS

    units: dict[str, str] = {}
    for dyn in DYNAMICS:
        units[f"core.step_s.{dyn}"] = "s"
        units[f"core.step_calls.{dyn}"] = "count"
        units[f"core.draw_s.{dyn}"] = "s"
        units[f"core.law_s.{dyn}"] = "s"
    units["core.majority_winners_s"] = "s"
    units["core.consensus_check_s"] = "s"
    units["core.consensus_check_calls"] = "count"
    for dyn in ("3-majority", "2-choices"):
        units[f"core.async_nonnull_tick_ratio.{dyn}"] = "ratio"
    for engine in ENGINES:
        units[f"engine.run_s.{engine}"] = "s"
        units[f"engine.steps.{engine}"] = "count"
        units[f"engine.self_s.{engine}"] = "s"
        units[f"engine.self_us_per_step.{engine}"] = "us"
        units[f"engine.active_row_ratio.{engine}"] = "ratio"
    units["adversary.corrupt_s"] = "s"
    units["adversary.contract_s"] = "s"
    units["simulation.spec_build_s"] = "s"
    units["simulation.dispatch_s"] = "s"
    units["graphs.build_s"] = "s"
    units["backends.degraded_kernels"] = "count"
    for op in CLIENT_OPS:
        units[f"service.client_request_s.{op}"] = "s"
    units["service.polls_per_job"] = "ratio"
    for op in STORE_OPS:
        units[f"service.store_s.{op}"] = "s"
        units[f"service.store_calls.{op}"] = "count"
    units["service.store_busy_errors"] = "count"
    units["service.queue_wait_ms_p50"] = "ms"
    units["service.job_exec_s"] = "s"
    units["sweep.run_s"] = "s"
    units["sweep.points_measured"] = "count"
    units["sweep.points_cached"] = "count"
    units["sweep.cache_hit_ratio"] = "ratio"
    units["sweep.self_s"] = "s"
    units["provenance.stamp_s"] = "s"
    units["provenance.stamps"] = "count"
    units["provenance.chain_length_start"] = "count"
    units["provenance.chain_length_end"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def make_workload(name: str, seed: int):
    from workloads import (
        FEW_LARGE_STEPS,
        MANY_SMALL_STEPS,
        ServiceWorkload,
        SpecWorkload,
    )

    if name == "few-large-steps":
        return SpecWorkload(FEW_LARGE_STEPS, seed)
    if name == "many-small-steps":
        return SpecWorkload(MANY_SMALL_STEPS, seed)
    TMP.mkdir(exist_ok=True)
    return ServiceWorkload(seed, TMP)


def timed_setup(workload) -> float:
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def setup_sample(args) -> int:
    """Child mode: one set-up in a fresh interpreter, then tear down."""
    workload = make_workload(args.workload, args.seed)
    try:
        elapsed = timed_setup(workload)
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def setup_in_child(args) -> float:
    completed = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-sample",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


# -- timed loops -----------------------------------------------------------


def run_passes(workload, seconds: float, tracer=None):
    """Whole passes over the workload's inputs for about ``seconds``.

    Runs at least one pass, and ends at the pass boundary nearest to
    ``seconds``: a pass starts only if half of the previous pass's
    time still fits.  Returns ``(untraced, traced, units)``: the
    executions as ``(input, Execution)`` pairs and, when tracing, the
    traced units for :func:`tracing.layer_metrics`.  A traced run
    executes every unit twice with the same inputs, untraced first.
    """
    from tracing import IDLE

    untraced, traced, units = [], [], []
    started = time.perf_counter()
    pass_index = 0
    last_pass = 0.0
    while not untraced or (
        time.perf_counter() - started + last_pass / 2 < seconds
    ):
        pass_started = time.perf_counter()
        for index in range(workload.inputs):
            untraced.append((index, workload.execute(index, pass_index)))
            if tracer is None:
                continue
            epoch = len(units)
            tracer.install()
            tracer.epoch = epoch
            traced.append(
                (index, workload.execute(index, pass_index, tracer))
            )
            tracer.epoch = IDLE
            tracer.uninstall()
            units.append((epoch, index, pass_index == 0))
        pass_index += 1
        last_pass = time.perf_counter() - pass_started
    return untraced, traced, units


# -- metrics ---------------------------------------------------------------


def per_pass(pairs) -> float:
    """Value of one pass from ``(input, value)`` pairs.

    Per input (a spec, or the service pass), the mean over its units;
    summed over inputs.  Units of one input vary by +-25% on a shared
    host over a few seconds, without outliers, so the mean of a run's
    4-6 passes repeats better from run to run than their median.
    """
    by_input: dict[int, list[float]] = {}
    for index, value in pairs:
        by_input.setdefault(index, []).append(value)
    return sum(statistics.fmean(values) for values in by_input.values())


def end_to_end(executions, latencies, setup_times):
    """``name -> (value, sample count)`` for the untraced metrics."""
    runs = [execution for _, execution in executions]
    busy = sum(run.elapsed for run in runs)
    operations = sum(run.operations for run in runs)
    failed = sum(min(len(run.failures), run.operations) for run in runs)
    p90 = (
        statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        if len(latencies) > 1
        else latencies[0]
    )
    return {
        "wall_s": (
            per_pass((index, run.elapsed) for index, run in executions),
            len(runs),
        ),
        "replica_rounds_per_s": (
            sum(run.rounds for run in runs) / busy, len(runs),
        ),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1,
        ),
        "success_rate": (1 - failed / operations, operations),
        "jobs_per_s": (operations / busy, len(runs)),
        "job_latency_p50_ms": (
            1e3 * statistics.median(latencies), len(latencies),
        ),
        "job_latency_p90_ms": (1e3 * p90, len(latencies)),
    }


def traced_metrics(tracer, units, untraced, traced, chain):
    """``name -> (value, sample count)`` for the traced run.

    ``chain`` holds the provenance chain lengths the benchmark counted at
    the start and end of the timed section.
    """
    from tracing import layer_metrics, root_times

    from repro.backends import degraded_kernels

    layers = layer_metrics(tracer, units)
    covered = root_times(tracer)
    unattributed = [
        (index, sum(
            part.elapsed - covered.get((epoch, part.thread), 0.0)
            for part in run.parts or [run]
        ))
        for (epoch, index, _first), (_, run) in zip(units, traced)
    ]
    layers["trace.overhead_s"] = per_pass(
        (index, run.elapsed) for index, run in traced
    ) - per_pass((index, run.elapsed) for index, run in untraced)
    layers["trace.unattributed_s"] = per_pass(unattributed)
    layers["backends.degraded_kernels"] = len(degraded_kernels())
    layers.update(chain)
    single = {
        "simulation.spec_build_s", "graphs.build_s",
        "backends.degraded_kernels", "provenance.chain_length_start",
        "provenance.chain_length_end",
    }
    return {
        name: (value, 1 if name in single else len(units))
        for name, value in layers.items()
    }


def environment(args) -> dict:
    import numpy
    import scipy

    from repro.backends import resolve_backend
    from repro.provenance import git_revision

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_revision(ROOT) or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": resolve_backend("auto").name,
    }


# -- entry point -----------------------------------------------------------


def measure(args) -> dict:
    """Run the workload; returns the result document."""
    import tracing

    workload = make_workload(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    if tracer is None:
        setup_times = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    try:
        if tracer is not None:
            tracer.install()
            tracer.epoch = tracing.SETUP
        setup_times.insert(0, timed_setup(workload))
        if tracer is not None:
            tracer.epoch = tracing.IDLE
            tracer.uninstall()
        chain = {
            "provenance.chain_length_start": 0,
            "provenance.chain_length_end": 0,
        }
        if args.workload == "service-sweep":
            workload.build_fixture(traced=tracer is not None)
            chain["provenance.chain_length_start"] = workload.chain_length()
        untraced, traced, units = run_passes(workload, args.seconds, tracer)
        if args.workload == "service-sweep":
            chain["provenance.chain_length_end"] = workload.chain_length()
    finally:
        workload.close()

    failures = [
        failure for _, run in untraced + traced for failure in run.failures
    ]
    attempted = sum(run.operations for _, run in untraced + traced)
    failed = sum(
        min(len(run.failures), run.operations)
        for _, run in untraced + traced
    )
    for (index, plain), (_, traced_run) in zip(untraced, traced):
        if plain.outputs != traced_run.outputs:
            failures.append(f"input {index}: traced outputs differ")
            failed += traced_run.operations
    if tracer is None:
        metrics = end_to_end(
            untraced, workload.latencies(untraced), setup_times
        )
        units_of = END_TO_END
    else:
        metrics = traced_metrics(tracer, units, untraced, traced, chain)
        units_of = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    if set(metrics) != set(units_of):
        raise RuntimeError(
            "metric set drifted from its declaration: "
            f"{sorted(set(metrics) ^ set(units_of))}"
        )
    return {
        "environment": environment(args),
        "executions": [
            [index, run.elapsed, run.rounds] for index, run in untraced
        ],
        "failures": failures[:50],
        "correct": not failures,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {
            name: {"value": metrics[name][0], "unit": units_of[name],
                   "samples": metrics[name][1]}
            for name in units_of
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        return setup_sample(args)

    document = measure(args)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(document, indent=1))
    for metric, entry in document["metrics"].items():
        print(
            f"{metric:<42} {entry['value']:>14.6g} {entry['unit']:<6} "
            f"n={entry['samples']}"
        )
    for failure in document["failures"]:
        print(f"# failure: {failure}")
    print("# environment " + json.dumps(document["environment"]))
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in document["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
