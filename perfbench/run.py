"""airfl benchmark: closed-loop CLI workloads, output checks, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_ref --seed 1 --seconds 20 --trace 0

One caller in one process runs CLI jobs back to back through
``airfl.cli.main`` (a closed loop) for ``--seconds`` seconds, checks every
job's output files, and prints each metric with its unit followed by one
JSON line.  With ``--trace 0`` that line holds the end-to-end metrics; with
``--trace 1`` the run spends half its time untraced, then reruns the same
jobs with every layer function wrapped (see ``spans.py``) and reports
per-layer metrics, per CLI job, plus the tracing overhead.

The package is imported from ``src/`` of the checkout, never from an
installed copy.  BLAS threads are pinned before numpy loads.  Outputs, the
result records and the span files go to ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One BLAS thread: on a 2-core box two OpenBLAS threads were slower than one
# at N=32, K=16, and a single thread keeps the runs comparable.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups timed before each job of an untraced run; their median is
# reported.  A set-up takes about 50 ms, short enough to land wholly in a
# quiet or a busy spell of a shared host, so they are spread over the run
# rather than timed in one burst at its start.
SETUPS_PER_JOB = 3

# Per-layer stats read from the spans: (function, stats).  Counts and times
# are per CLI job of the traced pass.
FUNCTION_STATS = (
    ("pam.update_t", ("calls", "time_s", "ms_per_call")),
    ("pam.transmit_objective", ("calls",)),
    ("linalg.structured_solve", ("calls", "time_s", "us_per_call")),
    ("pam.update_u", ("calls", "time_s", "self_s")),
    ("pam.penalized_objective", ("calls", "time_s")),
    ("pam.inner_pam", ("time_s", "self_s")),
    ("linalg.phase_project", ("calls", "time_s")),
    ("pam.run_pam", ("calls", "time_s", "self_s")),
    ("pam.baseline_optimize", ("calls", "time_s")),
    ("pam.update_r", ("calls", "time_s")),
    ("pam.build_workspace", ("time_s",)),
    ("pam.objective_minmax", ("calls", "time_s")),
    ("aircomp.monte_carlo_mse", ("calls", "time_s", "self_s")),
    ("aircomp.mse_bracket_terms", ("calls", "time_s")),
    ("flsim.run_experiment", ("time_s", "self_s")),
    ("flsim.transmit_batch", ("calls", "time_s")),
    ("flsim.theorem1_bound", ("calls", "time_s")),
    ("channel.sample_channels", ("calls", "time_s")),
    ("channel.sample_awgn", ("calls", "time_s")),
    ("cli.parse_config", ("time_s",)),
    ("cli.main", ("time_s", "self_s")),
)
STAT_UNITS = {"calls": "count", "time_s": "s", "self_s": "s", "ms_per_call": "ms", "us_per_call": "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np):
    """What the numbers depend on besides the code: cores, numpy, BLAS, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def fresh_import():
    """Import airfl from the checkout's ``src/``, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "airfl" or n.startswith("airfl.")]:
        del sys.modules[name]
    airfl = importlib.import_module("airfl")
    importlib.import_module("airfl.cli")
    return airfl


def timed_setup(workload, config_path, program_seed):
    """Import airfl afresh, parse the config and build the inputs; timed."""
    # Collect the previous copy's module cycles outside the timed span.
    gc.collect()
    start = time.perf_counter()
    airfl = fresh_import()
    cfg = airfl.cli.parse_config(str(config_path))
    workload.build_inputs(airfl, cfg, program_seed)
    return time.perf_counter() - start, airfl


@dataclass
class JobResult:
    index: int
    program_seed: int
    wall_s: float
    errors: list
    quality: dict | None
    output_bytes: int

    @property
    def ok(self):
        return not self.errors


def run_job(airfl, workload, config_path, seed, index):
    """One CLI call, timed, then its exit code and output files checked."""
    program_seed = workload.job_seed(seed, index)
    out_dir = WORK / workload.name / f"job{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(str(config_path), program_seed, str(out_dir))
    captured = io.StringIO()
    errors, quality = [], None
    # Collect the previous job's garbage outside the timed span.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = airfl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing job is a failed operation; keep measuring
        code = None
        errors.append(traceback.format_exc())
    wall_s = time.perf_counter() - start
    if code != 0:
        errors.append(f"exit code {code!r}")
    else:
        try:
            check_errors, quality = workload.check(out_dir, program_seed)
            errors.extend(check_errors)
        except (OSError, KeyError, IndexError, ValueError, TypeError, ArithmeticError) as exc:
            errors.append(f"output check: {exc!r}")
    output_bytes = len(captured.getvalue().encode())
    if out_dir.is_dir():
        output_bytes += sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
    for line in errors:
        print(f"job {index} (program seed {program_seed}) failed: {line}", file=sys.stderr)
    return JobResult(index, program_seed, wall_s, errors, quality, output_bytes)


def closed_loop(airfl, workload, config_path, seed, seconds, min_jobs, setups=None):
    """Run jobs back to back for about ``seconds``, and at least ``min_jobs``.

    The loop stops at the job boundary nearest to ``seconds``: it starts
    another job only if, at the median job length so far, that job would end
    less than half a job past the deadline.  A run then lasts ``seconds`` on
    average whatever the job length, which keeps the total time of many runs
    predictable.  ``min_jobs`` is at least 1.

    With a ``setups`` list, each job is preceded by ``SETUPS_PER_JOB`` timed
    set-ups, appended to it, and runs on the last set-up's fresh import.
    """
    results = []
    start = time.perf_counter()
    while len(results) < min_jobs or (
        time.perf_counter() - start + statistics.median(r.wall_s for r in results) / 2.0 < seconds
    ):
        if setups is not None:
            for _ in range(SETUPS_PER_JOB):
                elapsed, airfl = timed_setup(workload, config_path, workload.job_seed(seed, len(results)))
                setups.append(elapsed)
        results.append(run_job(airfl, workload, config_path, seed, len(results)))
    return results


def end_to_end_metrics(workload, setup_s, results):
    walls = [r.wall_s for r in results]
    reference = [r.quality for r in results[: workload.reference_jobs] if r.quality is not None]
    if len(reference) < workload.reference_jobs:
        return None, None
    objective = statistics.median(q["objective"] for q in reference)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        # Throughput of the closed loop: all work over all job time.  Unlike
        # the median, the sum weighs every second of the run equally, so it
        # averages the host's slow speed drift instead of sampling it.
        "work_per_s": (workload.work_per_job * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "objective": (objective, "1"),
    }
    # Printed under the workload's own names, not part of the JSON line.
    extra = {workload.work_name: (metrics["work_per_s"][0], f"{workload.work_unit}/s")}
    extra.update(workload.quality_lines(reference))
    return metrics, extra


def per_layer_metrics(workload, tracer, plain, traced):
    jobs = len(traced)
    totals = tracer.totals()
    metrics = {}

    def total(label, stat):
        calls, inclusive, exclusive = totals.get(label, (0, 0.0, 0.0))
        return {"calls": calls, "time_s": inclusive, "self_s": exclusive}[stat]

    def ratio(num, den):
        return num / den if den else 0.0

    for label, stats in FUNCTION_STATS:
        for stat in stats:
            if stat == "ms_per_call":
                value = 1e3 * ratio(total(label, "time_s"), total(label, "calls"))
            elif stat == "us_per_call":
                value = 1e6 * ratio(total(label, "time_s"), total(label, "calls"))
            else:
                value = total(label, stat) / jobs
            metrics[f"{label}.{stat}"] = (value, STAT_UNITS[stat])

    counts = tracer.counts
    users = workload.config["radio"]["n_users"]
    t_calls = total("pam.update_t", "calls")
    # Each update_t call evaluates K+1 seed candidates; the outer loop adds
    # one evaluation before and one after every call.
    t_evals = total("pam.transmit_objective", "calls") - (users + 3) * t_calls
    solve_s = total("pam.run_pam", "time_s") + total("pam.baseline_optimize", "time_s")
    max_z = [r.quality["max_z"] for r in traced if r.quality and "max_z" in r.quality]
    metrics.update(
        {
            "pam.t_evals_per_call": (ratio(t_evals, t_calls), "count"),
            "pam.t_improve_ratio": (ratio(counts["t_improved"], counts["t_pairs"]), "ratio"),
            "pam.outer_improve_ratio": (ratio(counts["outer_improved"], counts["outer_cycles"]), "ratio"),
            "pam.inner_merit_rises": (counts["inner_rises"] / jobs, "count"),
            "pam.update_t.solve_share": (ratio(total("pam.update_t", "time_s"), solve_s), "ratio"),
            "pam.inner_pam.solve_share": (ratio(total("pam.inner_pam", "time_s"), solve_s), "ratio"),
            "aircomp.monte_carlo_mse.wall_share": (
                ratio(total("aircomp.monte_carlo_mse", "time_s"), total("cli.main", "time_s")),
                "ratio",
            ),
            "aircomp.mc_computed_bytes": (counts["mc_bytes"] / jobs, "bytes_computed"),
            "aircomp.mc_max_z": (max(max_z, default=0.0), "sigma"),
            "cli.output_bytes": (statistics.mean(r.output_bytes for r in traced), "bytes"),
            "trace_overhead_ratio": (
                sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain),
                "ratio",
            ),
        }
    )
    return metrics


def main(argv=None):
    args = parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "airfl" / "__init__.py").is_file():
        print(f"no airfl package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import numpy as np

    from spans import Tracer

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")

    # Warm-up set-up, not counted: it may compile the bytecode cache.
    _, airfl = timed_setup(workload, config_path, workload.job_seed(args.seed, 0))
    if Path(airfl.__file__).resolve().parent != (SRC / "airfl").resolve():
        print(f"imported airfl from {airfl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    extra = {}
    if args.trace:
        plain = closed_loop(airfl, workload, config_path, args.seed, args.seconds / 2.0, 1)
        tracer = Tracer()
        traced = []
        with tracer:
            for result in plain:
                tracer.job = result.index
                traced.append(run_job(airfl, workload, config_path, args.seed, result.index))
        tracer.write(work / f"spans_seed{args.seed}.npz")
        results = plain + traced
        metrics = per_layer_metrics(workload, tracer, plain, traced)
        for label in tracer.absent:
            print(f"absent: {label} (reported as 0)")
    else:
        setups = []
        results = closed_loop(
            airfl, workload, config_path, args.seed, args.seconds, workload.reference_jobs, setups
        )
        metrics, extra = end_to_end_metrics(workload, statistics.median(setups), results)
        if metrics is None:
            print("a reference job wrote no output; the quality metric is undefined", file=sys.stderr)
            return 1

    failed = sum(not r.ok for r in results)
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  jobs {len(results)}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / len(results):.6g} ratio ({failed}/{len(results)})")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        env=env,
        jobs=[{"program_seed": r.program_seed, "wall_s": r.wall_s, "errors": r.errors} for r in results],
    )
    (work / f"result_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
