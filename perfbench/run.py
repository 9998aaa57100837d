"""One benchmark for the CaPI loop: ``refine``, ``world8`` and ``serve``.

Run from the repository root::

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0

Each invocation sets the workload up ``setup_reps`` times (the median is
``setup_s``), measures it untraced for ``--seconds`` and checks every
output.  Times are reported at reference speed (see ``calibrate.py``);
``refine`` and ``serve`` run pinned to one CPU.  ``--trace 1`` then
installs span wrappers around each layer's public entry points, sets up
once more and replays the same operations traced, and reports the
per-layer metrics instead of the end-to-end ones.  The last line of standard output is the JSON result; the lines
before it carry the machine stamp, the workload's provenance and
diagnostics.  The exit code is 1 when a correctness gate fails, 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("refine", "world8", "serve")
#: workloads that run in this one process; they are pinned to one CPU,
#: which their reference samples then share (``world8`` forks workers
#: that need both)
PINNED = ("refine", "serve")
#: reference kernel runs just before and just after each set-up
SETUP_SAMPLE_RUNS = 3
#: end-to-end metrics (untraced pass) and their units
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs (see provenance.json); skips the expected-output file",
    )
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its threads on its lowest allowed CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def set_up(module, params: dict, reps: int,
           calibrator) -> tuple[dict, list[float], list[float]]:
    """Set the workload up ``reps`` times; keep the last state.  Returns
    the state, each set-up's seconds and its factor to reference speed,
    from the reference samples just before and just after it (a set-up
    is single-threaded Python, like the kernel)."""
    state, times, scales = None, [], []
    for _ in range(reps):
        if state is not None:
            module.teardown(state)
        state = None
        gc.collect()
        before = calibrator.sample(SETUP_SAMPLE_RUNS)
        start = time.perf_counter()
        state = module.setup(params)
        times.append(time.perf_counter() - start)
        scales.append(calibrator.pair(before, calibrator.sample(SETUP_SAMPLE_RUNS)))
    gc.collect()
    return state, times, scales


def traced_pass(module, params: dict, args, untraced: dict, workdir: Path,
                cache: dict) -> tuple[dict, list[str], dict]:
    """Set up and replay the untraced pass's operations with spans on."""
    import layers
    import spans

    recorder = spans.SpanRecorder()
    recorder.worker_dir = workdir / "spans"
    recorder.worker_dir.mkdir(parents=True, exist_ok=True)
    spans.install(recorder)
    gc.collect()
    recorder.enabled = True
    state = module.setup(params)
    recorder.enabled = False
    setup_tables = recorder.snapshot()["spans"]
    recorder.clear()
    module.warm_up(state, params, args.seed, workdir=workdir, cache=cache)
    gc.collect()
    recorder.enabled = True
    try:
        traced = module.run(
            state, params, args.seed, seconds=args.seconds, ops=untraced["ops"],
            workdir=workdir, recorder=recorder,
        )
    finally:
        recorder.enabled = False
    local = recorder.snapshot()
    workers = recorder.collect_workers()
    spans.merge_tables(local["spans"], local["counters"], workers["spans"], workers["counters"])
    problems = module.check(
        state, params, traced, smoke=args.smoke, cache=cache, seed=args.seed,
        workdir=workdir,
    )
    module.teardown(state)
    metrics = layers.layer_metrics(
        setup=setup_tables,
        spans=local["spans"],
        counters=local["counters"],
        roots_s=local["roots"],
        ops=traced["ops"],
        untraced_wall_s=untraced["wall_s"],
        traced_wall_s=traced["wall_s"],
        processes=params.get("processes", 1),
        extras=module.layer_extras(traced, traced["ops"]),
    )
    return traced, problems, {
        name: {"value": value, "unit": layers.UNITS[name]} for name, value in metrics.items()
    }


def stop_children() -> None:
    """Wait for every worker process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common
    from calibrate import Calibrator

    stamp = common.stamp()
    if args.workload in PINNED:
        stamp["pinned_cpu"] = pin_to_one_cpu()
    module = importlib.import_module(args.workload)
    params = common.workload_params(args.workload, args.smoke)
    provenance = common.PROVENANCE["workloads"][args.workload]
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cache: dict = {}
    try:
        calibrator = Calibrator(common.PROVENANCE["calibration"]["nominal_s"])
        state, setup_times, setup_scales = set_up(
            module, params, common.PROVENANCE["setup_reps"], calibrator
        )
        module.warm_up(state, params, args.seed, workdir=workdir, cache=cache)
        untraced = module.run(state, params, args.seed, seconds=args.seconds,
                              workdir=workdir, calibrator=calibrator)
        # before the gates: their reference evaluators are not the program's
        peak_rss_mb = common.peak_rss_mb()
        scale = calibrator.scale()
        summary = module.summarize(untraced, scale)
        summary["diagnostics"]["host_speed"] = scale
        summary["diagnostics"]["reference_ms"] = common.timing(calibrator.samples, 1000.0)
        problems = module.check(state, params, untraced, smoke=args.smoke, cache=cache,
                                seed=args.seed, workdir=workdir)
        module.teardown(state)
        del state
        attempted, failed = untraced["attempted"], untraced["failed"]
        if args.trace:
            traced, traced_problems, metrics = traced_pass(
                module, params, args, untraced, workdir, cache
            )
            problems += traced_problems
            attempted += traced["attempted"]
            failed += traced["failed"]
        else:
            e2e = {
                "setup_s": common.median(
                    [t * f for t, f in zip(setup_times, setup_scales)]
                ),
                "peak_rss_mb": peak_rss_mb,
                "throughput_per_s": summary["throughput_per_s"],
                "latency_p50_ms": summary["latency_p50_ms"],
            }
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in e2e.items()
            }
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(json.dumps({"stamp": stamp, "workload": args.workload, "seed": args.seed,
                      "params": params, "loop": provenance["loop"]}))
    print(json.dumps({"setup_s_each": setup_times, "untraced_ops": untraced["ops"],
                      "diagnostics": summary["diagnostics"]}, default=str))
    for problem in problems:
        print(f"perfbench: GATE FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
