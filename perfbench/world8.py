"""``world8``: traced 8-rank worlds and their post-mortem, closed loop.

One job at a time: a traced ``run_app`` over eight ranks on the
supervised multiprocessing backend writes an OTF2-shaped archive, then
the post-mortem streams it back (merge, validate, wait states, critical
path, wait-state classification, watchdog scan).  Selection runs once,
in set-up.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import repro.apps as apps
import repro.trace as trace
import repro.workflow as workflow
from repro.apps import PAPER_SPECS
from repro.core.capi import Capi
from repro.experiments.runner import DEFAULT_WORKLOAD
from repro.multirank import ImbalanceSpec

from common import median, timing

#: reference kernel runs before the first job and after each job: a run
#: has only a handful of jobs, so one run each would give it few samples
JOB_SAMPLE_RUNS = 5


def setup(params: dict) -> dict:
    app = workflow.build_app(apps.build_openfoam(target_nodes=params["nodes"]))
    capi = Capi(graph=app.graph, app_name=app.name)
    ic = capi.select(PAPER_SPECS["mpi"], spec_name="mpi", linked=app.linked).ic
    return {"app": app, "ic": ic}


def teardown(state: dict) -> None:
    state.clear()


def job_seed(seed: int, index: int) -> int:
    """Imbalance seed of job ``index``: every job draws its own world.

    The draw moves a world's work by a few percent (the rank factors sum
    to 6.6-7.1 for seeds 11-15), so a run of several draws varies less
    from seed to seed than a run repeating one draw.
    """
    return seed * 1000 + index


def world(state: dict, params: dict, seed: int, trace_dir: Path, *, serial=False):
    """One traced world with imbalance seed ``seed``; ``serial`` runs it
    in-process for the gate."""
    return workflow.run_app(
        state["app"],
        ranks=params["ranks"],
        imbalance=ImbalanceSpec(imbalance=params["imbalance"], seed=seed),
        mode="ic",
        tool="scorep",
        ic=state["ic"],
        tracing=True,
        trace_dir=str(trace_dir),
        backend="serial" if serial else "supervised:mp",
        processes=None if serial else params["processes"],
        workload=DEFAULT_WORKLOAD,
    )


def post_mortem(trace_dir: Path) -> dict:
    merged = trace.open_merged_trace(trace_dir)
    return {
        "trace": merged,
        "issues": merged.validate(),
        "waits": merged.wait_states(),
        "critical_path": merged.critical_path(),
        "classified": trace.classify_wait_states(merged),
        "alerts": trace.scan_run(trace_dir),
    }


def job_problems(outcome, analysis: dict) -> list[str]:
    """Per-job gates: stream ≡ in-memory merge, clean archive, healthy ranks."""
    problems = []
    if list(analysis["trace"].events()) != outcome.merged_trace.events:
        problems.append("streamed timeline differs from outcome.merged_trace.events")
    if analysis["issues"]:
        problems.append(f"validate() reported {len(analysis['issues'])} issue(s)")
    if analysis["alerts"]:
        codes = sorted({alert.code for alert in analysis["alerts"]})
        problems.append(f"scan_run raised {len(analysis['alerts'])} alert(s): {codes}")
    for health in outcome.health.per_rank:
        if health.outcome != "ok" or health.attempts != 1:
            problems.append(
                f"rank {health.rank} finished {health.outcome!r} after "
                f"{health.attempts} attempt(s)"
            )
    if not analysis["critical_path"]:
        problems.append("critical path is empty")
    return problems


def warm_up(state: dict, params: dict, seed: int, *, workdir: Path, cache: dict,
            **_) -> None:
    """The ``backend="serial"`` world the gate compares against, and its
    post-mortem, run untimed before the jobs: the first world and
    post-mortem of a process are the slow ones (lazy imports)."""
    trace_dir = workdir / "serial"
    reference = world(state, params, job_seed(seed, 0), trace_dir, serial=True)
    post_mortem(trace_dir)
    cache.setdefault("serial", (reference.pop, reference.merged_profile))
    shutil.rmtree(trace_dir, ignore_errors=True)


def run(state: dict, params: dict, seed: int, *, seconds: float, ops=None,
        workdir: Path, calibrator=None, **_) -> dict:
    """Run jobs until ``seconds`` of job time have passed and at least
    ``params["min_jobs"]`` jobs ran, or exactly ``ops`` jobs.

    A job takes several seconds, so the floor keeps the medians from
    resting on two or three samples.  The gates that need the live
    outcome run between jobs, off the clock; so do the reference samples.
    """
    jobs, problems, errors = [], [], []
    measured = 0.0
    index = 0
    if calibrator is not None:
        calibrator.sample(JOB_SAMPLE_RUNS)
    while (ops is None and (measured < seconds or index < params["min_jobs"])) or (
        ops is not None and index < ops
    ):
        trace_dir = workdir / f"world-{index}"
        imbalance_seed = job_seed(seed, index)
        index += 1
        try:
            t0 = time.perf_counter()
            outcome = world(state, params, imbalance_seed, trace_dir)
            t1 = time.perf_counter()
            analysis = post_mortem(trace_dir)
            t2 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            errors.append(f"job {index}: {type(exc).__name__}: {exc}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            continue
        if calibrator is not None:
            calibrator.sample(JOB_SAMPLE_RUNS)
        measured += t2 - t0
        problems += job_problems(outcome, analysis)
        jobs.append(
            {
                "world_s": t1 - t0,
                "analysis_s": t2 - t1,
                "events": sum(r.trace_meta.events for r in outcome.multirank.per_rank),
                "bytes": sum(p.stat().st_size for p in trace_dir.iterdir()),
                "seed": imbalance_seed,
                "pop": outcome.pop,
                "profile": outcome.merged_profile,
            }
        )
        del outcome, analysis
        shutil.rmtree(trace_dir, ignore_errors=True)
    return {
        "ops": len(jobs) + len(errors),
        "attempted": len(jobs) + len(errors),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "wall_s": measured,
        "jobs": jobs,
    }


def check(state: dict, params: dict, result: dict, *, cache: dict, seed: int,
          **_) -> list[str]:
    """The job that drew the serial reference's world (from
    :func:`warm_up`) must equal it in POP metrics and merged profile."""
    problems = result["errors"] + result["problems"]
    pop, profile = cache["serial"]
    matched = [job for job in result["jobs"] if job["seed"] == job_seed(seed, 0)]
    if not matched:
        problems.append("no job drew the serial reference's world")
    for job in matched:
        if job["pop"] != pop:
            problems.append("POP metrics differ from the serial backend")
        if job["profile"] != profile:
            problems.append("merged profile differs from the serial backend")
    return problems


def summarize(result: dict, scale: float) -> dict:
    """Times at reference speed by the run's ``scale``, not job by job: a
    job's two rank workers use both CPUs while the kernel samples one,
    and over 29 jobs on a busy host a job's own samples followed its
    world time with correlation 0.55: scaled by them, the job-to-job
    coefficient of variation stayed at 12%."""
    jobs = result["jobs"]
    worlds = [j["world_s"] for j in jobs]
    analyses = [j["analysis_s"] for j in jobs]
    return {
        "throughput_per_s": len(jobs) / ((sum(worlds) + sum(analyses)) * scale),
        "latency_p50_ms": median(worlds) * scale * 1000.0,
        "diagnostics": {
            "world_ms": timing(worlds, 1000.0),
            "analysis_ms": timing(analyses, 1000.0),
            "analysis_ms_p50_at_reference": median(analyses) * scale * 1000.0,
            "jobs_per_s": len(jobs) / result["wall_s"],
            "events_per_world": median([j["events"] for j in jobs]),
        },
    }


def layer_extras(result: dict, ops: int) -> dict:
    jobs = result["jobs"]
    return {
        "trace.events": sum(j["events"] for j in jobs) / ops,
        "trace.bytes": sum(j["bytes"] for j in jobs) / ops,
    }
