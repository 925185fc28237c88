"""Worker-process side of the pool: execute one job, ship the result.

Each job runs in its own process (``spawn`` by default — safe to start
from the daemon's threaded parent), so a crashing or leaking job can
never take the service down.  The worker runs the re-entrant
:class:`~repro.tool.valueexpert.ValueExpert` facade with a **private**
registry and tracer; the resulting :class:`~repro.service.jobs.
JobResult` carries them back over a pipe for the service to fold into
its scrape output.

The profile JSON the worker writes is byte-identical to what a direct
``ValueExpert(ToolConfig()).profile(...)`` / ``profile_from_trace``
call produces for the same inputs — telemetry never perturbs analysis,
which is what makes the service's results trustworthy drop-ins for the
one-shot tool's.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from typing import Dict, Optional

from repro.errors import DegradedProfileWarning, ServiceError
from repro.gpu.timing import A100, RTX_2080_TI
from repro.obs import MetricsRegistry, SpanTracer
from repro.resilience import FaultKind, FaultPlan, draw_service_fault
from repro.service.jobs import JobResult, JobSpec
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload

_PLATFORMS = {"2080ti": RTX_2080_TI, "a100": A100}


def _platform(name: str):
    try:
        return _PLATFORMS[name]
    except KeyError:
        raise ServiceError(
            f"unknown platform {name!r}; known: {sorted(_PLATFORMS)}"
        ) from None


def build_config(spec: JobSpec) -> ToolConfig:
    """The ToolConfig a job spec resolves to (observability always on).

    An explicit ``spec.faults`` plan reaches the pipeline only when it
    actually carries pipeline faults and is not service-scoped —
    service-scope plans (hung/slow/crashing workers, torn WAL) act on
    the fleet layer, not on the profiling run itself.
    """
    fault_plan: Optional[FaultPlan] = None
    if spec.chaos_seed is not None:
        fault_plan = FaultPlan.chaos(spec.chaos_seed)
    else:
        plan = spec.fault_plan()
        if (
            plan is not None
            and plan.has_pipeline_faults
            and plan.scope != "service"
        ):
            fault_plan = plan
    return ToolConfig(
        observability=True, fault_plan=fault_plan, **spec.options
    )


def inject_service_fault(spec: JobSpec, attempt: int) -> None:
    """Act out the service-scope fault this attempt drew, if any.

    Deterministic per ``(plan.seed, attempt)`` — a retried attempt rolls
    fresh but reproducible dice, so a chaos job that hangs on attempt 1
    can succeed on attempt 2 under the same seed, every run.

    - ``hung_worker``: ignore SIGTERM and sleep forever — only the
      pool's SIGKILL escalation can reclaim the slot;
    - ``worker_crash``: hard-exit before reporting, like a segfault;
    - ``slow_worker``: stall for ``slow_worker_delay_s`` before working
      (trips tight deadlines; merely pads generous ones).
    """
    plan = spec.fault_plan()
    if plan is None or not plan.has_service_faults:
        return
    fault = draw_service_fault(plan, attempt)
    if fault is None:
        return
    if fault is FaultKind.HUNG_WORKER:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        while True:
            time.sleep(3600)
    elif fault is FaultKind.WORKER_CRASH:
        os._exit(17)
    elif fault is FaultKind.SLOW_WORKER:
        time.sleep(plan.slow_worker_delay_s)


def execute_job(
    job_id: str, spec_dict: Dict, artifact_dir: str, attempt: int = 1
) -> JobResult:
    """Run one job to completion; returns its result (raises on error)."""
    spec = JobSpec.from_dict(spec_dict)
    inject_service_fault(spec, attempt)
    config = build_config(spec)
    registry = MetricsRegistry()
    tracer = SpanTracer(label=f"{job_id}: {spec.display_name}")
    tool = ValueExpert(config, registry=registry, tracer=tracer)
    began = time.perf_counter()
    trace_path: Optional[str] = None
    with warnings.catch_warnings():
        # Degradation is reported through the job's HealthReport; a
        # warning on a detached worker's stderr would reach nobody.
        warnings.simplefilter("ignore", DegradedProfileWarning)
        if spec.workload:
            workload = get_workload(spec.workload)(scale=spec.scale)
            if spec.record:
                trace_path = os.path.join(artifact_dir, f"{job_id}.vetrace")
            profile = tool.profile(
                workload.run_baseline,
                platform=_platform(spec.platform),
                name=workload.name,
                record_path=trace_path,
            )
        else:
            profile = tool.profile_from_trace(spec.trace, shards=spec.shards)
    elapsed = time.perf_counter() - began
    profile_path = os.path.join(artifact_dir, f"{job_id}.profile.json")
    with open(profile_path, "w") as handle:
        handle.write(profile.to_json())
        handle.write("\n")
    pattern_counts = {
        pattern.value: len(profile.hits_by_pattern(pattern))
        for pattern in profile.patterns_found()
    }
    return JobResult(
        summary=profile.summary(),
        profile_path=profile_path,
        trace_path=trace_path,
        pattern_counts=pattern_counts,
        health=None if profile.health is None else profile.health.to_dict(),
        metrics=registry,
        spans=tracer.spans,
        self_seconds=tracer.root_time_s(),
        elapsed_s=elapsed,
    )


def worker_entry(
    conn,
    job_id: str,
    spec_dict: Dict,
    artifact_dir: str,
    attempt: int = 1,
) -> None:
    """Process entry point: run the job, send ("ok", result) or
    ("error", detail) over the pipe.  A hard crash sends nothing — the
    pool notices the silent exit and fails the job with the exit code."""
    try:
        result = execute_job(job_id, spec_dict, artifact_dir, attempt)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 — isolate *everything*
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
