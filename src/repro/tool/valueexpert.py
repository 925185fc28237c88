"""The ValueExpert facade — the library's main entry point.

Usage::

    from repro import ValueExpert, ToolConfig
    from repro.gpu import GpuRuntime, RTX_2080_TI

    tool = ValueExpert(ToolConfig())
    profile = tool.profile(my_workload, platform=RTX_2080_TI)
    print(profile.summary())

``my_workload`` is either a callable taking a
:class:`~repro.gpu.runtime.GpuRuntime`, or any object with ``run(rt)``
(the :class:`~repro.workloads.base.Workload` protocol).  The facade
runs it through the analysis pipeline (:mod:`repro.analysis.pipeline`):
collector -> online analyzer during the run, then the offline analyzer
(type slicing, source annotation) postmortem.

Profiling can also run from a recording instead of a live workload:
``profile(..., record_path=...)`` writes a ``.vetrace`` of the run as a
side effect, and :meth:`ValueExpert.profile_from_trace` produces a
profile from such a file without executing any workload code (see
``docs/trace.md``).
"""

from __future__ import annotations

import contextlib
import time
import warnings
from typing import Callable, List, Optional, Tuple, Union

import repro.obs as telemetry
from repro.obs import MetricsRegistry, SpanTracer
from repro.analysis.pipeline import analyze, finish_offline
from repro.analysis.profile import ValueProfile
from repro.analysis.sharding import (
    PREFIX_COST_RATIO,
    ShardResult,
    merge_shard_results,
    plan_shards,
    replay_range,
    run_shards_parallel,
)
from repro.collector.collector import DataCollector
from repro.errors import (
    AnalysisError,
    DegradedProfileWarning,
    TraceError,
    WorkloadError,
)
from repro.gpu.runtime import GpuRuntime
from repro.gpu.timing import Platform, RTX_2080_TI
from repro.resilience import FaultInjector, FaultKind, HealthReport
from repro.tool.config import ToolConfig
from repro.trace_io import TraceRecorder, TraceReplayer


class ValueExpert:
    """Profiles a workload and returns a :class:`ValueProfile`.

    The facade is **re-entrant**: pass a private ``registry`` and/or
    ``tracer`` and every telemetry point of the run lands in them (via
    a thread-local :class:`repro.obs.scoped` scope) instead of the
    module-global instruments, so concurrent profiling jobs — the
    continuous-profiling service runs many at once — share no mutable
    module state.  Without them, observability-enabled runs keep the
    historical behaviour of recording to ``repro.obs.registry()``.
    """

    def __init__(
        self,
        config: Optional[ToolConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.config = config or ToolConfig()
        #: Per-instance telemetry instruments (None = module globals).
        self.obs_registry = registry
        self.obs_tracer = tracer
        # The three ``last_*`` fields describe the most recent completed
        # profile call together; each call replaces all of them.
        #: Collector of the most recent run (counters, registry); None
        #: after a replay that fanned out to worker processes.
        self.last_collector: Optional[DataCollector] = None
        #: Runtime of the most recent run (modelled times); None after
        #: a replay.
        self.last_runtime: Optional[GpuRuntime] = None
        #: Per-shard results of the most recent run if it was a replay
        #: that fanned out (timings, event ranges) — the scaling
        #: benchmark reads these.
        self.last_shard_results: Optional[List[ShardResult]] = None

    def _observed(self):
        """Context manager activating this run's telemetry routing.

        With per-instance instruments the run executes inside a
        ``telemetry.scoped`` block (re-entrant path); otherwise the
        legacy global enable/disable dance applies.
        """
        if not self.config.observability:
            return contextlib.nullcontext()
        if self.obs_registry is not None or self.obs_tracer is not None:
            if self.obs_registry is None:
                self.obs_registry = MetricsRegistry()
            if self.obs_tracer is None:
                self.obs_tracer = SpanTracer()
            return telemetry.scoped(self.obs_registry, self.obs_tracer)
        return self._observed_global()

    @staticmethod
    @contextlib.contextmanager
    def _observed_global():
        self_observe = not telemetry.ENABLED
        if self_observe:
            telemetry.enable()
        try:
            yield
        finally:
            if self_observe:
                telemetry.disable()

    def profile(
        self,
        workload: Union[Callable[[GpuRuntime], None], object],
        runtime: Optional[GpuRuntime] = None,
        platform: Platform = RTX_2080_TI,
        name: str = "",
        record_path: Optional[str] = None,
    ) -> ValueProfile:
        """Run ``workload`` under full instrumentation and analyze it.

        With ``record_path`` the run is additionally recorded to a
        ``.vetrace`` file; replaying it through an identically
        configured tool (:meth:`profile_from_trace`) reproduces this
        profile without re-running the workload.

        With ``config.observability`` the run is self-profiled: pipeline
        metrics and nested stage spans land in this instance's
        ``obs_registry``/``obs_tracer`` when given, else in the global
        :mod:`repro.obs` registry/tracer (telemetry is switched back off
        afterwards unless it was already on; recorded data persists
        until ``repro.obs.reset()``).
        """
        with self._observed():
            runtime = runtime or GpuRuntime(platform=platform)
            plan = self.config.fault_plan
            health = injector = None
            if self.config.resilience_active:
                health = HealthReport()
                runtime.resilient = True
                if plan is not None and plan.applies_to_record:
                    injector = runtime.fault_injector = FaultInjector(plan)
            workload_name = (
                name
                or getattr(workload, "name", "")
                or _callable_name(workload)
            )
            recorder = None
            if record_path is not None:
                # "follow" mode: the recorder never votes for
                # instrumentation, so recording leaves the profiled run
                # byte-identical.
                recorder = TraceRecorder(
                    record_path,
                    header={
                        "workload": workload_name,
                        "platform": runtime.platform.name,
                    },
                    instrument="follow",
                    fault_injector=injector,
                )

            def drive(_collector) -> None:
                if recorder is not None:
                    recorder.attach(runtime)
                try:
                    self._run(workload, runtime)
                finally:
                    if telemetry.ENABLED:
                        telemetry.counter(
                            "repro_tool_profiles_total",
                            "Profiling runs executed by the ValueExpert "
                            "facade.",
                        ).inc()
                    if recorder is not None:
                        recorder.detach()
                        recorder.close()
                    if injector is not None:
                        runtime.fault_injector = None

            profile, collector, _ = analyze(
                self.config,
                runtime,
                drive,
                workload=workload_name,
                platform=runtime.platform.name,
                health=health,
            )
            if health is not None and recorder is not None and recorder.torn:
                health.torn_trace = True
                health.note(
                    f"trace recording {record_path!r} torn mid-write "
                    f"(footer never patched)"
                )
            self._finish_health(profile, health, injector)
        self.last_collector, self.last_runtime, self.last_shard_results = (
            collector, runtime, None
        )
        return profile

    def profile_from_trace(
        self,
        trace_path: str,
        name: str = "",
        shards: int = 1,
        events: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ValueProfile:
        """Produce a profile by replaying a recorded ``.vetrace`` file.

        The same collector/analyzer stack used by :meth:`profile`
        subscribes to a :class:`~repro.trace_io.TraceReplayer` instead
        of a live runtime, so ``config`` (coarse/fine, sampling, kernel
        filters) applies to the replay exactly as it would to a live
        run — narrowing the recording, never widening it.

        ``events=(start, stop)`` analyzes only that event range
        (``stop=None`` means the end of the recording; the default is
        the whole recording).  The range is exact: events before
        ``start`` replay passively to rebuild the state the full run
        had at ``start``, so the range's hits are the full replay's
        hits for its events.

        ``shards > 1`` partitions the range into that many contiguous
        ranges and analyzes them in parallel worker processes, merging
        the per-range flow graphs and hits into one profile whose
        pattern hits and graph are identical to the single range's
        (counters are per-range sums and may differ from a single
        range's).  Sharding is refused
        (:class:`~repro.errors.AnalysisError`) for configurations whose
        analysis is inherently sequential-stateful: a memory budget
        (the degradation ladder) or a replay-scoped fault plan.  A range
        too small to split, or (resilient runs only) a failed fan-out,
        runs in this process instead.
        """
        start, stop = events or (0, None)
        if start < 0 or (stop is not None and stop < start):
            raise TraceError(f"invalid replay event range [{start}, {stop})")
        if shards > 1:
            self._check_shardable()
        with self._observed():
            health = HealthReport() if self.config.resilience_active else None
            plan = self.config.fault_plan
            injector = (
                FaultInjector(plan)
                if plan is not None and plan.applies_to_replay
                else None
            )
            collector = None
            with TraceReplayer(
                trace_path,
                salvage=health is not None,
                health=health,
                fault_injector=injector,
            ) as replayer:
                merged = (
                    self._replay_sharded(replayer, start, stop, shards, health)
                    if shards > 1
                    else None
                )
                if merged is None:
                    result, collector = replay_range(
                        replayer, self.config, 0, start, stop, health, name
                    )
                    merged = merge_shard_results([result]), None
                profile, results = merged
                profile.workload_name = name or replayer.header.get("workload", "")
                profile.platform_name = replayer.header.get("platform", "")
                # Each range resolved its own untyped groups; annotation
                # uses the footer's kernel table for line maps (a
                # superset of any run's launched roster).
                finish_offline(
                    self.config,
                    profile,
                    kernels=replayer.kernels.values(),
                    health=health,
                )
            self._finish_health(profile, health, injector)
        self.last_collector, self.last_runtime, self.last_shard_results = (
            collector, None, results
        )
        return profile

    def _check_shardable(self) -> None:
        """Refuse configurations whose analysis cannot shard exactly."""
        if self.config.memory_budget_bytes is not None:
            raise AnalysisError(
                "sharded replay cannot honor memory_budget_bytes: the "
                "degradation ladder's decisions depend on the whole run's "
                "history; replay serially instead"
            )
        if (
            self.config.fault_plan is not None
            and self.config.fault_plan.applies_to_replay
        ):
            raise AnalysisError(
                "sharded replay cannot apply a replay-scoped fault plan: "
                "injected record mangling is not reproducible across "
                "worker prefixes; replay serially instead"
            )

    def _replay_sharded(
        self,
        replayer: TraceReplayer,
        start: int,
        stop: Optional[int],
        shards: int,
        health: Optional[HealthReport],
    ) -> Optional[Tuple[ValueProfile, List[ShardResult]]]:
        """Analyze ``[start, stop)`` in worker processes and merge them.

        Returns None when the range should run in this process instead:
        it is too small to split, or (resilient runs only) the fan-out
        failed.
        """
        # Weigh frames by decoded size: v2 zlib/delta encoding makes
        # on-disk bytes a poor proxy for replay cost.  Every range pays
        # for the same [0, start) prefix, which leaves the split as the
        # planner's cost model would make it.
        weights = [nbytes for _, _, nbytes in replayer.frame_index(decoded=True)]
        ranges = [
            (start + a, start + b)
            for a, b in plan_shards(
                weights[start:stop], shards, prefix_cost=PREFIX_COST_RATIO
            )
        ]
        if len(ranges) <= 1:
            return None
        # The last range runs to the caller's stop, not to the end of
        # the frame index: the index ends at the first damaged frame,
        # and the worker must read that frame to report the damage.
        ranges[-1] = (ranges[-1][0], stop)
        span = (
            telemetry.tracer().begin(
                "tool.replay_sharded", shards=len(ranges)
            )
            if telemetry.ENABLED
            else None
        )
        try:
            results = run_shards_parallel(
                replayer.path, ranges, self.config, salvage=replayer.salvage
            )
        except Exception as exc:
            if span is not None:
                span.end()
            if health is None:
                raise
            health.note(
                f"sharded replay failed ({type(exc).__name__}: {exc}); "
                f"falling back to an in-process replay"
            )
            return None
        merge_started = time.perf_counter()
        profile = merge_shard_results(results)
        merge_elapsed = time.perf_counter() - merge_started
        if span is not None:
            span.end()
            telemetry.counter(
                "repro_tool_sharded_replays_total",
                "Sharded trace replays executed by the facade.",
            ).inc()
            telemetry.gauge(
                "repro_tool_shard_count",
                "Shards used by the most recent sharded replay.",
            ).set(len(results))
            telemetry.histogram(
                "repro_tool_shard_merge_seconds",
                "Wall time merging per-shard results into one profile.",
            ).observe(merge_elapsed)
            telemetry.gauge(
                "repro_tool_shard_critical_path_seconds",
                "Slowest worker of the most recent sharded replay.",
            ).set(max(result.elapsed_s for result in results))
        return profile, results

    @staticmethod
    def _finish_health(
        profile: ValueProfile,
        health: Optional[HealthReport],
        injector: Optional[FaultInjector],
    ) -> None:
        """Fold the injector's ground truth into the health report,
        attach it to the profile, and make any degradation loud (a
        :class:`DegradedProfileWarning` plus obs gauges) while keeping
        it invisible in the exit path — nothing raises."""
        if health is None:
            return
        if injector is not None:
            health.faults_injected = injector.total_injected
            health.alloc_failures = injector.counts[FaultKind.ALLOC_FAILURE]
            health.corrupted_copies = injector.counts[FaultKind.CORRUPTION]
            for line in injector.events:
                health.note(f"injected {line}")
        profile.health = health
        if telemetry.ENABLED:
            telemetry.gauge(
                "repro_resilience_faults_injected",
                "Faults fired by the injection harness in the last run.",
            ).set(health.faults_injected)
            telemetry.gauge(
                "repro_resilience_degraded",
                "1 when the last profile completed degraded, else 0.",
            ).set(0 if health.pristine else 1)
            # Per-dimension degradation gauges so chaos runs show up on
            # a scrape endpoint, not just in the report object.
            telemetry.gauge(
                "repro_resilience_quarantined_launches",
                "Kernel launches quarantined in the last run.",
            ).set(health.quarantined_launches)
            telemetry.gauge(
                "repro_resilience_salvaged_frames",
                "Events salvaged from a truncated recording in the last run.",
            ).set(health.salvaged_events)
            telemetry.gauge(
                "repro_resilience_degradation_level",
                "Degradation-ladder rung of the last run (0 = full fidelity).",
            ).set(health.degradation_level)
            telemetry.gauge(
                "repro_resilience_dropped_records",
                "Access records dropped by the substrate in the last run.",
            ).set(health.dropped_records)
            telemetry.gauge(
                "repro_resilience_repaired_records",
                "Torn access records repaired in the last run.",
            ).set(health.repaired_records)
        if not health.pristine:
            warnings.warn(
                DegradedProfileWarning(
                    "profile completed degraded: "
                    + health.summary().splitlines()[0]
                ),
                stacklevel=3,
            )

    @staticmethod
    def _run(workload, runtime: GpuRuntime) -> None:
        run = getattr(workload, "run", None)
        if callable(run):
            run(runtime)
        elif callable(workload):
            workload(runtime)
        else:
            raise WorkloadError(
                f"workload must be callable or provide .run(rt); "
                f"got {type(workload).__name__}"
            )


def _callable_name(workload) -> str:
    return getattr(workload, "__name__", type(workload).__name__)
