"""Deterministic, seeded fault injection for the profiling pipeline.

The harness models the failures a production profiler rides through
when attached to a real GPU application:

- **allocation failures** mid-workload (``cudaMalloc`` returning
  ``cudaErrorMemoryAllocation``);
- **bit corruption** on memcpy destinations (flaky links, bad DIMMs);
- **dropped and torn access-record buffers** (the measurement buffer
  overflowing or a flush being cut short);
- **kernels raising mid-launch** (device-side assert / sticky error);
- **torn ``.vetrace`` writes** (the recording process dying mid-frame);
- **timing perturbation** (kernel/memcpy latency multipliers and
  seeded jitter — a thermally throttled card or congested link; values
  are untouched, so pattern hits stay byte-identical);
- **service-scope faults** consulted by the continuous-profiling
  daemon rather than the pipeline: hung/slow/crashing worker
  processes and torn write-ahead-log tails (see ``docs/service.md``).

A :class:`FaultPlan` is a frozen, *seeded* description of which faults
fire and how often; a :class:`FaultInjector` executes the plan with a
private :class:`numpy.random.Generator`, so the same plan over the same
workload injects the exact same fault sequence — chaos runs are
reproducible and shrinkable.  The injector keeps a ground-truth log of
everything it fired, which the facade folds into the run's
:class:`~repro.resilience.health.HealthReport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import FaultInjected, InvalidValueError, OutOfMemoryError


class FaultKind(enum.Enum):
    """The fault classes the harness can inject."""

    ALLOC_FAILURE = "alloc_failure"
    CORRUPTION = "corruption"
    DROPPED_RECORDS = "dropped_records"
    TORN_RECORDS = "torn_records"
    KERNEL_RAISE = "kernel_raise"
    TRACE_TEAR = "trace_tear"
    LATENCY = "latency"
    HUNG_WORKER = "hung_worker"
    SLOW_WORKER = "slow_worker"
    WORKER_CRASH = "worker_crash"
    TORN_WAL = "torn_wal"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of the faults to inject.

    All rates are per-opportunity probabilities in ``[0, 1]``: one draw
    per ``malloc`` (allocation failure), per memcpy (corruption), per
    instrumented launch (record drops/tears), per launch (kernel raise).
    ``trace_tear_after`` tears the ``.vetrace`` being recorded once,
    after that many events have been written (``None`` never tears).

    The default plan is empty: a run under ``FaultPlan()`` is
    byte-identical to one with no plan at all.
    """

    seed: int = 0
    alloc_failure_rate: float = 0.0
    corruption_rate: float = 0.0
    record_drop_rate: float = 0.0
    record_tear_rate: float = 0.0
    kernel_raise_rate: float = 0.0
    trace_tear_after: Optional[int] = None
    #: Timing faults: multiply the modelled kernel / memcpy time by a
    #: constant factor and add seeded, bounded jitter (``±fraction``).
    #: Values never change — under a pure timing plan the pattern hits
    #: stay byte-identical; only makespans move.
    kernel_latency_multiplier: float = 1.0
    memcpy_latency_multiplier: float = 1.0
    timing_jitter: float = 0.0
    #: Service-scope faults, consulted by the daemon's worker entry and
    #: WAL writer instead of the profiling pipeline.  One draw per job
    #: *attempt* (seeded by ``(seed, attempt)``), so a retried job sees
    #: an independent — but reproducible — draw each time it runs.
    hung_worker_rate: float = 0.0
    slow_worker_rate: float = 0.0
    slow_worker_delay_s: float = 1.0
    worker_crash_rate: float = 0.0
    #: Tear the service's job WAL once, after this many appended
    #: entries (``None`` never tears) — simulating a daemon dying
    #: mid-write, the crash the recovery path must salvage.
    torn_wal_after: Optional[int] = None
    #: Where the plan applies: ``"record"`` (live runs, the default),
    #: ``"replay"`` (the :class:`~repro.trace_io.replayer.TraceReplayer`
    #: mangles the recorded record stream as it re-emits launches),
    #: ``"both"``, or ``"service"`` (only the daemon-level faults above
    #: fire; the pipeline never sees the plan).
    scope: str = "record"

    SCOPES = ("record", "replay", "both", "service")

    def __post_init__(self) -> None:
        if self.scope not in self.SCOPES:
            raise InvalidValueError(
                f"scope must be one of {self.SCOPES}, got {self.scope!r}"
            )
        for name in (
            "alloc_failure_rate",
            "corruption_rate",
            "record_drop_rate",
            "record_tear_rate",
            "kernel_raise_rate",
            "hung_worker_rate",
            "slow_worker_rate",
            "worker_crash_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InvalidValueError(
                    f"{name} must be a probability in [0, 1], got {rate}"
                )
        if self.trace_tear_after is not None and self.trace_tear_after < 0:
            raise InvalidValueError("trace_tear_after must be >= 0 or None")
        if self.torn_wal_after is not None and self.torn_wal_after < 0:
            raise InvalidValueError("torn_wal_after must be >= 0 or None")
        for name in ("kernel_latency_multiplier", "memcpy_latency_multiplier"):
            if getattr(self, name) <= 0.0:
                raise InvalidValueError(f"{name} must be > 0")
        if not 0.0 <= self.timing_jitter < 1.0:
            raise InvalidValueError(
                f"timing_jitter must be a fraction in [0, 1), "
                f"got {self.timing_jitter}"
            )
        if self.slow_worker_delay_s < 0.0:
            raise InvalidValueError("slow_worker_delay_s must be >= 0")

    @property
    def applies_to_record(self) -> bool:
        """Whether live (recording-side) runs should inject this plan."""
        return self.scope in ("record", "both")

    @property
    def applies_to_replay(self) -> bool:
        """Whether trace replays should inject this plan."""
        return self.scope in ("replay", "both")

    @property
    def has_timing_faults(self) -> bool:
        """Whether the plan perturbs the timing model at all."""
        return (
            self.kernel_latency_multiplier != 1.0
            or self.memcpy_latency_multiplier != 1.0
            or self.timing_jitter != 0.0
        )

    @property
    def has_service_faults(self) -> bool:
        """Whether any daemon-level (worker/WAL) fault can fire."""
        return (
            self.hung_worker_rate > 0.0
            or self.slow_worker_rate > 0.0
            or self.worker_crash_rate > 0.0
            or self.torn_wal_after is not None
        )

    @property
    def has_pipeline_faults(self) -> bool:
        """Whether the profiling pipeline itself can see a fault."""
        return (
            self.alloc_failure_rate > 0.0
            or self.corruption_rate > 0.0
            or self.record_drop_rate > 0.0
            or self.record_tear_rate > 0.0
            or self.kernel_raise_rate > 0.0
            or self.trace_tear_after is not None
            or self.has_timing_faults
        )

    @property
    def is_empty(self) -> bool:
        """Whether this plan can never fire a fault."""
        return not (self.has_pipeline_faults or self.has_service_faults)

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (explicitly fault-free)."""
        return cls()

    @classmethod
    def chaos(cls, seed: int, scope: str = "record") -> "FaultPlan":
        """A randomized-but-deterministic plan derived from ``seed``.

        The chaos CLI and the property suite use this: every fault
        class gets a seed-derived rate, so a seed matrix sweeps the
        fault space reproducibly.
        """
        rng = np.random.default_rng(seed)
        # Draw order is append-only: the original fault rates consume
        # the same draws as before, so a given seed keeps its historic
        # plan; timing faults ride on draws added strictly after them.
        plan = dict(
            alloc_failure_rate=float(rng.uniform(0.0, 0.05)),
            corruption_rate=float(rng.uniform(0.0, 0.3)),
            record_drop_rate=float(rng.uniform(0.0, 0.4)),
            record_tear_rate=float(rng.uniform(0.0, 0.4)),
            kernel_raise_rate=float(rng.uniform(0.0, 0.25)),
            trace_tear_after=(
                int(rng.integers(2, 40)) if rng.random() < 0.5 else None
            ),
        )
        if rng.random() < 0.5:
            plan["kernel_latency_multiplier"] = float(rng.uniform(0.5, 3.0))
        if rng.random() < 0.5:
            plan["memcpy_latency_multiplier"] = float(rng.uniform(0.5, 3.0))
        if rng.random() < 0.5:
            plan["timing_jitter"] = float(rng.uniform(0.0, 0.2))
        return cls(seed=seed, scope=scope, **plan)

    def to_dict(self) -> Dict:
        """JSON-ready description (for the chaos CLI's report)."""
        return {
            "seed": self.seed,
            "alloc_failure_rate": self.alloc_failure_rate,
            "corruption_rate": self.corruption_rate,
            "record_drop_rate": self.record_drop_rate,
            "record_tear_rate": self.record_tear_rate,
            "kernel_raise_rate": self.kernel_raise_rate,
            "trace_tear_after": self.trace_tear_after,
            "kernel_latency_multiplier": self.kernel_latency_multiplier,
            "memcpy_latency_multiplier": self.memcpy_latency_multiplier,
            "timing_jitter": self.timing_jitter,
            "hung_worker_rate": self.hung_worker_rate,
            "slow_worker_rate": self.slow_worker_rate,
            "slow_worker_delay_s": self.slow_worker_delay_s,
            "worker_crash_rate": self.worker_crash_rate,
            "torn_wal_after": self.torn_wal_after,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (unknown keys rejected).

        The service's job specs carry fault plans as plain JSON; this
        is where they rehydrate — with the same validation a directly
        constructed plan gets.
        """
        if not isinstance(data, dict):
            raise InvalidValueError("fault plan must be a JSON object")
        known = set(cls().to_dict())
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidValueError(
                f"unknown fault plan fields {unknown}; known: {sorted(known)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidValueError(f"malformed fault plan: {exc}") from None

    def active_fields(self) -> List[str]:
        """Names of the fault fields that differ from "never fires".

        The shrinker's unit of work: each active field is one fault
        class it tries to zero out.
        """
        defaults = FaultPlan(
            seed=self.seed, scope=self.scope,
            slow_worker_delay_s=self.slow_worker_delay_s,
        )
        return [
            name
            for name, value in self.to_dict().items()
            if name not in ("seed", "scope", "slow_worker_delay_s")
            and value != getattr(defaults, name)
        ]


class FaultInjector:
    """Executes a :class:`FaultPlan` against the runtime and trace layer.

    The runtime consults the injector at each interception point; every
    fired fault is counted in :attr:`counts` and logged in
    :attr:`events` — the ground truth the health report is checked
    against by the property suite.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        # Timing jitter draws from a *separate* seeded stream so adding
        # timing faults to a plan never shifts the fault sequence the
        # main stream produces for the same seed.
        self._timing_rng = np.random.default_rng([plan.seed, 0x71E])
        self.counts: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self.events: List[str] = []
        self._trace_torn = False
        self._wal_torn = False

    @property
    def total_injected(self) -> int:
        """Total faults fired so far, across all kinds."""
        return sum(self.counts.values())

    def _fire(self, kind: FaultKind, detail: str) -> None:
        self.counts[kind] += 1
        self.events.append(f"{kind.value}: {detail}")

    # -- runtime hooks ------------------------------------------------------

    def on_malloc(self, nbytes: int, label: str = "") -> None:
        """Maybe fail an allocation; raises :class:`OutOfMemoryError`."""
        if (
            self.plan.alloc_failure_rate
            and self._rng.random() < self.plan.alloc_failure_rate
        ):
            self._fire(
                FaultKind.ALLOC_FAILURE,
                f"{nbytes} bytes for {label or 'anonymous object'}",
            )
            raise OutOfMemoryError(
                f"injected allocation failure ({nbytes} bytes)"
            )

    def on_kernel_enter(self, kernel_name: str) -> None:
        """Maybe make a kernel raise; raises :class:`FaultInjected`."""
        if (
            self.plan.kernel_raise_rate
            and self._rng.random() < self.plan.kernel_raise_rate
        ):
            self._fire(FaultKind.KERNEL_RAISE, f"kernel {kernel_name!r}")
            raise FaultInjected(
                f"injected device-side failure in kernel {kernel_name!r}"
            )

    def maybe_corrupt(self, alloc=None, host=None) -> None:
        """Maybe flip bits in a memcpy destination (device or host)."""
        if not self.plan.corruption_rate:
            return
        if self._rng.random() >= self.plan.corruption_rate:
            return
        if alloc is not None:
            data = alloc.read_all()
            raw = data.view(np.uint8)
            target = alloc.label
        elif host is not None:
            data = host.data
            if not isinstance(data, np.ndarray):
                return
            # Flip in C order: through a view of a C-contiguous array,
            # else in a C-order copy written back below.
            if not data.flags.c_contiguous:
                data = data.copy()
            raw = data.reshape(-1).view(np.uint8)
            target = host.label
        else:
            return
        if raw.size == 0:
            return
        nflips = 1 + int(self._rng.integers(0, 8))
        positions = self._rng.integers(0, raw.size, size=nflips)
        bits = self._rng.integers(0, 8, size=nflips)
        raw[positions] ^= (np.uint8(1) << bits.astype(np.uint8))
        if alloc is not None:
            alloc.write_all(data)
        elif data is not host.data:
            host.data[...] = data
        self._fire(
            FaultKind.CORRUPTION, f"{nflips} bit flip(s) in {target!r}"
        )

    def mangle_records(self, event) -> None:
        """Maybe drop a suffix of a launch's records and/or tear the
        last surviving record (parallel vectors cut, thread/block ids
        left stale — exactly what a cut-short buffer flush looks like).
        """
        records = event.records
        if not records:
            return
        if (
            self.plan.record_drop_rate
            and self._rng.random() < self.plan.record_drop_rate
        ):
            keep = int(self._rng.integers(0, len(records)))
            dropped = records[keep:]
            records = records[:keep]
            event.records = records
            naccesses = sum(r.count for r in dropped)
            event.dropped_records += naccesses
            self._fire(
                FaultKind.DROPPED_RECORDS,
                f"{len(dropped)} record(s) / {naccesses} accesses "
                f"from {event.kernel.name!r}",
            )
        if (
            records
            and self.plan.record_tear_rate
            and self._rng.random() < self.plan.record_tear_rate
        ):
            last = records[-1]
            if last.count > 1:
                cut = int(self._rng.integers(1, last.count))
                records[-1] = type(last)(
                    pc=last.pc,
                    kind=last.kind,
                    addresses=last.addresses[:cut],
                    values=last.values[:cut],
                    dtype=last.dtype,
                    kernel_name=last.kernel_name,
                    thread_ids=last.thread_ids,
                    block_ids=last.block_ids,
                )
                self._fire(
                    FaultKind.TORN_RECORDS,
                    f"record cut to {cut}/{last.count} accesses "
                    f"in {event.kernel.name!r}",
                )

    # -- timing hooks --------------------------------------------------------

    def _perturb_time(self, seconds: float, multiplier: float) -> float:
        """Apply one timing fault draw; counted but not event-logged
        (a perturbation per launch would drown the degradation log)."""
        perturbed = seconds * multiplier
        if self.plan.timing_jitter:
            jitter = self.plan.timing_jitter
            perturbed *= 1.0 + float(
                self._timing_rng.uniform(-jitter, jitter)
            )
        self.counts[FaultKind.LATENCY] += 1
        return max(perturbed, 0.0)

    def perturb_kernel_time(self, seconds: float) -> float:
        """Kernel-launch time under the plan's latency faults."""
        if not self.plan.has_timing_faults:
            return seconds
        return self._perturb_time(
            seconds, self.plan.kernel_latency_multiplier
        )

    def perturb_memcpy_time(self, seconds: float) -> float:
        """Memcpy/memset time under the plan's latency faults."""
        if not self.plan.has_timing_faults:
            return seconds
        return self._perturb_time(
            seconds, self.plan.memcpy_latency_multiplier
        )

    # -- trace-layer hooks ---------------------------------------------------

    def take_trace_tear(self, events_written: int) -> bool:
        """Whether to tear the trace now (fires at most once)."""
        if self._trace_torn or self.plan.trace_tear_after is None:
            return False
        if events_written < self.plan.trace_tear_after:
            return False
        self._trace_torn = True
        self._fire(
            FaultKind.TRACE_TEAR, f"after {events_written} events"
        )
        return True

    # -- service-layer hooks -------------------------------------------------

    def take_wal_tear(self, entries_written: int) -> bool:
        """Whether to tear the job WAL now (fires at most once)."""
        if self._wal_torn or self.plan.torn_wal_after is None:
            return False
        if entries_written < self.plan.torn_wal_after:
            return False
        self._wal_torn = True
        self._fire(FaultKind.TORN_WAL, f"after {entries_written} entries")
        return True


def draw_service_fault(
    plan: FaultPlan, attempt: int
) -> Optional[FaultKind]:
    """The service fault (if any) this job attempt should suffer.

    One deterministic draw per ``(plan.seed, attempt)``: the worker
    entry point calls this before running the job, so a retried attempt
    rolls fresh — but reproducible — dice.  Precedence when several
    rates fire on the same draw sequence: hang > crash > slow (a hung
    worker is the costliest failure, so it wins ties).
    """
    if not plan.has_service_faults:
        return None
    rng = np.random.default_rng([plan.seed, max(attempt, 0)])
    if plan.hung_worker_rate and rng.random() < plan.hung_worker_rate:
        return FaultKind.HUNG_WORKER
    if plan.worker_crash_rate and rng.random() < plan.worker_crash_rate:
        return FaultKind.WORKER_CRASH
    if plan.slow_worker_rate and rng.random() < plan.slow_worker_rate:
        return FaultKind.SLOW_WORKER
    return None
