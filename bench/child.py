"""One measured benchmark process: set up a workload, time its rounds.

``run.py`` starts this file in a fresh interpreter with the repository's
``src/`` on ``PYTHONPATH``, one process at a time.  The process

1. imports ``repro`` (timed: ``setup.import_s``);
2. profiles every app of the workload once to take its reference digest
   (``setup.reference_s``) and, for the replay workloads, records the
   traces the rounds replay (``setup.record_s``);
3. runs one warm-up round, which is not part of set-up, then as many
   timed rounds as fit in ``--seconds`` (or exactly ``--rounds``);
4. with ``--trace`` it then repeats the rounds with the program's own
   span tracer on, plus the bench-side spans of :class:`Probes`, and
   reports per-layer self-time for each traced round;

and prints one JSON object as its last line of standard output.  Every
profile any step produces is checked against the reference digest; a
mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

_IMPORT_STARTED = time.perf_counter()

import numpy  # noqa: E402

import repro.obs as telemetry  # noqa: E402
import repro.tool.valueexpert as facade  # noqa: E402
from repro.analysis.offline import OfflineAnalyzer  # noqa: E402
from repro.obs import MetricsRegistry, SpanTracer  # noqa: E402
from repro.tool import ToolConfig, ValueExpert  # noqa: E402
from repro.trace_io import TraceRecorder  # noqa: E402
from repro.trace_io.format import TraceReader  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

#: Worker processes of the sharded replay: the benchmark host has two
#: cores, and more workers than cores only adds contention.
SHARDS = 2


@dataclasses.dataclass(frozen=True)
class Spec:
    """What one benchmark workload runs in each round."""

    apps: Tuple[str, ...]
    #: "live" profiles, "record" profiles while recording a trace,
    #: "replay" and "sharded" replay the traces set-up recorded.
    mode: str
    coarse_only: bool = False
    scale: float = 0.5


#: The workloads, by the names BENCHMARK.json lists; README.md says why
#: each was chosen and which layer it stresses.
WORKLOADS: Dict[str, Spec] = {
    "live_full": Spec(
        ("darknet", "pytorch/resnet50_dp", "pytorch/deepwave"), "live"
    ),
    "coarse_pass": Spec(
        ("darknet", "rodinia/bfs", "rodinia/cfd"), "live", coarse_only=True
    ),
    "memory_api": Spec(("lammps",), "live", scale=1.0),
    "record": Spec(("darknet", "lammps"), "record"),
    "replay": Spec(("darknet", "lammps"), "replay"),
    "sharded_replay": Spec(("darknet", "lammps"), "sharded"),
}

#: Per-layer metric -> span whose summed self-time it reports (ms).
SELF_SPANS = {
    "collector.sweep_ms": "collector.sweep",
    "collector.binder_ms": "collector.binder",
    "collector.snapshots_ms": "collector.snapshots",
    "collector.memory_api_ms": "collector.memory_api",
    "collector.launch_ms": "collector.launch",
    "collector.fine_ms": "collector.fine",
    "analyzer.fine_ms": "analyzer.fine",
    "analyzer.coarse_ms": "analyzer.coarse",
    "analyzer.memory_api_ms": "analyzer.memory_api",
    "analyzer.duplicates_ms": "analyzer.duplicates",
    "analyzer.launch_ms": "analyzer.launch",
    "flowgraph.record_ms": "flowgraph.record",
    "runtime.kernel_ms": "runtime.kernel",
    "runtime.dispatch_ms": "runtime.dispatch",
    "offline.resolve_types_ms": "offline.resolve_types",
    "offline.annotate_ms": "offline.annotate",
}

#: Per-layer metric -> bench-side span whose summed duration it reports.
BENCH_SPANS = {
    "offline.ms": "bench.offline",
    "trace_io.encode_ms": "bench.encode",
    "trace_io.frame_index_ms": "bench.frame_index",
    "sharding.plan_ms": "bench.plan",
    "sharding.fanout_ms": "bench.fanout",
    "sharding.merge_ms": "bench.merge",
}

#: Per-layer metric -> CollectionCounters field, summed over a round.
COUNTERS = {
    "collector.recorded_accesses": "recorded_accesses",
    "collector.compacted_intervals": "compacted_intervals",
    "collector.merged_intervals": "merged_intervals",
    "collector.snapshot_bytes": "snapshot_bytes",
    "collector.snapshot_copies": "snapshot_copies",
    "collector.interval_sweeps": "interval_sweeps",
    "collector.binder_rebuilds": "binder_rebuilds",
}


def digest(profile) -> str:
    """sha256 of the profile's JSON form without its counters.

    Counters legitimately differ between a serial and a sharded run;
    hits, graph and objects must not.
    """
    data = profile.to_dict()
    data.pop("counters", None)
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def now() -> float:
    """System-wide monotonic clock, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Probes:
    """Bench-side spans around public calls the program has no span for.

    Installed only in the traced phase; every wrapper passes straight
    through while telemetry is off, so sharded workers (which switch it
    off) and untraced rounds are unaffected.  Spans land on the current
    scope's tracer, the same private tracer the program's spans use.
    ``TraceReader.events()`` is a generator, which a span cannot
    bracket, so the time spent inside it is summed in :attr:`decode_s`.
    """

    SPANS = (
        (OfflineAnalyzer, "analyze_untyped", "bench.offline"),
        (OfflineAnalyzer, "annotate", "bench.offline"),
        (TraceRecorder, "on_api_end", "bench.encode"),
        (TraceRecorder, "close", "bench.encode"),
        (TraceReader, "frame_index", "bench.frame_index"),
        (facade, "plan_shards", "bench.plan"),
        (facade, "run_shards_parallel", "bench.fanout"),
        (facade, "merge_shard_results", "bench.merge"),
    )

    def __init__(self):
        #: Seconds spent inside ``TraceReader.events()`` generators.
        self.decode_s = 0.0
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch the wrapped calls in place (undo with :meth:`remove`)."""
        for owner, name, span_name in self.SPANS:
            self._patch(owner, name, _spanned(getattr(owner, name), span_name))
        events = TraceReader.events

        def timed_events(reader):
            inner = events(reader)
            return self._timed(inner) if telemetry.ENABLED else inner

        self._patch(TraceReader, "events", timed_events)

    def remove(self) -> None:
        """Restore every patched attribute."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _timed(self, inner):
        while True:
            started = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                self.decode_s += time.perf_counter() - started
                return
            self.decode_s += time.perf_counter() - started
            yield item


def _spanned(original, span_name: str):
    """``original`` inside a span of the current tracer while tracing."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not telemetry.ENABLED:
            return original(*args, **kwargs)
        with telemetry.span(span_name):
            return original(*args, **kwargs)

    return wrapper


class Bench:
    """Runs one workload's rounds and checks every profile they produce."""

    def __init__(self, spec: Spec, seed: int, scale: float, workdir: str):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.config = (
            ToolConfig.coarse_only() if spec.coarse_only else ToolConfig()
        )
        self.traces = {
            app: os.path.join(workdir, f"{index}.vetrace")
            for index, app in enumerate(spec.apps)
        }
        self.references: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    # -- operations ---------------------------------------------------------

    def _workload(self, app: str):
        return get_workload(app)(scale=self.scale, seed=self.seed)

    def _run_op(self, app: str, tool: ValueExpert, mode: str):
        """Run one operation on one app; returns (profile, seconds, trace bytes)."""
        trace = self.traces[app]
        workload = self._workload(app) if mode in ("live", "record") else None
        started = time.perf_counter()
        if mode == "live":
            profile = tool.profile(workload)
        elif mode == "record":
            profile = tool.profile(workload, record_path=trace)
        elif mode == "replay":
            profile = tool.profile_from_trace(trace)
        else:
            profile = tool.profile_from_trace(trace, shards=SHARDS)
        elapsed = time.perf_counter() - started
        nbytes = os.path.getsize(trace) if mode != "live" else 0
        return profile, elapsed, nbytes

    def check(self, app: str, profile) -> None:
        """Count one checked operation; a digest mismatch fails it."""
        self.attempted += 1
        if digest(profile) != self.references[app]:
            self.failed += 1
            self.errors.append(f"{app}: profile digest differs from reference")

    def op(self, app: str, tool: ValueExpert, mode: Optional[str] = None):
        """Run and check one operation; ``None`` if it raised."""
        try:
            profile, elapsed, nbytes = self._run_op(
                app, tool, mode or self.spec.mode
            )
        except Exception as exc:  # every failure is counted, none stops the run
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{app}: {type(exc).__name__}: {exc}")
            return None
        self.check(app, profile)
        return profile, elapsed, nbytes

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> Dict[str, float]:
        """Take each app's reference digest from a first live profile.

        The replay workloads record the traces their rounds read in that
        same profile.  Recording leaves a profile unchanged (the
        ``record`` workload checks it against a live one), so the
        recorded profile serves as their reference.
        """
        record = self.spec.mode in ("replay", "sharded")
        started = time.perf_counter()
        for app in self.spec.apps:
            profile = ValueExpert(self.config).profile(
                self._workload(app),
                record_path=self.traces[app] if record else None,
            )
            self.references[app] = digest(profile)
        elapsed = time.perf_counter() - started
        if record:
            return {"reference_s": 0.0, "record_s": elapsed}
        return {"reference_s": elapsed, "record_s": 0.0}

    # -- rounds -------------------------------------------------------------

    def round(self, probes: Optional[Probes] = None) -> dict:
        """Run every app once; traced when ``probes`` is given."""
        gc.collect()
        tracer = SpanTracer() if probes is not None else None
        if probes is not None:
            probes.decode_s = 0.0
        totals: Dict[str, float] = defaultdict(float)
        shard_elapsed: List[List[float]] = []
        for app in self.spec.apps:
            if tracer is not None:
                config = dataclasses.replace(self.config, observability=True)
                tool = ValueExpert(config, registry=MetricsRegistry(), tracer=tracer)
            else:
                tool = ValueExpert(self.config)
            result = self.op(app, tool)
            if result is None:
                continue
            profile, elapsed, nbytes = result
            totals["wall_s"] += elapsed
            totals["trace_bytes"] += nbytes
            totals["hits"] += len(profile.hits)
            for field, value in vars(profile.counters).items():
                totals[field] += value
            if tool.last_shard_results:
                shard_elapsed.append([r.elapsed_s for r in tool.last_shard_results])
        sample = {
            "wall_s": totals["wall_s"],
            "accesses": totals["recorded_accesses"],
        }
        if probes is not None:
            sample["layers"] = layer_metrics(
                tracer, probes.decode_s, shard_elapsed, totals
            )
        return sample

    def rounds(self, seconds: float, count: Optional[int], probes=None):
        """Timed rounds: exactly ``count``, else as many as fit in ``seconds``."""
        samples = []
        started = time.perf_counter()
        while count is None or len(samples) < count:
            samples.append(self.round(probes))
            spent = time.perf_counter() - started
            if count is None and spent * (len(samples) + 1) / len(samples) > seconds:
                break
        return samples

    def final_replay_check(self) -> None:
        """Replay the last recorded traces once, untimed, and check them."""
        for app in self.spec.apps:
            self.op(app, ValueExpert(self.config), mode="replay")


def layer_metrics(tracer, decode_s, shard_elapsed, totals) -> dict:
    """Per-layer metrics of one traced round (see README.md)."""
    self_ms: Dict[str, float] = defaultdict(float)
    dur_ms: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        self_ms[span.name] += span.self_us / 1e3
        dur_ms[span.name] += span.dur_us / 1e3
    metrics = {name: self_ms[span] for name, span in SELF_SPANS.items()}
    metrics.update({name: dur_ms[span] for name, span in BENCH_SPANS.items()})
    metrics.update({name: totals[field] for name, field in COUNTERS.items()})
    accesses = totals["recorded_accesses"]
    metrics["collector.sweep_ns_per_access"] = ratio(
        self_ms["collector.sweep"] * 1e6, accesses
    )
    metrics["collector.snapshots_ns_per_byte"] = ratio(
        self_ms["collector.snapshots"] * 1e6, totals["snapshot_bytes"]
    )
    metrics["collector.compaction_ratio"] = ratio(
        totals["compacted_intervals"], totals["raw_intervals"]
    )
    metrics["patterns.fine_ns_per_access"] = ratio(
        self_ms["analyzer.fine"] * 1e6, accesses
    )
    metrics["patterns.hits"] = totals["hits"]
    metrics["trace_io.decode_ms"] = decode_s * 1e3
    metrics["trace_io.dispatch_ms"] = self_ms["trace.replay"] - decode_s * 1e3
    metrics["trace_io.mb_per_round"] = totals["trace_bytes"] / 1e6
    critical_ms = sum(max(e) for e in shard_elapsed) * 1e3
    metrics["sharding.critical_path_ms"] = critical_ms
    metrics["sharding.imbalance"] = ratio(
        critical_ms, sum(statistics.mean(e) for e in shard_elapsed) * 1e3
    )
    metrics["sharding.spawn_ms"] = dur_ms["bench.fanout"] - critical_ms
    metrics["obs.coverage"] = ratio(sum(self_ms.values()) / 1e3, totals["wall_s"])
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    scale = args.scale or spec.scale
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        bench = Bench(spec, args.seed, scale, workdir)
        setup = {"import_s": IMPORT_S, **bench.set_up()}
        result = {
            "ready_at": now(),
            "setup": setup,
            "scale": scale,
            "numpy": numpy.__version__,
        }
        if not args.setup_only:
            started = time.perf_counter()
            bench.round()
            setup["warmup_s"] = time.perf_counter() - started
            # Sampled after a fixed amount of work: the heap keeps growing
            # slowly over later rounds, whose number depends on the host.
            result["peak_rss_mb"] = peak_rss_mb()
            # Untraced rounds share the time with the traced ones when
            # tracing, so one run reports both and their ratio.
            seconds = args.seconds / 2 if args.trace else args.seconds
            result["rounds"] = bench.rounds(seconds, args.rounds)
            if args.trace:
                probes = Probes()
                probes.install()
                try:
                    bench.round(probes)
                    result["traced_rounds"] = bench.rounds(
                        seconds, args.rounds, probes
                    )
                finally:
                    probes.remove()
            if spec.mode == "record":
                bench.final_replay_check()
        result.update(
            attempted=bench.attempted,
            failed=bench.failed,
            errors=bench.errors[:20],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
