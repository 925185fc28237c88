"""Command-line interface: ``python -m repro <command>``.

One command tree serves the profiler (``profile``, ``record``,
``replay``, ``trace-diff``, ``workflow``, ``view``, ``list``), the
paper's tables and figures (``speedup``, ``table1`` ... ``casestudies``)
and the profiler's own introspection and daemon (``stats``, ``trace``,
``health``, ``lint``, ``serve``); ``repro <command> --help`` describes
each.  ``python -m repro.tool`` is an alias of the same tree.

Any :class:`~repro.errors.ReproError` (a bad trace file, an
out-of-memory workload, an invalid configuration) exits nonzero with a
one-line message on stderr; pass ``--debug`` (before the subcommand)
to re-raise with the full traceback instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import List, Optional

import repro.obs as telemetry
from repro.analysis.report import render_report
from repro.collector.sampling import SamplingConfig
from repro.errors import DegradedProfileWarning, ReproError, TraceError
from repro.experiments import (
    casestudies,
    figure2,
    figure3,
    figure6,
    table1,
    table3,
    table4,
    table5,
)
from repro.flowgraph.render import render_dot
from repro.gpu.timing import A100, EVALUATION_PLATFORMS, RTX_2080_TI
from repro.resilience import FaultPlan
from repro.staticlint import Severity, lint_workload
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert
from repro.workloads import get_workload, workload_names

PLATFORMS = {"2080ti": RTX_2080_TI, "a100": A100}

#: Default committed location of the lint baseline (CI diffs it).
LINT_BASELINE_PATH = "benchmarks/out/staticlint_baseline.txt"
#: Default ``--fail-on`` kinds for trace-diff.
DEFAULT_FAIL_ON = "new-redundancy"


def _write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def _write_json(path: str, payload) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


# -- profiling and recordings -------------------------------------------------


def _cmd_list(_args) -> int:
    header = f"{'name':<24}{'kind':<13}{'Table 3 kernel':<28}{'Table 1 patterns'}"
    print(header)
    print("-" * len(header))
    for name in workload_names():
        meta = get_workload(name).meta
        patterns = ", ".join(p.value for p in meta.table1_patterns)
        print(
            f"{name:<24}{meta.kind:<13}{meta.kernel_name or '-':<28}{patterns}"
        )
    return 0


def _sampled_config(args, kernel_filter) -> ToolConfig:
    """The coarse/fine and sampling switches of ``profile``/``replay``."""
    return ToolConfig(
        coarse=not args.fine_only,
        fine=not args.coarse_only,
        sampling=SamplingConfig(
            kernel_sampling_period=args.kernel_period,
            block_sampling_period=args.block_period,
            kernel_filter=kernel_filter,
        ),
    )


def _cmd_profile(args) -> int:
    workload = get_workload(args.workload)(scale=args.scale)
    config = _sampled_config(
        args, workload.hot_kernel_filter() if args.hot_kernels_only else None
    )
    profile = ValueExpert(config).profile(
        workload.run_baseline,
        platform=PLATFORMS[args.platform],
        name=workload.name,
    )
    print(render_report(profile))
    if args.dot:
        _write(args.dot, render_dot(profile.graph, title=workload.name))
        print(f"\nwrote value flow graph to {args.dot}")
    if args.svg:
        from repro.flowgraph.svg import render_svg

        _write(args.svg, render_svg(profile.graph, title=workload.name))
        print(f"wrote SVG value flow graph to {args.svg}")
    if args.html:
        from repro.analysis.htmlreport import render_html

        _write(args.html, render_html(profile))
        print(f"wrote HTML report to {args.html}")
    if args.json:
        _write(args.json, profile.to_json())
        print(f"wrote JSON profile to {args.json}")
    return 0


def _cmd_record(args) -> int:
    from repro.gpu.runtime import GpuRuntime
    from repro.trace_io import TraceRecorder

    workload = get_workload(args.workload)(scale=args.scale)
    out = args.out or f"{workload.name.replace('/', '_')}.vetrace"
    runtime = GpuRuntime(platform=PLATFORMS[args.platform])
    recorder = TraceRecorder(
        out,
        header={
            "workload": workload.name,
            "platform": runtime.platform.name,
        },
        instrument="all",
    )
    recorder.attach(runtime)
    try:
        if args.optimized:
            workload.run_optimized(runtime)
        else:
            workload.run_baseline(runtime)
    finally:
        recorder.detach()
        nbytes = recorder.close()
    print(
        f"recorded {recorder.events_written} events "
        f"({nbytes / 1e6:.1f} MB) to {out}"
    )
    return 0


def _parse_event_range(spec: str):
    """``A:B`` (or ``A:`` for end-of-trace) -> (start, stop)."""
    head, sep, tail = spec.partition(":")
    if not sep or not head.isdigit() or not (tail == "" or tail.isdigit()):
        raise TraceError(
            f"invalid --events range {spec!r}; expected START:STOP "
            f"(e.g. 10:50) or START: for end-of-trace"
        )
    return (int(head), int(tail) if tail else None)


def _cmd_replay(args) -> int:
    if args.gvprof:
        from repro.baselines.gvprof import GvprofProfiler
        from repro.trace_io import TraceReplayer

        replayer = TraceReplayer(args.trace)
        profiler = GvprofProfiler()
        profiler.attach(replayer)
        try:
            replayer.replay()
        finally:
            profiler.detach()
            replayer.close()
        print(profiler.report.summary())
        return 0

    config = _sampled_config(
        args, frozenset(args.kernels.split(",")) if args.kernels else None
    )
    events = None if args.events is None else _parse_event_range(args.events)
    tool = ValueExpert(config)
    profile = tool.profile_from_trace(
        args.trace, shards=args.shards, events=events
    )
    if tool.last_shard_results:
        print(f"analyzed in {len(tool.last_shard_results)} shards:")
        for result in tool.last_shard_results:
            print(
                f"  shard {result.index}: events "
                f"[{result.start}, {result.stop}) in {result.elapsed_s:.3f}s "
                f"({result.active_s:.3f}s active)"
            )
    print(render_report(profile))
    if args.json:
        _write(args.json, profile.to_json())
        print(f"wrote JSON profile to {args.json}")
    return 0


def _parse_fail_on(spec: str):
    """Comma-separated delta kinds -> list of DeltaKind."""
    from repro.tracediff.differ import FAIL_ON_CHOICES

    kinds = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in FAIL_ON_CHOICES:
            raise ReproError(
                f"unknown --fail-on kind {token!r} "
                f"(choices: {', '.join(FAIL_ON_CHOICES)})"
            )
        kinds.append(FAIL_ON_CHOICES[token])
    return kinds


def _cmd_trace_diff(args) -> int:
    import os

    from repro.tracediff import (
        Baseline,
        apply_baseline,
        diff_traces,
        extract_summary,
        load_baseline,
        render_diff,
        save_baseline,
    )
    from repro.tracediff.differ import DiffThresholds

    fail_on = _parse_fail_on(args.fail_on)
    if args.write_baseline and not args.baseline:
        print(
            "repro: error: --write-baseline requires --baseline",
            file=sys.stderr,
        )
        return 2
    old = extract_summary(args.old, shards=args.shards)
    new = extract_summary(args.new, shards=args.shards)
    diff = diff_traces(
        old,
        new,
        DiffThresholds(relative=args.threshold, min_bytes=args.min_bytes),
    )

    if args.write_baseline:
        baseline = Baseline.from_diff(diff, note=args.note or "")
        save_baseline(args.baseline, baseline)
        print(render_diff(diff))
        print(
            f"wrote baseline accepting {len(baseline.accepted)} delta "
            f"key(s) to {args.baseline}"
        )
        return 0

    stale = []
    if args.baseline and os.path.exists(args.baseline):
        stale = apply_baseline(diff, load_baseline(args.baseline))
    print(render_diff(diff))
    for key in stale:
        print(f"note: stale baseline entry (no longer occurs): {key}")
    if args.json:
        _write_json(args.json, diff.to_dict())
        print(f"wrote diff report to {args.json}")
    flagged = diff.flagged(fail_on)
    if flagged:
        print(
            f"trace-diff: {len(flagged)} un-baselined "
            f"{', '.join(sorted({d.kind.value for d in flagged}))} "
            f"delta(s) — failing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_workflow(args) -> int:
    from repro.tool.workflow import run_recommended_workflow

    workload = get_workload(args.workload)(scale=args.scale)
    result = run_recommended_workflow(workload, PLATFORMS[args.platform])
    print(result.summary())
    if result.fine_profile is not None:
        print()
        print(render_report(result.fine_profile))
    return 0


def _cmd_view(args) -> int:
    from repro.analysis.profile import ValueProfile

    with open(args.profile) as handle:
        profile = ValueProfile.from_json(handle.read())
    print(render_report(profile))
    if args.html:
        from repro.analysis.htmlreport import render_html

        _write(args.html, render_html(profile))
        print(f"\nwrote HTML report to {args.html}")
    return 0


# -- the paper's tables and figures -------------------------------------------


def _cmd_speedup(args) -> int:
    from repro.experiments.runner import measure_speedups

    workload = get_workload(args.workload)(scale=args.scale)
    for platform in EVALUATION_PLATFORMS:
        row = measure_speedups(workload, platform)
        kernel = f"{row.kernel_speedup:.2f}x" if row.kernel_speedup else "-"
        memory = f"{row.memory_speedup:.2f}x" if row.memory_speedup else "-"
        print(f"{platform.name:<12} kernel {kernel:>8}  memory {memory:>8}")
    return 0


def _cmd_experiment(args) -> int:
    name = args.command
    if name == "table1":
        print(table1.format_table(table1.run(scale=args.scale)))
    elif name == "table3":
        print(table3.format_table(table3.run(scale=args.scale)))
    elif name == "table4":
        print(table4.format_table(table4.run(scale=args.scale)))
    elif name == "table5":
        print(table5.format_features())
        print()
        print(table5.format_comparison(table5.run(scale=args.scale)))
    elif name == "figure2":
        result = figure2.run(scale=args.scale, output_path=args.dot)
        print(figure2.format_figure(result))
    elif name == "figure3":
        print(figure3.format_figure(figure3.run()))
    elif name == "figure6":
        print(figure6.format_figure(figure6.run(scale=args.scale)))
    else:
        print(casestudies.format_studies(casestudies.run(scale=args.scale)))
    return 0


# -- the profiler itself ------------------------------------------------------


def _profile_with_telemetry(args, recorder=None):
    """Run one observability-enabled profile; returns (profile, runtime)."""
    from repro.gpu.runtime import GpuRuntime

    workload = get_workload(args.workload)(scale=args.scale)
    platform = PLATFORMS[args.platform]
    runtime = GpuRuntime(platform=platform)
    if recorder is not None:
        runtime.subscribe(recorder)
    telemetry.reset()
    profile = ValueExpert(ToolConfig(observability=True)).profile(
        workload.run_baseline,
        runtime=runtime,
        platform=platform,
        name=workload.name,
    )
    return profile, runtime


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write(out, text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_stats(args) -> int:
    from repro.obs.selfreport import (
        format_stage_table,
        price_self_overhead,
        stage_rows,
    )

    profile, runtime = _profile_with_telemetry(args)
    registry = telemetry.registry()
    exposition = (
        registry.to_json() if args.format == "json" else registry.to_prometheus()
    )
    _emit(exposition, args.out)
    print()
    print(f"self-overhead by stage — {profile.workload_name} "
          f"[{profile.platform_name}]")
    print(format_stage_table(stage_rows(telemetry.tracer())))
    report = price_self_overhead(
        telemetry.tracer(),
        app_time_s=runtime.times.total,
        workload=profile.workload_name,
        platform=profile.platform_name,
    )
    print()
    print(report)
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.trace import TraceRecorder
    from repro.obs.export import merged_trace_json

    recorder = TraceRecorder()
    profile, _runtime = _profile_with_telemetry(args, recorder=recorder)
    tracer = telemetry.tracer() if args.self_spans else None
    _emit(merged_trace_json(recorder.to_events(profile), tracer), args.out)
    return 0


def _run_health(args, plan):
    """One resilient profile under ``plan``; returns the profile."""
    workload = get_workload(args.workload)(scale=args.scale)
    tool = ValueExpert(
        ToolConfig(
            resilient=True,
            fault_plan=plan,
            memory_budget_bytes=args.budget,
        )
    )
    # The report carries the degradation; the warning would only repeat
    # it on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedProfileWarning)
        return tool.profile(
            workload.run_baseline,
            platform=PLATFORMS[args.platform],
            name=workload.name,
        )


#: Shrinker failure predicates, strongest first: the shrunk plan must
#: reproduce the *original* run's most specific symptom, not merely
#: "something degraded".
_SHRINK_SYMPTOMS = (
    ("workload_aborted", lambda h: h.workload_aborted),
    ("corrupted_copies", lambda h: h.corrupted_copies > 0),
    ("alloc_failures", lambda h: h.alloc_failures > 0),
    ("torn_trace", lambda h: h.torn_trace or h.trace_salvaged),
    ("dropped_records", lambda h: h.dropped_records > 0),
    ("quarantined_launches", lambda h: h.quarantined_launches > 0),
    ("degraded", lambda h: not h.pristine),
)


def _shrink_plan(args, plan, health):
    """Greedily minimize a failing chaos plan.

    Picks the original run's most specific symptom, then tries zeroing
    each active fault field in turn, keeping the zero whenever the
    symptom still reproduces.  Deterministic workload + seeded plan
    makes every trial run exact, so one pass suffices.  Returns
    ``(minimal_plan, symptom)`` or ``(None, None)`` when the original
    run showed nothing to shrink.
    """
    import dataclasses

    symptom = reproduces = None
    for name, predicate in _SHRINK_SYMPTOMS:
        if predicate(health):
            symptom, reproduces = name, predicate
            break
    if symptom is None:
        return None, None
    defaults = FaultPlan()
    current = plan
    for name in plan.active_fields():
        candidate = dataclasses.replace(
            current, **{name: getattr(defaults, name)}
        )
        if reproduces(_run_health(args, candidate).health):
            current = candidate
            print(f"shrink: dropped {name} ({symptom} persists)")
        else:
            print(f"shrink: kept {name} (needed for {symptom})")
    return current, symptom


def _cmd_health(args) -> int:
    plan = FaultPlan.chaos(args.seed) if args.chaos else None
    if args.shrink and plan is None:
        print("repro: error: --shrink requires --chaos", file=sys.stderr)
        return 2
    profile = _run_health(args, plan)
    health = profile.health
    print(f"health of {profile.workload_name} "
          f"[{profile.platform_name}]"
          + (f" under chaos seed {args.seed}" if args.chaos else ""))
    print(health.summary())
    shrunk = None
    if args.shrink:
        print()
        shrunk, symptom = _shrink_plan(args, plan, health)
        if shrunk is None:
            print("shrink: run was pristine; nothing to reproduce")
        else:
            print(f"minimal plan reproducing {symptom} "
                  f"({len(shrunk.active_fields())} of "
                  f"{len(plan.active_fields())} fault fields):")
            print(json.dumps(shrunk.to_dict(), indent=2))
    if args.json:
        payload = {
            "workload": profile.workload_name,
            "platform": profile.platform_name,
            "plan": None if plan is None else plan.to_dict(),
            "health": health.to_dict(),
        }
        if shrunk is not None:
            payload["shrunk_plan"] = shrunk.to_dict()
        _write_json(args.json, payload)
        print(f"wrote health report to {args.json}")
    return 0


def _cmd_lint(args) -> int:
    names = workload_names() if args.all else [args.workload]
    rules = args.rules.split(",") if args.rules else None
    cross_profile = None
    if args.cross_check:
        # Replay the recorded trace once; every linted workload
        # cross-checks against the replayed profile instead of its own
        # fresh run (the record/replay decoupling at work).
        cross_profile = ValueExpert(ToolConfig()).profile_from_trace(
            args.cross_check
        )
    results = []
    exit_code = 0
    for index, name in enumerate(names):
        result = lint_workload(
            name,
            scale=args.scale,
            platform=PLATFORMS[args.platform],
            rules=rules,
            cross_profile=cross_profile,
        )
        results.append(result)
        if index:
            print()
        print(f"== {name} ==")
        print(result.render())
        if result.has_errors:
            exit_code = 1
    if args.json:
        _write_json(
            args.json,
            {
                "scale": args.scale,
                "platform": args.platform,
                "workloads": [r.to_dict() for r in results],
                "errors": sum(r.count(Severity.ERROR) for r in results),
            },
        )
        print(f"wrote lint report to {args.json}")
    if args.write_baseline:
        from repro.tracediff.baseline import write_text_atomic

        lines = [
            f"{r.workload}: {r.count(Severity.ERROR)} error "
            f"{r.count(Severity.WARNING)} warning "
            f"{r.count(Severity.INFO)} info"
            for r in results
        ]
        write_text_atomic(args.write_baseline, "\n".join(lines))
        print(f"wrote lint baseline to {args.write_baseline}")
    return exit_code


def _cmd_serve(args) -> int:
    # Imported here so the one-shot CLI paths never pay for the
    # service stack.
    import signal
    import threading

    from repro.service import ProfilingService, ServiceConfig
    from repro.service.http import make_server

    service = ProfilingService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            artifact_dir=args.spool,
            drain_timeout=args.drain_timeout,
            state_dir=args.state_dir,
            max_queue_depth=args.max_queue,
            default_deadline_s=args.default_deadline,
        )
    )
    service.start()
    server = make_server(service)
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"({service.pool.size} workers, artifacts in "
          f"{service.pool.artifact_dir})", flush=True)
    if args.state_dir:
        print(f"repro serve: durable state in {args.state_dir} "
              f"(recovered {service.store.recovered_jobs} jobs: "
              f"{service.store.requeued_on_recovery} requeued, "
              f"{service.store.failed_on_recovery} failed"
              + (", WAL tail was torn" if service.store.wal_torn_on_load
                 else "")
              + ")", flush=True)

    def _shutdown(signum, frame):
        # Graceful drain: stop accepting, let the backlog finish (up
        # to --drain-timeout), then fall out of serve_forever.  The
        # handler runs on the main thread — the one blocked inside
        # serve_forever — and server.shutdown() waits for that loop to
        # exit, so calling it here directly would deadlock.
        print(f"repro serve: signal {signum}, draining...", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        drained = service.shutdown(drain=True)
        server.server_close()
        print(
            "repro serve: "
            + ("drained and stopped" if drained else
               "stopped with jobs unfinished (drain timeout)"),
            flush=True,
        )
    return 0


# -- the command tree ---------------------------------------------------------


def _parser(*arguments, **kwargs) -> argparse.ArgumentParser:
    """A parser holding ``arguments``, each a ``(flags, options)`` pair.

    Built with ``add_help=False`` it is a parent parser: subcommands
    list it in ``parents=`` to share its arguments.
    """
    parser = argparse.ArgumentParser(**kwargs)
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    return parser


def _add_sampling_flags(cmd) -> None:
    """The coarse/fine and sampling switches ``_sampled_config`` reads."""
    cmd.add_argument("--coarse-only", action="store_true")
    cmd.add_argument("--fine-only", action="store_true")
    cmd.add_argument("--kernel-period", type=int, default=1)
    cmd.add_argument("--block-period", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = _parser(
        (("--debug",), dict(
            action="store_true",
            help="re-raise ReproError with a full traceback instead of a "
            "one-line message",
        )),
        prog="repro",
        description="ValueExpert reproduction - GPU value pattern profiling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workload = _parser(
        (("workload",), dict(choices=workload_names())), add_help=False
    )
    platform = _parser(
        (("--platform",), dict(choices=sorted(PLATFORMS), default="2080ti")),
        add_help=False,
    )
    scale = {
        default: _parser(
            (("--scale",), dict(type=float, default=default)), add_help=False
        )
        for default in (0.25, 0.5, 1.0)
    }
    run = [workload, platform, scale[0.5]]

    def command(name, handler, help, parents=()):
        cmd = sub.add_parser(name, help=help, parents=list(parents))
        cmd.set_defaults(handler=handler)
        return cmd

    command("list", _cmd_list, "list registered workloads")

    profile = command("profile", _cmd_profile, "profile a workload", run)
    _add_sampling_flags(profile)
    profile.add_argument(
        "--hot-kernels-only", action="store_true",
        help="filter the fine pass to the workload's hottest kernels",
    )
    profile.add_argument("--dot", help="write the value flow graph (DOT)")
    profile.add_argument("--svg", help="write the value flow graph (SVG)")
    profile.add_argument("--html", help="write a standalone HTML report")
    profile.add_argument("--json", help="write the JSON profile")

    record = command(
        "record", _cmd_record, "record a workload's runtime event stream", run
    )
    record.add_argument(
        "--out", default=None,
        help="output path (default: <workload>.vetrace)",
    )
    record.add_argument(
        "--optimized", action="store_true",
        help="record the workload's optimized variant (every Table 4 "
        "fix applied) instead of the baseline — e.g. the reference "
        "side of a `repro trace-diff` regression check",
    )

    replay = command(
        "replay", _cmd_replay,
        "profile from a .vetrace recording, optionally sharded over "
        "worker processes",
    )
    replay.add_argument("trace", help="path to a recorded .vetrace file")
    _add_sampling_flags(replay)
    replay.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel filter for the fine pass",
    )
    replay.add_argument(
        "--gvprof", action="store_true",
        help="run the GVProf baseline over the replay instead",
    )
    replay.add_argument(
        "--shards", type=int, default=1,
        help="analyze the trace in N parallel worker processes "
        "(default: 1, serial)",
    )
    replay.add_argument(
        "--events", metavar="START:STOP", default=None,
        help="analyze only this event range, exactly as the full replay "
        "analyzes it: earlier events replay passively to rebuild its state",
    )
    replay.add_argument("--json", help="write the JSON profile")

    trace_diff = command(
        "trace-diff", _cmd_trace_diff,
        "match kernels across two .vetrace recordings by CFG "
        "similarity and diff their value-pattern profiles",
    )
    trace_diff.add_argument("old", help="the reference .vetrace recording")
    trace_diff.add_argument("new", help="the candidate .vetrace recording")
    trace_diff.add_argument(
        "--json", help="write the full diff report as JSON (CI artifact)"
    )
    trace_diff.add_argument(
        "--baseline", metavar="FILE",
        help="committed baseline of accepted delta keys "
        "(e.g. benchmarks/out/tracediff_baseline.json)",
    )
    trace_diff.add_argument(
        "--write-baseline", dest="write_baseline", action="store_true",
        help="accept every current delta into --baseline and exit 0",
    )
    trace_diff.add_argument(
        "--note", help="free-text note stored in a written baseline"
    )
    trace_diff.add_argument(
        "--fail-on", dest="fail_on", default=DEFAULT_FAIL_ON,
        metavar="KINDS",
        help="comma-separated delta kinds that fail the run "
        f"(default: {DEFAULT_FAIL_ON}; e.g. new-redundancy,lost-pattern)",
    )
    trace_diff.add_argument(
        "--threshold", type=float, default=0.25,
        help="minimum relative change for grown/shrunk deltas "
        "(default: 0.25)",
    )
    trace_diff.add_argument(
        "--min-bytes", dest="min_bytes", type=int, default=64,
        help="minimum absolute redundant-byte change for site-volume "
        "deltas (default: 64)",
    )
    trace_diff.add_argument(
        "--shards", type=int, default=1,
        help="analyze each recording in N parallel worker processes",
    )

    command(
        "workflow", _cmd_workflow,
        "run the paper's two-pass workflow (coarse -> slice -> fine)", run,
    )

    view = command(
        "view", _cmd_view, "render a previously saved JSON profile"
    )
    view.add_argument("profile", help="path to a profile written by --json")
    view.add_argument("--html", help="also write a standalone HTML report")

    command(
        "speedup", _cmd_speedup, "measure one Table 3 row",
        [workload, scale[1.0]],
    )
    for name in (
        "table1", "table3", "table4", "table5",
        "figure2", "figure3", "figure6", "casestudies",
    ):
        cmd = command(
            name, _cmd_experiment, f"regenerate {name}", [scale[0.5]]
        )
        if name == "figure2":
            cmd.add_argument("--dot", default=None)

    stats = command(
        "stats", _cmd_stats, "dump the self-telemetry metrics registry", run
    )
    stats.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="exposition format (Prometheus text or JSON)",
    )
    stats.add_argument("--out", help="write the exposition to a file")

    trace = command(
        "trace", _cmd_trace, "export a Chrome-trace timeline of one run", run
    )
    trace.add_argument(
        "--self", dest="self_spans", action="store_true",
        help="include the profiler's own stage spans (pid 1)",
    )
    trace.add_argument("--out", help="write the trace JSON to a file")

    health = command(
        "health", _cmd_health,
        "run a resilient (optionally fault-injected) profile and "
        "report its degradation",
        run,
    )
    health.add_argument(
        "--chaos", action="store_true",
        help="inject a seeded chaos FaultPlan into the run",
    )
    health.add_argument(
        "--seed", type=int, default=0,
        help="chaos plan seed (with --chaos)",
    )
    health.add_argument(
        "--budget", type=int, default=None,
        help="collector mirror budget in bytes (degradation ladder)",
    )
    health.add_argument(
        "--shrink", action="store_true",
        help="greedily minimize the chaos plan to the fewest fault "
        "fields that still reproduce the run's symptom (with --chaos)",
    )
    health.add_argument("--json", help="write the health report as JSON")

    lint = command(
        "lint", _cmd_lint,
        "run the static value-pattern linter over workload kernels",
        [platform, scale[0.25]],
    )
    which = lint.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--workload", choices=workload_names(), help="lint one workload"
    )
    which.add_argument(
        "--all", action="store_true", help="lint every registered workload"
    )
    lint.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all passes)",
    )
    lint.add_argument("--json", help="write the findings report as JSON")
    lint.add_argument(
        "--cross-check", dest="cross_check", metavar="TRACE",
        help="cross-check findings against a recorded .vetrace replay "
        "instead of each workload's own fresh profile",
    )
    lint.add_argument(
        "--write-baseline", dest="write_baseline", metavar="PATH",
        nargs="?", const=LINT_BASELINE_PATH, default=None,
        help="write the per-workload severity counts as the committed "
        f"lint baseline (default path: {LINT_BASELINE_PATH}; "
        "typically combined with --all)",
    )

    serve = command(
        "serve", _cmd_serve,
        "run the continuous-profiling daemon (HTTP job API + "
        "Prometheus scrape endpoint)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free port, printed on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent worker processes (default: 2)",
    )
    serve.add_argument(
        "--spool", metavar="DIR",
        help="artifact directory for profile/trace JSON "
        "(default: a fresh temp dir)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="seconds a SIGTERM drain waits for the backlog",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="durable state directory: the job WAL lives here and is "
        "replayed on startup, so a killed daemon restarted with the "
        "same directory recovers every job",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="admission limit: reject submissions beyond N queued jobs "
        "with HTTP 429 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="deadline for jobs whose spec sets none; expired workers "
        "are terminated (then killed) and the attempt fails as timed "
        "out (default: unlimited)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
