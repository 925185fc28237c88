"""ValueExpert benchmark runner.

One workload, one untraced or traced run::

    python3 bench/run.py --workload live_full --seed 0 --seconds 8 --trace 0

Every workload, untraced then traced, in two sets, into a results file::

    python3 bench/run.py --seed 0 --out bench/results/BENCH_1.json

It starts each measured process (``child.py``) in a fresh
interpreter, one at a time, and waits for it.  Untraced, it reports the
end-to-end metrics of BENCHMARK.json; traced (``--trace 1``), the
per-layer ones.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every profile matched its reference digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKDIR = BENCH_DIR / ".work"

#: Fresh processes that each set up the workload; ``setup_s`` is their
#: median, because one import-and-set-up is too noisy to compare.
SETUP_RUNS = 3

#: A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_benchmark() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def now() -> float:
    """System-wide monotonic clock, comparable with the child's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: List[str], deadline: float) -> dict:
    """Run ``child.py`` with ``args``; returns its JSON result.

    ``setup_s`` is added: from just before the process starts to the
    moment the child reports its set-up done.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    WORKDIR.mkdir(exist_ok=True)
    command = [sys.executable, str(BENCH_DIR / "child.py")]
    command += args + ["--workdir", str(WORKDIR)]
    started = now()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - now(), 1.0))
    except subprocess.TimeoutExpired:
        # The group holds the sharded replay's pool workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} passed the deadline")
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def quartiles(values: List[float]) -> List[float]:
    """``statistics.quantiles(values, n=4)``, defined for one value too."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    rounds: Optional[int] = None,
    scale: Optional[float] = None,
) -> dict:
    """Measure one workload; returns its metrics and raw samples."""
    deadline = now() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    if scale is not None:
        args += ["--scale", str(scale)]
    main = spawn(args + (["--trace"] if trace else []), deadline)
    children = [main]
    if trace:
        samples = layer_samples(main)
        metrics = {key: statistics.median(v) for key, v in samples.items()}
    else:
        for _ in range(SETUP_RUNS - 1):
            children.append(spawn(args + ["--setup-only"], deadline))
        walls = [r["wall_s"] for r in main["rounds"]]
        rates = [r["accesses"] / r["wall_s"] for r in main["rounds"]]
        samples = {
            "setup_s": [child["setup_s"] for child in children],
            "round_s": walls,
            "accesses_per_s": rates,
            "peak_rss_mb": [main["peak_rss_mb"]],
        }
        # Other tenants of a shared host only ever slow a round down, and
        # for minutes at a time, so the fastest round is the steadiest
        # measure of the program; the median is printed beside it.
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "round_s": min(walls),
            "accesses_per_s": max(rates),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    return {
        "metrics": metrics,
        "samples": samples,
        "rounds": len(main["rounds"]),
        "scale": main["scale"],
        "numpy": main["numpy"],
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "errors": [e for child in children for e in child["errors"]],
    }


def layer_samples(result: dict) -> Dict[str, List[float]]:
    """Per-round per-layer values of a traced child, plus its set-up."""
    traced = result["traced_rounds"]
    samples = {key: [r["layers"][key] for r in traced] for key in traced[0]["layers"]}
    untraced_s = statistics.median(r["wall_s"] for r in result["rounds"])
    samples["obs.overhead_ratio"] = [r["wall_s"] / untraced_s for r in traced]
    for phase in ("import_s", "reference_s", "record_s"):
        samples["setup." + phase] = [result["setup"][phase]]
    return samples


def describe(benchmark: dict, trace: bool) -> List[dict]:
    """The metric definitions a run with or without tracing reports."""
    return benchmark["per_layer" if trace else "end_to_end"]


def print_metrics(name: str, outcome: dict, specs: List[dict]) -> None:
    """One line per metric: name, value, unit, and its spread."""
    for error in outcome["errors"]:
        print(f"bench: {name}: {error}", file=sys.stderr)
    for spec in specs:
        values = outcome["samples"][spec["name"]]
        q1, _, q3 = quartiles(values)
        print(
            f"{name:15s} {spec['name']:32s} {outcome['metrics'][spec['name']]:>14.6g} "
            f"{spec['unit']:8s} IQR {q1:.6g}..{q3:.6g} over {len(values)}"
        )
    if "round_s" in outcome["metrics"]:
        walls = outcome["samples"]["round_s"]
        print(
            f"{name:15s} note: round_s is the fastest of {len(walls)} timed "
            f"rounds, whose median is {statistics.median(walls):.6g} s; no tail "
            "percentile has ten samples beyond it, so none is reported"
        )


def result_line(outcome: dict, specs: List[dict]) -> str:
    """The last line of standard output: the run's result as JSON."""
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                spec["name"]: {
                    "value": outcome["metrics"][spec["name"]],
                    "unit": spec["unit"],
                }
                for spec in specs
            },
        }
    )


def host_description(args) -> dict:
    """What a results file needs to be read on its own."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = probe.stdout.strip() or rev
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "scale": args.scale,
        "setup_runs": SETUP_RUNS,
        "sets": args.sets,
    }


def run_all(args, benchmark: dict) -> int:
    """Every workload, untraced then traced, ``--sets`` times."""
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        names = [args.workload]
    results = {
        "host": host_description(args),
        "benchmark": {k: benchmark[k] for k in ("end_to_end", "per_layer")},
        "workloads": {name: {"sets": []} for name in names},
    }
    failed = 0
    for _ in range(args.sets):
        for name in names:
            one_set = {}
            for trace in (False, True):
                outcome = run_workload(
                    name, args.seed, args.seconds, trace, args.rounds, args.scale
                )
                print_metrics(name, outcome, describe(benchmark, trace))
                failed += outcome["failed"]
                one_set["traced" if trace else "untraced"] = outcome
            results["workloads"][name]["sets"].append(one_set)
            results["host"]["numpy"] = one_set["untraced"]["numpy"]
    if args.sets > 1:
        results["agreement"] = agreement(results, benchmark)
        for row in results["agreement"]:
            if row["bound"] or not row["ok"]:
                print(
                    f"set {row['set']} vs 1  {row['workload']:15s} {row['metric']:30s} "
                    f"{row['change']:+.2%} (bound {row['bound']:.0%}) "
                    f"{'ok' if row['ok'] else 'OUTSIDE BOUND'}"
                )
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def agreement(results: dict, benchmark: dict) -> List[dict]:
    """Each later set against the first: every end-to-end metric within
    its bound, every exact per-layer count equal."""
    exact = [s["name"] for s in benchmark["per_layer"] if s["unit"] in ("count", "B")]
    rows = []
    for name, entry in results["workloads"].items():
        first, *others = entry["sets"]
        for number, other in enumerate(others, start=2):
            for spec in benchmark["end_to_end"]:
                metric = spec["name"]
                change = (
                    other["untraced"]["metrics"][metric]
                    / first["untraced"]["metrics"][metric]
                    - 1
                )
                rows.append(
                    {
                        "set": number,
                        "workload": name,
                        "metric": metric,
                        "change": change,
                        "bound": spec["bound"],
                        "ok": abs(change) <= spec["bound"],
                    }
                )
            for metric in exact:
                before = first["traced"]["metrics"][metric]
                after = other["traced"]["metrics"][metric]
                rows.append(
                    {"set": number, "workload": name, "metric": metric,
                     "change": after / before - 1 if before else float(after != before),
                     "bound": 0, "ok": after == before}
                )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="with --workload: one untraced (0) or traced (1) run; without "
        "it, every workload runs both ways, --sets times",
    )
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", help="write a results file")
    # For the smoke test only: tiny inputs and a fixed round count.
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no ValueExpert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    try:
        if args.workload is None or args.trace is None:
            return run_all(args, benchmark)
        specs = describe(benchmark, bool(args.trace))
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.rounds, args.scale,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_metrics(args.workload, outcome, specs)
    print(result_line(outcome, specs))
    return 1 if outcome["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
