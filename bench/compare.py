"""Compare two benchmark results files, one row per workload.

::

    python3 bench/compare.py bench/results/BENCH_0.json NEW.json

For each end-to-end metric the row gives the change of NEW's value
against OLD's, each the median over the sets its file holds.  A metric
worse by more than its BENCHMARK.json bound is a regression.  It is
``unresolved`` instead when either side's spread (interquartile range
over median of the raw samples, pooled over sets) exceeds the bound,
unless every NEW sample beats every OLD sample.  Per-layer metrics that worsen by more than max(5%, 3 x IQR),
and exact counts that change at all, are listed under the row; they
are reported only.  The exit code is 1 on an end-to-end regression or a
higher failure ratio, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

#: Per-layer metrics must worsen by more than this share, and by more
#: than LAYER_IQR_FACTOR spreads, before they are listed.
LAYER_MIN_CHANGE = 0.05
LAYER_IQR_FACTOR = 3.0

#: Units of exact counts: any change at all is listed.
EXACT_UNITS = ("count", "B")


def pooled(entry: dict, phase: str, metric: str) -> List[float]:
    """Every sample of ``metric`` over all sets of one workload."""
    return [
        value
        for one_set in entry["sets"]
        for value in one_set[phase]["samples"].get(metric, [])
    ]


def spread(values: List[float]) -> float:
    """Interquartile range over median; 0 for fewer than two samples."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def worsening(old: float, new: float, better: str) -> float:
    """Relative change of NEW against OLD; positive means worse."""
    change = new / old - 1
    return change if better == "lower" else -change


def fail_ratio(entry: dict) -> Tuple[int, int]:
    """(failed, attempted) over every set and phase of one workload."""
    failed = attempted = 0
    for one_set in entry["sets"]:
        for outcome in one_set.values():
            failed += outcome["failed"]
            attempted += outcome["attempted"]
    return failed, attempted


def reported(entry: dict, metric: str) -> float:
    """Median over sets of the value each set reported for ``metric``."""
    return statistics.median(
        one_set["untraced"]["metrics"][metric] for one_set in entry["sets"]
    )


def compare_end_to_end(old: dict, new: dict, spec: dict) -> Tuple[str, bool]:
    """One cell of a workload row, and whether it is a regression."""
    name, bound = spec["name"], spec["bound"]
    before = pooled(old, "untraced", name)
    after = pooled(new, "untraced", name)
    change = worsening(reported(old, name), reported(new, name), spec["better"])
    if spec["better"] == "lower":
        all_beat = max(after) < min(before)
    else:
        all_beat = min(after) > max(before)
    if max(spread(before), spread(after)) > bound and not all_beat:
        verdict = "unresolved"
    elif change > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    cell = f"{name} {-change if spec['better'] == 'higher' else change:+.1%} {verdict}"
    return cell, verdict == "REGRESSION"


def layer_flags(old: dict, new: dict, specs: List[dict]) -> List[str]:
    """Per-layer metrics that moved the wrong way by a clear margin."""
    flags = []
    for spec in specs:
        name = spec["name"]
        before = pooled(old, "traced", name)
        after = pooled(new, "traced", name)
        if not before or not after:
            continue
        old_median = statistics.median(before)
        new_median = statistics.median(after)
        if spec["unit"] in EXACT_UNITS:
            if new_median != old_median:
                flags.append(f"{name}: {old_median:g} -> {new_median:g} (exact count moved)")
            continue
        if old_median == 0:
            continue
        change = worsening(old_median, new_median, spec["better"])
        limit = max(
            LAYER_MIN_CHANGE,
            LAYER_IQR_FACTOR * max(spread(before), spread(after)),
        )
        if change > limit:
            flags.append(
                f"{name}: {old_median:.4g} -> {new_median:.4g} {spec['unit']} "
                f"({change:+.1%} worse, limit {limit:.1%})"
            )
    return flags


def compare(old: dict, new: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether NEW regressed end to end."""
    benchmark: Dict[str, List[dict]] = new["benchmark"]
    lines = []
    regressed = False
    for name, after in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            lines.append(f"{name:15s} not in OLD")
            continue
        cells = []
        for spec in benchmark["end_to_end"]:
            cell, worse = compare_end_to_end(before, after, spec)
            cells.append(cell)
            regressed |= worse
        old_failed, old_attempted = fail_ratio(before)
        new_failed, new_attempted = fail_ratio(after)
        more_failures = new_failed * old_attempted > old_failed * new_attempted
        regressed |= more_failures
        cells.append(
            f"failed {old_failed}/{old_attempted} -> {new_failed}/{new_attempted}"
            + (" REGRESSION" if more_failures else "")
        )
        lines.append(f"{name:15s} " + " | ".join(cells))
        for flag in layer_flags(before, after, benchmark["per_layer"]):
            lines.append(f"{'':15s} layer {flag} (report only)")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="results file of the parent commit")
    parser.add_argument("new", help="results file of the change")
    args = parser.parse_args(argv)
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    lines, regressed = compare(old, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
