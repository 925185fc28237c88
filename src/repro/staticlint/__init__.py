"""repro.staticlint — static value-pattern analysis over the SASS-like IR.

ValueExpert reads the GPU binary only to recover access types (paper
§5.1); this package reads the *same* IR to statically predict
value-pattern candidates before a single launch runs:

- :mod:`~repro.staticlint.cfg` — basic blocks, control-flow graph,
  reverse post-order, dominators;
- :mod:`~repro.staticlint.dataflow` — a generic worklist solver with
  reaching-definitions, liveness, and the engine the type-lattice slicer
  in :mod:`repro.binary.slicing` now runs on;
- :mod:`~repro.staticlint.passes` — the lint rules (dead store,
  redundant load, lossy conversion chains, type conflicts, dead code,
  width mismatches) emitting :class:`~repro.staticlint.findings.Finding`;
- :mod:`~repro.staticlint.crosscheck` — joins static findings with a
  dynamic :class:`~repro.analysis.profile.ValueProfile`, marking each
  side by what the other predicted/confirmed;
- :mod:`~repro.staticlint.linter` — the driver: lint a function, a
  kernel, or every kernel a registered workload launches.

CLI: ``python -m repro lint [--workload NAME | --all]`` (see
``docs/static-analysis.md``).

Attribute access is lazy (PEP 562): :mod:`repro.binary.slicing` imports
the dataflow engine from here, and the linter imports the slicer back —
eager re-exports would make that cycle an import-time crash.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "BasicBlock": "repro.staticlint.cfg",
    "ControlFlowGraph": "repro.staticlint.cfg",
    "build_cfg": "repro.staticlint.cfg",
    "cfg_cache_stats": "repro.staticlint.cfg",
    "clear_cfg_cache": "repro.staticlint.cfg",
    "BlockFeatures": "repro.staticlint.similarity",
    "CfgFingerprint": "repro.staticlint.similarity",
    "FunctionMatch": "repro.staticlint.similarity",
    "MatchReport": "repro.staticlint.similarity",
    "MatchVerdict": "repro.staticlint.similarity",
    "fingerprint": "repro.staticlint.similarity",
    "match_functions": "repro.staticlint.similarity",
    # NB: the similarity *function* is not re-exported here — the name
    # would collide with the submodule itself (importing the submodule
    # binds it on the package, shadowing any lazy export).  Import it
    # as `from repro.staticlint.similarity import similarity`.
    "CrossCheckReport": "repro.staticlint.crosscheck",
    "cross_check": "repro.staticlint.crosscheck",
    "Direction": "repro.staticlint.dataflow",
    "Liveness": "repro.staticlint.dataflow",
    "ReachingDefinitions": "repro.staticlint.dataflow",
    "run_analysis": "repro.staticlint.dataflow",
    "Finding": "repro.staticlint.findings",
    "Severity": "repro.staticlint.findings",
    "LintContext": "repro.staticlint.linter",
    "LintResult": "repro.staticlint.linter",
    "lint_function": "repro.staticlint.linter",
    "lint_kernel": "repro.staticlint.linter",
    "lint_workload": "repro.staticlint.linter",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.staticlint.cfg import (
        BasicBlock,
        ControlFlowGraph,
        build_cfg,
        cfg_cache_stats,
        clear_cfg_cache,
    )
    from repro.staticlint.crosscheck import CrossCheckReport, cross_check
    from repro.staticlint.similarity import (
        BlockFeatures,
        CfgFingerprint,
        FunctionMatch,
        MatchReport,
        MatchVerdict,
        fingerprint,
        match_functions,
    )
    from repro.staticlint.dataflow import (
        Direction,
        Liveness,
        ReachingDefinitions,
        run_analysis,
    )
    from repro.staticlint.findings import Finding, Severity
    from repro.staticlint.linter import (
        LintContext,
        LintResult,
        lint_function,
        lint_kernel,
        lint_workload,
    )
