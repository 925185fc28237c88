"""repro.staticlint — static value-pattern analysis over the SASS-like IR.

ValueExpert reads the GPU binary only to recover access types (paper
§5.1); this package reads the *same* IR to statically predict
value-pattern candidates before a single launch runs:

- :mod:`~repro.staticlint.cfg` — basic blocks, control-flow graph,
  reverse post-order, dominators;
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
"""

from repro.staticlint.cfg import (
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    cfg_cache_stats,
    clear_cfg_cache,
)
from repro.staticlint.crosscheck import CrossCheckReport, cross_check
from repro.staticlint.findings import Finding, Severity
from repro.staticlint.linter import (
    LintContext,
    LintResult,
    lint_function,
    lint_kernel,
    lint_workload,
)

# NB: the similarity *function* is not re-exported here — the name
# would collide with the submodule itself.  Import it as
# `from repro.staticlint.similarity import similarity`.
from repro.staticlint.similarity import (
    BlockFeatures,
    CfgFingerprint,
    FunctionMatch,
    MatchReport,
    MatchVerdict,
    fingerprint,
    match_functions,
)

__all__ = [
    "BasicBlock",
    "BlockFeatures",
    "CfgFingerprint",
    "ControlFlowGraph",
    "CrossCheckReport",
    "Finding",
    "FunctionMatch",
    "LintContext",
    "LintResult",
    "MatchReport",
    "MatchVerdict",
    "Severity",
    "build_cfg",
    "cfg_cache_stats",
    "clear_cfg_cache",
    "cross_check",
    "fingerprint",
    "lint_function",
    "lint_kernel",
    "lint_workload",
    "match_functions",
]
