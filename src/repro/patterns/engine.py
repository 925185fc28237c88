"""The pattern engine: runs every fine-grained detector over a view.

The online analyzer builds one :class:`~repro.patterns.base
.ObjectAccessView` per (data object, GPU API) and hands it to the
engine; every detector reads the view's one shared
:class:`~repro.patterns.base.ViewSummary`.  The engine is pure (no GPU
or collector state), which is what makes the detectors unit- and
property-testable in isolation.  The coarse patterns need state across
APIs (the previous snapshot, a digest index), so the analyzer drives
them itself.
"""

from __future__ import annotations

from typing import List, Optional

from repro.patterns.approximate import detect_approximate_values
from repro.patterns.base import ObjectAccessView, PatternConfig, PatternHit
from repro.patterns.fine import run_fine_value_detectors
from repro.patterns.heavy_type import detect_heavy_type
from repro.patterns.structured import detect_structured_values


class PatternEngine:
    """Runs the six fine-grained detectors under one configuration."""

    def __init__(self, config: Optional[PatternConfig] = None):
        self.config = config or PatternConfig()

    def analyze_view(self, view: ObjectAccessView) -> List[PatternHit]:
        """All fine-grained patterns of one object at one GPU API."""
        hits: List[PatternHit] = []
        hits.extend(run_fine_value_detectors(view, self.config))
        heavy = detect_heavy_type(view, self.config)
        if heavy is not None:
            hits.append(heavy)
        structured = detect_structured_values(view, self.config)
        if structured is not None:
            hits.append(structured)
        hits.extend(detect_approximate_values(view, self.config))
        return hits
