"""A resilient run that dies on a refused GPU API replays to the same
counters.

The refused API raises before it writes anything and publishes
nothing, so the live profile counts exactly the APIs the recording
holds, and the overhead model prices one run on both sources.
"""

import numpy as np
import pytest

from repro import ToolConfig, ValueExpert
from repro.errors import DegradedProfileWarning
from tests.gpu.test_refused_api import REFUSED, REFUSED_IDS


@pytest.mark.parametrize("refuse, error", REFUSED, ids=REFUSED_IDS)
def test_replay_counts_what_the_live_run_counted(tmp_path, refuse, error):
    path = str(tmp_path / "refused.vetrace")

    def workload(rt):
        alloc = rt.upload(np.arange(16, dtype=np.float32), "x")
        rt.memset(alloc, 0)
        refuse(rt, alloc)

    with pytest.warns(DegradedProfileWarning):
        live = ValueExpert(ToolConfig(resilient=True)).profile(
            workload, name="refused", record_path=path
        )
    assert live.health.workload_aborted
    assert live.health.abort_reason.startswith(error.__name__)
    replayed = ValueExpert(ToolConfig(resilient=True)).profile_from_trace(path)
    assert replayed.counters == live.counters
    assert live.counters.apis_intercepted == 3  # malloc, H2D, memset
