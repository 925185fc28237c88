"""A GPU API that raises publishes nothing.

Each API below is refused before it writes anything: a memset past the
end of its allocation, a D2H copy into a host array too short for it,
and an allocation larger than the device.  No listener sees a refused
API, so a listener on the live runtime sees only the malloc before it
and the memset after it, and the collector counts exactly the APIs the
runtime published.
"""

import numpy as np
import pytest

from repro.analysis.online import OnlineAnalyzer
from repro.collector.collector import DataCollector
from repro.errors import InvalidAddressError, InvalidValueError, OutOfMemoryError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import HostArray, MallocEvent, MemsetEvent, RuntimeListener


def memset_past_the_end(rt, alloc):
    rt.memset(alloc, 1, nbytes=alloc.size + alloc.dtype.itemsize)


def d2h_into_a_short_host_array(rt, alloc):
    # 4 float64 elements hold 32 bytes: 8 float32 elements to copy.
    rt.memcpy_d2h(HostArray(np.zeros(4, np.float64)), alloc)


def genuine_oom(rt, alloc):
    rt.malloc(1 << 40, DType.FLOAT32, "huge")


#: ``(refusal, the error it raises)``; each takes a runtime and a live
#: 16-element float32 allocation.
REFUSED = [
    (memset_past_the_end, InvalidAddressError),
    (d2h_into_a_short_host_array, InvalidValueError),
    (genuine_oom, OutOfMemoryError),
]
REFUSED_IDS = [refuse.__name__ for refuse, _ in REFUSED]


class Published(RuntimeListener):
    def __init__(self):
        self.events = []

    def on_api_end(self, event):
        self.events.append(event)


@pytest.mark.parametrize("refuse, error", REFUSED, ids=REFUSED_IDS)
def test_a_refused_api_publishes_nothing(rt, refuse, error):
    published = Published()
    published.attach(rt)
    collector = DataCollector(OnlineAnalyzer())
    collector.attach(rt)
    alloc = rt.malloc(16, DType.FLOAT32, "x")
    with pytest.raises(error):
        refuse(rt, alloc)
    rt.memset(alloc, 0)
    assert [type(event) for event in published.events] == [MallocEvent, MemsetEvent]
    assert collector.counters.apis_intercepted == rt.api_events == 2
