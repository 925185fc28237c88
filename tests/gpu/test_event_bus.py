"""One event bus under live and replayed runs.

A live :class:`GpuRuntime` and a :class:`TraceReplayer` are both
:class:`EventBus` event sources: every listener attaches to either
through the one ``RuntimeListener.attach``, and both refuse a double
subscription the same way.
"""

import pytest

import repro.obs as telemetry
from repro.baselines.gvprof import GvprofProfiler
from repro.baselines.hotspot import HotspotProfiler
from repro.collector.collector import DataCollector
from repro.errors import CollectionError, InvalidValueError
from repro.gpu.dtypes import DType
from repro.gpu.runtime import EventBus, RuntimeListener
from repro.trace_io import TraceRecorder, TraceReplayer


def _record(rt, fill_kernel, path):
    with TraceRecorder(path) as recorder:
        recorder.attach(rt)
        out = rt.malloc(64, DType.FLOAT32, "out")
        rt.launch(fill_kernel, 1, 64, out, 1.0)
        rt.memset(out, 0)
        recorder.detach()
    return path


@pytest.fixture(params=["runtime", "replay"])
def source(request, rt, fill_kernel, tmp_path):
    """Each event source: the live runtime, then a replay of a recording."""
    if request.param == "runtime":
        yield rt
        return
    path = _record(rt, fill_kernel, str(tmp_path / "source.vetrace"))
    with TraceReplayer(path) as replayer:
        yield replayer


LISTENERS = {
    "collector": lambda tmp_path: DataCollector(analyzer=None),
    "recorder": lambda tmp_path: TraceRecorder(str(tmp_path / "out.vetrace")),
    "gvprof": lambda tmp_path: GvprofProfiler(),
    "hotspot": lambda tmp_path: HotspotProfiler(),
}


def test_both_sources_are_the_bus(source):
    assert isinstance(source, EventBus)


@pytest.mark.parametrize("name", sorted(LISTENERS))
def test_double_attach_raises_collection_error(source, tmp_path, name):
    listener = LISTENERS[name](tmp_path)
    listener.attach(source)
    try:
        with pytest.raises(CollectionError):
            listener.attach(source)
        assert source.listeners == [listener]
        listener.detach()
        assert source.listeners == []
        with pytest.raises(CollectionError):
            listener.detach()
    finally:
        if isinstance(listener, TraceRecorder):
            listener.close()


def test_double_subscribe_raises_invalid_value_error(source):
    listener = RuntimeListener()
    source.subscribe(listener)
    with pytest.raises(InvalidValueError):
        source.subscribe(listener)


def test_only_the_live_runtime_spans_its_dispatch(rt, fill_kernel, tmp_path):
    """Replay time stays inside ``trace.replay``: the replayed bus opens
    no ``runtime.dispatch`` span of its own."""
    path = str(tmp_path / "spans.vetrace")
    with telemetry.scoped() as live:
        _record(rt, fill_kernel, path)
    with telemetry.scoped() as replayed:
        with TraceReplayer(path) as replayer:
            profiler = HotspotProfiler()
            profiler.attach(replayer)
            replayer.replay()
            profiler.detach()
    assert len(live.tracer.by_name("runtime.dispatch")) == 3
    assert len(replayed.tracer.by_name("trace.replay")) == 1
    assert replayed.tracer.by_name("runtime.dispatch") == []
