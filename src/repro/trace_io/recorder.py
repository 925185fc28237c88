"""TraceRecorder — a runtime listener that persists the event stream.

The recorder subscribes to the :class:`~repro.gpu.runtime.GpuRuntime`
bus like any profiler and writes every post-effect event to a
``.vetrace`` file.  Two instrumentation modes:

- ``"follow"`` (default): the recorder never votes for instrumentation;
  it writes whatever the *other* listeners caused to be collected.
  This is the mode used when recording during a profiling run — the
  recording captures exactly what the collector saw, so replaying it
  through an identically-configured collector reproduces the profile
  byte for byte.
- ``"all"``: the recorder votes to instrument every launch (like the
  GVProf baseline), producing a maximal trace that any downstream
  consumer — coarse, fine, filtered, baseline — can be fanned out over.

Recording is crash-safe in the detectable sense: the footer offset is
patched only on :meth:`close`, so a truncated file is rejected by the
reader instead of silently replaying a partial run.
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.obs as telemetry
from repro.errors import TraceError
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import ApiEvent, KernelLaunchEvent, RuntimeListener
from repro.trace_io.codec import (
    delta_keys_for,
    encode_event,
    encode_kernel,
    released_delta_keys,
)
from repro.trace_io.format import EVENT_NAMES, VERSION, TraceWriter


class TraceRecorder(RuntimeListener):
    """Writes the runtime event stream to a ``.vetrace`` file."""

    #: Match the collector's stream serialization so a recording made
    #: standalone sees the same serialized timeline a profiled run does.
    serializes_streams = True

    def __init__(
        self,
        path: str,
        header: Optional[dict] = None,
        instrument: str = "follow",
        fault_injector=None,
        version: int = VERSION,
    ):
        if instrument not in ("follow", "all"):
            raise TraceError(
                f"instrument must be 'follow' or 'all', got {instrument!r}"
            )
        self.instrument = instrument
        #: Optional :class:`repro.resilience.FaultInjector`; when its
        #: plan says so, the recording is torn mid-frame (crash model).
        self.fault_injector = fault_injector
        self._writer = TraceWriter(path, header=header, version=version)
        self._kernels: Dict[str, Kernel] = {}
        self.path = path
        #: Final file size in bytes, set by :meth:`close`.
        self.nbytes: Optional[int] = None

    # -- RuntimeListener ----------------------------------------------------

    def instrument_kernel(self, kernel: Kernel, grid: int, block: int) -> bool:
        """Vote for instrumentation only in ``"all"`` mode."""
        return self.instrument == "all"

    def on_api_end(self, event: ApiEvent) -> None:
        """Serialize one post-effect event."""
        if isinstance(event, KernelLaunchEvent):
            self._kernels.setdefault(event.kernel.name, event.kernel)
        version = self._writer.version
        kind, meta, arrays = encode_event(event, version)
        delta_keys = delta_keys_for(kind, meta, arrays, version)
        self._writer.write_event(kind, meta, arrays, delta_keys=delta_keys)
        for key in released_delta_keys(kind, meta):
            self._writer.release_delta(key)
        if self.fault_injector is not None and self.fault_injector.take_trace_tear(
            self._writer.events_written
        ):
            self._writer.tear()
        if telemetry.ENABLED:
            telemetry.counter(
                "repro_trace_events_total",
                "Runtime events written to trace files.",
                labelnames=("api",),
            ).labels(api=EVENT_NAMES[kind]).inc()
            telemetry.gauge(
                "repro_trace_bytes_written",
                "Bytes written to the trace file being recorded.",
            ).set(self._writer.bytes_written)

    # -- lifecycle ----------------------------------------------------------

    @property
    def events_written(self) -> int:
        """Events recorded so far."""
        return self._writer.events_written

    @property
    def torn(self) -> bool:
        """Whether the recording was torn mid-write (injected crash)."""
        return self._writer.torn

    def close(self) -> int:
        """Write the kernel table footer and finish the file.

        Returns the final trace size in bytes.
        """
        footer = {
            "kernels": [
                encode_kernel(kernel) for kernel in self._kernels.values()
            ]
        }
        self.nbytes = self._writer.close(footer)
        if telemetry.ENABLED:
            telemetry.gauge(
                "repro_trace_file_bytes",
                "Size of the most recently finished trace file.",
            ).set(self.nbytes)
        return self.nbytes

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.nbytes is None:
            self.close()
