"""The bounded GPU-side profiling buffer (paper Sections 4 and 5.1).

"ValueExpert then collects the information from all threads into a GPU
buffer and copies the buffer to the CPU when it is full.  This process
repeats until the GPU kernel is finished."

The simulation accounts each deposited access at the Sanitizer record
width (PC + address + value + thread id) and counts the flushes a real
run would perform.  The count goes to the profile's counters
(``buffer_flushes``) and to ``repro_collector_buffer_flushes_total``;
the overhead model does not read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidValueError

#: Bytes per recorded access: 8 (pc) + 8 (address) + 8 (value slot)
#: + 4 (thread id) + 4 (flags/size).
RECORD_BYTES = 32


@dataclass
class ProfilingBuffer:
    """Models the pre-allocated on-device measurement buffer."""

    capacity_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise InvalidValueError("profiling buffer capacity must be positive")
        self.used_bytes = 0
        self.flushes = 0
        self.total_records = 0
        self.total_bytes = 0

    def deposit(self, access_count: int) -> int:
        """Account ``access_count`` recorded accesses.

        Returns the number of flushes this deposit triggered (a deposit
        larger than the buffer flushes multiple times, exactly like the
        repeated fill/flush protocol in the paper).
        """
        if access_count < 0:
            raise InvalidValueError("access count cannot be negative")
        nbytes = access_count * RECORD_BYTES
        self.total_records += access_count
        self.total_bytes += nbytes
        flushes = 0
        remaining = nbytes
        # "Copies the buffer to the CPU when it is full": a deposit that
        # lands exactly at capacity fills the buffer and flushes too.
        while remaining and self.used_bytes + remaining >= self.capacity_bytes:
            remaining -= self.capacity_bytes - self.used_bytes
            self.used_bytes = 0
            flushes += 1
        self.used_bytes += remaining
        self.flushes += flushes
        return flushes

    def drain(self) -> int:
        """Final flush at kernel exit; returns 1 if data was pending."""
        if self.used_bytes == 0:
            return 0
        self.used_bytes = 0
        self.flushes += 1
        return 1
