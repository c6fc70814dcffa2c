"""Host-speed calibration for the benchmark's time metrics.

The hosts this benchmark runs on are shared, and their speed drifts by a
third within a minute. A fixed calibration block that uses no `vguard`
code (interpreter work, sha256 and Ed25519 verification, the same kinds of
work a run does) is timed before and after every timed run. Each run's
seconds are then scaled by `REFERENCE_S` over the mean of the two
calibration times around it; long runs are cut into shorter segments,
each scaled on its own. The result is in reference seconds: about what
the run would have taken while the host ran the block in `REFERENCE_S`.
A change to `vguard` moves it; a busier host mostly does not.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Calibration block time on a quiet 2-core host (Python 3.11, cryptography 48).
REFERENCE_S = 0.010
BLOCKS_PER_READING = 3

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(32)
_SIGNATURE = _KEY.sign(_MESSAGE)


def _block() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    chain = bytes(64)
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
        chain = hashlib.sha256(chain + i.to_bytes(8, "big")).digest()
    for _ in range(50):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    return time.perf_counter() - start


def reading() -> float:
    """Median seconds of a few calibration blocks."""
    return statistics.median(_block() for _ in range(BLOCKS_PER_READING))


def scale(block_s: float) -> float:
    """Reference seconds per measured second while a block takes block_s."""
    return REFERENCE_S / block_s


class RefClock:
    """Measured and reference seconds of one run at a time.

    A run is cut into segments of about `SEGMENT_S` of wall time, with a
    calibration reading between segments. Each segment is scaled by
    `scale` of the mean of the readings on either side of it. Time
    spent in readings is counted in neither total."""

    SEGMENT_S = 0.5
    FRESH_S = 0.2

    def __init__(self):
        self.readings: list[float] = []
        self._read_at = float("-inf")
        self.wall_s = self.wall_ref_s = self.cpu_ref_s = 0.0
        self._mark()

    def _mark(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _read(self) -> None:
        self.readings.append(reading())
        self._read_at = time.perf_counter()

    def begin(self) -> None:
        """Start a run, reusing the last reading if it is recent."""
        if time.perf_counter() - self._read_at > self.FRESH_S:
            self._read()
        self.wall_s = self.wall_ref_s = self.cpu_ref_s = 0.0
        self._mark()

    def due(self) -> bool:
        return time.perf_counter() - self._wall0 >= self.SEGMENT_S

    def split(self) -> None:
        """End the current segment and take a reading."""
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        before = self.readings[-1]
        self._read()
        factor = scale((before + self.readings[-1]) / 2)
        self.wall_s += wall
        self.wall_ref_s += wall * factor
        self.cpu_ref_s += cpu * factor
        self._mark()
