"""Event-driven per-packet samplers (router-style deployment).

The paper's context is PSAMP/NetFlow-style packet sampling (Sec. I), and
Claffy et al.'s classic result is that *event-driven* (count-based)
sampling beats *time-driven* sampling.  This module provides both flavours
as single-pass decision machines: call :meth:`offer` once per packet, get
back whether the packet is sampled.  :func:`apply_sampler` runs one over a
whole :class:`~repro.trace.packet.PacketTrace`.

:meth:`PacketSampler.offer_batch` is the batch form of :meth:`offer`: it
decides a whole column of packets at once and leaves the sampler in
exactly the state the equivalent run of ``offer`` calls would (same
decisions, same random draws in the same order), so batch and
per-packet calls can be interleaved freely.  Every built-in sampler
implements it with array arithmetic; a subclass that does not inherits
a loop over :meth:`offer`.  :func:`_reference_apply_sampler` keeps the
original per-packet loop as the parity oracle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left

import numpy as np

from repro.errors import ParameterError
from repro.trace.packet import PacketTrace
from repro.utils.rng import normalize_rng
from repro.utils.validation import (
    require_int_at_least,
    require_positive,
    require_probability,
)


class PacketSampler(ABC):
    """Single-pass per-packet sampling decision machine.

    Subclasses implement :meth:`offer`; they may override
    :meth:`offer_batch` with a vectorized equivalent, which must return
    the decisions ``offer`` would and advance the sampler's state
    (counters, clocks, random generator) exactly as those calls would.
    """

    name: str = "packet_sampler"

    @abstractmethod
    def offer(self, timestamp: float, size: int) -> bool:
        """Decide whether the packet observed now is sampled."""

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Boolean mask of sampled packets, one per ``(timestamp, size)``.

        Equivalent to calling :meth:`offer` on each packet in order.
        """
        return np.fromiter(
            (
                self.offer(float(ts), int(size))
                for ts, size in zip(timestamps, sizes)
            ),
            dtype=bool,
            count=len(timestamps),
        )

    def reset(self) -> None:
        """Restore initial state (default: nothing to reset)."""


class CountSystematicSampler(PacketSampler):
    """1-out-of-N count-based (event-driven) systematic sampling.

    The strategy NetFlow implements: every ``period``-th packet,
    starting at packet index ``offset``.
    """

    name = "count_systematic"

    def __init__(self, period: int, *, offset: int = 0) -> None:
        self._period = require_int_at_least("period", period, 1)
        if not 0 <= offset < period:
            raise ParameterError(f"offset must lie in [0, {period}), got {offset}")
        self._offset = offset
        self._count = -1

    def offer(self, timestamp: float, size: int) -> bool:
        self._count += 1
        return self._count % self._period == self._offset

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        first = self._count + 1
        self._count += len(timestamps)
        index = np.arange(first, self._count + 1, dtype=np.int64)
        return index % self._period == self._offset

    def reset(self) -> None:
        self._count = -1


class TimeSystematicSampler(PacketSampler):
    """Time-driven systematic sampling: first packet after each period tick."""

    name = "time_systematic"

    def __init__(self, period: float) -> None:
        require_positive("period", period)
        self._period = float(period)
        self._next_tick: float | None = None

    def offer(self, timestamp: float, size: int) -> bool:
        if self._next_tick is None:
            self._next_tick = timestamp + self._period
            return True
        if timestamp >= self._next_tick:
            # Skip any fully missed periods (idle gaps).
            missed = int((timestamp - self._next_tick) // self._period)
            self._next_tick += (missed + 1) * self._period
            return True
        return False

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        tick = self._next_tick
        if (
            np.isnan(timestamps).any()
            or np.any(timestamps[1:] < timestamps[:-1])
            or tick != tick  # a NaN tick left by an earlier NaN clock
        ):
            # The tick search needs a sorted, NaN-free clock.
            return super().offer_batch(timestamps, sizes)
        clock = timestamps.tolist()
        picked = []
        i = 0
        if tick is None and clock:
            tick = clock[0] + self._period
            picked.append(0)
            i = 1
        # Jump straight to the first packet at or past each tick; the
        # tick arithmetic is offer()'s, on the same Python floats.
        while tick is not None:
            i = bisect_left(clock, tick, i)
            if i >= len(clock):
                break
            missed = int((clock[i] - tick) // self._period)
            tick += (missed + 1) * self._period
            picked.append(i)
            i += 1
        self._next_tick = tick
        mask = np.zeros(len(clock), dtype=bool)
        mask[picked] = True
        return mask

    def reset(self) -> None:
        self._next_tick = None


class CountStratifiedSampler(PacketSampler):
    """Event-driven stratified sampling: one random packet per N-packet window."""

    name = "count_stratified"

    def __init__(self, period: int, rng=None) -> None:
        self._period = require_int_at_least("period", period, 1)
        self._rng = normalize_rng(rng)
        self._position = 0
        self._chosen = int(self._rng.integers(0, self._period))

    def offer(self, timestamp: float, size: int) -> bool:
        take = self._position == self._chosen
        self._position += 1
        if self._position == self._period:
            self._position = 0
            self._chosen = int(self._rng.integers(0, self._period))
        return take

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        n = len(timestamps)
        mask = np.zeros(n, dtype=bool)
        i = 0  # batch index of the packet at window position self._position
        while True:
            pick = i + self._chosen - self._position
            if i <= pick < n:
                mask[pick] = True
            window_end = i + self._period - self._position
            if window_end > n:
                self._position += n - i
                return mask
            # The window completes inside the batch: one redraw, as offer().
            i = window_end
            self._position = 0
            self._chosen = int(self._rng.integers(0, self._period))

    def reset(self) -> None:
        self._position = 0
        self._chosen = int(self._rng.integers(0, self._period))


class BernoulliPacketSampler(PacketSampler):
    """Independent coin flip per packet (iid simple random sampling)."""

    name = "bernoulli"

    def __init__(self, rate: float, rng=None) -> None:
        self._rate = require_probability("rate", rate)
        self._rng = normalize_rng(rng)

    def offer(self, timestamp: float, size: int) -> bool:
        return bool(self._rng.random() < self._rate)

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return self._rng.random(len(timestamps)) < self._rate


class SizeBiasedSampler(PacketSampler):
    """Size-dependent sampling (Estan-Varghese style): p = min(size/B, 1).

    Large packets are always sampled; small packets proportionally.  The
    byte-weighted analogue of the paper's "bias toward large values"
    lesson, included as a packet-level baseline.
    """

    name = "size_biased"

    def __init__(self, byte_threshold: float, rng=None) -> None:
        require_positive("byte_threshold", byte_threshold)
        self._threshold = float(byte_threshold)
        self._rng = normalize_rng(rng)

    def offer(self, timestamp: float, size: int) -> bool:
        p = min(size / self._threshold, 1.0)
        return bool(self._rng.random() < p)

    def offer_batch(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        p = np.minimum(np.asarray(sizes, dtype=np.float64) / self._threshold, 1.0)
        return self._rng.random(p.size) < p


def apply_sampler(sampler: PacketSampler, trace: PacketTrace) -> PacketTrace:
    """Run a packet sampler over a trace; returns the sampled sub-trace."""
    if len(trace) == 0:
        return trace
    return trace.select(sampler.offer_batch(trace.timestamps, trace.sizes))


def _reference_apply_sampler(
    sampler: PacketSampler, trace: PacketTrace
) -> PacketTrace:
    """The per-packet ``offer`` loop: the batch methods' parity oracle.

    Runs the base class's ``offer_batch`` whatever the sampler overrides.
    """
    if len(trace) == 0:
        return trace
    return trace.select(
        PacketSampler.offer_batch(sampler, trace.timestamps, trace.sizes)
    )
