"""Packet-level synthesis from a binned rate process.

Converts a per-bin byte-volume series into individual packets with
timestamps, sizes, and OD-pair assignments — the inverse of
:mod:`repro.trace.binning`.  Used by the Bell-Labs-like trace substitute so
that the full packet → flow → binning → sampling pipeline is exercised on
synthetic data.

:func:`packetize` is block-vectorized.  Every random draw of the per-bin
algorithm is a uniform double (``Generator.choice(p=...)`` is
``cdf.searchsorted(random(k), "right")``), so the fast path draws one pool
of doubles per block of bins, maps the whole pool to packet sizes once,
replays the per-bin carry/cut recurrence as scalar integer arithmetic on
the pool's size prefix sum, and gathers sizes, timestamps and OD pairs
with index arithmetic.  It then rewinds the generator to exactly the
doubles the per-bin loop would have consumed.  That loop survives as
:func:`_reference_packetize`, the parity oracle: same trace, bit for bit,
and the same generator state afterwards.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.trace.packet import PROTO_TCP, PacketTrace
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_positive

#: Bins per block of the vectorized packetizer.  One block's pool of
#: uniforms (about three doubles per packet) and its size prefix sum are
#: the only scratch memory; no pool ever spans the whole trace.
_PACKETIZE_BLOCK = 1 << 11


def _require_weights(name: str, weights) -> np.ndarray:
    """``weights`` as float64 if finite, non-negative and summing to > 0.

    Sampling by CDF search does not detect bad weights itself: a NaN or
    negative entry would silently misassign draws, so reject them here.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ParameterError(f"{name} must be finite")
    if np.any(w < 0):
        raise ParameterError(f"{name} must be non-negative")
    total = w.sum()
    if not (np.isfinite(total) and total > 0):
        raise ParameterError(f"{name} must sum to a finite value > 0")
    return w


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(p=p)`` searches its uniforms against."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class PacketSizeMix:
    """Discrete packet-size distribution.

    The default mix (40/576/1500 bytes at 50/25/25%) is the classical
    tri-modal Internet size distribution: TCP ACKs, the historical default
    MSS path, and Ethernet-MTU-full data packets.
    """

    sizes: tuple[int, ...] = (40, 576, 1500)
    weights: tuple[float, ...] = (0.5, 0.25, 0.25)

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ParameterError("sizes and weights must be equal-length, non-empty")
        if any(s <= 0 for s in self.sizes):
            raise ParameterError("packet sizes must be positive")
        _require_weights("weights", self.weights)

    @property
    def probabilities(self) -> np.ndarray:
        w = np.asarray(self.weights, dtype=np.float64)
        return w / w.sum()

    @property
    def mean_size(self) -> float:
        return float(np.dot(self.sizes, self.probabilities))

    def sample(self, count: int, rng=None) -> np.ndarray:
        gen = normalize_rng(rng)
        return gen.choice(self.sizes, size=count, p=self.probabilities).astype(
            np.uint32
        )


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights for ``n`` items."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    require_positive("exponent", exponent)
    raw = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return raw / raw.sum()


def _validated(byte_volumes, bin_width, size_mix, od_pairs, od_weights):
    """Check every argument before any draw; return the normalised ones."""
    require_positive("bin_width", bin_width)
    mix = size_mix or PacketSizeMix()
    volumes = np.asarray(byte_volumes, dtype=np.float64)
    if volumes.ndim != 1:
        raise ParameterError("byte_volumes must be one-dimensional")
    if not np.all(np.isfinite(volumes)):
        raise ParameterError("byte_volumes must be finite")
    if np.any(volumes < 0):
        raise ParameterError("byte_volumes must be non-negative")
    if od_pairs is None:
        od_pairs = [(1, 2)]
    if not len(od_pairs):
        raise ParameterError("od_pairs must be non-empty")
    if od_weights is None:
        od_weights = np.full(len(od_pairs), 1.0 / len(od_pairs))
    if np.size(od_weights) != len(od_pairs):
        raise ParameterError("od_weights must match od_pairs in length")
    od_weights = _require_weights("od_weights", od_weights)
    return mix, volumes, od_pairs, od_weights / od_weights.sum()


def packetize(
    byte_volumes: np.ndarray,
    bin_width: float,
    *,
    size_mix: PacketSizeMix | None = None,
    od_pairs: list[tuple[int, int]] | None = None,
    od_weights: np.ndarray | None = None,
    t0: float = 0.0,
    protocol: int = PROTO_TCP,
    rng=None,
) -> PacketTrace:
    """Turn per-bin byte volumes into a time-sorted packet trace.

    For each bin the target byte volume is converted to a packet count by
    drawing sizes from ``size_mix`` until the volume is met (the final
    packet may overshoot by less than one MTU).  Timestamps are uniform
    inside the bin; each packet is assigned an OD pair sampled from
    ``od_weights`` (defaults to a single pair (1, 2)).

    The returned trace's binned byte series therefore reproduces
    ``byte_volumes`` up to one-packet quantisation per bin.  Output and
    generator consumption are bit-identical to
    :func:`_reference_packetize`.
    """
    mix, volumes, od_pairs, od_weights = _validated(
        byte_volumes, bin_width, size_mix, od_pairs, od_weights
    )
    gen = normalize_rng(rng)
    pairs_arr = np.asarray(od_pairs, dtype=np.uint32)
    blocks = _PacketBlocks(gen, mix, _choice_cdf(od_weights))
    pieces = []
    for start in range(0, volumes.size, _PACKETIZE_BLOCK):
        piece = blocks.run(volumes[start : start + _PACKETIZE_BLOCK], start)
        if piece is not None:
            bins, sizes, codes = piece
            timestamps = t0 + bins * bin_width
            pairs = pairs_arr[codes]
            pieces.append((timestamps, sizes, pairs[:, 0], pairs[:, 1]))
    if not pieces:
        return PacketTrace.empty()
    timestamps, sizes, sources, destinations = (
        np.concatenate([piece[i] for piece in pieces]) for i in range(4)
    )
    protocols = np.full(sizes.size, protocol, dtype=np.uint8)
    return PacketTrace(timestamps, sources, destinations, sizes, protocols)


class _PacketBlocks:
    """Replays the reference's per-bin draws one block of bins at a time.

    For an emitted bin starting at pool offset ``o`` the reference draws,
    in order: ``n`` size uniforms (the initial guess plus any extension
    rounds), ``k`` timestamp uniforms and ``k`` OD-pair uniforms, where
    ``k <= n`` is the cut that first meets the bin's byte target.  The
    bin therefore owns pool slots ``[o, o + n + 2k)``.  Mapping the whole
    pool to sizes up front gives every candidate cumulative volume as a
    difference of one integer prefix sum ``C``, so each cut is a
    ``bisect`` for ``C[o] + ceil(target)`` — exact, because cumulative
    sizes are integers.
    """

    def __init__(self, gen, mix: PacketSizeMix, od_cdf: np.ndarray) -> None:
        self._gen = gen
        self._size_cdf = _choice_cdf(mix.probabilities)
        self._size_values = np.asarray(mix.sizes).astype(np.uint32)
        self._mean = mix.mean_size
        self._half_min = min(mix.sizes) / 2.0
        self._od_cdf = od_cdf
        self._carry = 0.0

    def _draw(self, count: int) -> None:
        """Append ``count`` uniforms to the pool and extend ``C``."""
        uniforms = self._gen.random(count)
        sizes = self._size_values[self._size_cdf.searchsorted(uniforms, "right")]
        prefix = np.cumsum(sizes, dtype=np.int64)
        prefix += self._prefix[-1]
        self._pools.append(uniforms)
        self._sizes.append(sizes)
        self._prefix.extend(prefix.tolist())

    def _cover(self, slot: int) -> None:
        """Draw until ``C[slot]`` exists (the pool holds ``slot`` uniforms)."""
        while slot >= len(self._prefix):
            self._draw(max(slot - len(self._prefix) + 1, len(self._prefix) // 4))

    def run(self, volumes: np.ndarray, first_bin: int):
        """Packets of one block: ``(bin + u, sizes, od codes)`` or None."""
        gen = self._gen
        saved = gen.bit_generator.state
        self._pools, self._sizes, self._prefix = [], [], [0]
        mean, half_min = self._mean, self._half_min
        expected = 3.0 * float(volumes.sum()) / mean + 6 * volumes.size
        self._draw(int(expected) + 64)
        prefix = self._prefix
        emitted = []  # (bin, offset, n, k) per emitted bin
        carry = self._carry
        offset = 0
        for b, volume in enumerate(volumes.tolist(), start=first_bin):
            target = volume + carry
            if target < half_min:
                carry = target
                continue
            n = max(int(target / mean) + 4, 1)
            base = prefix[offset]
            while True:
                end = offset + n
                self._cover(end)
                filled = prefix[end] - base
                if filled >= target:
                    break
                n += max(int((target - filled) / mean) + 4, 1)
            cut = bisect_left(prefix, base + math.ceil(target), offset + 1, end + 1)
            k = cut - offset
            carry = target - (prefix[cut] - base)
            emitted.append((b, offset, n, k))
            offset = end + 2 * k
            self._cover(offset)
        self._carry = carry
        # Rewind, then consume exactly the doubles the loop would have.
        gen.bit_generator.state = saved
        gen.random(offset)
        if not emitted:
            return None
        return self._gather(np.array(emitted, dtype=np.int64))

    def _gather(self, emitted: np.ndarray):
        bins, offsets, ns, ks = emitted.T
        pool = np.concatenate(self._pools)
        sizes = np.concatenate(self._sizes)
        starts = np.cumsum(ks) - ks
        within = np.arange(int(ks.sum())) - np.repeat(starts, ks)
        size_slots = np.repeat(offsets, ks) + within
        time_slots = size_slots + np.repeat(ns, ks)
        pair_slots = time_slots + np.repeat(ks, ks)
        # Each bin's values lie in [b, b + 1] and ``b + u`` is monotone
        # in u, so one sort of the block equals the per-bin sorts.
        bins_u = np.sort(np.repeat(bins, ks) + pool[time_slots])
        codes = self._od_cdf.searchsorted(pool[pair_slots], "right")
        return bins_u, sizes[size_slots], codes


def _reference_packetize(
    byte_volumes: np.ndarray,
    bin_width: float,
    *,
    size_mix: PacketSizeMix | None = None,
    od_pairs: list[tuple[int, int]] | None = None,
    od_weights: np.ndarray | None = None,
    t0: float = 0.0,
    protocol: int = PROTO_TCP,
    rng=None,
) -> PacketTrace:
    """The original per-bin loop: the parity oracle for :func:`packetize`."""
    mix, volumes, od_pairs, od_weights = _validated(
        byte_volumes, bin_width, size_mix, od_pairs, od_weights
    )
    gen = normalize_rng(rng)

    # Draw sizes until the cumulative volume first reaches the bin target.
    # The per-bin quantisation error (at most one packet) is carried into
    # the next bin, so the trace-level byte total tracks the input series
    # to within a single packet regardless of how small the bins are.
    mean_size = mix.mean_size
    all_ts: list[np.ndarray] = []
    all_sizes: list[np.ndarray] = []
    pair_index: list[np.ndarray] = []
    carry = 0.0
    for b, volume in enumerate(volumes):
        target = volume + carry
        if target < min(mix.sizes) / 2.0:
            carry = target
            continue
        sizes = mix.sample(max(int(target / mean_size) + 4, 1), gen)
        cumulative = np.cumsum(sizes, dtype=np.float64)
        while cumulative[-1] < target:
            extra = mix.sample(
                max(int((target - cumulative[-1]) / mean_size) + 4, 1), gen
            )
            sizes = np.concatenate([sizes, extra])
            cumulative = np.cumsum(sizes, dtype=np.float64)
        cut = int(np.searchsorted(cumulative, target)) + 1
        sizes = sizes[:cut]
        carry = target - float(cumulative[cut - 1])
        ts = t0 + (b + np.sort(gen.random(sizes.size))) * bin_width
        all_ts.append(ts)
        all_sizes.append(sizes)
        pair_index.append(gen.choice(len(od_pairs), size=sizes.size, p=od_weights))

    if not all_ts:
        return PacketTrace.empty()

    timestamps = np.concatenate(all_ts)
    sizes = np.concatenate(all_sizes)
    chosen = np.concatenate(pair_index)
    pairs_arr = np.asarray(od_pairs, dtype=np.uint32)
    sources = pairs_arr[chosen, 0]
    destinations = pairs_arr[chosen, 1]
    protocols = np.full(sizes.size, protocol, dtype=np.uint8)
    return PacketTrace(timestamps, sources, destinations, sizes, protocols)
