"""Shard planning: split an ensemble into balanced contiguous ranges.

A :class:`ShardPlan` is the deterministic first half of every parallel
computation in :mod:`repro.parallel`: given the number of independent
items (sampling instances, estimator windows, trace chunks) and a worker
budget, it produces contiguous ``[start, stop)`` shards whose sizes differ
by at most one.  Because shards are contiguous and ordered, any
order-preserving reduction over per-shard results (concatenation of
instance means, summation of exact counts) is independent of the shard
count — the property the ``workers=1`` versus ``workers=N`` determinism
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class Shard:
    """One contiguous range of ensemble items, ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ParameterError(
                f"shard range [{self.start}, {self.stop}) is malformed"
            )

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def range(self) -> slice:
        return slice(self.start, self.stop)


@dataclass(frozen=True)
class ShardPlan:
    """Balanced contiguous partition of ``n_items`` into shards."""

    n_items: int
    shards: tuple[Shard, ...]

    @classmethod
    def split(cls, n_items: int, workers: int) -> "ShardPlan":
        """Partition ``n_items`` across at most ``workers`` shards.

        Produces ``min(workers, n_items)`` shards; the first
        ``n_items % n_shards`` shards carry one extra item.  ``n_items=0``
        yields an empty plan (no shards at all), so zero-size ensembles
        never reach a worker pool.
        """
        if n_items < 0:
            raise ParameterError(f"n_items must be non-negative, got {n_items}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        n_shards = min(workers, n_items)
        if n_shards == 0:
            return cls(n_items=0, shards=())
        base, extra = divmod(n_items, n_shards)
        shards = []
        start = 0
        for index in range(n_shards):
            size = base + (1 if index < extra else 0)
            shards.append(Shard(index=index, start=start, stop=start + size))
            start += size
        return cls(n_items=n_items, shards=tuple(shards))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def slices(self) -> list[slice]:
        """The shard ranges as plain slices, in shard order."""
        return [shard.range for shard in self.shards]
