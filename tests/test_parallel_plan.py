"""Tests for repro.parallel.plan: shard coverage, balance, edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.parallel.plan import Shard, ShardPlan


class TestShard:
    def test_size_and_slice(self):
        shard = Shard(index=0, start=3, stop=7)
        assert shard.size == 4
        assert shard.range == slice(3, 7)

    def test_malformed_rejected(self):
        with pytest.raises(ParameterError, match="malformed"):
            Shard(index=0, start=5, stop=2)
        with pytest.raises(ParameterError, match="malformed"):
            Shard(index=0, start=-1, stop=2)


class TestShardPlan:
    def test_even_split(self):
        plan = ShardPlan.split(8, 4)
        assert [s.size for s in plan.shards] == [2, 2, 2, 2]

    def test_remainder_goes_to_leading_shards(self):
        plan = ShardPlan.split(10, 4)
        assert [s.size for s in plan.shards] == [3, 3, 2, 2]

    def test_fewer_items_than_workers(self):
        plan = ShardPlan.split(3, 8)
        assert plan.n_shards == 3
        assert [s.size for s in plan.shards] == [1, 1, 1]

    def test_zero_items_gives_empty_plan(self):
        plan = ShardPlan.split(0, 4)
        assert plan.n_shards == 0
        assert plan.shards == ()

    def test_single_worker_single_shard(self):
        plan = ShardPlan.split(100, 1)
        assert plan.n_shards == 1
        assert plan.shards[0].range == slice(0, 100)

    def test_negative_items_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            ShardPlan.split(-1, 4)

    def test_zero_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers"):
            ShardPlan.split(4, 0)

    def test_slices_in_order(self):
        plan = ShardPlan.split(7, 3)
        assert plan.slices() == [slice(0, 3), slice(3, 5), slice(5, 7)]


@given(
    n_items=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=64),
)
def test_plan_partitions_exactly(n_items, workers):
    """Shards tile [0, n_items) contiguously with balanced sizes."""
    plan = ShardPlan.split(n_items, workers)
    assert plan.n_shards == min(workers, n_items)
    position = 0
    sizes = []
    for index, shard in enumerate(plan.shards):
        assert shard.index == index
        assert shard.start == position
        position = shard.stop
        sizes.append(shard.size)
    assert position == n_items
    if sizes:
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1
