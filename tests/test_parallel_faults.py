"""Supervised dispatch: worker-loss recovery, deadlines, retry budgets.

Pins the PR 6 tentpole contracts on both runtime scopes (call-scoped
and session): a killed worker loses only its own shards and the retry is
bit-identical; a shard that blows its deadline is re-dispatched; an
exhausted budget raises :class:`RetryBudgetError` *and leaves the
session usable* (the pool is recycled, not poisoned); a worker
exception still propagates unchanged; and ``max_attempts=1`` restores
the plain ``starmap`` fast path so the bench control measures real
dispatch, not supervision.

Timing discipline: injected delays are the only sleeps, deadlines are
an order of magnitude above poll granularity, and no assertion depends
on wall-clock beyond "the 5 s hang did not happen".
"""

from __future__ import annotations

import time

import pytest

import repro.faults as faults
import repro.parallel.executor as executor
import repro.parallel.runtime as runtime_module
from repro.errors import (
    ParameterError,
    RetryBudgetError,
)
from repro.faults import fault_plan
from repro.parallel import (
    RetryPolicy,
    get_retry_policy,
    pool_runtime,
    resolve_retry_policy,
    retry_policy,
    run_shards,
    set_retry_policy,
)

#: Generous budget so an injected 5 s delay hitting the deadline path
#: is the *only* way a shard gets retried for timing reasons.
FAST = RetryPolicy(max_attempts=3, shard_deadline=1.5, backoff_base=0.01)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"worker exploded on {x}")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset_shard_counter()
    yield
    faults.reset_shard_counter()


# ------------------------------------------------------------ RetryPolicy
class TestRetryPolicy:
    def test_defaults_supervise(self):
        pol = RetryPolicy()
        assert pol.max_attempts == 3
        assert pol.supervises

    def test_single_attempt_without_deadline_does_not_supervise(self):
        assert not RetryPolicy(max_attempts=1).supervises
        assert RetryPolicy(max_attempts=1, shard_deadline=2.0).supervises

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"shard_deadline": 0.0}, "shard_deadline"),
        ({"shard_deadline": -1.0}, "shard_deadline"),
        ({"backoff_base": -0.1}, "backoff_base"),
        ({"backoff_cap": -1.0}, "backoff_cap"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            RetryPolicy(**kwargs)

    def test_resolve_passthrough_and_default(self):
        pol = RetryPolicy(max_attempts=2)
        assert resolve_retry_policy(pol) is pol
        assert resolve_retry_policy(None) == get_retry_policy()

    def test_resolve_rejects_wrong_type(self):
        with pytest.raises(ParameterError, match="RetryPolicy"):
            resolve_retry_policy(3)

    def test_context_sets_and_restores(self):
        before = get_retry_policy()
        pol = RetryPolicy(max_attempts=5)
        with retry_policy(pol):
            assert get_retry_policy() is pol
        assert get_retry_policy() == before

    def test_none_context_is_a_no_op(self):
        before = get_retry_policy()
        with retry_policy(None):
            assert get_retry_policy() == before

    def test_set_installs_session_default(self):
        before = get_retry_policy()
        pol = RetryPolicy(max_attempts=2)
        set_retry_policy(pol)
        try:
            assert get_retry_policy() is pol
            assert resolve_retry_policy(None) is pol
        finally:
            set_retry_policy(before)


# ------------------------------------------ call-scoped-pool supervision
class TestFreshPoolRecovery:
    """Bare calls: each dispatch runs on its own call-scoped runtime."""

    def test_kill_recovery_is_bit_identical(self):
        with fault_plan("kill:shard=1"):
            got = run_shards(_square, [(i,) for i in range(4)],
                             workers=2, policy=FAST)
        assert got == [0, 1, 4, 9]

    def test_deadline_retry_recovers_a_hung_shard(self):
        deadline = RetryPolicy(max_attempts=3, shard_deadline=0.5,
                               backoff_base=0.01)
        start = time.monotonic()
        with fault_plan("delay:shard=0:seconds=5"):
            got = run_shards(_square, [(i,) for i in range(3)],
                             workers=2, policy=deadline)
        elapsed = time.monotonic() - start
        assert got == [0, 1, 4]
        # The 5 s injected hang must have been abandoned, not waited out.
        assert elapsed < 4.0

    def test_budget_exhaustion_raises_with_detail(self):
        with fault_plan("kill:shard=1:attempt=*"):
            with pytest.raises(RetryBudgetError, match="3 attempt"):
                run_shards(_square, [(i,) for i in range(4)],
                           workers=2, policy=FAST)

    def test_worker_exception_still_propagates(self):
        with pytest.raises(ValueError, match="worker exploded on"):
            run_shards(_boom, [(i,) for i in range(4)],
                       workers=2, policy=FAST)

    def test_serial_path_ignores_kill_but_applies_delay(self):
        start = time.monotonic()
        with fault_plan("kill:shard=0,delay:shard=1:seconds=0.05"):
            got = run_shards(_square, [(i,) for i in range(3)], workers=1)
        assert got == [0, 1, 4]
        assert time.monotonic() - start >= 0.05

    def test_plain_fast_path_skips_supervision(self, monkeypatch):
        def _no_supervision(*args, **kwargs):
            raise AssertionError("max_attempts=1 must use plain starmap")

        # Every pool dispatch goes through the runtime's starmap.
        monkeypatch.setattr(runtime_module, "_supervise", _no_supervision)
        got = run_shards(_square, [(i,) for i in range(4)], workers=2,
                         policy=RetryPolicy(max_attempts=1))
        assert got == [0, 1, 4, 9]

    def test_fault_plan_forces_supervision_onto_plain_policy(self):
        """A kill under max_attempts=1 would vanish on the starmap path —
        dispatch must upgrade to supervision whenever shard faults exist."""
        with fault_plan("kill:shard=1"):
            got = run_shards(_square, [(i,) for i in range(4)], workers=2,
                             policy=RetryPolicy(max_attempts=2))
        assert got == [0, 1, 4, 9]


# --------------------------------------------- persistent-pool supervision
class TestRuntimeRecovery:
    def test_kill_recycles_pool_and_session_survives(self):
        with pool_runtime() as rt:
            with fault_plan("kill:shard=1"):
                got = run_shards(_square, [(i,) for i in range(4)],
                                 workers=2, policy=FAST)
            assert got == [0, 1, 4, 9]
            # Recovery tore down the broken pool and forked a new one.
            assert rt.forks == 2
            # The recycled pool serves later dispatches normally.
            again = run_shards(_square, [(i,) for i in range(4)],
                               workers=2, policy=FAST)
            assert again == [0, 1, 4, 9]
            assert rt.forks == 2

    def test_budget_exhaustion_does_not_poison_the_session(self):
        with pool_runtime():
            with fault_plan("kill:shard=1:attempt=*"):
                with pytest.raises(RetryBudgetError):
                    run_shards(_square, [(i,) for i in range(4)],
                               workers=2, policy=FAST)
            got = run_shards(_square, [(i,) for i in range(4)],
                             workers=2, policy=FAST)
            assert got == [0, 1, 4, 9]

    def test_healthy_supervised_dispatch_forks_once(self):
        with pool_runtime() as rt:
            for _ in range(3):
                got = run_shards(_square, [(i,) for i in range(4)],
                                 workers=2, policy=FAST)
                assert got == [0, 1, 4, 9]
            assert rt.forks == 1


def test_module_state_clean():
    """Last in file: no test may leak session supervision state."""
    assert runtime_module._ACTIVE_RUNTIME is None
    assert executor.get_retry_policy() == RetryPolicy()
    assert faults.active_plan() is None
