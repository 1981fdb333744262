"""PoolRuntime: the session-scoped persistent worker pool.

Pins the runtime contracts: one fork amortized across calls, recycle on
config change, a call-scoped pool for bare calls that leaves no worker
behind, loud serial degradation when no pool can be created, and — the
trace-visibility half — publishes made *after* the pool forked switch
to the attach-by-name ``shm`` backend so persistent workers still see
the parent's bits.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.parallel.runtime as runtime_module
from repro.parallel import active_runtime, pool_runtime, run_shards
from repro.parallel.runtime import (
    attach_preferred,
    ensure_runtime,
    runtime_mode_from_env,
)
from repro.trace.store import _PUBLISHED, TraceStore

SEED = 20260726


def _pid(_):
    return os.getpid()


def _registry_view(handle):
    """What a worker sees: (was it fork-inherited?, the attached sum)."""
    return (handle.ref in _PUBLISHED, float(handle.values().sum()))


def _fail(x):
    raise ValueError(f"worker exploded on {x}")


def _double(x):
    return 2 * x


def _child_runtime_state(_):
    """Fresh-forked worker: what does the inherited runtime look like?"""
    return active_runtime() is None


def _nested_run_shards(x):
    """Worker that itself dispatches — must degrade, never deadlock."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_shards(_double, [(x,), (x + 1,)], workers=2)


class TestPoolReuse:
    def test_pool_forked_lazily_and_reused(self):
        with pool_runtime() as rt:
            assert not rt.has_live_pool()  # nothing forked yet
            first = run_shards(_pid, [(i,) for i in range(4)], workers=2)
            assert rt.has_live_pool()
            assert rt.forks == 1
            second = run_shards(_pid, [(i,) for i in range(4)], workers=2)
            assert rt.forks == 1  # same pool, no second fork
            assert set(first) & set(second)  # literally the same processes
        assert not rt.has_live_pool()  # scope exit tears down

    def test_scope_restores_previous_runtime(self):
        assert active_runtime() is None
        with pool_runtime() as outer:
            assert active_runtime() is outer
            with pool_runtime() as inner:
                assert active_runtime() is inner
            assert active_runtime() is outer
        assert active_runtime() is None

    def test_ensure_runtime_reuses_or_scopes(self):
        with ensure_runtime() as scoped:
            assert active_runtime() is scoped
            assert not scoped.has_live_pool()  # lazy: nothing forked
            with ensure_runtime() as inner:
                assert inner is scoped
        assert active_runtime() is None

    def test_grow_on_bigger_request_recycles(self):
        with pool_runtime() as rt:
            run_shards(_pid, [(1,), (2,)], workers=2)
            assert rt.pool_size == 2
            run_shards(_pid, [(i,) for i in range(6)], workers=4)
            assert rt.forks == 2  # recycled into a bigger pool
            assert rt.pool_size == 4
            run_shards(_pid, [(1,), (2,)], workers=2)
            assert rt.forks == 2  # smaller requests reuse the larger pool

    def test_worker_exceptions_propagate_and_pool_survives(self):
        with pool_runtime() as rt:
            with pytest.raises(ValueError, match="worker exploded"):
                run_shards(_fail, [(1,), (2,)], workers=2)
            assert run_shards(_pid, [(1,), (2,)], workers=2)
            assert rt.forks == 1

    def test_restart_forces_new_pool(self):
        with pool_runtime() as rt:
            run_shards(_pid, [(1,), (2,)], workers=2)
            rt.restart()
            assert not rt.has_live_pool()
            run_shards(_pid, [(1,), (2,)], workers=2)
            assert rt.forks == 2

    def test_small_dispatch_does_not_grow_pool(self):
        """A 2-task call at workers=8 must not recycle a 2-process pool."""
        with pool_runtime() as rt:
            run_shards(_pid, [(1,), (2,)], workers=2)
            assert rt.pool_size == 2
            run_shards(_pid, [(1,), (2,)], workers=8)  # capped at len(tasks)
            assert rt.forks == 1
            assert rt.pool_size == 2


class TestCallScopedPool:
    """A bare ``run_shards`` outside any runtime scope forks its own pool
    and tears it down before returning."""

    def test_bare_call_leaves_no_workers_behind(self):
        assert active_runtime() is None
        assert run_shards(_double, [(i,) for i in range(4)], workers=2) == [
            0, 2, 4, 6,
        ]
        assert active_runtime() is None
        assert multiprocessing.active_children() == []


class TestForkedChildren:
    """A forked child inherits the runtime global but must never use it:
    the pool's handler threads did not survive the fork."""

    def test_child_sees_no_runtime(self):
        with pool_runtime() as rt:
            run_shards(_pid, [(1,), (2,)], workers=2)  # pool live in parent
            assert rt.has_live_pool()
            # The pool's workers forked with the runtime global set;
            # active_runtime() must be None for them.
            assert run_shards(
                _child_runtime_state, [(1,), (2,)], workers=2,
            ) == [True, True]

    def test_nested_dispatch_degrades_serially_not_deadlocks(self):
        with pool_runtime():
            results = run_shards(
                _nested_run_shards, [(1,), (5,)], workers=2
            )
        assert results == [[2, 4], [10, 12]]

    def test_owner_pid_guard(self, monkeypatch):
        with pool_runtime() as rt:
            monkeypatch.setattr(rt, "_owner_pid", os.getpid() + 1)
            assert active_runtime() is None
            assert not attach_preferred()


class TestSerialDegradation:
    def test_pool_failure_warns_once_and_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("semaphores unavailable in sandbox")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        import repro.utils.once as once

        monkeypatch.setattr(once, "_SEEN", set())
        with pool_runtime():
            with pytest.warns(RuntimeWarning, match="semaphores unavailable"):
                assert run_shards(_pid, [(1,), (2,)], workers=2) == [
                    os.getpid(), os.getpid(),
                ]

    def test_closed_runtime_degrades_serially(self, monkeypatch):
        import repro.utils.once as once

        monkeypatch.setattr(
            once, "_SEEN", {"parallel.pool-unavailable"}
        )
        with pool_runtime() as rt:
            rt.close()
            assert run_shards(_pid, [(1,), (2,)], workers=2) == [
                os.getpid(), os.getpid(),
            ]


class TestAttachByName:
    def test_publish_before_pool_uses_inherit(self):
        values = np.random.default_rng(SEED).standard_normal(16384)
        with pool_runtime() as rt:
            assert not attach_preferred()  # no live pool yet
            with TraceStore.publish(values) as store:
                assert store.handle.kind == "inherit"
            assert rt.forks == 0

    def test_publish_after_pool_start_attaches_by_name(self):
        """The tentpole pin: a live pool predating the publish forces shm."""
        values = np.random.default_rng(SEED).standard_normal(16384)
        with pool_runtime() as rt:
            run_shards(_pid, [(1,), (2,)], workers=2)  # fork the pool first
            assert rt.has_live_pool() and attach_preferred()
            with TraceStore.publish(values) as store:
                if store.handle.kind != "shm":
                    pytest.skip("shared memory unavailable in this environment")
                results = run_shards(
                    _registry_view, [(store.handle,), (store.handle,)],
                    workers=2,
                )
            expected = float(values.sum())
            for inherited, total in results:
                # Workers forked before the publish: the registry entry is
                # invisible to them, so this was a genuine by-name attach.
                assert not inherited
                assert total == expected


#: Runs in a fresh interpreter: the resource tracker is a separate
#: process whose complaints only show on the interpreter's stderr.
TRACKER_PROBE = """
import numpy as np

from repro.parallel import pool_runtime, run_shards
from repro.trace.store import TraceStore


def total(handle):
    return float(handle.values().sum())


values = np.arange(4096.0)
# Start this process's resource tracker before any pool forks, so the
# pool's workers share it.
TraceStore.publish(values, backend="shm").close()
with pool_runtime():
    run_shards(abs, [(1,), (2,)], workers=2)
    with TraceStore.publish(values) as store:  # live pool: attach by name
        assert store.handle.kind == "shm"
        assert run_shards(total, [(store.handle,), (store.handle,)],
                          workers=2) == [float(values.sum())] * 2
print("ok")
"""


def test_worker_attach_keeps_the_parent_tracker_registration(tmp_path):
    """Workers sharing the parent's resource tracker must not drop the
    parent's registration of a segment they attach to; if they do, the
    parent's unlink makes the tracker print a KeyError traceback."""
    script = tmp_path / "probe.py"
    script.write_text(TRACKER_PROBE)
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    assert "KeyError" not in proc.stderr


def test_runtime_mode_reports_the_persistent_pool():
    assert runtime_mode_from_env() == "persistent"


def test_module_state_clean():
    """No test above may leak an active runtime into the session."""
    assert runtime_module._ACTIVE_RUNTIME is None
