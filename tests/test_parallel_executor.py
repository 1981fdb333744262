"""Executor configuration satellites: env default, strict ints, loud fallback."""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro.errors import ParameterError
from repro.parallel import (
    default_workers,
    pool_start_method,
    resolve_workers,
    run_shards,
    set_default_workers,
    sharing_enabled,
    trace_sharing,
)


def _double(x):
    return 2 * x


class TestEnvDefault:
    @pytest.mark.parametrize("raw", ["zero", "2.5", "0", "-3"])
    def test_invalid_value_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestStrictIntWorkers:
    @pytest.mark.parametrize("bad", [2.5, 1.0, "3", True, False])
    def test_set_default_workers_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            set_default_workers(bad)

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_default_workers_context_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            with default_workers(bad):
                pass  # pragma: no cover

    @pytest.mark.parametrize("bad", [2.5, 1.5, "4", True])
    def test_resolve_workers_rejects_non_int(self, bad):
        with pytest.raises(ParameterError, match="workers"):
            resolve_workers(bad)

    def test_genuine_ints_accepted(self):
        assert resolve_workers(3) == 3
        with default_workers(2):
            assert resolve_workers(None) == 2


class TestLoudSerialFallback:
    def test_pool_failure_warns_once_naming_cause(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("semaphores unavailable in sandbox")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        import repro.utils.once as once

        monkeypatch.setattr(once, "_SEEN", set())
        with pytest.warns(RuntimeWarning, match="semaphores unavailable"):
            assert run_shards(_double, [(1,), (2,)], workers=2) == [2, 4]
        # Second failure in the same session is silent (one-time warning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_shards(_double, [(3,), (4,)], workers=2) == [6, 8]

    def test_serial_path_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_shards(_double, [(5,)], workers=4) == [10]


class TestSharingToggle:
    def test_default_on_and_restored(self):
        assert sharing_enabled()
        with trace_sharing(False):
            assert not sharing_enabled()
        assert sharing_enabled()

    def test_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with trace_sharing(False):
                raise RuntimeError("boom")
        assert sharing_enabled()


def test_pool_start_method_is_real():
    assert pool_start_method() in multiprocessing.get_all_start_methods()


class TestPersistentPoolDeterminism:
    """A multi-call session on the persistent runtime is bit-identical to
    call-scoped-pool and serial runs — the PR 4 acceptance pin."""

    def test_multi_call_session_bit_identical(self):
        import numpy as np

        from repro.core.systematic import SystematicSampler
        from repro.parallel import parallel_instance_means, pool_runtime
        from repro.traffic.synthetic import fgn_trace

        trace = fgn_trace(1 << 13, 20260726)
        sampler = SystematicSampler(interval=64, offset=None)

        def session(workers):
            return [
                parallel_instance_means(sampler, trace, 12, 20260726 + i,
                                        workers=workers)
                for i in range(3)
            ]

        serial = session(1)
        fresh = session(4)
        with pool_runtime() as rt:
            pooled = session(4)
            assert rt.forks <= 1  # the whole session shared one pool
        for a, b, c in zip(serial, fresh, pooled):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_estimators_identical_on_reused_pool(self):
        import numpy as np

        from repro.hurst.rs import default_window_sizes
        from repro.parallel import parallel_rs_statistics, pool_runtime
        from repro.traffic.synthetic import fgn_trace

        x = fgn_trace(1 << 13, 7).values
        sizes = default_window_sizes(x.size)
        fresh = parallel_rs_statistics(x, sizes, workers=4)
        with pool_runtime():
            pooled = [parallel_rs_statistics(x, sizes, workers=4)
                      for __ in range(3)]
        for p in pooled:
            # Same plan, same partials, same merge order: exact equality.
            np.testing.assert_array_equal(fresh, p)
