"""The deterministic fault-injection grammar and its session hooks.

What this file pins:

* the ``REPRO_FAULTS`` / ``--faults`` grammar parses exactly the
  documented directives and rejects everything else loudly (a user who
  asked for chaos must never silently get a fault-free run);
* directive matching is a pure function of ``(shard, attempt)`` /
  append index, with first-attempt defaults and ``attempt=*``;
* plan activation: a :func:`fault_plan` scope overrides the env plan
  (including a ``None`` scope masking it; the env contract itself is
  the knob table's, pinned in ``tests/test_config.py``), and entering
  a scope resets the global shard counter so directives address shards
  counted from the scope's start;
* plans are picklable values — they must ride to pool workers inside
  task arguments.
"""

from __future__ import annotations

import pickle
import time

import pytest

import repro.faults as faults
from repro.errors import ParameterError
from repro.faults import (
    call_with_faults,
    fault_plan,
    next_shard_base,
    parse_faults,
    reset_shard_counter,
)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No test may see another's shard numbering."""
    reset_shard_counter()
    yield
    reset_shard_counter()


# ----------------------------------------------------------------- grammar
class TestGrammar:
    def test_kill_defaults_to_first_attempt(self):
        plan = parse_faults("kill:shard=3")
        (d,) = plan.directives
        assert (d.kind, d.shard, d.attempt) == ("kill", 3, 1)
        assert plan.shard_fault(3, 1) is d
        assert plan.shard_fault(3, 2) is None
        assert plan.shard_fault(2, 1) is None

    def test_attempt_star_matches_every_attempt(self):
        plan = parse_faults("kill:shard=3:attempt=*")
        for attempt in (1, 2, 7):
            assert plan.shard_fault(3, attempt) is not None

    def test_delay_carries_seconds(self):
        plan = parse_faults("delay:shard=5:seconds=30")
        (d,) = plan.directives
        assert (d.kind, d.shard, d.seconds) == ("delay", 5, 30.0)

    def test_store_directives(self):
        plan = parse_faults("torn:append=2,corrupt:append=4")
        assert plan.store_fault(2).kind == "torn"
        assert plan.store_fault(4).kind == "corrupt"
        assert plan.store_fault(3) is None
        assert not plan.has_shard_faults()

    def test_mixed_plan_and_semicolon_separator(self):
        plan = parse_faults("kill:shard=0; delay:shard=1:seconds=2")
        assert len(plan.directives) == 2
        assert plan.has_shard_faults()

    def test_render_round_trips(self):
        spec = "kill:shard=3:attempt=*,delay:shard=5:seconds=30,torn:append=2"
        plan = parse_faults(spec)
        assert parse_faults(plan.render()) == plan

    def test_plan_is_picklable(self):
        plan = parse_faults("kill:shard=1,corrupt:append=3")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestGrammarRejections:
    @pytest.mark.parametrize("spec, match", [
        ("explode:shard=1", "unknown fault kind"),
        ("kill", "needs shard=N"),
        ("delay:shard=1", "needs seconds=S"),
        ("torn", "needs append=N"),
        ("kill:shard", "expected key=value"),
        ("kill:shard=1:shard=2", "duplicate fault field"),
        ("kill:shard=x", "not an integer"),
        ("kill:shard=-1", "must be >= 0"),
        ("kill:shard=1:attempt=0", "must be >= 1"),
        ("delay:shard=1:seconds=abc", "not a number"),
        ("delay:shard=1:seconds=0", "must be positive"),
        ("torn:append=0", "must be >= 1"),
        ("kill:shard=1:seconds=3", "does not take field"),
        ("torn:shard=1", "does not take field"),
        ("", "no directives"),
        ("  , ; ", "no directives"),
    ])
    def test_malformed_specs_raise(self, spec, match):
        with pytest.raises(ParameterError, match=match):
            parse_faults(spec)


# -------------------------------------------------------------- activation
class TestActivation:
    def test_no_plan_by_default(self):
        assert faults.active_plan() is None

    def test_none_context_masks_env_plan(self, monkeypatch):
        """How fault-free reference runs happen inside a chaos session."""
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=2")
        with fault_plan(None):
            assert faults.active_plan() is None

    def test_scope_accepts_prebuilt_plan(self):
        plan = parse_faults("kill:shard=1")
        with fault_plan(plan) as active:
            assert active is plan

    def test_scopes_nest_and_restore(self):
        with fault_plan("kill:shard=1") as outer:
            with fault_plan("kill:shard=2") as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None


# ----------------------------------------------------------- shard counter
class TestShardCounter:
    def test_bases_are_consecutive(self):
        reset_shard_counter()
        assert next_shard_base(3) == 0
        assert next_shard_base(2) == 3
        assert next_shard_base(1) == 5

    def test_scope_entry_resets_and_exit_restores(self):
        reset_shard_counter()
        next_shard_base(7)
        with fault_plan("kill:shard=0"):
            assert next_shard_base(2) == 0  # counted from the scope start
        assert next_shard_base(1) == 7  # outer numbering resumes


# ------------------------------------------------------------ worker shim
def _double(x):
    return 2 * x


class TestCallWithFaults:
    def test_no_matching_directive_is_transparent(self):
        plan = parse_faults("kill:shard=5")
        assert call_with_faults(plan, 0, 1, False, _double, (21,)) == 42

    def test_kill_outside_a_worker_is_inert(self):
        """The serial path has no worker to kill; exiting would take the
        session down, which is not the failure being modelled."""
        plan = parse_faults("kill:shard=0")
        assert call_with_faults(plan, 0, 1, False, _double, (21,)) == 42

    def test_delay_sleeps_then_runs(self):
        plan = parse_faults("delay:shard=0:seconds=0.05")
        start = time.monotonic()
        assert call_with_faults(plan, 0, 1, False, _double, (21,)) == 42
        assert time.monotonic() - start >= 0.05

    def test_delay_respects_attempt(self):
        plan = parse_faults("delay:shard=0:seconds=5")
        start = time.monotonic()
        assert call_with_faults(plan, 0, 2, False, _double, (21,)) == 42
        assert time.monotonic() - start < 1.0
