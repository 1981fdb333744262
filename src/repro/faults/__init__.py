"""Deterministic fault injection for the fault-tolerant execution stack.

The supervision layer in :mod:`repro.parallel` (worker-loss recovery,
shard deadlines, retry budgets) and the campaign quarantine in
:mod:`repro.scenarios` only earn trust if their failure paths are
exercised on every CI run — so this package makes failure *injectable*
and *reproducible*: a :class:`~repro.faults.plan.FaultPlan` names exact
shards to kill or delay and exact store appends to tear or corrupt, and
the same plan injects the same faults on every run.

Activation, in precedence order:

1. the :func:`fault_plan` context manager (what tests and the
   ``--faults`` CLI flag use), which also resets the session shard
   counter so directives address shards relative to the scope's start;
2. the ``REPRO_FAULTS`` environment variable, an entry of the
   :mod:`repro.config` knob table, parsed lazily on first consultation
   (malformed values raise :class:`~repro.errors.ParameterError` naming
   the variable — a user who asked for chaos must not silently get a
   fault-free run).

The executor consults :func:`active_plan` per dispatch and claims shard
indices through :func:`next_shard_base`; the campaign store consults
``plan.store_fault`` per append.  With no plan active both hooks are a
``None`` check — the hot path stays fault-free in cost as well as in
behaviour.

``python -m repro.faults.chaos`` runs the end-to-end chaos smoke: a
campaign under injected kills, a hang, and a torn write must converge —
via retries, quarantine, and ``--resume`` — to a store byte-identical
to the fault-free ``workers=1`` run.
"""

from __future__ import annotations

import contextlib
import threading

from repro import config
from repro.faults.plan import (
    KILL_EXIT_CODE,
    FaultDirective,
    FaultPlan,
    call_with_faults,
    parse_faults,
)

__all__ = [
    "FaultDirective",
    "FaultPlan",
    "KILL_EXIT_CODE",
    "active_plan",
    "call_with_faults",
    "fault_plan",
    "next_shard_base",
    "parse_faults",
    "reset_shard_counter",
]


_COUNTER_LOCK = threading.Lock()
_SHARD_COUNTER = 0


def active_plan() -> FaultPlan | None:
    """The fault plan dispatches should honour right now, or None.

    A :func:`fault_plan` scope wins (even a ``None`` scope, which
    *suppresses* the env plan — how fault-free reference runs are taken
    inside a chaos session); otherwise the ``REPRO_FAULTS`` session
    plan applies, parsed on first use.
    """
    return config.get("faults")


def next_shard_base(n_tasks: int) -> int:
    """Claim ``n_tasks`` consecutive global shard indices; return the first.

    Every ``run_shards`` call claims indices for its tasks — parallel
    and serial paths alike — so shard numbering is a pure function of
    the work a session dispatches, never of worker counts or retries
    (a retried shard keeps its index).
    """
    global _SHARD_COUNTER
    with _COUNTER_LOCK:
        base = _SHARD_COUNTER
        _SHARD_COUNTER += n_tasks
        return base


def reset_shard_counter() -> None:
    """Restart global shard numbering (a new fault scope begins)."""
    global _SHARD_COUNTER
    with _COUNTER_LOCK:
        _SHARD_COUNTER = 0


@contextlib.contextmanager
def fault_plan(spec: str | FaultPlan | None):
    """Scope a fault plan to a ``with`` block.

    ``spec`` may be a grammar string, a pre-built :class:`FaultPlan`, or
    ``None`` to force a fault-free scope (masking any ``REPRO_FAULTS``
    session plan).  The plan occupies the ``faults`` knob-table slot for
    the scope; entering also resets the global shard counter so
    directives address shards counted from the scope's start.  The
    previous counter and plan are restored on exit, so scopes nest.
    """
    global _SHARD_COUNTER
    plan = parse_faults(spec) if isinstance(spec, str) else spec
    with _COUNTER_LOCK:
        previous_counter = _SHARD_COUNTER
        _SHARD_COUNTER = 0
    try:
        with config.override("faults", plan):
            yield plan
    finally:
        with _COUNTER_LOCK:
            _SHARD_COUNTER = previous_counter
