"""The session-knob table: one contract, checked for every ``REPRO_*`` knob.

Each row of :data:`repro.config.KNOBS` must honour the same behaviours,
driven here through the knob's *public* API (its resolver, its scope,
its provenance), so a knob that grows its own parser again fails:

* the variable is read lazily (never at import) and then once;
* values are normalised (stripped and case-folded);
* an empty value means the default;
* a malformed value raises one error naming the variable;
* a scope beats the env, and an explicit value beats a malformed env;
* a ``None`` scope is a no-op.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

import repro.obs as obs
from repro import config, faults
from repro.errors import ParameterError
from repro.experiments.runner import execution_scope
from repro.parallel import (
    default_schedule,
    default_workers,
    resolve_schedule,
    resolve_workers,
    schedule_provenance,
    workers_provenance,
)


def _plan_text():
    plan = faults.active_plan()
    return None if plan is None else plan.render()


@dataclass(frozen=True)
class Row:
    """How one knob is consulted and scoped through its public API."""

    resolve: Callable[[], Any]
    scope: Callable[[Any], Any]
    provenance: Callable[[], str]
    default: Any
    valid: tuple  # (env text, resolved value) pairs
    malformed: tuple
    explicit: Any  # a scope value that differs from valid[0]'s
    explicit_resolved: Any


ROWS = {
    "workers": Row(
        lambda: resolve_workers(None), default_workers, workers_provenance,
        1, ((" 6 ", 6), ("2", 2)), ("8x", "zero", "2.5", "0", "-3"),
        2, 2,
    ),
    "schedule": Row(
        lambda: resolve_schedule(None), default_schedule, schedule_provenance,
        "auto", (("  CELLS ", "cells"), ("ensembles", "ensembles")),
        ("cell", "bogus"), "ensembles", "ensembles",
    ),
    "telemetry": Row(
        obs.telemetry_enabled, obs.telemetry, obs.telemetry_provenance,
        False,
        tuple((v, True) for v in ("on", "1", "true", "yes", " ON "))
        + tuple((v, False) for v in ("off", "0", "false", "NO")),
        ("maybe",), False, False,
    ),
    "faults": Row(
        _plan_text, faults.fault_plan, lambda: config.provenance("faults"),
        None,
        (("kill:shard=2", "kill:shard=2"),
         (" KILL:shard=3 ; torn:append=1 ", "kill:shard=3,torn:append=1")),
        ("bogus", "kill", ", ,"),
        "delay:shard=0:seconds=1", "delay:shard=0:seconds=1",
    ),
}


def _unset_is_default(knob, row, monkeypatch):
    assert row.resolve() == row.default
    assert row.provenance() == "default"


def _read_lazily_then_once(knob, row, monkeypatch):
    # The variable is set after ``import repro``; the first consultation
    # still sees it, and a later change stays invisible (one session read).
    raw, value = row.valid[0]
    monkeypatch.setenv(knob.env, raw)
    assert row.resolve() == value
    monkeypatch.setenv(knob.env, row.malformed[0])
    assert row.resolve() == value
    config.reset()
    with pytest.raises(ParameterError, match=knob.env):
        row.resolve()


def _normalised(knob, row, monkeypatch):
    for raw, value in row.valid:
        config.reset()
        monkeypatch.setenv(knob.env, raw)
        assert row.resolve() == value, raw
        assert row.provenance() == "env"


def _empty_is_default(knob, row, monkeypatch):
    for raw in ("", "   "):
        config.reset()
        monkeypatch.setenv(knob.env, raw)
        assert row.resolve() == row.default
        assert row.provenance() == "env"


def _malformed_names_variable(knob, row, monkeypatch):
    for raw in row.malformed:
        config.reset()
        monkeypatch.setenv(knob.env, raw)
        with pytest.raises(ParameterError) as info:
            row.resolve()
        message = str(info.value)
        assert message.startswith(f"invalid {knob.env}={raw!r}: expected ")
        assert message.endswith(
            f"unset the variable for the {knob.default_label} default)"
        )


def _context_beats_env(knob, row, monkeypatch):
    raw, value = row.valid[0]
    monkeypatch.setenv(knob.env, raw)
    with row.scope(row.explicit):
        assert row.resolve() == row.explicit_resolved
        assert row.provenance() == "context"
    assert row.resolve() == value
    assert row.provenance() == "env"


def _explicit_beats_malformed_env(knob, row, monkeypatch):
    monkeypatch.setenv(knob.env, row.malformed[0])
    with row.scope(row.explicit):
        assert row.resolve() == row.explicit_resolved
    with execution_scope(**{knob.name: row.explicit}):
        assert row.resolve() == row.explicit_resolved
    # The env error stays armed for env-only resolution.
    with pytest.raises(ParameterError, match=knob.env):
        row.resolve()
    with pytest.raises(ParameterError, match=knob.env):
        with execution_scope():
            pass  # pragma: no cover


def _none_scope_is_noop(knob, row, monkeypatch):
    raw, value = row.valid[0]
    monkeypatch.setenv(knob.env, raw)
    with execution_scope():  # every knob passed as None
        assert row.resolve() == value
        assert row.provenance() == "env"


BEHAVIOURS = {
    "unset_is_default": _unset_is_default,
    "read_lazily_then_once": _read_lazily_then_once,
    "normalised": _normalised,
    "empty_is_default": _empty_is_default,
    "malformed_names_variable": _malformed_names_variable,
    "context_beats_env": _context_beats_env,
    "explicit_beats_malformed_env": _explicit_beats_malformed_env,
    "none_scope_is_noop": _none_scope_is_noop,
}


@pytest.mark.parametrize("behaviour", list(BEHAVIOURS))
@pytest.mark.parametrize("knob", config.KNOBS, ids=lambda k: k.name)
def test_knob_contract(knob, behaviour, monkeypatch):
    BEHAVIOURS[behaviour](knob, ROWS[knob.name], monkeypatch)


def test_import_never_reads_the_environment():
    """``import repro`` succeeds with every knob malformed."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.update({knob.env: ROWS[knob.name].malformed[0]
                for knob in config.KNOBS})
    proc = subprocess.run(
        [sys.executable, "-c", "import repro, repro.experiments.__main__"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
