"""One table of session knobs: every ``REPRO_*`` variable is parsed here.

A :class:`Knob` is a wall-clock lever — no result, store byte, or figure
depends on any of them.  Each names its environment variable, the parser
for the variable's text, the default, and what a valid value looks like.
The table is the one implementation of what every knob needs:

* a lazy env read (on first :func:`get`, never at import), normalised
  once: stripped and lower-cased (every knob's grammar is lower-case);
  an empty value means the default;
* one error, ``invalid REPRO_X='v': expected ... (unset the variable
  for the ... default)``, raised as :class:`~repro.errors.ParameterError`;
* the session slot and a restoring :func:`override`, in which an explicit
  value wins even over a malformed env value;
* the ``default|env|context|cli`` provenance the ``runtime`` CLI prints.

Precedence is cli > context > env > default.  ``repro.obs`` keeps its
own override stack (a telemetry scope yields a collector) and takes
only the env value and its provenance from here; a ``repro.faults``
scope overrides its slot here and restarts shard numbering itself.
This module imports the stdlib only, so the telemetry-off path stays
import-free.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ParameterError

#: Campaign scheduling modes — where the unit of parallel dispatch sits.
#: ``"ensembles"`` parallelises inside each cell, ``"cells"`` shards the
#: campaign's pending-cell list itself, ``"auto"`` lets the planner pick.
SCHEDULE_MODES = ("auto", "cells", "ensembles")

_ON = ("on", "1", "true", "yes")
_OFF = ("off", "0", "false", "no")


@dataclass(frozen=True)
class Knob:
    """One session knob; ``parse`` maps normalised env text to a value
    and raises ``ValueError`` (or ``ParameterError``) when malformed."""

    name: str
    env: str
    parse: Callable[[str], Any]
    default: Any
    expected: str
    default_label: str


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _schedule(text: str) -> str:
    if text not in SCHEDULE_MODES:
        raise ValueError(text)
    return text


def _on_off(text: str) -> bool:
    if text in _ON or text in _OFF:
        return text in _ON
    raise ValueError(text)


def _fault_plan(text: str):
    from repro.faults.plan import parse_faults

    return parse_faults(text)


KNOBS = (
    Knob("workers", "REPRO_WORKERS", _positive_int, 1,
         "an int >= 1", "serial"),
    Knob("schedule", "REPRO_SCHEDULE", _schedule, "auto",
         f"one of {list(SCHEDULE_MODES)}", "'auto'"),
    Knob("telemetry", "REPRO_TELEMETRY", _on_off, False,
         "/".join(_ON) + " or " + "/".join(_OFF), "off"),
    Knob("faults", "REPRO_FAULTS", _fault_plan, None,
         "a fault plan such as 'kill:shard=3'", "fault-free"),
)

_TABLE = {knob.name: knob for knob in KNOBS}

#: Session slots: knob name -> (value, source).  A missing entry means
#: the environment has not been read yet.
_SLOTS: dict[str, tuple[Any, str]] = {}


def _from_env(knob: Knob) -> tuple[Any, str]:
    raw = os.environ.get(knob.env)
    if raw is None:
        return knob.default, "default"
    text = raw.strip().lower()
    if not text:
        return knob.default, "env"
    try:
        return knob.parse(text), "env"
    except (ValueError, ParameterError) as exc:
        detail = f"{exc}; " if isinstance(exc, ParameterError) else ""
        raise ParameterError(
            f"invalid {knob.env}={raw!r}: expected {knob.expected} "
            f"({detail}unset the variable for the {knob.default_label} "
            "default)"
        ) from None


def get(name: str) -> Any:
    """The session value of knob ``name`` (reads its env var once)."""
    slot = _SLOTS.get(name)
    if slot is None:
        slot = _SLOTS[name] = _from_env(_TABLE[name])
    return slot[0]


def provenance(name: str) -> str:
    """Where the session value came from: default, env, context, or cli."""
    get(name)
    return _SLOTS[name][1]


def set_value(name: str, value: Any, source: str = "cli") -> None:
    """Pin the session value (callers validate ``value`` first)."""
    _SLOTS[name] = (value, source)


@contextlib.contextmanager
def override(name: str, value: Any):
    """Scope an explicit (validated) value.

    The raw slot is saved and restored unresolved, so an explicit value
    wins over a malformed env value, whose error still fires when the
    default is genuinely consulted outside the scope.
    """
    previous = _SLOTS.get(name)
    set_value(name, value, "context")
    try:
        yield
    finally:
        if previous is None:
            _SLOTS.pop(name, None)
        else:
            _SLOTS[name] = previous


def resolve_all(explicit=()) -> None:
    """Read every knob not in ``explicit`` now, so a malformed env value
    fails before any work starts."""
    for knob in KNOBS:
        if knob.name not in explicit:
            get(knob.name)


def describe(name: str) -> str:
    """``value [source] (ENV=raw)`` — one ``runtime`` CLI line."""
    value = get(name)
    if isinstance(value, bool) or value is None:
        shown = "on" if value else "off"
    else:
        shown = value.render() if hasattr(value, "render") else str(value)
    env = _TABLE[name].env
    return (f"{shown} [{provenance(name)}] "
            f"({env}={os.environ.get(env, 'unset')})")


def reset() -> None:
    """Forget every session value; the next :func:`get` re-reads the env."""
    _SLOTS.clear()
