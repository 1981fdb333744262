"""Standalone launcher for the perf-regression benchmark suite.

Equivalent to ``python -m repro.experiments bench``; kept here so the
perf harness lives next to the figure benchmarks.  Usage::

    python benchmarks/perf/run.py [--quick] [--workers N] [--output BENCH_PR5.json]

``--workers N`` appends workers=1 vs workers=N scaling rows for the
sharded ensemble engine (:mod:`repro.parallel`) to the report; every run
records the engine's dispatch-overhead rows (shared-memory vs pickled
traces, supervised vs plain dispatch, pipelined vs sync streaming
ingest, scenario campaign store + manifest vs bare cell evaluation).
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    from repro.experiments.bench import main
except ImportError:  # pragma: no cover - direct invocation without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from repro.experiments.bench import main

if __name__ == "__main__":
    sys.exit(main())
