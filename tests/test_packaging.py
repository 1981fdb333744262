"""Package metadata: what ``setup.py``/``pyproject.toml`` declare."""

from __future__ import annotations

import subprocess
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_name_and_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", repro.__version__]


def test_declares_every_third_party_import():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert set(project["dependencies"]) == {"numpy", "scipy"}
    assert project["requires-python"]
