"""End-to-end benchmark of the He & Hou (ICDCS 2005) reproduction.

    python3 perfbench/run.py --workload {figures,campaign,capture}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The benchmark imports the program from
the checkout's ``src/`` and nothing else; it runs every workload
iteration in a fresh interpreter whose environment has every inherited
``REPRO_*`` variable removed, so knobs are exactly the ones passed here.

``--trace 0`` (end to end): several set-up probes, then as many untraced
iterations as fit in ``--seconds`` (at least one); prints ``wall_s``,
``setup_s``, ``peak_rss_mb``, ``cpu_s`` and ``items_per_s`` as medians
over the run.  ``--trace 1`` (per layer): one untraced iteration for the
baseline, then traced iterations with timing wrappers on the layers'
public functions (see ``layers.py``); prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine header, knob provenance, every sample, every check) is written
to ``.perfbench_work/<workload>-last.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 20050601
#: Fresh interpreters that only import, for the set-up time.
SETUP_PROBES = 3
#: Iterations never outlast this, so a stuck child cannot hang a run.
CHILD_TIMEOUT_S = 150

#: Worker processes per workload: the campaign uses two (the multi-core
#: path on a 2-core machine); figures and capture are single-process.
WORKERS = {"figures": 1, "campaign": 2, "capture": 1}


class ChildFailed(RuntimeError):
    pass


def _clean_env(workdir: Path) -> tuple[dict, list]:
    """The inherited environment minus ``REPRO_*``, importing ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    env.pop("PYTHONSTARTUP", None)
    return env, cleared


def _child(mode, workload, seed, workers, workdir, env) -> dict:
    """Run one fresh interpreter; return its JSON result."""
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    run_dir = workdir / "iteration"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           str(workers), repr(t0), str(run_dir), str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} {workload} timed out") from None
    finally:
        # Stop anything the child (or its pool) left in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}: "
                          + " | ".join(tail))
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _declared_metrics(trace: int):
    """Metric names ``BENCHMARK.json`` declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _tally(results) -> tuple[int, int, list]:
    checks = [row for r in results for row in r["checks"]]
    failed = [row for row in checks if not row[1]]
    return len(checks), len(failed), failed


def run_e2e(workload, seed, seconds, workdir, env) -> tuple[dict, list, dict]:
    setup = [_child("probe", workload, seed, WORKERS[workload], workdir, env)
             ["import_s"] for _ in range(SETUP_PROBES)]
    iterations = []
    started = time.monotonic()
    while True:
        iterations.append(_child("run", workload, seed, WORKERS[workload],
                                 workdir, env))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(iterations) > seconds:
            break
    setup += [r["import_s"] for r in iterations]
    median = statistics.median
    metrics = {
        "wall_s": (median(r["wall_s"] for r in iterations), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in iterations), "MB"),
        "cpu_s": (median(r["cpu_s"] for r in iterations), "s"),
        "items_per_s": (median(r["items"] / r["wall_s"] for r in iterations), "1/s"),
    }
    extra = {"setup_samples": setup, "knobs": iterations[0]["knobs"],
             "versions": iterations[0]["versions"]}
    if "digest" in iterations[0] and len(iterations) > 1:
        # The store must be byte-identical across repeats of one seed.
        digests = {r["digest"] for r in iterations}
        iterations[-1]["checks"].append(
            ["campaign.identical_store", len(digests) == 1,
             f"{len(digests)} distinct stores over {len(iterations)} repeats"])
    return metrics, iterations, extra


def run_traced(workload, seed, workdir, env) -> tuple[dict, list, dict]:
    import layers

    setup = [_child("probe", workload, seed, WORKERS[workload], workdir, env)
             ["import_s"] for _ in range(SETUP_PROBES)]
    baseline = _child("run", workload, seed, WORKERS[workload], workdir, env)
    if workload == "campaign":
        # Parent-side wrappers cannot see pool workers: the algorithm
        # layers come from a serial traced run, pool and store health
        # from a workers=2 run with the program's own telemetry on.
        serial = _child("trace", workload, seed, 1, workdir, env)
        pooled = _child("telemetry", workload, seed, WORKERS[workload],
                        workdir, env)
        values = serial["layers"]
        for name, value in pooled["layers"].items():
            if name.startswith(("parallel.", "scenarios.store.")):
                values[name] = value
        traced_wall = pooled["wall_s"]
        iterations = [baseline, serial, pooled]
        digests = {r["digest"] for r in iterations}
        pooled["checks"].append(["campaign.identical_store", len(digests) == 1,
                                 "untraced, traced workers=1 and workers=2"])
    else:
        traced = _child("trace", workload, seed, WORKERS[workload], workdir, env)
        values = traced["layers"]
        traced_wall = traced["wall_s"]
        iterations = [baseline, traced]
    values["import.s"] = statistics.median(setup)
    values["tracing.untraced_wall_s"] = baseline["wall_s"]
    values["tracing.overhead_s"] = traced_wall - baseline["wall_s"]
    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, iterations, {"setup_samples": setup,
                                 "knobs": baseline["knobs"],
                                 "versions": baseline["versions"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "campaign", "capture"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    # A polite kill must still reach the children's process groups.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env, cleared = _clean_env(workdir)
    try:
        if args.trace:
            metrics, iterations, extra = run_traced(args.workload, args.seed,
                                                    workdir, env)
        else:
            metrics, iterations, extra = run_e2e(args.workload, args.seed,
                                                 args.seconds, workdir, env)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared_metrics(args.trace)
    if declared is not None and declared != list(metrics):
        print(f"error: BENCHMARK.json declares {declared}, the run measured "
              f"{list(metrics)}", file=sys.stderr)
        return 1
    attempted, failed, failures = _tally(iterations)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": _machine(extra["versions"]),
        "cleared_env": cleared,
        "knobs": extra["knobs"],
        "workers": WORKERS[args.workload],
        "iterations": iterations,
        "setup_samples": extra["setup_samples"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"{args.workload}-last.json").write_text(json.dumps(record, indent=1))

    for row in failures:
        print(f"FAILED {row[0]}: {row[2]}")
    print(f"{args.workload} seed={args.seed} iterations={len(iterations)} "
          f"operations={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
