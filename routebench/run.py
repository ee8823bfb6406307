"""Layered end-to-end benchmark of the Mighty router.

Run from the root of a checkout::

    python3 routebench/run.py --workload batch-mixed --seed 1 --seconds 30 --trace 0

``--workload`` is ``batch-mixed``, ``region-560`` or ``service-mix``
(``routebench/spec.json`` says what each does and why).  ``--trace 0``
measures the end-to-end metrics with no tracing installed; ``--trace 1``
wraps the program's layer boundaries and reports per-layer work, busy
and self time instead, plus the tracing overhead.  ``--smoke`` runs
tiny draws that finish in seconds: a quick check, never a measurement.

Inputs are a pure function of ``--seed``; ``--seconds`` fixes the draw
size.  Every output is verified; the work fingerprint of a seed
(expansions, searches, completions, wire, vias) is stored under
``.bench_build/`` and must repeat exactly on every later run in the
same checkout.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries provenance.  Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "routebench"
WORKLOADS = ("batch-mixed", "region-560", "service-mix")
SETUP_REPEATS = 5

# A fresh interpreter paying what every user run pays: import, then
# resolve the kernel backend (loading the cached compiled library).
_SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import repro
t1 = time.perf_counter()
from repro.maze.kernels import active_backend
name = active_backend().name
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "kernel_s": t2 - t1, "backend": name}))
"""


class BenchError(Exception):
    """A condition under which no result may be printed."""


def _child_env(tmpdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(ROOT / "src")))
    env["TMPDIR"] = str(tmpdir)
    return env


def _setup_sample(tmpdir: Path) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD], env=_child_env(tmpdir),
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"import of repro failed: {proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["wall_s"] = wall
    return sample


def measure_setup(tmpdir: Path, cold_build: bool) -> dict:
    """Median of fresh-interpreter setups, the kernel library already built.

    ``setup_s`` stays in wall seconds: an interpreter's start-up is file
    reads, unmarshalling and dynamic loading, and its wall time did not
    follow the reference loop (see refclock) the way routing does.
    ``setup_walls`` keeps the samples, so that :func:`main` can add
    more taken after the measured run.
    """
    _setup_sample(tmpdir)  # builds the library on a checkout's first run
    samples = [_setup_sample(tmpdir) for _ in range(SETUP_REPEATS)]
    walls = [s["wall_s"] for s in samples]
    out = {
        "setup_s": statistics.median(walls),
        "setup_walls": walls,
        "import_s": statistics.median(s["import_s"] for s in samples),
        "kernel_s": statistics.median(s["kernel_s"] for s in samples),
        "kernel_build_s": 0.0,
    }
    if cold_build:
        cold = Path(tempfile.mkdtemp(prefix="cold-", dir=tmpdir))
        try:
            out["kernel_build_s"] = _setup_sample(cold)["kernel_s"]
        finally:
            shutil.rmtree(cold, ignore_errors=True)
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _draw_digest() -> str:
    """Identity of the draw code and its sizes: a changed draw is a new key."""
    digest = hashlib.sha256()
    for name in ("inputs.py", "workloads.py"):
        digest.update((ROOT / "routebench" / name).read_bytes())
    return digest.hexdigest()[:12]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, load_at_start) -> dict:
    """Where and on what these numbers were taken; fails on a silent fallback."""
    from repro.maze.kernels import active_backend, backend_info

    backend = active_backend().name
    info = backend_info()
    compiler = next((cc for cc in (os.environ.get("CC"), "cc", "gcc", "clang")
                     if cc and shutil.which(cc)), None)
    if backend == "pure" and info["active_source"] == "auto" and compiler:
        raise BenchError(
            f"kernel 'auto' resolved to 'pure' although {compiler} exists: "
            f"{info['load_errors'].get('compiled', 'no reason recorded')}"
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "measured",
        "kernel_backend": backend,
        "kernel_source": info["active_source"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(load_at_start),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _cpu_times() -> list:
    """System-wide CPU jiffies from /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: list, after: list) -> float:
    """Share of CPU time the hypervisor took from this host meanwhile.

    A run whose host was starved shows it here, next to its timings.
    """
    if len(before) < 8 or len(after) < 8:
        return -1.0
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_fingerprint(key: str, fingerprint: dict) -> str:
    """Compare with the fingerprint stored for this key; '' when it agrees."""
    store = WORK / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != fingerprint:
        return f"work fingerprint changed for {key}: {known[key]} -> {fingerprint}"
    known[key] = fingerprint
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny draws for a quick local check")
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Keep every file the run writes, the compiled kernel cache included,
    # inside the checkout.
    tmpdir = WORK / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmpdir)
    tempfile.tempdir = None
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

    from routebench import drive

    cpu_before = _cpu_times()
    try:
        setup = measure_setup(tmpdir, cold_build=bool(args.trace))
        prov = provenance(args, load_at_start)
        outcome = drive.run(args, setup, WORK, _child_env(tmpdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if "setup_s" in outcome.metrics and args.workload != "service-mix":
        # Host speed drifts over seconds: set-up samples from both ends of
        # the run give a median that one slow moment does not move.
        walls = setup["setup_walls"] + [
            _setup_sample(tmpdir)["wall_s"] for _ in range(SETUP_REPEATS)]
        outcome.metrics["setup_s"] = statistics.median(walls)
    problems = list(outcome.problems)
    if outcome.fingerprint is not None:
        key = (f"{args.workload}|seed={args.seed}|seconds={args.seconds}|"
               f"smoke={args.smoke}|draws={_draw_digest()}")
        mismatch = check_fingerprint(key, outcome.fingerprint)
        if mismatch:
            problems.append(mismatch)
        prov["fingerprint"] = outcome.fingerprint
    prov["host_steal_frac"] = steal_frac(cpu_before, _cpu_times())
    prov["notes"] = outcome.notes
    metrics = outcome.metrics
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    if args.smoke:
        print("SMOKE RUN: tiny draws, not a measurement", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": drive.unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
