"""Shared plumbing for the benchmark: paths, sizing, statistics, host facts.

Everything the benchmark writes lives under ``.perfbench/`` at the root
of the checkout it runs in.  Prepared artefacts are keyed by a hash of
``src/`` (and, per seed, by the seed), so two commits never share them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("d1_batch", "live_feed")

#: Input sizing of the normal and the smoke benchmark.  ``pool_scale`` is the
#: D1 snapshot every seed samples its slice from; ``slice_scale`` is the
#: size of one seed's slice, both as fractions of the paper's D1.
SIZES = {
    "full": {
        "model_scale": 0.05,
        "pool_scale": 0.015,
        "slice_scale": 0.01,
        "history_records": 20_000,
        "pages_per_s": 14,
        "page_mean": 9.0,
        "lookups_per_s": 10,
    },
    "smoke": {
        "model_scale": None,
        "pool_scale": 0.0008,
        "slice_scale": 0.0005,
        "history_records": 1_000,
        "pages_per_s": 4,
        "page_mean": None,
        "lookups_per_s": 4,
    },
}

#: Seed of the D1 snapshot every per-seed slice is drawn from.
POOL_SEED = 2019


def src_hash() -> str:
    """sha256 over the program (``src/repro``) and the code that prepares
    the benchmark's artefacts, so stale artefacts are never reused."""
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "repro").rglob("*.py")), BENCH_DIR / "prepare.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest.update(repr(SIZES).encode())
    return digest.hexdigest()[:16]


def bench_hash() -> str:
    """sha256 over the benchmark's own code: runs are comparable only
    when it is unchanged."""
    digest = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def base_dir(size: str) -> Path:
    """Per-checkout artefacts (model, D1 pool) for one sizing."""
    return WORK / f"{size}-{src_hash()}"


def seed_dir(size: str, workload: str, seed: int, seconds: int) -> Path:
    """Per-seed artefacts of one workload.  The live feed's length
    follows the run length; the d1_batch slice does not."""
    name = f"{workload}-{seconds}s" if workload == "live_feed" else workload
    return base_dir(size) / f"seed-{seed}" / name


def env_with_src() -> dict[str, str]:
    """Environment for child processes: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a python child to completion; raise with its stderr on failure."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=env_with_src(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return proc


def publish_dir(staging: Path, final: Path) -> None:
    """Atomically move a fully built *staging* dir to *final*."""
    if final.exists():
        shutil.rmtree(staging, ignore_errors=True)
        return
    final.parent.mkdir(parents=True, exist_ok=True)
    os.rename(staging, final)


def fresh_copy(source: Path, target: Path) -> Path:
    """Replace *target* with a copy of *source* (mutable run state)."""
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(source, target)
    return target


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float | None]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With *n* sorted samples the sample
    at 0-based rank ``n - 11`` has exactly ten samples above it, and it
    sits at percentile ``100 * (n - 10) / n``.  Fewer than eleven samples
    support no such percentile: the maximum is returned with percentile
    ``None`` so callers can say so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 11:
        return float(ordered[-1]), None
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def peak_rss_mib_self() -> float:
    """Peak resident set of the calling process in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """``VmHWM`` (peak RSS) of a live process, read from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_facts() -> dict:
    """Facts that decide how comparable two runs are."""
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "n_cpus": os.cpu_count(),
        "cpu_affinity": affinity,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "wall_clock": time.time(),
    }


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return {"value": float(value), "unit": unit}
