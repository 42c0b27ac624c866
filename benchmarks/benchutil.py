"""Shared helpers for the benchmark harness.

Keep this dependency-free (stdlib only): it is imported both by
standalone ``python benchmarks/bench_*.py`` runs and by the pytest
benchmark entries.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
from pathlib import Path
from unittest import mock

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS; every
    benchmark must report the platform-corrected number the same way,
    so this is the one place the correction lives.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return peak * scale / 1024.0


@contextlib.contextmanager
def one_cpu():
    """Time the serial side: the executor sees one usable CPU, so every
    map runs inline (as under ``taskset -c 0``) and nothing else about
    the call changes."""
    with mock.patch("repro.parallel.usable_cpus", lambda: 1):
        yield


def write_outputs(
    report: str,
    text: str,
    quick: bool,
    name: str | None = None,
    result: dict | None = None,
) -> None:
    """Write a bench's text report (and its ``BENCH_<name>.json``).

    Full runs own the results of record: ``<report>.txt`` and
    ``BENCH_<name>.json`` under ``benchmarks/results/``, plus the JSON's
    copy at the repo root.  Quick runs -- ``--quick`` and the
    pytest-collected entries -- write only ``<report>_quick.txt`` and
    ``BENCH_<name>_quick.json`` under ``benchmarks/results/``, which
    git ignores, so a smoke run never rewrites a tracked file.
    """
    suffix = "_quick" if quick else ""
    RESULTS_DIR.mkdir(exist_ok=True)
    written = [RESULTS_DIR / f"{report}{suffix}.txt"]
    written[0].write_text(text + "\n", encoding="utf-8")
    if name is not None:
        written.append(RESULTS_DIR / f"BENCH_{name}{suffix}.json")
        if not quick:
            written.append(REPO_ROOT / f"BENCH_{name}.json")
        payload = json.dumps(result, indent=2) + "\n"
        for path in written[1:]:
            path.write_text(payload, encoding="utf-8")
    print(text)
    print("\nwrote " + ", ".join(map(str, written)), file=sys.stderr)
