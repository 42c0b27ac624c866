"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/spans.py`` wraps about 30 ``src/`` functions and methods by
name from outside the package.  Renaming or deleting one breaks only
traced benchmark runs (``--trace 1``), which nothing else starts.  This
test installs every hook in a fresh interpreter and reads back the full
per-layer table, so such a change fails here instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Per-layer metrics ``BENCHMARK.json`` declares.
N_PER_LAYER = 59

SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import spans

tracer = spans.install()
table = spans.finish(spans.collect(tracer))
print(json.dumps({"table": list(table), "declared": list(spans.PER_LAYER)}))
"""


def test_install_and_collect_report_every_per_layer_metric():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert len(result["table"]) == N_PER_LAYER
    assert result["table"] == result["declared"]
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    assert result["table"] == [metric["name"] for metric in declared]
