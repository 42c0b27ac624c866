"""Start ``cats serve`` the way a user does, optionally traced.

    python perfbench/serve_launcher.py [--trace-out FILE] -- serve ...

Imports the program, installs the layer wrappers when ``--trace-out`` is
given, and calls ``repro.cli.main`` with the arguments after ``--``.
The service drains and returns on SIGTERM; the per-layer table is then
written to ``--trace-out``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro.cli  # noqa: E402
import repro.serving  # noqa: E402,F401

IMPORT_MS = (time.perf_counter() - _T_START) * 1000.0


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, program_args = argv[:split], argv[split + 1 :]
    trace_out = Path(own[own.index("--trace-out") + 1]) if own else None
    tracer = None
    if trace_out is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.install()
    code = repro.cli.main(program_args)
    if tracer is not None:
        sums = spans.collect(tracer)
        sums["startup.import_ms"] = IMPORT_MS
        trace_out.write_text(json.dumps(sums), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
