#!/usr/bin/env sh
# One-command builder verification: the tier-1 test suite plus the
# comment-pipeline, streaming, serving, training and inference smoke
# benches (which assert the bit-identity and incremental-extraction
# invariants, not just timings), and the benchmark of record's smoke
# run, which puts both workloads through their correctness gates
# (probability digests and alert sets against the serial reference,
# traced and untraced).  It fails if any step rewrote a tracked bench
# artefact.  Also available as `make verify`.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# Quick runs write only git-ignored *_quick.* files, so the tracked
# results of record must come out of this script byte for byte as they
# went in (checked at the end; skipped outside a git checkout).
tracked_artefacts() {
    git ls-files -z -- 'BENCH_*.json' benchmarks/results | xargs -0 cksum
}
artefacts_before=""
if git rev-parse --git-dir >/dev/null 2>&1; then
    artefacts_before=$(tracked_artefacts)
fi

echo "==> comment pipeline smoke bench (--quick)"
python benchmarks/bench_comment_pipeline.py --quick

echo "==> streaming throughput smoke bench (--quick)"
python benchmarks/bench_streaming_throughput.py --quick

echo "==> serving throughput smoke bench (--quick)"
python benchmarks/bench_serving_throughput.py --quick

echo "==> cluster serving smoke bench (--quick)"
python benchmarks/bench_cluster.py --quick

echo "==> training stack smoke bench (--quick)"
python benchmarks/bench_training.py --quick

echo "==> inference engine smoke bench (--quick)"
python benchmarks/bench_inference.py --quick

echo "==> shadow-scoring overhead smoke bench (--quick)"
python benchmarks/bench_shadow.py --quick

echo "==> parallel analysis smoke bench (--quick)"
python benchmarks/bench_analyze.py --quick

echo "==> end-to-end D1 smoke bench (--quick)"
python benchmarks/bench_e2e.py --quick

echo "==> benchmark of record smoke run (correctness gates)"
python perfbench/run.py --smoke

echo "==> tier-1 test suite"
python -m pytest -x -q

if [ -n "$artefacts_before" ]; then
    echo "==> tracked bench artefacts unchanged"
    if [ "$(tracked_artefacts)" != "$artefacts_before" ]; then
        echo "verify: a run rewrote a tracked bench artefact:" >&2
        git status --short -- 'BENCH_*.json' benchmarks/results >&2
        exit 1
    fi
fi

echo "==> verify OK"
# Simplicity changes are judged by this number, so every log carries it.
echo "==> src/ line count"
find src -name '*.py' | xargs wc -l | tail -1
