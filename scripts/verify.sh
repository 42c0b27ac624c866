#!/usr/bin/env sh
# One-command builder verification: the tier-1 test suite plus the
# comment-pipeline, streaming, serving, training and inference smoke
# benches (which assert the bit-identity and incremental-extraction
# invariants, not just timings), and the benchmark of record's smoke
# run, which puts both workloads through their correctness gates
# (probability digests and alert sets against the serial reference,
# traced and untraced).  Also available as `make verify`.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

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

echo "==> verify OK"
