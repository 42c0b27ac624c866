"""One fresh job process of the d1_batch workload.

Protocol with the orchestrator (``run.py``): the job imports the
program, sets up (opens the registry and loads the champion), prints one
``ready`` JSON line and then either exits (``--setup-only``) or waits for
a ``go`` line on stdin, runs one round -- the D1 sweep, then one retrain
cycle on the store the sweep persisted -- and prints one ``result`` JSON
line.  Only calls into the program sit between the timers.

    python perfbench/job.py --dir <seed dir> --workdir <scratch dir>
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro.cli  # noqa: E402  (the program as a user starts it)
from repro.collector.storage import DatasetStore  # noqa: E402
from repro.core import columnar as columnar_mod  # noqa: E402
from repro.core import persistence  # noqa: E402
from repro.mlops import registry as registry_mod  # noqa: E402

IMPORT_MS = (time.perf_counter() - _T_START) * 1000.0

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mib_self  # noqa: E402
from prepare import probability_digest  # noqa: E402


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def wait_for_go() -> None:
    line = sys.stdin.readline()
    if line.strip() != "go":
        raise SystemExit(f"expected 'go', got {line!r}")


def sweep(model_dir: Path, data_dir: Path, store_dir: Path):
    """``cats analyze`` then ``cats detect --store`` over one dataset.

    ``analyze`` runs through the CLI with its defaults (chunks of 8192
    comments on all CPUs); its one-line JSON summary would break this
    job's stdout protocol, so it is captured.  ``detect --store`` takes
    the CLI's own steps -- reload the model and the dataset, the CLI's
    coverage-checked columnar load, ``detect_with_features`` -- so the
    report keeps every bit of its probabilities for the correctness gate.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(
            ["analyze", str(model_dir), str(data_dir), str(store_dir)]
        )
    if code != 0:
        raise SystemExit(f"cats analyze exited {code}")
    cats = persistence.load_cats(model_dir)
    store = DatasetStore.load(data_dir)
    items = store.crawled_items()
    features = repro.cli._load_columnar_features(cats, items, str(store_dir))
    return store, items, cats.detect_with_features(items, features)


def retrain(champion, registry, store_dir: Path, item_ids, labels):
    """One periodic retrain cycle on the persisted analysis."""
    store = columnar_mod.ColumnarCommentStore.load(
        store_dir,
        mode="mmap",
        expected_analyzer_hash=champion.archive_info["analyzer_hash"],
    )
    features = store.feature_matrix(item_ids)
    cv = champion.cross_validate_detector(features, labels, n_splits=5)
    champion.fit_features(features, labels)
    entry = registry.register(
        champion,
        metrics=cv,
        parent=registry.champion_version(),
        note="periodic retrain",
        features=features,
    )
    registry.promote(entry.version)
    reloaded, _ = registry.load_champion()
    return features, cv, reloaded.detector.predict_proba(features)


def run(args, tracer) -> None:
    seed_dir, workdir = Path(args.dir), Path(args.workdir)
    registry = registry_mod.ModelRegistry(workdir / "registry")
    champion, entry = registry.load_champion()
    emit({"ready": True, "import_ms": IMPORT_MS})
    if args.setup_only:
        return
    wait_for_go()
    labels = np.load(seed_dir / "labels.npy")
    start = time.perf_counter()
    store, items, report = sweep(
        entry.artifact_dir, seed_dir / "data", workdir / "store"
    )
    swept = time.perf_counter()
    features, cv, scored = retrain(
        champion, registry, workdir / "store",
        [item.item_id for item in items], labels,
    )
    retrained = time.perf_counter()
    emit(
        {
            "result": True,
            "n_comments": len(store.comments),
            "sweep_s": swept - start,
            "retrain_s": retrained - swept,
            "reported_ids": [
                int(items[i].item_id) for i in report.reported_indices()
            ],
            "probability_digest": probability_digest(
                report.fraud_probability
            ),
            "retrain": {
                "cv": cv,
                "features_digest": probability_digest(features),
                "probability_digest": probability_digest(scored),
                "in_memory_digest": probability_digest(
                    champion.detector.predict_proba(features)
                ),
            },
            "peak_rss_mib": peak_rss_mib_self(),
            "trace": _trace(tracer),
        }
    )


def _trace(tracer):
    if tracer is None:
        return None
    import spans

    sums = spans.collect(tracer)
    sums["startup.import_ms"] = IMPORT_MS
    return sums


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import spans

        worker_dir = Path(args.workdir) / "trace"
        worker_dir.mkdir(parents=True, exist_ok=True)
        tracer = spans.install(worker_dir)
    run(args, tracer)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
