"""Cluster serving benchmark: shared-nothing shards under closed-loop load.

Exercises ``repro.serving.cluster`` the way production would see it --
real worker processes behind a real router, driven by closed-loop HTTP
clients -- and measures three things:

* **rps vs shards** -- score throughput at 1, 2 and 4 shards over the
  same pre-ingested feed.  Probabilities are asserted identical across
  every shard count first (sharding must never change an answer),
  then throughput is compared.  One :class:`DetectionService` is
  single-writer by design, so added cores only help through added
  *processes* -- which is exactly what this sweep shows (on a
  multi-core host; see the scaling-floor note below).
* **p99 under overload** -- the largest cluster hammered by more
  clients than the batching capacity absorbs: per-request p50/p99 and
  how many requests were shed with a 503 (load shedding is the
  designed response, not a failure).
* **kill/restart recovery** -- SIGKILL one shard mid-service, restart
  it from its own checkpoint lineage, replay the feed through the
  router (ingest dedupe drops what survived), and assert the scores
  are bit-identical to the pre-kill cluster; the recovery time is
  reported.

Scaling floor: the acceptance criterion (>= ``MIN_SCALING``x rps at 4
shards vs 1) is only *enforced* when the host actually has >= 4 CPUs.
Worker processes cannot scale past the cores they are given; on a
smaller host the sweep still runs and the result records the measured
ratio plus why the floor was not applied.  Correctness assertions
(identity across shard counts, bit-identical recovery) are always
enforced.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick

``--quick`` shrinks the model, feed and request counts for the CI
smoke check (see ``scripts/verify.sh``).  Results go to
``BENCH_cluster.json`` at the repo root and under
``benchmarks/results/``; quick runs write only the git-ignored
``*_quick.*`` files (``benchutil.write_outputs``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.analysis.reporting import render_table
from repro.core.persistence import save_cats
from repro.parallel import usable_cpus
from repro.serving.cluster import ShardCluster

from benchutil import write_outputs
from bench_serving_throughput import build_system, item_feed


#: Acceptance floor: 4-shard rps over 1-shard rps (enforced only when
#: the host has at least 4 CPUs; see module docstring).
MIN_SCALING = 2.5

#: Worker micro-batching shape (same as the single-process benchmark).
WORKER_ARGS = (
    "--max-batch", "64",
    "--max-delay-ms", "5",
    "--queue-depth", "512",
    "--rescore-growth", "1.25",
)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (matches MicroBatcher.stats)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class RouterClient:
    """One keep-alive connection to the cluster router."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str, body=None):
        self.conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def ingest_feed(client: RouterClient, feed, chunk: int = 200) -> int:
    accepted = 0
    for start in range(0, len(feed), chunk):
        rows = [
            {
                "item_id": r.item_id,
                "comment_id": r.comment_id,
                "comment_content": r.content,
                "nickname": r.nickname,
                "userExpValue": r.user_exp_value,
                "client_information": r.client,
                "date": r.date,
            }
            for r in feed[start : start + chunk]
        ]
        status, ack = client.request("POST", "/ingest", {"comments": rows})
        assert status == 200, f"ingest failed: {ack}"
        accepted += ack["accepted"]
    return accepted


def score_all(client: RouterClient, item_ids: list[int]) -> dict[int, float]:
    status, body = client.request(
        "POST", "/score", {"item_ids": item_ids}
    )
    assert status == 200, f"score failed: {body}"
    return {
        int(item_id): probability
        for item_id, probability in body["probabilities"].items()
    }


def closed_loop_load(
    cluster: ShardCluster,
    item_ids: list[int],
    n_clients: int,
    requests_per_client: int,
) -> dict:
    """N closed-loop clients scoring one item per request.

    Returns elapsed seconds, per-request latency percentiles, and the
    shed (503) count -- 503s are *not* failures, they are the overload
    contract working.
    """
    barrier = threading.Barrier(n_clients + 1)
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    shed = [0] * n_clients
    errors: list[BaseException] = []

    def client_loop(index: int) -> None:
        client = RouterClient(cluster.host, cluster.port)
        my_ids = item_ids[index::n_clients] or item_ids
        try:
            barrier.wait()
            for n in range(requests_per_client):
                item_id = my_ids[n % len(my_ids)]
                started = time.perf_counter()
                status, _ = client.request(
                    "POST", "/score", {"item_ids": [item_id]}
                )
                latencies[index].append(time.perf_counter() - started)
                if status == 503:
                    shed[index] += 1
                elif status != 200:
                    raise RuntimeError(f"score returned {status}")
        except BaseException as exc:  # noqa: BLE001 - report to main
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(i,))
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    flat = [sample for per_client in latencies for sample in per_client]
    total = len(flat)
    return {
        "requests": total,
        "elapsed_s": round(elapsed, 3),
        "rps": round(total / elapsed, 1),
        "latency_p50_ms": round(percentile(flat, 0.50) * 1000, 2),
        "latency_p99_ms": round(percentile(flat, 0.99) * 1000, 2),
        "shed_503": sum(shed),
    }


def start_cluster(
    model_dir: Path, shards: int, checkpoint_root: Path | None = None
) -> ShardCluster:
    return ShardCluster(
        model_dir,
        shards,
        checkpoint_root=checkpoint_root,
        worker_args=WORKER_ARGS,
    ).start()


def run(quick: bool) -> dict:
    print("building system ...", file=sys.stderr)
    cats, d1 = build_system(quick)
    feed = item_feed(d1, max_items=40 if quick else 150)
    item_ids = sorted({record.item_id for record in feed})
    shard_counts = [1, 2] if quick else [1, 2, 4]
    n_clients = 4 if quick else 8
    requests_per_client = 75 if quick else 250

    workdir = Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    result: dict = {
        "n_cpus": usable_cpus(),
        "n_items": len(item_ids),
        "feed_records": len(feed),
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "throughput": {},
    }
    try:
        model_dir = workdir / "model"
        save_cats(cats, model_dir)

        # -- rps vs shards (plus identity across shard counts) ------
        reference_probabilities: dict[int, float] | None = None
        for shards in shard_counts:
            print(f"measuring {shards} shard(s) ...", file=sys.stderr)
            cluster = start_cluster(model_dir, shards)
            try:
                client = RouterClient(cluster.host, cluster.port)
                accepted = ingest_feed(client, feed)
                assert accepted == len(feed)
                probabilities = score_all(client, item_ids)
                client.close()
                if reference_probabilities is None:
                    reference_probabilities = probabilities
                else:
                    assert probabilities == reference_probabilities, (
                        f"{shards}-shard scores differ from 1-shard "
                        "scores: sharding changed an answer"
                    )
                result["throughput"][str(shards)] = closed_loop_load(
                    cluster, item_ids, n_clients, requests_per_client
                )
            finally:
                cluster.stop()

        low = result["throughput"][str(shard_counts[0])]["rps"]
        high = result["throughput"][str(shard_counts[-1])]["rps"]
        result["scaling"] = {
            "shards_compared": [shard_counts[0], shard_counts[-1]],
            "ratio": round(high / low, 2),
            "floor": MIN_SCALING,
            "floor_enforced": result["n_cpus"] >= 4,
        }
        if not result["scaling"]["floor_enforced"]:
            result["scaling"]["floor_skipped_reason"] = (
                f"host has {result['n_cpus']} CPU(s); process-per-shard "
                "scaling requires at least 4 cores to demonstrate"
            )
        result["identical_across_shard_counts"] = True

        # -- overload p99 on the largest cluster ----------------------
        print("measuring overload p99 ...", file=sys.stderr)
        cluster = start_cluster(model_dir, shard_counts[-1])
        try:
            client = RouterClient(cluster.host, cluster.port)
            ingest_feed(client, feed)
            client.close()
            result["overload"] = closed_loop_load(
                cluster,
                item_ids,
                n_clients * 3,
                max(25, requests_per_client // 3),
            )
        finally:
            cluster.stop()

        # -- kill/restart recovery ------------------------------------
        print("measuring kill/restart recovery ...", file=sys.stderr)
        ckpt_root = workdir / "ckpts"
        cluster = start_cluster(
            model_dir, shard_counts[-1], checkpoint_root=ckpt_root
        )
        try:
            client = RouterClient(cluster.host, cluster.port)
            ingest_feed(client, feed)
            before = score_all(client, item_ids)
            client.close()

            cluster.kill_shard(0)
            client = RouterClient(cluster.host, cluster.port)
            status, health = client.request("GET", "/healthz")
            assert status == 503 and health["shards_alive"] == (
                shard_counts[-1] - 1
            ), "killing a shard must degrade health"

            restart_started = time.perf_counter()
            cluster.restart_shard(0)
            status, health = client.request("GET", "/healthz")
            restart_elapsed = time.perf_counter() - restart_started
            assert status == 200, "cluster not healthy after restart"

            replay_started = time.perf_counter()
            ingest_feed(client, feed)  # dedupe keeps survivors, fills gaps
            after = score_all(client, item_ids)
            replay_elapsed = time.perf_counter() - replay_started
            client.close()
            assert after == before, (
                "scores after kill+restart+replay differ from the "
                "uninterrupted cluster"
            )
            result["recovery"] = {
                "killed_shard": 0,
                "restart_s": round(restart_elapsed, 3),
                "replay_s": round(replay_elapsed, 3),
                "bit_identical": True,
            }
        finally:
            cluster.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def render(result: dict) -> str:
    rows = [
        ["n_cpus", result["n_cpus"]],
        ["n_items", result["n_items"]],
        ["feed_records", result["feed_records"]],
    ]
    for shards, load in result["throughput"].items():
        rows.append([f"rps@{shards}shard", load["rps"]])
        rows.append([f"p99_ms@{shards}shard", load["latency_p99_ms"]])
    rows.append(["scaling_ratio", result["scaling"]["ratio"]])
    rows.append(["scaling_floor_enforced",
                 result["scaling"]["floor_enforced"]])
    rows.append(["overload_rps", result["overload"]["rps"]])
    rows.append(["overload_p99_ms", result["overload"]["latency_p99_ms"]])
    rows.append(["overload_shed_503", result["overload"]["shed_503"]])
    rows.append(["recovery_restart_s", result["recovery"]["restart_s"]])
    rows.append(["recovery_replay_s", result["recovery"]["replay_s"]])
    rows.append(["recovery_bit_identical",
                 result["recovery"]["bit_identical"]])
    return render_table(
        ["quantity", "value"], rows, title="Cluster serving"
    )


def check_acceptance(result: dict) -> None:
    assert result["identical_across_shard_counts"]
    assert result["recovery"]["bit_identical"]
    scaling = result["scaling"]
    if scaling["floor_enforced"]:
        assert scaling["ratio"] >= scaling["floor"], (
            f"{scaling['shards_compared'][-1]}-shard throughput only "
            f"{scaling['ratio']}x the single-shard baseline "
            f"(need >= {scaling['floor']}x)"
        )
    else:
        print(
            "scaling floor not enforced: "
            + scaling["floor_skipped_reason"],
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model, feed and request counts for the CI smoke check",
    )
    args = parser.parse_args(argv)

    result = run(args.quick)
    write_outputs(
        "cluster_serving", render(result), args.quick, "cluster", result
    )
    check_acceptance(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
