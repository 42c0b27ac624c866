"""The repository benchmark: two CATS workloads, fixed work per run.

    python3 perfbench/run.py --workload d1_batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each exists):

* ``d1_batch`` -- rounds of the batch path, each in a fresh job process:
  ``cats analyze`` + ``cats detect --store`` over a seeded D1 slice in
  ``cats crawl`` format, then one periodic retrain cycle (columnar
  rehydrate, 5-fold CV, fit, register + promote, reload the champion,
  score) on the store the sweep persisted.
* ``live_feed`` -- ``cats serve`` warm-restarted from a checkpoint and a
  columnar store holding seeded history, driven by one generator with a
  closed-loop crawler connection (``/ingest`` pages) and an open-loop
  analyst connection (``/score`` lookups at a fixed rate).

Every run prepares (or reuses) its seed's artefacts outside the timed
path, sets the program up several times and reports the median set-up
time, runs a fixed amount of work, checks the outputs against a
reference, and prints one JSON object as the last line of stdout.
``--trace 1`` installs the per-layer wrappers (``spans.py``) and reports
the per-layer table instead of the end-to-end metrics; the table and the
tracing overhead are also written to ``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gates  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    base_dir,
    bench_hash,
    env_with_src,
    fresh_copy,
    host_facts,
    median,
    metric,
    read_json,
    run_child,
    seed_dir,
    tail,
    vm_hwm_mib,
    write_json,
)

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-run settings.  d1_batch starts ``launches`` fresh job processes,
#: ``rounds`` of which run a round after set-up (interleaved with the
#: set-up-only ones, so samples spread over the run); live_feed starts
#: ``serve_launches`` servers and drives the last one.  Every launch is
#: a set-up sample.  A d1_batch set-up takes ~1.3 s with up to ~0.7 s
#: between launches of one run, so its median is taken over eight.
RUN_SIZES = {
    "full": {"launches": 8, "rounds": 2, "serve_launches": 3},
    "smoke": {"launches": 1, "rounds": 1, "serve_launches": 1},
}

PREPARE_TIMEOUT_S = 850
JOB_TIMEOUT_S = 150
SERVER_STOP_TIMEOUT_S = 60


class Launch:
    """One child process started for set-up timing (and maybe work)."""

    def __init__(self, args: list[str], log: Path) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            env=env_with_src(),
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )

    def read_json_line(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=JOB_TIMEOUT_S)
            raise RuntimeError(
                f"child exited {self.proc.returncode} before reporting; "
                f"see {self._log.name}"
            )
        return json.loads(line)

    def close(self, timeout: float = JOB_TIMEOUT_S) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code


def prepare(size: str, workload: str, seed: int, seconds: int) -> None:
    run_child(
        [
            str(BENCH_DIR / "prepare.py"), "seed", "--size", size,
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds),
        ],
        timeout=PREPARE_TIMEOUT_S,
    )


def log_path(workload: str) -> Path:
    return WORK / "logs" / f"{workload}-{os.getpid()}.log"


# -- d1_batch: fresh job processes ---------------------------------------------


def run_d1_batch(size, seed, seconds, trace, work) -> dict:
    sd = seed_dir(size, "d1_batch", seed, seconds)
    reference = read_json(sd / "reference.json")
    launches, rounds = (RUN_SIZES[size][k] for k in ("launches", "rounds"))
    every = launches // rounds
    setups, results = [], []
    for i in range(launches):
        launch_dir = work / f"launch-{i}"
        fresh_copy(sd / "registry", launch_dir / "registry")
        is_round = i % every == every - 1
        args = [
            str(BENCH_DIR / "job.py"), "--dir", str(sd),
            "--workdir", str(launch_dir),
        ]
        if trace:
            args.append("--trace")
        if not is_round:
            args.append("--setup-only")
        launch = Launch(args, log_path("d1_batch"))
        try:
            launch.read_json_line()
            setups.append(time.perf_counter() - launch.started)
            if is_round:
                launch.proc.stdin.write("go\n")
                launch.proc.stdin.flush()
                results.append(launch.read_json_line())
        finally:
            launch.proc.stdin.close()
            code = launch.close()
        if code != 0:
            raise RuntimeError(f"d1_batch job exited {code}")
    failures = []
    for result in results:
        failures += gates.d1_batch_gate(result, reference)
        failures += gates.retrain_gate([result["retrain"]], reference["retrain"])
    comments = sum(r["n_comments"] for r in results)
    round_ms = [(r["sweep_s"] + r["retrain_s"]) * 1000.0 for r in results]
    tail_ms, tail_pct = tail(round_ms)
    traced = [r["trace"] for r in results if r["trace"] is not None]
    return {
        "attempted": comments,
        "failures": failures,
        "metrics": {
            "throughput_per_s": comments / sum(r["sweep_s"] for r in results),
            # A round's report and refreshed champion are both ready
            # only when the round ends.
            "latency_p50_ms": median(round_ms),
            "latency_tail_ms": tail_ms,
            "setup_s": median(setups),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in results),
        },
        "trace": _sum_tables(traced) if traced else None,
        "info": {
            "setup_samples_s": setups,
            "sweep_s": [r["sweep_s"] for r in results],
            "retrain_s": [r["retrain_s"] for r in results],
            "latency_samples": len(round_ms),
            "tail_percentile": tail_pct,
        },
    }


def _sum_tables(tables: list[dict]) -> dict:
    """Raw per-layer sums over rounds (maxima for gauges)."""
    out: dict[str, float] = {}
    for table in tables:
        for name, value in table.items():
            if name in ("parallel_analysis.workers", "startup.import_ms"):
                out[name] = max(out.get(name, 0.0), value)
            else:
                out[name] = out.get(name, 0.0) + value
    return out


# -- live_feed: server + generator --------------------------------------------


def _request(conn, method: str, path: str, payload=None):
    """One request on *conn*: (status, raw body)."""
    body, headers = None, {}
    if payload is not None:
        body = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body, headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


class Server:
    """``cats serve`` warm-restarted from a fresh copy of the seed state."""

    def __init__(self, size, sd: Path, launch_dir: Path, trace_out) -> None:
        state = fresh_copy(sd / "state", launch_dir / "state")
        args = [str(BENCH_DIR / "serve_launcher.py")]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += [
            "--", "serve", str(base_dir(size) / "model"), "--port", "0",
            "--checkpoint-dir", str(state / "ckpts"),
            "--columnar-store", str(state / "store"),
        ]
        self.launch = Launch(args, log_path("live_feed"))
        announcement = self.launch.read_json_line()
        self.host, self.port = announcement["host"], announcement["port"]
        status, health = self.call("GET", "/healthz")
        if status != 200 or health.get("restored_from") is None:
            raise RuntimeError(f"server not healthy after restart: {health}")
        self.setup_s = time.perf_counter() - self.launch.started

    def _conn(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def call(self, method: str, path: str, payload=None):
        """One request on a fresh connection: (status, decoded body)."""
        conn = self._conn()
        try:
            status, body = _request(conn, method, path, payload)
            return status, json.loads(body)
        finally:
            conn.close()

    def stop(self) -> None:
        self.launch.proc.send_signal(signal.SIGTERM)
        code = self.launch.close(timeout=SERVER_STOP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"server exited {code}")


def _drive(server: Server, feed: dict) -> dict:
    """Crawler (closed loop) and analysts (open loop) on two connections."""
    pages, lookups = feed["feed"], feed["lookups"]
    interval = feed["lookup_interval_s"]
    out = {"page_ms": [], "lookup_ms": [], "lookup_send_ms": [],
           "lateness_s": [], "failed": 0, "comments": 0, "crawl_s": 0.0}
    lock = threading.Lock()
    barrier = threading.Barrier(2)
    t0 = [0.0]

    def call(conn, path, payload):
        """(status, connection); a dead connection is replaced."""
        try:
            return _request(conn, "POST", path, payload)[0], conn
        except (OSError, http.client.HTTPException):
            conn.close()
            return None, server._conn()

    def crawler():
        conn = server._conn()
        barrier.wait()
        for page in pages:
            start = time.perf_counter()
            status, conn = call(conn, "/ingest", page)
            done = time.perf_counter()
            with lock:
                out["page_ms"].append((done - start) * 1000.0)
                if status == 200:
                    out["comments"] += len(page["comments"])
                else:
                    out["failed"] += 1
        out["crawl_s"] = time.perf_counter() - t0[0]
        conn.close()

    def analysts():
        conn = server._conn()
        t0[0] = time.perf_counter()
        barrier.wait()
        for k, ids in enumerate(lookups):
            due = t0[0] + k * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            status, conn = call(conn, "/score", {"item_ids": ids})
            done = time.perf_counter()
            with lock:
                out["lookup_ms"].append((done - due) * 1000.0)
                out["lookup_send_ms"].append((done - sent) * 1000.0)
                out["lateness_s"].append(max(0.0, sent - due))
                if status != 200:
                    out["failed"] += 1
        conn.close()

    threads = [threading.Thread(target=f) for f in (analysts, crawler)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def run_live_feed(size, seed, seconds, trace, work) -> dict:
    sd = seed_dir(size, "live_feed", seed, seconds)
    feed = read_json(sd / "feed.json")
    reference = read_json(sd / "reference.json")
    setups = []
    n = RUN_SIZES[size]["serve_launches"]
    for i in range(n - 1):
        trace_out = work / f"trace-{i}.json" if trace else None
        server = Server(size, sd, work / f"launch-{i}", trace_out)
        setups.append(server.setup_s)
        server.stop()
    trace_out = work / f"trace-{n - 1}.json" if trace else None
    server = Server(size, sd, work / f"launch-{n - 1}", trace_out)
    setups.append(server.setup_s)
    try:
        driven = _drive(server, feed)
        sent = time.perf_counter()
        status, final = server.call(
            "POST", "/score", {"item_ids": reference["fed_items"]}
        )
        gate_ms = (time.perf_counter() - sent) * 1000.0
        if status != 200:
            raise RuntimeError(f"final /score returned {status}: {final}")
        _, alerts = server.call("GET", "/alerts")
        _, stats = server.call("GET", "/stats")
        rss = vm_hwm_mib(server.launch.proc.pid)
    finally:
        server.stop()
    alerted = {a["item_id"] for a in alerts["alerts"]}
    failures = gates.live_feed_gate(final["probabilities"], alerted, reference)
    page_tail, page_pct = tail(driven["page_ms"])
    lookup_tail, lookup_pct = tail(driven["lookup_ms"])
    behind = max(driven["lateness_s"]) > feed["lookup_interval_s"]
    sums = None
    if trace:
        sums = read_json(trace_out)
        # Summed like httpd.handler_ms: the client time of every POST
        # the server handled (pages, lookups, the gate's /score) minus
        # the server's time inside do_POST.
        client_ms = (
            sum(driven["page_ms"]) + sum(driven["lookup_send_ms"]) + gate_ms
        )
        sums["httpd.transport_ms"] = (
            client_ms - sums.get("httpd.handler_ms", 0.0)
        )
        for key in ("batches", "mean_batch_size", "batch_latency_p50_ms",
                    "rejected"):
            sums[f"batching.{key}"] = float(stats.get(key, 0.0))
        sums["lookup_p50_ms"] = median(driven["lookup_ms"])
        sums["lookup_tail_ms"] = lookup_tail
    return {
        "attempted": len(feed["feed"]) + len(feed["lookups"]),
        "failed": driven["failed"],
        "failures": failures,
        "metrics": {
            "throughput_per_s": driven["comments"] / driven["crawl_s"],
            "latency_p50_ms": median(driven["page_ms"]),
            "latency_tail_ms": page_tail,
            "setup_s": median(setups),
            "peak_rss_mib": rss,
        },
        "trace": sums,
        "info": {
            "setup_samples_s": setups,
            "pages": len(driven["page_ms"]),
            "tail_percentile": page_pct,
            "lookups": len(driven["lookup_ms"]),
            "lookup_p50_ms": median(driven["lookup_ms"]),
            "lookup_tail_ms": lookup_tail,
            "lookup_tail_percentile": lookup_pct,
            "generator_max_lateness_ms": max(driven["lateness_s"]) * 1000.0,
            "generator_behind": behind,
            "checkpoints_written": stats.get("checkpoints_written"),
            "batching": {k: stats.get(k) for k in (
                "batches", "mean_batch_size", "batch_latency_p50_ms",
                "batch_latency_p99_ms", "rejected")},
        },
    }


RUNNERS = {
    "d1_batch": run_d1_batch,
    "live_feed": run_live_feed,
}


# -- reporting -----------------------------------------------------------------


def _record(workload, size, seed, seconds, trace, outcome, facts) -> Path:
    """Append this run to the checkout's results log."""
    log = WORK / "results.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "workload": workload, "size": size, "seed": seed,
        "seconds": seconds, "trace": trace, "base": base_dir(size).name,
        "bench": bench_hash(),
        "metrics": outcome["metrics"], "failures": outcome["failures"],
        "info": outcome["info"], "host": facts,
    }
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return log


def _overhead(workload, size, metrics) -> dict:
    """Traced minus the median of untraced runs of the same code."""
    log = WORK / "results.jsonl"
    untraced = []
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if (entry["workload"] == workload and not entry["trace"]
                    and entry["base"] == base_dir(size).name
                    and entry.get("bench") == bench_hash()):
                untraced.append(entry["metrics"])
    if not untraced:
        return {"untraced_runs": 0}
    return {
        "untraced_runs": len(untraced),
        **{
            name: metrics[name] - median([m[name] for m in untraced])
            for name in END_TO_END
        },
    }


def run_workload(workload, size, seed, seconds, trace) -> dict:
    import spans

    prepare(size, workload, seed, seconds)
    facts = {"before": host_facts()}
    # Mutable per-run state (store copies, registries, server state) is
    # dropped after every run; logs stay under .perfbench/logs.
    work = WORK / "runs" / f"{workload}-{os.getpid()}"
    try:
        outcome = RUNNERS[workload](size, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["after"] = host_facts()
    _record(workload, size, seed, seconds, trace, outcome, facts)
    failures = outcome["failures"]
    for failure in failures:
        print(f"{workload}: INCORRECT: {failure}", file=sys.stderr)
    info = {"workload": workload, "seed": seed, "host": facts,
            **outcome["info"]}
    if trace:
        table = spans.finish(outcome["trace"])
        overhead = _overhead(workload, size, outcome["metrics"])
        write_json(WORK / f"trace-{workload}.json",
                   {"per_layer": table, "tracing_overhead": overhead,
                    "traced_end_to_end": outcome["metrics"]})
        info["tracing_overhead"] = overhead
        metrics = {
            name: metric(table[name], unit)
            for name, unit in spans.PER_LAYER.items()
        }
    else:
        metrics = {
            name: metric(outcome["metrics"][name], unit)
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({"info": info}))
    return {
        "correct": not failures,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome.get("failed", 0)),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload, untraced and traced, on tiny inputs."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.perf_counter()
            result = run_workload(workload, "smoke", 0, 5, trace)
            ok &= result["correct"] and result["failed"] == 0
            print(
                f"smoke {workload} trace={trace}: correct={result['correct']} "
                f"failed={result['failed']} "
                f"({time.perf_counter() - started:.1f}s)",
                file=sys.stderr,
            )
    print(json.dumps({"smoke_ok": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads on tiny inputs (quick check)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    result = run_workload(
        args.workload, "full", args.seed % 2**32, args.seconds, args.trace
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
