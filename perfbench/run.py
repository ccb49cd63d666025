#!/usr/bin/env python3
"""Benchmark of skewfill: four workloads, cold-process passes, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload genskew --seed 1 --seconds 25 --trace 0

``--trace 0`` times passes, each in a fresh interpreter, until
``--seconds`` of measurement are used, checks every output, and prints
the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
pass, checks that both give identical outputs, and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is the result
JSON; the line before it is a record of the machine and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import VERIFY_OPS, WORKLOADS, expected_reports, prepare_queries  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole run, set-up included, ends before this
SETUP_SAMPLES = 5
QUERY_BATCHES = 16


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t0 = time.perf_counter()
        self.out = os.path.join(ROOT, ".perfbench_out")
        self.workdir = os.path.join(self.out, f"work-{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def spawn(self, **job) -> dict:
        """Run one worker process to completion and return its reply."""
        job.update(root=ROOT, workload=self.workload, seed=self.seed, workdir=self.workdir)
        timeout = TIME_LIMIT_S - (time.perf_counter() - self.t0)
        if timeout <= 0:
            raise BenchError("time limit reached")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        job["t_spawn"] = t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job['kind']} worker passed the time limit") from None
        t_end = time.perf_counter()
        if proc.returncode != 0:
            raise BenchError(f"{job['kind']} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        reply["process_s"] = t_end - t_spawn
        ops = reply.get("ops", [])
        reply["work_s"] = sum(op["ms"] for op in ops) / 1000.0
        reply["raw_work_s"] = sum(op["raw_ms"] for op in ops) / 1000.0
        return reply

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def check_pass(self, reply: dict) -> None:
        """Count every operation of a pass against its pinned report or oracle."""
        if self.workload == "queries":
            for k, op in enumerate(reply["ops"]):
                self.tally(op["ok"], f"query {k} ({op['name']}) wrong")
            return
        expected = expected_reports(self.workload)
        got = [op["report"] for op in reply["ops"]]
        for k, want in enumerate(expected):
            self.tally(k < len(got) and got[k] == want,
                       f"{want['property']} report differs from the pinned one")

    def prepare(self, batches: int) -> None:
        if self.workload == "queries":
            prepare_queries(self.seed, batches, self.workdir)

    def passes(self, seconds: float) -> list[dict]:
        """Fresh-process passes until the next would overrun ``seconds``."""
        start = time.perf_counter()
        done = []
        while True:
            reply = self.spawn(kind="pass", batch=len(done))
            self.check_pass(reply)
            done.append(reply)
            used = time.perf_counter() - start
            if used + statistics.median(r["process_s"] for r in done) > seconds:
                return done
            if self.workload == "queries" and len(done) == QUERY_BATCHES:
                return done


# --- statistics ---------------------------------------------------------------


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values):
    """Quartile distance over the median, as the acceptance check takes it."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def by_kind(passes) -> dict:
    """Each operation kind's share of the operations and of their time, and
    the kinds whose operations sit at the p50 and p90 latency ranks."""
    ops = sorted(((op["ms"], op["name"]) for p in passes for op in p["ops"]))
    total = sum(ms for ms, _ in ops)
    kinds = {}
    for ms, name in ops:
        k = kinds.setdefault(name, {"ops": 0, "ms": []})
        k["ops"] += 1
        k["ms"].append(ms)
    return {
        "kinds": {name: {"share_ops": k["ops"] / len(ops), "share_time": sum(k["ms"]) / total,
                         "median_ms": statistics.median(k["ms"])}
                  for name, k in sorted(kinds.items())},
        "p50_kind": ops[(len(ops) - 1) * 50 // 100][1],
        "p90_kind": ops[(len(ops) - 1) * 90 // 100][1],
    }


def machine(replies) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": replies[0]["python"],
        "numpy": replies[0]["numpy"],
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


# --- the two modes --------------------------------------------------------------


def timed_run(r: Runner, seconds: float) -> tuple[dict, dict]:
    r.spawn(kind="setup")  # compiles bytecode; users do not pay this per run
    setup_runs = [r.spawn(kind="setup") for _ in range(SETUP_SAMPLES)]
    r.prepare(QUERY_BATCHES)
    passes = r.passes(seconds)
    setups = [p["setup_s"] for p in setup_runs + passes]
    setup_raw = [p["setup_raw_s"] for p in setup_runs + passes]
    walls = [p["work_s"] for p in passes]
    latencies = [op["ms"] for p in passes for op in p["ops"]]
    per_pass = {
        "query_ms_p50": [percentile([op["ms"] for op in p["ops"]], 50) for p in passes],
        "query_ms_p90": [percentile([op["ms"] for op in p["ops"]], 90) for p in passes],
        "queries_per_s": [len(p["ops"]) / p["work_s"] for p in passes],
    }
    rss = [p["rss_kb"] / 1024.0 for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "query_ms_p50": percentile(latencies, 50),
        "query_ms_p90": percentile(latencies, 90),
        "queries_per_s": len(latencies) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss, **per_pass}
    raw = {"setup_s": setup_raw, "wall_s": [p["raw_work_s"] for p in passes],
           "probe_median_s": [p["probe_median_s"] for p in passes]}
    record = {
        "machine": machine(passes),
        "passes": len(passes),
        "operations": len(latencies),
        "beyond_p90": sum(1 for v in latencies if v > metrics["query_ms_p90"]),
        "spread": {k: spread(v) for k, v in samples.items()},
        **by_kind(passes),
        "samples": samples,
        "raw_samples": raw,
    }
    return metrics, record


def traced_run(r: Runner) -> tuple[dict, dict]:
    r.spawn(kind="setup")
    r.prepare(1)
    plain = r.spawn(kind="pass", batch=0)
    os.makedirs(r.out, exist_ok=True)
    spans_file = os.path.join(r.out, f"spans-{r.workload}-{r.seed}.npz")
    traced = r.spawn(kind="pass", batch=0, trace=1, spans_file=spans_file)
    r.check_pass(plain)
    r.check_pass(traced)
    for target in traced["untraced_targets"]:
        r.tally(False, f"trace target {target} is gone; its layer cannot be measured")
    if r.workload == "queries":
        same = [op["digest"] for op in plain["ops"]] == [op["digest"] for op in traced["ops"]]
    else:
        same = [op["report"] for op in plain["ops"]] == [op["report"] for op in traced["ops"]]
    r.tally(same, "traced outputs differ from untraced outputs")
    metrics = dict(traced["layers"])
    metrics["trace.untraced_wall_s"] = plain["work_s"]
    metrics["trace.traced_wall_s"] = traced["work_s"]
    metrics["trace.overhead_s"] = traced["work_s"] - plain["work_s"]
    shard_s = [0.0, 0.0]
    if r.workload == "genskew":
        shards = [r.spawn(kind="shard", shard=k, shards=2) for k in range(2)]
        shard_s = [s["work_s"] for s in shards]
        parts = [s["ops"][0]["part"] for s in shards]
        want = expected_reports("genskew")[0]
        r.tally(sum(p["instances"] for p in parts) == want["instances"]
                and not any(p["failures"] for p in parts)
                and sum(p["details"]["shapes"] for p in parts) == want["details"]["shapes"],
                "genskew shards do not add up to the pinned report")
    metrics["harness.shard0_s"], metrics["harness.shard1_s"] = shard_s
    metrics["harness.shard_balance"] = (
        max(shard_s) / statistics.mean(shard_s) if any(shard_s) else 0.0)
    record = {
        "machine": machine([plain]),
        "spans_file": os.path.relpath(spans_file, ROOT),
        **by_kind([traced]),
    }
    return metrics, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skewfill", "__init__.py")):
        print(f"error: no skewfill sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    r = Runner(args.workload, args.seed)
    load_start = loadavg()
    try:
        os.makedirs(r.workdir, exist_ok=True)
        if args.trace:
            values, record = traced_run(r)
        else:
            values, record = timed_run(r, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(r.workdir, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  loadavg_start=load_start, loadavg_end=loadavg(),
                  fail_ratio=r.failed / r.attempted, failures=r.notes,
                  verify_ops=[op for op, _ in VERIFY_OPS.get(args.workload, [])])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
