"""One benchmark process: a set-up sample, a pass, or a shard.

Usage: python3 perfbench/worker.py '<job json>'

The job's ``t_spawn`` is the runner's clock (CLOCK_MONOTONIC, which
``time.perf_counter`` reads too) just before it started this process.
The speed probe starts before ``import skewfill``, so set-up time and
every operation are reported both raw and at the probe's reference
speed (see probe.py).  The reply is one JSON line on stdout.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import Probe, Timer  # noqa: E402

PROBE = Probe()
PROBE.start()

import skewfill  # noqa: E402

T_IMPORTED = time.perf_counter()
PROBE_AT_IMPORT = PROBE.total


def _verify_pass(job, reply) -> None:
    from skewfill import harness

    from workloads import VERIFY_OPS

    ops = []
    for prop, params in VERIFY_OPS[job["workload"]]:
        with Timer(PROBE) as t:
            try:
                report = harness.verify(prop, jobs=1, **params)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                report = exc
        if isinstance(report, Exception):
            data = {"error": f"{type(report).__name__}: {report}"}
        else:
            data = json.loads(harness.format_report(report, "json"))
            data.pop("millis")
        ops.append({"name": prop, "raw_ms": t.raw * 1000.0, "ms": t.scaled() * 1000.0,
                    "report": data})
    reply["ops"] = ops


def _query_pass(job, reply) -> None:
    import contextlib
    import hashlib
    import io

    import skewfill.cli

    from workloads import check_query

    with open(os.path.join(job["workdir"], f"batch{job['batch']}.json"), encoding="utf-8") as fh:
        queries = json.load(fh)
    results = []
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        with Timer(PROBE) as t, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = skewfill.cli.main(q["argv"])
            except Exception as exc:  # a crash is a failed query, not a failed run
                rc = f"exception: {type(exc).__name__}: {exc}"
        results.append((rc, t, out.getvalue()))
    reply["ops"] = [
        {"name": q["kind"], "raw_ms": t.raw * 1000.0, "ms": t.scaled() * 1000.0,
         "ok": check_query(q, rc, text),
         "digest": hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()}
        for q, (rc, t, text) in zip(queries, results)
    ]


def _shard(job, reply) -> None:
    from skewfill import harness

    from workloads import VERIFY_OPS

    prop, params = VERIFY_OPS["genskew"][0]
    with Timer(PROBE) as t:
        part = harness._run(prop, dict(params), (job["shard"], job["shards"]))
    reply["ops"] = [{"name": f"shard{job['shard']}", "raw_ms": t.raw * 1000.0,
                     "ms": t.scaled() * 1000.0, "part": part}]


def main() -> None:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(skewfill.__file__).startswith(src + os.sep):
        raise SystemExit(f"skewfill was imported from {skewfill.__file__}, not {src}")
    setup_raw = T_IMPORTED - job["t_spawn"] - PROBE_AT_IMPORT
    reply = {"setup_raw_s": setup_raw,
             "setup_s": PROBE.scaled(setup_raw, T_START, T_IMPORTED)}
    kind = job["kind"]
    if kind == "pass":
        tracer = None
        if job.get("trace"):
            import spans

            tracer = spans.Tracer()
            reply["untraced_targets"] = spans.install(tracer)
        t0 = time.perf_counter()
        if job["workload"] == "queries":
            _query_pass(job, reply)
        else:
            _verify_pass(job, reply)
        if tracer is not None:
            # self times at the reference speed, like every other time
            factor = PROBE.scaled(1.0, t0, time.perf_counter())
            reply["layers"] = {k: v * factor if k.endswith("_s") else v
                               for k, v in tracer.metrics().items()}
            tracer.save(job["spans_file"])
    elif kind == "shard":
        _shard(job, reply)
    PROBE.stop()
    import platform
    import resource

    import numpy

    reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply["probe_median_s"] = PROBE.local_time(T_START, time.perf_counter())
    reply["python"] = platform.python_version()
    reply["numpy"] = numpy.__version__
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
