"""perfbench traces skewfill's functions by the names its modules use.  A
target that is renamed or removed would otherwise show only as a failed
operation in a traced bench run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import skewfill.harness

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_target_exists():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; print(spans.install(spans.Tracer()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_genskew_shard_entry_point_exists():
    # perfbench's worker runs the genskew shards through harness._run
    assert callable(skewfill.harness._run)


def test_genskew_shards_carry_what_the_bench_reads():
    # the bench sums the shards' instances and details["shapes"] and
    # compares them with its pinned report
    want = json.loads((ROOT / "perfbench" / "expected" / "genskew.json").read_text())[0]
    assert (want["instances"], want["details"]["shapes"]) == (810230, 3909)
    parts = [skewfill.harness._run("genskew", {"max_cells": 8}, (k, 2)) for k in (0, 1)]
    for part in parts:
        assert "shapes" in part["details"] and part["failures"] == []
    assert sum(p["instances"] for p in parts) == want["instances"]
    assert sum(p["details"]["shapes"] for p in parts) == want["details"]["shapes"]
