"""perfbench traces skewfill's functions by the names its modules use.  A
target that is renamed or removed would otherwise show only as a failed
operation in a traced bench run."""

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
