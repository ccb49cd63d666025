#!/usr/bin/env python3
"""Write the pinned answers in ``expected/`` from the current sources.

Usage (from the repository root):

    python3 perfbench/pin.py

``<workload>.json`` holds the verify reports of each verify workload, as
``format_report(..., "json")`` gives them without ``millis``.
``queries.json`` holds the pools the ``queries`` workload draws its inputs
from, each input with the answer the package gave: the classify flags, the
count-query results, and the bijection image.  The pools are drawn from a
fixed generator, so running this on unchanged sources rewrites the same
files.  The pins were made at the seed; rerun only to re-pin on purpose.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from skewfill import Filling, enum_skew_shapes, full_forward, parse_catalog_line, render_filling  # noqa: E402
from skewfill._engine import ShapeContext  # noqa: E402
from skewfill.harness import format_report, verify  # noqa: E402
from skewfill.structure import is_ds_free  # noqa: E402

from workloads import COUNT_SIZES, FILLING_CELLS, SHAPE_CELLS, VERIFY_OPS, random_skew  # noqa: E402

POOL_SIZE = 512  # classify, decompose and bijection inputs; count takes every shape


def shape_of(rows):
    return parse_catalog_line("[" + ",".join(f"({a},{b})" for a, b in rows) + "]")


def rows_of(s):
    return [list(s.row_interval(y)) for y in range(1, s.height + 1)]


def classify_flags(rows) -> dict:
    import contextlib
    import io
    import tempfile

    from skewfill import cli
    from workloads import grid_text

    with tempfile.NamedTemporaryFile("w", suffix=".txt") as fh:
        fh.write(grid_text(rows))
        fh.flush()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", fh.name]) == 0
    return dict(line.split(": ", 1) for line in out.getvalue().splitlines())


def query_pools() -> dict:
    rng = random.Random("perfbench pools")
    classify = []
    for _ in range(POOL_SIZE):
        rows = random_skew(rng, rng.randint(*SHAPE_CELLS), connected=False)
        classify.append({"rows": rows, "flags": classify_flags(rows)})
    decompose = []
    while len(decompose) < POOL_SIZE:
        rows = random_skew(rng, rng.randint(*SHAPE_CELLS), connected=True)
        if is_ds_free(shape_of(rows), "rectangle"):
            decompose.append({"rows": rows})
    count = []
    for n in COUNT_SIZES:
        for s in enum_skew_shapes(n, connected=True):
            counts = ShapeContext(s).stage_counts()
            count.append({"rows": rows_of(s), "delta2": counts[0], "iota2_fd": counts[-1]})
    bijection = []
    for _ in range(POOL_SIZE):
        s = shape_of(random_skew(rng, rng.randint(*FILLING_CELLS), connected=True))
        g1 = ShapeContext(s).stage_members(1)
        code = int(g1[rng.randrange(len(g1))])
        f = Filling(s, tuple((code >> p) & 1 for p in range(s.size)))
        bijection.append({"source": render_filling(f),
                          "image": render_filling(full_forward(f, keep_trace=False)[0]),
                          "steps": s.size - 1})
    return {"classify": classify, "decompose": decompose, "count": count,
            "bijection": bijection}


def main() -> None:
    out = os.path.join(HERE, "expected")
    for workload, ops in VERIFY_OPS.items():
        reports = []
        for prop, params in ops:
            data = json.loads(format_report(verify(prop, jobs=1, **params), "json"))
            data.pop("millis")
            reports.append(data)
        with open(os.path.join(out, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(workload, [(d["property"], d["instances"]) for d in reports])
    pools = query_pools()
    with open(os.path.join(out, "queries.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f'"{name}": [\n' + ",\n".join(json.dumps(q, sort_keys=True) for q in pool) + "\n]"
            for name, pool in pools.items()) + "\n}\n")
    print("queries", {name: len(pool) for name, pool in pools.items()})


if __name__ == "__main__":
    main()
