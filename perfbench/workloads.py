"""Workload definitions, seeded query generation, and output checks.

This module never imports skewfill, so the runner can load it in a
checkout where the package is missing, and no oracle here comes from the
code under test: the ones that need the package are pinned in
``expected/`` by ``pin.py``.
"""

from __future__ import annotations

import json
import os
import random
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))

# Verify workloads: (property, params) in call order, all with jobs=1.
VERIFY_OPS = {
    "genskew": [("genskew", {"max_cells": 8})],
    "chains": [("lem_ferrers", {"max_cells": 7}), ("rubey", {"max_cells": 7})],
    "catalog": [
        ("thm_bp", {"max_cells": 8}),
        ("conjecture", {"max_cells": 8}),
        ("cor_sskew", {"max_cells": 8}),
        ("ds_free_oracle", {"max_cells": 8}),
        ("lemma_gi", {"max_cells": 7}),
    ],
}
WORKLOADS = ("genskew", "chains", "catalog", "queries")

# Skew shapes per cell count n = 1..7.  n <= 6 are the sizes A10 proves
# against its bounding-box subset oracle; n = 7 comes from the enumerator
# that A10 validates.
CATALOG_SIZES = (1, 3, 9, 28, 87, 272, 850)

# A queries batch holds PER_KIND inputs of each query kind the benchmark
# lists, an equal share each.  "bijection" and "count" inputs each make two
# CLI calls (forward + backward; delta2 + iota2/fd).
QUERY_KINDS = ("classify", "decompose", "enum", "count", "transversal", "bijection")
PER_KIND = 16

# Cell counts: classify and decompose 6-12, count 7-10, as the benchmark
# specifies; transversal and bijection, which it leaves open, take the
# count range, the other queries on fillings.
SHAPE_CELLS = (6, 12)
FILLING_CELLS = (7, 10)
COUNT_SIZES = (7, 8, 9, 10)
COUNT_STRATA = PER_KIND // len(COUNT_SIZES)  # count shapes per size and batch


def expected(name: str):
    """A pinned file of ``expected/``, as ``pin.py`` wrote it from the seed."""
    with open(os.path.join(HERE, "expected", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_reports(workload: str) -> list[dict]:
    """Pinned verify reports (JSON form without ``millis``) of the seed."""
    return expected(workload)


# --- shapes as row intervals -------------------------------------------------


def random_skew(rng: random.Random, n: int, connected: bool) -> list[tuple[int, int]]:
    """Row intervals (bottom row first) of a random n-cell skew shape.

    Uses the catalog grammar: each row starts at or right of the previous
    start and at most one past the previous end, and ends at or right of
    the previous end.  Starting one past the previous end disconnects.
    """
    while True:
        rows: list[tuple[int, int]] = []
        used = 0
        while used < n:
            if rows:
                pa, pb = rows[-1]
                a = rng.randint(pa, pb if connected else pb + 1)
                lo = max(a, pb)
            else:
                a = lo = 1
            hi = a + (n - used) - 1
            if lo > hi:
                break
            b = rng.randint(lo, min(hi, lo + 2))
            rows.append((a, b))
            used += b - a + 1
        if used == n:
            return rows


def scan_cost(height: int, width: int) -> int:
    """Grid placements a 2x2 and a 3x3 pattern scan test on a shape's box."""
    return comb(height, 2) * comb(width, 2) + comb(height, 3) * comb(width, 3)


def width(rows) -> int:
    return max(b for _, b in rows)


def has_transversal(rows) -> bool:
    """One cell per row and column exists (interval matching, greedy by end)."""
    if len(rows) != width(rows):
        return False
    taken = set()
    for a, b in sorted(rows, key=lambda r: r[1]):
        free = next((x for x in range(a, b + 1) if x not in taken), None)
        if free is None:
            return False
        taken.add(free)
    return True


def grid_text(rows, values=None) -> str:
    """Grid file text, top row first; ``values`` maps cells to digits."""
    lines = []
    for y in range(len(rows), 0, -1):
        a, b = rows[y - 1]
        line = ""
        for x in range(1, width(rows) + 1):
            if a <= x <= b:
                line += "#" if values is None else str(values[(x, y)])
            else:
                line += "."
        lines.append(line)
    return "\n".join(lines) + "\n"


def row_sums(grid: list[str]) -> list[int]:
    return [sum(int(ch) for ch in line if ch.isdigit()) for line in grid]


# --- query generation ----------------------------------------------------------


def prepare_queries(seed: int, batches: int, outdir: str) -> None:
    """Write the input files and query lists of ``batches`` batches.

    Batch b draws from ``random.Random(f"{seed}:{b}")``.  Inputs whose
    oracle needs the package come from the pools in
    ``expected/queries.json``, pinned with their answers at the seed, so a
    change to the package cannot move an oracle along with its output.
    """
    pools = expected("queries")
    # A count query's cost grows with its shape's box, so count shapes are
    # drawn stratified: each size's shapes, ranked by scan_cost, split into
    # COUNT_STRATA equal parts, one shape drawn from each part.  Every shape
    # stays equally likely; batches differ far less in cost.
    strata = []
    for n in COUNT_SIZES:
        ranked = sorted((q for q in pools["count"] if sum(b - a + 1 for a, b in q["rows"]) == n),
                        key=lambda q: (scan_cost(len(q["rows"]), width(q["rows"])), q["rows"]))
        strata += [ranked[k * len(ranked) // COUNT_STRATA:(k + 1) * len(ranked) // COUNT_STRATA]
                   for k in range(COUNT_STRATA)]

    for b in range(batches):
        rng = random.Random(f"{seed}:{b}")
        queries = []
        counter = [0]

        def write(text):
            path = os.path.join(outdir, f"b{b}_{counter[0]}.txt")
            counter[0] += 1
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        for kind in QUERY_KINDS:
            for k in range(PER_KIND):
                if kind == "classify":
                    q = rng.choice(pools["classify"])
                    queries.append({"kind": kind, "argv": ["classify", write(grid_text(q["rows"]))],
                                    "flags": q["flags"]})
                elif kind == "decompose":
                    rows = rng.choice(pools["decompose"])["rows"]
                    queries.append({"kind": kind, "argv": ["decompose", write(grid_text(rows))],
                                    "rows": rows})
                elif kind == "enum":
                    queries.append({"kind": kind,
                                    "argv": ["enum-shapes", "--max-cells", str(len(CATALOG_SIZES))]})
                elif kind == "transversal":
                    # the oracle is thm_bp's, so any shape with a transversal serves
                    while True:
                        rows = random_skew(rng, rng.randint(*FILLING_CELLS), connected=False)
                        if has_transversal(rows):
                            break
                    queries.append({"kind": kind,
                                    "argv": ["count", "--mode", "transversal", "--avoid", "delta2",
                                             write(grid_text(rows))]})
                elif kind == "count":
                    q = rng.choice(strata[k])
                    path = write(grid_text(q["rows"]))
                    queries.append({"kind": "count_delta2",
                                    "argv": ["count", "--avoid", "delta2", path],
                                    "expect": q["delta2"]})
                    queries.append({"kind": "count_iota2_fd",
                                    "argv": ["count", "--avoid", "iota2", "--avoid", "fd", path],
                                    "expect": q["iota2_fd"]})
                elif kind == "bijection":
                    q = rng.choice(pools["bijection"])
                    queries.append({"kind": "bijection_forward",
                                    "argv": ["bijection", "--trace", write(q["source"] + "\n")],
                                    "input": q["source"], "image": q["image"],
                                    "steps": q["steps"]})
                    queries.append({"kind": "bijection_backward",
                                    "argv": ["bijection", "--backward", write(q["image"] + "\n")],
                                    "input": q["source"]})
        rng.shuffle(queries)
        with open(os.path.join(outdir, f"batch{b}.json"), "w", encoding="utf-8") as fh:
            json.dump(queries, fh)


# --- output checks -----------------------------------------------------------


def _check_classify(q, out: str) -> bool:
    """Every flag as the seed printed it for this shape."""
    return dict(line.split(": ", 1) for line in out.splitlines()) == q["flags"]


def _check_decompose(q, out: str) -> bool:
    """The labeled grid tiles the shape with blocks named F1, G1, F2, ..."""
    lines = out.splitlines()
    if len(lines) < 3 or not lines[-2].startswith("vertical cuts: ") \
            or not lines[-1].startswith("horizontal cuts: "):
        return False
    rows = q["rows"]
    grid = [line.split() for line in lines[:-2]]
    if len(grid) != len(rows):
        return False
    order = []
    for k, tokens in enumerate(grid):
        a, b = rows[len(rows) - 1 - k]
        if len(tokens) > width(rows):
            return False
        tokens = tokens + ["."] * (width(rows) - len(tokens))
        for x, tok in enumerate(tokens, start=1):
            if (tok != ".") != (a <= x <= b):
                return False
            if tok != "." and tok not in order:
                order.append(tok)
    # G blocks may be empty, so only the F blocks must be numbered 1..m
    f_idx = sorted(int(t[1:]) for t in order if t[0] == "F")
    g_idx = {int(t[1:]) for t in order if t[0] == "G"}
    return f_idx == list(range(1, len(f_idx) + 1)) and g_idx <= set(f_idx) \
        and len(f_idx) + len(g_idx) == len(order)


def check_query(q, rc, out: str) -> bool:
    """Whether one query exited 0 and printed the right answer."""
    if rc != 0:
        return False
    kind = q["kind"]
    try:
        if kind == "classify":
            return _check_classify(q, out)
        if kind == "decompose":
            return _check_decompose(q, out)
        if kind == "enum":
            lines = out.splitlines()
            return len(lines) == sum(CATALOG_SIZES) and len(set(lines)) == len(lines)
        if kind == "transversal":
            return out.strip() == "1"
        if kind in ("count_delta2", "count_iota2_fd"):
            return int(out.strip()) == q["expect"]
        lines = out.splitlines()
        source = q["input"].splitlines()
        if kind == "bijection_forward":
            grid, trace = lines[:len(source)], lines[len(source):]
            return (grid == q["image"].splitlines()
                    and row_sums(grid) == row_sums(source)
                    and len(trace) == q["steps"]
                    and all(t.startswith("i=") for t in trace))
        if kind == "bijection_backward":
            return lines == source
    except (ValueError, KeyError, IndexError):
        return False
    return False
