"""Acceptance suite: ten criteria, one pass/fail line each.

Each test prints a single `A<n>: PASS|FAIL` line with its runtime and
budget, then asserts.  Run with `pytest tests/test_acceptance.py -v -s`
to watch the lines appear; the whole suite is sized for a single core.
"""

import itertools
import time

from skewfill.bijection import cell_labels, full_backward, full_forward, in_G
from skewfill.enumeration import EnumSpec, count_avoiders, enum_skew_shapes
from skewfill.fillings import Filling, sum_vector
from skewfill.harness import verify
from skewfill.shapes import dent_shape, is_skew, normalize

DENT = dent_shape()


def report(name: str, ok: bool, elapsed: float, budget: float, note: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f" ({elapsed:.2f}s, budget {budget:.0f}s)"
    if note:
        tail += f" {note}"
    print(f"{name}: {status}{tail}")
    assert ok, f"{name} failed: {note}"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_A1_dent_transversal_counts():
    start = time.perf_counter()
    d2 = count_avoiders(DENT, EnumSpec(mode="transversal", avoid=("delta2",)))
    i2 = count_avoiders(DENT, EnumSpec(mode="transversal", avoid=("iota2",)))
    elapsed = time.perf_counter() - start
    report("A1", d2 == 1 and i2 == 2, elapsed, 1.0, f"delta2={d2} iota2={i2}")


def test_A2_stage_sets_and_bijection_on_dent():
    start = time.perf_counter()
    labels = cell_labels(DENT)
    fillings = [
        Filling.from_support(
            DENT, frozenset(c for k, c in enumerate(labels) if bits >> k & 1)
        )
        for bits in range(128)
    ]
    sizes = [sum(1 for f in fillings if in_G(DENT, f, i)) for i in range(1, 8)]
    ok = sizes == [72] * 7
    lower = [f for f in fillings if in_G(DENT, f, 1)]
    upper = {f for f in fillings if in_G(DENT, f, 7)}
    images = set()
    for f in lower:
        out, _ = full_forward(f)
        back, _ = full_backward(out)
        ok = ok and back == f
        ok = ok and sum_vector(out).row_sums == sum_vector(f).row_sums
        images.add(out)
    ok = ok and images == upper and len(images) == len(lower)
    elapsed = time.perf_counter() - start
    report("A2", ok, elapsed, 1.0, f"sizes={sorted(set(sizes))}")


def test_A3_refined_equality_and_bijection_all_shapes():
    start = time.perf_counter()
    r = verify("genskew", max_cells=10)
    elapsed = time.perf_counter() - start
    report(
        "A3",
        r.passed,
        elapsed,
        600.0,
        f"shapes={r.details['shapes']} instances={r.instances}",
    )


def test_A4_unique_avoiding_transversals():
    start = time.perf_counter()
    r = verify("thm_bp", max_cells=9)
    elapsed = time.perf_counter() - start
    report(
        "A4",
        r.passed,
        elapsed,
        300.0,
        f"shapes_with_transversal={r.details['shapes_with_transversal']}",
    )


def test_A5_dent_free_equality_with_refinement():
    start = time.perf_counter()
    r = verify("cor_sskew", max_cells=9, kmax=3, refine_cells=7, max_entry=2)
    elapsed = time.perf_counter() - start
    report(
        "A5",
        r.passed,
        elapsed,
        600.0,
        f"shapes={r.details['shapes']} refined={r.details['refined_shapes']}",
    )


def test_A6_inequality_scan_with_strict_dent():
    start = time.perf_counter()
    r = verify("conjecture", max_cells=9, kmax=3)
    elapsed = time.perf_counter() - start
    ok = r.passed and r.details["ds_strict"] and r.details["strict"] >= 1
    report(
        "A6",
        ok,
        elapsed,
        600.0,
        f"strict={r.details['strict']} dent_strict={r.details['ds_strict']}",
    )


def test_A7_dent_freeness_and_decomposition_round_trip():
    start = time.perf_counter()
    r = verify("ds_free_oracle", max_cells=9)
    elapsed = time.perf_counter() - start
    report(
        "A7",
        r.passed,
        elapsed,
        120.0,
        f"dent_free={r.details['dent_free']} decomposed={r.details['decomposed']}",
    )


def test_A8_frame_signature_multisets():
    start = time.perf_counter()
    r = verify("lem_ferrers", max_cells=8, kmax=2, lmax=2, max_entry=2)
    elapsed = time.perf_counter() - start
    report("A8", r.passed, elapsed, 600.0, f"instances={r.instances}")


def test_A9_column_transposition_class_sizes():
    start = time.perf_counter()
    r = verify("rubey", max_cells=8, max_entry=1)
    elapsed = time.perf_counter() - start
    report("A9", r.passed, elapsed, 600.0, f"instances={r.instances}")


def squash(cells):
    cols = sorted({x for x, _ in cells})
    rows = sorted({y for _, y in cells})
    cmap = {c: i for i, c in enumerate(cols, start=1)}
    rmap = {r: i for i, r in enumerate(rows, start=1)}
    return normalize([(cmap[x], rmap[y]) for x, y in cells])


def test_A10_enumerator_matches_subset_oracle():
    start = time.perf_counter()
    two = list(enum_skew_shapes(2))
    ok = len(two) == 3
    for n in range(1, 7):
        box = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        canon = set()
        for combo in itertools.combinations(box, n):
            s = normalize(combo)
            if is_skew(s):
                canon.add(squash(s.cells))
        ok = ok and set(enum_skew_shapes(n)) == canon
    elapsed = time.perf_counter() - start
    report("A10", ok, elapsed, 120.0, f"n2={len(two)}")
