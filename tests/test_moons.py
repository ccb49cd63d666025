"""Moon generation and the rubey runner against their reference paths.

The references are the earlier implementations, kept here only: moons
from growing every fixed polyomino cell by cell and filtering with
is_moon, and a rubey pair loop that swaps the columns of every moon,
normalizes and re-tests the result, and builds and permutes both moons'
keys for every pair.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from skewfill import harness
from skewfill._engine import capped_fillings
from skewfill.enumeration import catalog_line, enum_moon_polyominoes
from skewfill.fillings import NE
from skewfill.harness import VerificationReport, verify
from skewfill.shapes import Shape, is_moon, maximal_rectangles, normalize


@lru_cache(maxsize=1)
def grown_moons(max_n):
    """{n: the n-cell moons in sorted-cell order} for n <= max_n, from all
    fixed polyominoes grown one cell at a time."""

    def shifted(cells):
        dx = min(x for x, _ in cells) - 1
        dy = min(y for _, y in cells) - 1
        return frozenset((x - dx, y - dy) for x, y in cells)

    current = {frozenset({(1, 1)})}
    out = {}
    for n in range(1, max_n + 1):
        if n > 1:
            current = {shifted(cells | {(x + dx, y + dy)})
                       for cells in current for x, y in cells
                       for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                       if (x + dx, y + dy) not in cells}
        shapes = sorted((Shape(cells) for cells in current), key=Shape.sorted_cells)
        out[n] = [s for s in shapes if is_moon(s)]
    return out


def shape_of_columns(cols):
    return Shape(frozenset((x, y) for x, (a, b) in enumerate(cols, start=1)
                           for y in range(a, b + 1)))


def test_moons_match_growth_and_filter():
    ref = grown_moons(10)
    for n in range(1, 11):
        assert list(enum_moon_polyominoes(n)) == ref[n], n
    assert sum(len(ref[n]) for n in range(1, 11)) == 2289


def test_moon_columns_must_be_pairwise_nested():
    # neighbouring columns nested, first and last not: the S-tetromino
    s_tetromino = shape_of_columns([(1, 1), (1, 2), (2, 2)])
    assert not is_moon(s_tetromino)
    assert s_tetromino not in enum_moon_polyominoes(4)
    # pairwise nested but not unimodal: row 2 is split
    assert shape_of_columns([(1, 2), (1, 1), (1, 2)]) not in enum_moon_polyominoes(5)
    with pytest.raises(ValueError):
        next(enum_moon_polyominoes(0))


def _column_swap(s, t):
    swapped = frozenset(
        (t + 1 if x == t else t if x == t + 1 else x, y) for x, y in s.cells
    )
    return normalize(swapped)


def moon_keys(m, rects, max_entry):
    """NE chain per maximal rectangle (in the given order), row and column
    sums of the sum-capped fillings of a moon."""
    lines, _ = capped_fillings(m, max_entry)
    _, chains = harness._filling_table(m, max_entry)
    h = m.height
    return np.column_stack([chains(NE, r) for r in rects]), lines[:, :h], lines[:, h:]


def reference_rubey(max_cells, max_entry):
    """The rubey report from the per-pair loop, keys built for every pair."""
    instances, failures = 0, []
    for n in range(1, max_cells + 1):
        for m in grown_moons(max_cells)[n]:
            for t in range(1, m.width):
                sm = _column_swap(m, t)
                if not is_moon(sm):
                    continue
                instances += 1
                rects_m, rects_s = maximal_rectangles(m), maximal_rectangles(sm)
                widths_m = [r.width for r in rects_m]
                if len(set(widths_m)) != len(widths_m) or \
                        widths_m != [r.width for r in rects_s]:
                    failures.append({"shape": catalog_line(m), "swap": t,
                                     "clause": "rectangle widths do not match"})
                    continue
                lam_m, rows_m, cols_m = moon_keys(m, rects_m, max_entry)
                lam_s, rows_s, cols_s = moon_keys(sm, rects_s, max_entry)
                sigma = list(range(cols_s.shape[1]))
                sigma[t - 1], sigma[t] = sigma[t], sigma[t - 1]
                key_m = np.hstack([lam_m, rows_m, cols_m])
                key_s = np.hstack([lam_s, rows_s, cols_s[:, sigma]])
                if not harness.multiset_equal(key_m, key_s):
                    failures.append({"shape": catalog_line(m), "swap": t,
                                     "clause": "class sizes"})
    failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
    return VerificationReport(
        property="rubey", params={"max_cells": max_cells, "max_entry": max_entry},
        instances=instances, failures=failures, details={"level": "cardinalities"})


@pytest.mark.parametrize("max_entry", [1, 2])
def test_rubey_matches_pair_loop(max_entry):
    r = verify("rubey", max_cells=7, max_entry=max_entry)
    assert r == reference_rubey(7, max_entry)
    assert r.instances == 579 and r.passed


def test_rubey_compares_each_unordered_swap_once(monkeypatch):
    """579 instances at 7 cells: 275 self-swaps, of two equal columns,
    and 152 pairs of moons, each compared once for both of its moons.
    With keys unique to each labeling every comparison fails, once for
    each of its moons; each labeling's keys are built once, 284 moons'
    canonical ones and a second one per self-swap."""
    built = []

    def unique(family, moon, table, sigma):
        built.append((moon, tuple(sigma)))
        return np.array([len(built)])

    monkeypatch.setattr(harness, "_labeled_keys", unique)
    r = verify("rubey", max_cells=7)
    assert r.instances == len(r.failures) == 579
    columns = {catalog_line(m): cols for moons in harness._column_classes(7)
               for cols, m in moons.items()}
    self_swaps = sum(cols[f["swap"] - 1] == cols[f["swap"]]
                     for f in r.failures for cols in [columns[f["shape"]]])
    assert (self_swaps, (len(r.failures) - self_swaps) // 2) == (275, 152)
    assert len(built) == len(set(built)) == 284 + 275


def test_each_rubey_column_class_has_one_height_and_width():
    """The moons of a column class, up to rubey's cap, share h and w, so the
    two sides of each comparison pack in one radix (see Sum classes in the
    harness docstring)."""
    cap = harness._PROPERTIES["rubey"][1]["max_cells"][2]
    classes = list(harness._column_classes(cap))
    assert all(len({(m.height, m.width) for m in moons.values()}) == 1 for moons in classes)
    assert len(classes) == 1364  # the column classes of <= 12 cells


@pytest.mark.parametrize("max_entry", [1, 2])
def test_rubey_shards_merge_to_the_serial_report(max_entry):
    serial = verify("rubey", max_cells=8, max_entry=max_entry)
    assert verify("rubey", max_cells=8, max_entry=max_entry, jobs=3) == serial
    assert serial.passed


def test_rubey_shards_build_each_class_family_once(monkeypatch):
    """A shard takes whole column classes, so the shards together build
    each class's family once, from its first moon, as many as a serial
    run builds: one per column class of <= 8 cells."""
    built = []
    family = harness._family
    monkeypatch.setattr(harness, "_family",
                        lambda m, max_entry: built.append(m) or family(m, max_entry))
    for jobs in (1, 2, 3):
        built.clear()
        for k in range(jobs):
            harness._run("rubey", {"max_cells": 8, "max_entry": 1}, (k, jobs))
        assert (len(built), len(set(built))) == (183, 183)


def test_rubey_shards_outnumbering_the_classes_merge_to_the_serial_report(fake_pool):
    assert sum(1 for _ in harness._column_classes(4)) < 64  # some shards get no class
    assert verify("rubey", max_cells=4, jobs=64) == verify("rubey", max_cells=4)
    assert fake_pool == [64]


# ((2,2),(1,3),(1,2)) swaps only at t=2, into ((2,2),(1,2),(1,3)), which
# in turn swaps only back
TARGET = ((2, 2), (1, 3), (1, 2))
PARTNER = ((2, 2), (1, 2), (1, 3))


@pytest.fixture
def perturbed_target(monkeypatch):
    """Raise every chain length of the empty filling of the TARGET moon,
    in the chain tables that rubey and reference_rubey both read."""
    target = shape_of_columns(TARGET)
    chains = harness.support_chain_table

    def perturbed(s, direction, region=None):
        table = chains(s, direction, region)
        if s == target:
            table = table.copy()
            table[0] += 1  # the empty support
        return table

    monkeypatch.setattr(harness, "support_chain_table", perturbed)


def test_rubey_failure_names_the_moon_of_its_pair(perturbed_target, fake_pool):
    for jobs in (1, 3):  # the failing class's witness survives the dealing
        r = verify("rubey", max_cells=6, jobs=jobs)
        assert r.failures == sorted(
            ({"shape": catalog_line(shape_of_columns(cols)), "swap": 2, "clause": "class sizes"}
             for cols in (TARGET, PARTNER)),
            key=lambda f: json.dumps(f, sort_keys=True))
    assert fake_pool == [3]


def test_rubey_matches_pair_loop_with_a_perturbed_key(perturbed_target):
    for max_entry in (1, 2):
        r = verify("rubey", max_cells=7, max_entry=max_entry)
        assert len(r.failures) == 2
        assert r == reference_rubey(7, max_entry)
