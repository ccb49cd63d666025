"""Shared strategies and brute-force reference helpers for the test suite.

The reference helpers deliberately avoid the package's own fast paths:
chains are checked against a subset scan, skew shapes against the
defining difference-of-Ferrers construction, and avoider counts against
direct filtering.  Pinned constants in the test modules were produced by
these oracles.
"""

import itertools

import pytest
from hypothesis import strategies as st

from skewfill.fillings import Filling
from skewfill.shapes import Rect, Shape, normalize


def row_intervals_to_cells(intervals):
    cells = []
    for y, (a, b) in enumerate(intervals, start=1):
        cells.extend((x, y) for x in range(a, b + 1))
    return cells


@st.composite
def skew_shapes(draw, max_rows=4, max_width=4):
    """Random nonempty skew shape without empty rows, in normal position."""
    nrows = draw(st.integers(1, max_rows))
    a, b = 1, draw(st.integers(1, max_width))
    intervals = [(a, b)]
    for _ in range(nrows - 1):
        a = draw(st.integers(a, b + 1))
        b = draw(st.integers(max(a, b), max(a, b) + max_width - 1))
        intervals.append((a, b))
    return normalize(row_intervals_to_cells(intervals))


@st.composite
def binary_fillings(draw, shape_strategy=None):
    s = draw(shape_strategy if shape_strategy is not None else skew_shapes())
    support = draw(st.sets(st.sampled_from(s.sorted_cells())))
    return Filling.from_support(s, frozenset(support))


@st.composite
def integer_fillings(draw, shape_strategy=None, max_entry=3):
    s = draw(shape_strategy if shape_strategy is not None else skew_shapes())
    values = {c: draw(st.integers(0, max_entry)) for c in s.sorted_cells()}
    return Filling.from_map(s, values)


def brute_chain(f: Filling, direction: str) -> int:
    """Longest strictly monotone chain of nonzero cells, by subset scan.

    A set of cells only counts as a chain when the square selection it
    spans (all chosen columns crossed with all chosen rows) lies inside
    the shape, matching the occurrence-based definition.
    """
    support = sorted(f.support())
    cells = f.shape.cells
    best = 0
    for size in range(len(support), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(support, size):
            cols = [c[0] for c in combo]
            rows = [c[1] for c in combo]
            if any(c2 <= c1 for c1, c2 in zip(cols, cols[1:])):
                continue
            if direction == "NE":
                ok = all(r2 > r1 for r1, r2 in zip(rows, rows[1:]))
            else:
                ok = all(r2 < r1 for r1, r2 in zip(rows, rows[1:]))
            if ok and all((x, y) in cells for x in cols for y in rows):
                best = size
                break
    return best


def subshape(s: Shape, cols, rows) -> Shape:
    """Shape induced by strictly ascending column and row selections."""
    cells = {(i, j) for i, x in enumerate(cols, start=1)
             for j, y in enumerate(rows, start=1) if (x, y) in s.cells}
    return normalize(cells)


def contains_rect(s: Shape, r: Rect) -> bool:
    return all(c in s.cells for c in r.cells())


def mirror_lr(s: Shape) -> Shape:
    """Left-right mirror image."""
    return Shape(frozenset((s.width + 1 - x, y) for x, y in s.cells))


def rotate_180(s: Shape) -> Shape:
    return Shape(frozenset((s.width + 1 - x, s.height + 1 - y) for x, y in s.cells))


def mirror_filling_lr(f: Filling) -> Filling:
    """Left-right mirror; swaps NE-chains with SE-chains."""
    flipped = {(f.shape.width + 1 - x, y): v for (x, y), v in f.items()}
    return Filling.from_map(Shape(frozenset(flipped)), flipped)


def rotate_filling_180(f: Filling) -> Filling:
    w, h = f.shape.width, f.shape.height
    rot = {(w + 1 - x, h + 1 - y): v for (x, y), v in f.items()}
    return Filling.from_map(Shape(frozenset(rot)), rot)


def nw_ferrers_shapes(max_width, max_height):
    """All NW Ferrers column-height vectors inside a bounding box."""
    def rec(prefix, last):
        yield tuple(prefix)
        if len(prefix) == max_width:
            return
        for h in range(1, last + 1):
            prefix.append(h)
            yield from rec(prefix, h)
            prefix.pop()

    for first in range(1, max_height + 1):
        yield from rec([first], first)


def ferrers_difference_shapes(max_width, max_height):
    """Every nonempty normalized skew shape F1 minus F2 inside a box.

    F1 and F2 are NW Ferrers shapes hung from a common top-left corner,
    which is the defining construction.  Heights are measured from the
    top, so column i of the difference keeps the bottom
    f1[i] - f2[i] cells of F1's column.
    """
    found = set()
    for f1 in nw_ferrers_shapes(max_width, max_height):
        h1 = max(f1)
        subs = [tuple()]
        for f2 in nw_ferrers_shapes(len(f1), h1):
            if all(a <= b for a, b in zip(f2, f1)):
                subs.append(f2)
        for f2 in subs:
            cells = []
            for i, height in enumerate(f1):
                cut = f2[i] if i < len(f2) else 0
                top = h1
                lo = top - height + 1
                hi = top - cut
                cells.extend((i + 1, y) for y in range(lo, hi + 1))
            if cells:
                found.add(normalize(cells))
    return found


def all_subshapes_of_box(width, height):
    """Every nonempty normalized shape drawn inside a width x height box."""
    grid = [(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
    seen = set()
    for r in range(1, len(grid) + 1):
        for combo in itertools.combinations(grid, r):
            seen.add(normalize(combo))
    return seen


def brute_transversal_count(s: Shape, predicate) -> int:
    """Count transversals satisfying predicate, via permutations."""
    rows = sorted({y for _, y in s.cells})
    cols = sorted({x for x, _ in s.cells})
    if len(rows) != len(cols):
        return 0
    count = 0
    for perm in itertools.permutations(cols):
        chosen = list(zip(perm, rows))
        if all(c in s for c in chosen):
            f = Filling.from_support(s, frozenset(chosen))
            if predicate(f):
                count += 1
    return count


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the harness's process pool by one that starts no process:
    it runs starmap serially in this process.  Returns the list of the
    pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr("skewfill.harness.multiprocessing.Pool", SerialPool)
    return sizes
