"""Shape catalogs and filling enumeration.

Skew shapes are generated through their row-interval encoding: row y
occupies columns a_y..b_y, both endpoints weakly increasing upward, with
a_y at most one past b_{y-1} so no column is skipped.  Every normalized
skew shape without empty rows or columns has exactly one such encoding,
which doubles as the catalog text format (bottom row first).  The walk
takes a list's extensions from a table keyed by its top row and the cells
left (_children); catalog_lines reads each row's texts with it (_child_rows).

Moon polyominoes are built from their columns.  An n-cell moon in normal
position is its list of column intervals, left to right, and a list of
intervals is a moon exactly when
  * any two of them are nested, so they form one chain under inclusion
    (nested neighbours are not enough: [1,1],[1,2],[2,2] is no moon);
  * the list is unimodal under inclusion, rising to its tallest column and
    falling after it, since otherwise some row stops being an interval;
  * the tallest column is [1, h].
The generator extends such lists one column at a time for each h: until
[1, h] appears each new column holds the last one, and from then on each
lies inside the last one and is nested with every earlier column.

Filling enumeration supports four modes: binary, integer (bounded
entries), sparse and transversal (at most, and exactly, one 1-cell per
row and column).  One recursion yields the first three: sparse is the
binary one refusing a 1 in a row or column that already holds one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._engine import line_sums, value_matrix
from .fillings import Filling, SumVector, as_pattern, avoids, sum_vector
from .shapes import (
    Shape,
    _contains_dent,
    _contiguous,
    _interval_shape,
    _quoted,
    _row_spans,
    _top_row_dents,
    find_shape_occurrences,
)

_MODES = ("binary", "sparse", "transversal", "integer")


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: mode, entry bounds, required sums, patterns to avoid."""

    mode: str = "binary"
    max_entry: int | None = None
    max_total: int | None = None
    sums: SumVector | None = None
    avoid: tuple = ()

    def __post_init__(self):
        for name, value in (("max_entry", self.max_entry), ("max_total", self.max_total)):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{name}={_quoted(value)} is not an integer")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if self.mode == "integer":
            if self.max_entry is None or self.max_entry < 1:
                raise ValueError("integer mode requires max_entry >= 1")
        elif self.max_entry is not None:
            raise ValueError(f"max_entry does not apply to mode {self.mode!r}")


@lru_cache(maxsize=None)
def _children(last, room: int) -> tuple:
    """(row, cells) for each row the catalog grammar allows above the top
    row last with room cells left, in the order the walk pushes them (the
    reverse of its visiting order); (1, 0) is the row below a first row."""
    a_lo, b_lo = last
    return tuple(((a, b), b - a + 1)
                 for a in range(b_lo + 1, max(a_lo, b_lo + 1 - room) - 1, -1)
                 for b in range(a + room - 1, max(a, b_lo) - 1, -1))


def _catalog_walk(max_cells: int, shard: tuple[int, int] = (0, 1), keep=None):
    """Depth first over the catalog's row-interval lists of at most
    max_cells cells, in lexicographic order: each list comes right before
    its extensions by one more row.  Yields (intervals, cells, mine).

    A list's extensions are its own rows plus one from _children.  keep,
    if given, is a prefix test keep(intervals, room), with room the cells
    left in the budget.  It is asked only about lists whose parent passed
    it, and a list that fails it is dropped with its extensions.  When
    every row prefix of a list that passes also passes, the pruned walk
    yields exactly the lists of the full walk that pass, in the same order.

    With shard = (index, count) the lists are dealt out in subtrees keyed
    by their first two rows (a one-row list is its own key), round-robin
    in walk order.  A shard walks only its own subtrees, plus the one-row
    lists they hang from; mine is False for those it does not own.
    """
    index, count = shard
    key = -1
    stack = [((row,), k) for row, k in _children((1, 0), max_cells)]
    if keep is not None:
        stack = [c for c in stack if keep(c[0], max_cells - c[1])]
    while stack:
        intervals, used = stack.pop()
        mine = True
        if len(intervals) <= 2:
            key += 1
            mine = key % count == index
            if not mine and len(intervals) == 2:
                continue
        yield intervals, used, mine
        if used == max_cells:
            continue
        children = [(intervals + (row,), used + k)
                    for row, k in _children(intervals[-1], max_cells - used)]
        if keep is not None:
            children = [c for c in children if keep(c[0], max_cells - c[1])]
        stack += children


@lru_cache(maxsize=None)
def _subtree_size(last, room: int) -> tuple[int, int, int]:
    """Over the lists in the catalog walk below a list whose top row is
    `last`, with room cells left in the budget, k being the cells a list
    adds to that one: how many there are, the sum of 2^k and the sum of
    k.  The list itself counts, with k = 0, unless last is the virtual
    row (1, 0)."""
    own = int(last != (1, 0))
    lists, powers, cells = own, own, 0
    for row, k in _children(last, room):
        n, p, c = _subtree_size(row, room - k)
        lists, powers, cells = lists + n, powers + (p << k), cells + c + k * n
    return lists, powers, cells


def catalog_sums(max_cells: int) -> tuple[int, int, int]:
    """For the catalog's shapes of at most max_cells cells, n cells each:
    how many there are, the sum of 2^n and the sum of n - 1.  Counted by
    the walk's own child rule, without walking it."""
    lists, powers, cells = _subtree_size((1, 0), max_cells)
    return lists, powers, cells - lists


def _admits_transversal(intervals) -> bool:
    """Whether the shape with these rows admits a transversal.

    The rows y = 1..m are intervals [a_y, b_y] whose ends weakly grow
    upward, and the width is b_m.  The shape admits a transversal exactly
    when it is square (b_m = m) and a_y <= y <= b_y for every row y.  If
    a_y > y, rows y..m all lie in columns a_y..m, fewer than the m-y+1
    they need.  If b_y < y, rows 1..y all lie in columns 1..b_y, fewer
    than y.  Otherwise the diagonal cells (y, y) form a transversal.
    """
    return intervals[-1][1] == len(intervals) and all(
        a <= y <= b for y, (a, b) in enumerate(intervals, start=1))


def _diagonal_prefix(intervals, room: int) -> bool:
    """Prefix test of the lists that finish, within the budget, as shapes
    admitting a transversal (see _admits_transversal), for a list whose
    parent passes it.

    The new top row y = (a, b) must satisfy a <= y <= b.  The finished
    shape is a square of side at least b, and each row y' of y+1..b must
    reach from column y' (or further left) to column b (or further
    right): at least d(d+1)/2 more cells for d = b - y.  The rows a_y' =
    y', b_y' = b take exactly that many and keep the grammar, so a list
    passes exactly when it is a row prefix of a shape admitting a
    transversal within the budget.
    """
    y = len(intervals)
    a, b = intervals[-1]
    d = b - y
    return a <= y <= b and d * (d + 1) <= 2 * room


def _ferrers_prefix(intervals, room: int) -> bool:
    """Prefix test of the NW Ferrers shapes (the partitions), for a list
    whose parent passes it: the new top row starts at column 1.

    In the catalog grammar a list is left-justified exactly when every row
    starts at column 1, and then it is a NW Ferrers shape: row ends grow
    upward, so every column reaches the top row.  room is not needed,
    since every budget holds a one-column row.
    """
    return intervals[-1][0] == 1


def _new_dent(intervals) -> bool:
    """Whether a placement of the dented shape has its top in the top row."""
    return len(intervals) > 2 and next(_top_row_dents(
        list(enumerate(intervals[:-1], start=1)), (len(intervals), intervals[-1])), None) is not None


def _filter_prefix(intervals, room: int, connected: bool, ds_free: bool) -> bool:
    """Prefix test of the connected lists, the dent-free ones, or both,
    for a list whose parent passes it: the new top row meets the row
    below, and no dent placement has its top in it (any other placement
    lies in the parent).  Both properties hold for every row prefix of a
    list that has them."""
    return not (connected and not _joined(intervals[-2:]) or ds_free and _new_dent(intervals))


def _joined(intervals) -> bool:
    return all(nxt[0] <= prev[1] for prev, nxt in zip(intervals, intervals[1:]))


def enum_skew_shapes(n: int, connected: bool | None = None, ds_free: bool | None = None):
    """All normalized n-cell skew shapes without empty rows or columns.

    Deterministic lexicographic order on the row-interval encoding.  The
    optional flags filter by connectivity and by dent-freeness (tri-state:
    None keeps everything).  The True filters prune the walk; the False
    ones, which row prefixes do not keep, filter its shapes.
    """
    if n < 1:
        raise ValueError("cell count must be positive")
    for intervals, used, _ in _catalog_walk(n, keep=_flag_prefix(connected, ds_free)):
        if used != n or connected is False and _joined(intervals):
            continue
        s = _interval_shape(intervals)
        if ds_free is not False or _contains_dent(s):
            yield s


def catalog_lines(max_cells: int, connected: bool, ds_free: bool) -> list[str]:
    """The catalog lines of the shapes of at most max_cells cells, only
    the connected or dent-free ones if asked: by cell count, and each
    size in lexicographic order, as enum_skew_shapes lists it.  No shape
    is built.

    It walks as the unsharded _catalog_walk does, over the same child
    rule and prefix test, and builds each line on the way down.  A stack
    entry holds a list's intervals, its head (its parent's line with a
    comma in place of the closing bracket), its cells and its top row's
    two texts from _child_rows: its line is head + the closing text, and
    its children's head is head + the other."""
    keep = _flag_prefix(connected, ds_free)
    by_size = [[] for _ in range(max_cells + 1)]
    stack = [((), "[", 0, "", "")]  # the empty list; by_size[0] is dropped
    while stack:
        intervals, head, used, more, end = stack.pop()
        by_size[used].append(head + end)
        if used < max_cells:
            head, room = head + more, max_cells - used
            last = intervals[-1] if intervals else (1, 0)
            stack += [(intervals + (row,), head, used + k, more, end)
                      for row, k, more, end in _child_rows(last, room)
                      if keep is None or keep(intervals + (row,), room - k)]
    return [line for lines in by_size[1:] for line in lines]


@lru_cache(maxsize=None)
def _child_rows(last, room: int) -> tuple:
    """_children(last, room), each row with its two texts in a catalog
    line: "(a,b)," below another row and "(a,b)]" on top."""
    return tuple((row, k, "({},{}),".format(*row), "({},{})]".format(*row))
                 for row, k in _children(last, room))


def _flag_prefix(connected: bool | None, ds_free: bool | None):
    """The prefix test of the True filters, or None if there is none."""
    if connected or ds_free:
        return partial(_filter_prefix, connected=connected is True, ds_free=ds_free is True)
    return None


def _line(intervals) -> str:
    """The catalog line of a list of row intervals, bottom row first."""
    return "[" + ",".join(f"({a},{b})" for a, b in intervals) + "]"


def catalog_line(s: Shape) -> str:
    """Row-interval notation `[(a1,b1),...]`, bottom row first."""
    spans = _row_spans(s)
    if len(spans) != s.height:
        raise ValueError("catalog notation requires no empty rows")
    if not _contiguous(s, True):
        raise ValueError("catalog notation requires contiguous rows")
    return _line(spans.values())


def parse_catalog_line(text: str) -> Shape:
    """Inverse of catalog_line."""
    return _interval_shape(_catalog_intervals(text))


def _catalog_intervals(text: str) -> tuple:
    """The rows of a catalog line, without building its cells: integer
    pairs (a_y, b_y) with a_1 = 1, a_{y-1} <= a_y <= b_{y-1} + 1 and
    b_y >= max(a_y, b_{y-1}).  Text that literal_eval refuses, nests too
    deep for its parser, or holds an unhashable set member or dict key is
    a bad catalog line."""
    try:
        intervals = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError, TypeError, RecursionError, MemoryError):
        raise ValueError(f"bad catalog line: {_quoted(text)}") from None
    if isinstance(intervals, tuple) and intervals and isinstance(intervals[0], int):
        intervals = (intervals,)
    if not isinstance(intervals, (list, tuple)) or not intervals:
        raise ValueError(f"bad catalog line: {_quoted(text)}")
    a, b = 1, 0
    for pair in intervals:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
                and a <= pair[0] <= b + 1 and pair[1] >= max(pair[0], b)):
            raise ValueError(f"interval {_quoted(pair)} breaks the catalog grammar")
        a, b = pair
    return tuple(intervals)


def _moon_columns(n: int):
    """Column intervals (first row, last row), left to right, of every
    n-cell moon in normal position, built as the module docstring says."""

    def grow(cols, room, h):
        risen = (1, h) in cols
        if not risen and room < h:
            return
        if not room:
            yield cols
            return
        lo, hi = cols[-1]
        for a, b in _sub_intervals(h, room):
            if risen:
                ok = lo <= a and b <= hi and all(
                    c <= a and b <= d or a <= c and d <= b for c, d in cols)
            else:
                ok = a <= lo and hi <= b
            if ok:
                yield from grow(cols + ((a, b),), room - (b - a + 1), h)

    for h in range(1, n + 1):
        for a, b in _sub_intervals(h, n):
            yield from grow(((a, b),), n - (b - a + 1), h)


def _sub_intervals(h: int, room: int):
    """The intervals inside [1, h] of at most room rows."""
    return [(a, b) for a in range(1, h + 1) for b in range(a, min(h, a + room - 1) + 1)]


def enum_moon_polyominoes(n: int):
    """All normalized n-cell moon polyominoes, in sorted-cell order."""
    if n < 1:
        raise ValueError("cell count must be positive")
    moons = [Shape(frozenset((x, y) for x, (a, b) in enumerate(cols, start=1)
                             for y in range(a, b + 1)))
             for cols in _moon_columns(n)]
    yield from sorted(moons, key=Shape.sorted_cells)


def _enum_values(s: Shape, spec: EnumSpec):
    """Raw value tuples for the mode, in deterministic order.  Every mode
    prunes on the running total when spec.max_total is set; a negative one
    yields nothing.  In the one recursion a sparse cell carries a bit for
    its row and one for its column, and every other cell 0."""
    cells = s.sorted_cells()
    n = len(cells)
    # without a max_total, the largest possible total, which never prunes
    total_cap = n * (spec.max_entry or 1) if spec.max_total is None else spec.max_total
    if spec.mode == "transversal":  # one 1-cell in every row and every column
        if s.height != s.width:
            raise ValueError("transversal mode requires height = width")
        if s.height > total_cap:
            return
        for p in _transversals([s.row_cols(y) for y in range(1, s.height + 1)]):
            yield tuple(int(p[y - 1] == x) for x, y in cells)
        return
    cap = spec.max_entry if spec.mode == "integer" else 1
    lines = [1 << y | 1 << (s.height + x) if spec.mode == "sparse" else 0 for x, y in cells]

    def rec(idx, acc, total, used):
        if idx == n:
            yield tuple(acc)
            return
        line = lines[idx]
        for v in range(1 if used & line else min(cap, total_cap - total) + 1):
            acc.append(v)
            yield from rec(idx + 1, acc, total + v, used | line if v else used)
            acc.pop()

    if total_cap >= 0:
        yield from rec(0, [], 0, 0)


def _transversals(rows) -> list[tuple[int, ...]]:
    """The transversals of a square shape whose row y has the ascending
    columns rows[y - 1]: tuples p, p[y - 1] the column of row y, in order."""
    out = [()]
    for cols in rows:
        out = [p + (x,) for p in out for x in cols if x not in p]
    return out


def enum_fillings(s: Shape, spec: EnumSpec):
    """Stream the fillings of s selected by an EnumSpec, each exactly once."""
    patterns = tuple(as_pattern(p) for p in spec.avoid)
    for values in _enum_values(s, spec):
        f = Filling(s, values)
        if spec.sums is not None and sum_vector(f) != spec.sums:
            continue
        if patterns and not avoids(f, patterns):
            continue
        yield f


def _value_rows(s: Shape, spec: EnumSpec) -> np.ndarray:
    """The value tuples of _enum_values as one matrix, a row per filling."""
    rows = list(_enum_values(s, spec))
    return np.array(rows, dtype=np.int64).reshape(len(rows), s.size)


def _requirements(s: Shape, patterns) -> set:
    """(host cell indices, values) that each occurrence of a pattern asks
    for: one shape scan per pattern, zero entries left out."""
    pos = {c: k for k, c in enumerate(s.sorted_cells())}
    out = set()
    for pat in map(as_pattern, patterns):
        nonzero = [(cell, v) for cell, v in pat.items() if v > 0]
        for occ in find_shape_occurrences(s, pat.shape):
            out.add((tuple(pos[(occ.cols[x - 1], occ.rows[y - 1])] for (x, y), _ in nonzero),
                     tuple(v for _, v in nonzero)))
    return out


def count_avoiders(s: Shape, spec: EnumSpec) -> int:
    """How many fillings enum_fillings(s, spec) yields, in one array scan.

    Candidates are laid out over s.sorted_cells(): cell c_{k+1} is bit k
    of a binary code, or column k of a value row.  Only the full binary
    scan (binary mode, no max_total) uses codes, every code below 2^n.
    Integer mode without a max_total takes every row of value_matrix;
    sparse and transversal mode, and any max_total, take the value rows
    of the generator behind enum_fillings, so a large square shape costs
    its transversals only.  Each pattern's shape occurrences are found
    once.  A code holds an occurrence iff code & mask == mask over the
    pattern's nonzero cells (never when the pattern has an entry of 2 or
    more); a value row holds it iff it dominates the pattern's values
    there.  An all-zero pattern is held wherever its shape occurs.
    Memory: one int64 per code (8 MB at 2^20 codes), n int64 per value
    row, and n int64 per surviving code when sums are required.
    """
    needs = _requirements(s, spec.avoid)
    if spec.mode == "binary" and spec.max_total is None:
        codes = np.arange(1 << s.size, dtype=np.int64)
        for cells, need in needs:
            if set(need) <= {1}:  # an entry of 2 or more never occurs here
                mask = sum(1 << k for k in cells)
                codes = codes[(codes & mask) != mask]
        if spec.sums is None:
            return len(codes)
        values = (codes[:, None] >> np.arange(s.size)) & 1
    else:
        if spec.mode == "integer" and spec.max_total is None:
            values = value_matrix(s.size, spec.max_entry)
        else:
            values = _value_rows(s, spec)
        for cells, need in needs:
            values = values[~(values[:, cells] >= need).all(axis=1)]
    sums = spec.sums
    if sums is None:
        return len(values)
    if (len(sums.row_sums), len(sums.col_sums)) != (s.height, s.width):
        return 0
    keep = (line_sums(values, s, by_row=True) == sums.row_sums).all(axis=1)
    keep &= (line_sums(values, s, by_row=False) == sums.col_sums).all(axis=1)
    return int(keep.sum())
