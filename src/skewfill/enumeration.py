"""Shape catalogs and filling enumeration.

Skew shapes are generated through their row-interval encoding: row y
occupies columns a_y..b_y, both endpoints weakly increasing upward, with
a_y at most one past b_{y-1} so no column is skipped.  Every normalized
skew shape without empty rows or columns has exactly one such encoding,
which doubles as the catalog text format (bottom row first).

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

Filling enumeration supports four modes: binary, sparse (at most one
1-cell per row and column), transversal (exactly one per row and column),
and bounded-entry integer fillings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._engine import line_sums, support_index, value_matrix
from .fillings import Filling, SumVector, as_pattern, avoids, sum_vector
from .shapes import (
    Shape,
    _contains_dent,
    _interval_shape,
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
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if self.mode == "integer":
            if self.max_entry is None or self.max_entry < 1:
                raise ValueError("integer mode requires max_entry >= 1")
        elif self.max_entry is not None:
            raise ValueError(f"max_entry does not apply to mode {self.mode!r}")


def _add_children(out: list, intervals, used: int, room: int) -> list:
    """Append to out the one-row extensions (intervals, cells) of a list
    of `used` cells that the catalog grammar allows with room cells left,
    in the order the walk pushes them (the reverse of its visiting order),
    and return out.  The first row of a list sits above the virtual row
    (1, 0)."""
    a_lo, b_lo = intervals[-1] if intervals else (1, 0)
    for a in range(b_lo + 1, max(a_lo, b_lo + 1 - room) - 1, -1):
        for b in range(a + room - 1, max(a, b_lo) - 1, -1):
            out.append((intervals + ((a, b),), used + b - a + 1))
    return out


def _catalog_walk(max_cells: int, shard: tuple[int, int] = (0, 1), keep=None):
    """Depth first over the catalog's row-interval lists of at most
    max_cells cells, in lexicographic order: each list comes right before
    its extensions by one more row.  Yields (intervals, cells, mine).

    keep, if given, is a prefix test keep(intervals, room), with room the
    cells left in the budget.  It is asked only about lists whose parent
    passed it, and a list that fails it is dropped with its extensions.
    When every row prefix of a list that passes also passes, the pruned
    walk yields exactly the lists of the full walk that pass, in the same
    order.  Without keep, children go straight onto the stack.

    With shard = (index, count) the lists are dealt out in subtrees keyed
    by their first two rows (a one-row list is its own key), round-robin
    in walk order.  A shard walks only its own subtrees, plus the one-row
    lists they hang from; mine is False for those it does not own.
    """
    index, count = shard
    key = -1
    stack = _add_children([], (), 0, max_cells)
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
        if keep is None:
            _add_children(stack, intervals, used, max_cells - used)
        else:
            stack += [c for c in _add_children([], intervals, used, max_cells - used)
                      if keep(c[0], max_cells - c[1])]


@lru_cache(maxsize=None)
def _subtree_size(last, room: int) -> int:
    """Lists in the catalog walk below a list whose top row is `last`,
    with room cells left in the budget: the list itself included, unless
    last is the virtual row (1, 0)."""
    return (last != (1, 0)) + sum(_subtree_size(rows[-1], room - cells)
                                  for rows, cells in _add_children([], (last,), 0, room))


def catalog_size(max_cells: int) -> int:
    """How many shapes of at most max_cells cells the catalog holds,
    counted without walking it."""
    return _subtree_size((1, 0), max_cells)


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


def _catalog_shapes(max_cells: int, shard=(0, 1), connected: bool | None = None,
                    ds_free: bool | None = None, size: int | None = None):
    """A shard's catalog shapes of at most max_cells cells (exactly size,
    if given), in walk order, filtered as enum_skew_shapes filters.  The
    True filters prune the walk; the False ones, which row prefixes do not
    keep, filter its shapes."""
    keep = None
    if connected or ds_free:
        keep = partial(_filter_prefix, connected=connected is True, ds_free=ds_free is True)
    for intervals, used, mine in _catalog_walk(max_cells, shard, keep):
        if not mine or (size is not None and used != size):
            continue
        if connected is False and _joined(intervals):
            continue
        s = _interval_shape(intervals)
        if ds_free is not False or _contains_dent(s):
            yield s


def enum_skew_shapes(n: int, connected: bool | None = None, ds_free: bool | None = None):
    """All normalized n-cell skew shapes without empty rows or columns.

    Deterministic lexicographic order on the row-interval encoding.  The
    optional flags filter by connectivity and by dent-freeness (tri-state:
    None keeps everything).
    """
    if n < 1:
        raise ValueError("cell count must be positive")
    yield from _catalog_shapes(n, connected=connected, ds_free=ds_free, size=n)


def catalog_line(s: Shape) -> str:
    """Row-interval notation `[(a1,b1),...]`, bottom row first."""
    spans = _row_spans(s)
    if len(spans) != s.height:
        raise ValueError("catalog notation requires no empty rows")
    # each span covers at least its row's cells, and all of them only if
    # the row is contiguous
    if sum(b - a + 1 for a, b in spans.values()) != s.size:
        raise ValueError("catalog notation requires contiguous rows")
    return "[" + ",".join(f"({a},{b})" for a, b in spans.values()) + "]"


def parse_catalog_line(text: str) -> Shape:
    """Inverse of catalog_line."""
    return _interval_shape(_catalog_intervals(text))


def _catalog_intervals(text: str) -> tuple:
    """The rows of a catalog line, without building its cells: integer
    pairs (a_y, b_y) with a_1 = 1, a_{y-1} <= a_y <= b_{y-1} + 1 and
    b_y >= max(a_y, b_{y-1})."""
    try:
        intervals = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError):
        raise ValueError(f"bad catalog line: {text!r}") from None
    if isinstance(intervals, tuple) and intervals and isinstance(intervals[0], int):
        intervals = (intervals,)
    if not isinstance(intervals, (list, tuple)) or not intervals:
        raise ValueError(f"bad catalog line: {text!r}")
    a, b = 1, 0
    for pair in intervals:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, int) for v in pair)
                and a <= pair[0] <= b + 1 and pair[1] >= max(pair[0], b)):
            raise ValueError(f"interval {pair!r} breaks the catalog grammar")
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
    prunes on the running total when spec.max_total is set."""
    cells = s.sorted_cells()
    n = len(cells)
    # without a max_total, the largest possible total, which never prunes
    total_cap = n * (spec.max_entry or 1) if spec.max_total is None else spec.max_total
    if spec.mode in ("binary", "integer"):
        cap = 1 if spec.mode == "binary" else spec.max_entry

        def rec(idx, acc, total):
            if idx == n:
                yield tuple(acc)
                return
            for v in range(min(cap, total_cap - total) + 1):
                acc.append(v)
                yield from rec(idx + 1, acc, total + v)
                acc.pop()

        yield from rec(0, [], 0)
        return

    if spec.mode == "sparse":
        def rec(idx, acc, rows_used, cols_used):
            if idx == n:
                yield tuple(acc)
                return
            x, y = cells[idx]
            acc.append(0)
            yield from rec(idx + 1, acc, rows_used, cols_used)
            acc.pop()
            if y not in rows_used and x not in cols_used and len(rows_used) < total_cap:
                acc.append(1)
                yield from rec(idx + 1, acc, rows_used | {y}, cols_used | {x})
                acc.pop()

        if total_cap >= 0:
            yield from rec(0, [], frozenset(), frozenset())
        return

    # transversal: one 1-cell in every row and every column
    if s.height != s.width:
        raise ValueError("transversal mode requires height = width")
    if s.height > total_cap:
        return
    by_row = [s.row_cols(y) for y in range(1, s.height + 1)]

    def rec_t(y, chosen, cols_used):
        if y > s.height:
            support = frozenset(zip(chosen, range(1, s.height + 1)))
            yield tuple(1 if c in support else 0 for c in cells)
            return
        for x in by_row[y - 1]:
            if x not in cols_used:
                chosen.append(x)
                yield from rec_t(y + 1, chosen, cols_used | {x})
                chosen.pop()

    yield from rec_t(1, [], frozenset())


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
    of a binary code, or column k of an integer value row.  Binary mode
    scans every code below 2^n and integer mode every row of
    value_matrix; sparse and transversal mode, and any max_total, take
    the pruned output of the generator behind enum_fillings, so a large
    square shape costs its transversals only.  Each pattern's shape
    occurrences are found once.  A binary code holds an occurrence iff
    code & mask == mask over the pattern's nonzero cells (never when the
    pattern has an entry of 2 or more); an integer row holds it iff it
    dominates the pattern's values there.  An all-zero pattern is held
    wherever its shape occurs.  Memory: one int64 per binary candidate
    (8 MB at 2^20 codes), n int64 per integer candidate, and n int64 per
    surviving binary code when sums are required.
    """
    pruned = spec.mode in ("sparse", "transversal") or spec.max_total is not None
    needs = _requirements(s, spec.avoid)
    if spec.mode == "integer":
        values = _value_rows(s, spec) if pruned else value_matrix(s.size, spec.max_entry)
        for cells, need in needs:
            values = values[~(values[:, cells] >= need).all(axis=1)]
    else:
        if pruned:
            codes = support_index(_value_rows(s, spec))
        else:
            codes = np.arange(1 << s.size, dtype=np.int64)
        for cells, need in needs:
            if set(need) <= {1}:  # an entry of 2 or more never occurs here
                mask = sum(1 << k for k in cells)
                codes = codes[(codes & mask) != mask]
        if spec.sums is None:
            return len(codes)
        values = (codes[:, None] >> np.arange(s.size)) & 1
    sums = spec.sums
    if sums is None:
        return len(values)
    if (len(sums.row_sums), len(sums.col_sums)) != (s.height, s.width):
        return 0
    keep = (line_sums(values, s, by_row=True) == sums.row_sums).all(axis=1)
    keep &= (line_sums(values, s, by_row=False) == sums.col_sums).all(axis=1)
    return int(keep.sum())
