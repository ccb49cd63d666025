"""Shapes: finite sets of grid cells, their text format, and classification.

A cell is a pair (col, row), both 1-based.  Row 1 is the bottom row; row
numbers grow upward.  A shape is normalized when its smallest occupied
column and its smallest occupied row are both 1.  The text format writes
one line per row, '#' for a cell and '.' for a hole, top row first.

A "skew" shape here is a difference of two staircase (NW Ferrers) shapes
hanging from a common top-left corner.  Equivalently: every row and every
column is contiguous, and whenever the top-left and bottom-right corners of
an axis-aligned box are present, the whole box is present.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

Cell = tuple[int, int]  # (col, row)


class ParseError(ValueError):
    """Malformed shape or filling text."""


# most characters of an input that an error message quotes
_QUOTE_LIMIT = 60


def _quoted(value) -> str:
    """The repr of an input for an error message, cut after _QUOTE_LIMIT
    characters with a marker, so that a long input is not echoed whole."""
    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's limit on printed digits
        return f"<{type(value).__name__} too long to print>"
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text) - _QUOTE_LIMIT} more characters cut)"


@dataclass(frozen=True)
class Rect:
    """Inclusive axis-aligned box of grid cells."""

    col_lo: int
    col_hi: int
    row_lo: int
    row_hi: int

    def __post_init__(self):
        if self.col_lo > self.col_hi or self.row_lo > self.row_hi:
            raise ValueError(f"degenerate rectangle {self}")

    def cells(self):
        for x in range(self.col_lo, self.col_hi + 1):
            for y in range(self.row_lo, self.row_hi + 1):
                yield (x, y)

    def __contains__(self, cell: Cell) -> bool:
        x, y = cell
        return self.col_lo <= x <= self.col_hi and self.row_lo <= y <= self.row_hi

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo + 1

    @property
    def height(self) -> int:
        return self.row_hi - self.row_lo + 1


@dataclass(frozen=True)
class Occurrence:
    """A pattern occurrence: the selected host columns and rows, ascending."""

    cols: tuple[int, ...]
    rows: tuple[int, ...]


@dataclass(frozen=True)
class ShapeProperties:
    """Shape flags, in the order `skewfill classify` prints them."""

    connected: bool
    convex: bool
    intersection_free: bool
    moon: bool
    nw_ferrers: bool
    se_ferrers: bool
    top_justified: bool
    bottom_justified: bool
    left_justified: bool
    right_justified: bool
    skew: bool
    ds_free: bool | None  # None when the shape is not skew


@dataclass(frozen=True)
class Shape:
    """An immutable normalized set of cells."""

    cells: frozenset[Cell]

    def __post_init__(self):
        for c in self.cells:
            if not (isinstance(c, tuple) and len(c) == 2):
                raise ValueError(f"bad cell {c!r}")
            if c[0] < 1 or c[1] < 1:
                raise ValueError(f"cell {c} outside the positive quadrant")
        if self.cells:
            if min(x for x, _ in self.cells) != 1 or min(y for _, y in self.cells) != 1:
                raise ValueError("shape is not normalized; use normalize()")

    @property
    def width(self) -> int:
        return next(reversed(self._lines(False)[0]), 0)

    @property
    def height(self) -> int:
        return next(reversed(self._lines(True)[0]), 0)

    @property
    def size(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __iter__(self):
        return iter(self.sorted_cells())

    def __lt__(self, other: "Shape") -> bool:
        return self.sorted_cells() < other.sorted_cells()

    def sorted_cells(self) -> tuple[Cell, ...]:
        """Cells sorted bottom-to-top, left-to-right within a row."""
        got = self.__dict__.get("_sorted")
        if got is None:
            got = tuple(sorted(self.cells, key=lambda c: (c[1], c[0])))
            object.__setattr__(self, "_sorted", got)
        return got

    def _lines(self, by_row: bool):
        """(lines, spans): each occupied row's (by_row) or column's ascending
        cells and (first, last) pair, in order; kept on the shape, read only."""
        key = "_rows" if by_row else "_cols"
        if key not in self.__dict__:
            lines = {}
            for x, y in self.sorted_cells() if by_row else sorted(self.cells):
                lines.setdefault(y if by_row else x, []).append(x if by_row else y)
            object.__setattr__(self, key, ({k: tuple(v) for k, v in lines.items()},
                                           {k: (v[0], v[-1]) for k, v in lines.items()}))
        return self.__dict__[key]

    def row_cols(self, row: int) -> tuple[int, ...]:
        return self._lines(True)[0].get(row, ())

    def col_rows(self, col: int) -> tuple[int, ...]:
        return self._lines(False)[0].get(col, ())

    def row_interval(self, row: int) -> tuple[int, int] | None:
        """(first, last) column of a row, or None for an empty row."""
        return self._lines(True)[1].get(row)


def normalize(cells) -> Shape:
    """Translate a cell collection so the smallest column and row are 1."""
    cells = frozenset(cells)
    if not cells:
        return Shape(frozenset())
    dx = min(x for x, _ in cells) - 1
    dy = min(y for _, y in cells) - 1
    if dx == 0 and dy == 0:
        return Shape(cells)
    return Shape(frozenset((x - dx, y - dy) for x, y in cells))


def _read_grid(rows, hole: str, value, what: str) -> dict:
    """Cell -> value of a grid of token rows, top row first, in normal
    position.  Trailing empty rows are dropped; a hole token has no cell,
    and value(token) gives any other token's value, or None if it is bad."""
    rows = list(rows)
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ParseError(f"empty {what}")
    widths = {len(row) for row in rows}
    if len(widths) != 1 or 0 in widths:
        raise ParseError("ragged or empty grid lines")
    vals = {}
    for k, row in enumerate(rows):
        for x0, tok in enumerate(row):
            if tok == hole:
                continue
            v = value(tok)
            if v is None:
                raise ParseError(f"bad token {tok!r} in {what}")
            vals[(x0 + 1, len(rows) - k)] = v  # the first row is the top row
    if not vals:
        raise ParseError(f"{what} contains no cells")
    dx = min(x for x, _ in vals) - 1
    dy = min(y for _, y in vals) - 1
    return {(x - dx, y - dy): v for (x, y), v in vals.items()}


def _write_grid(s: Shape, text, hole: str, sep: str = "") -> str:
    """Inverse of _read_grid: text(cell) for each cell, top row first."""
    return "\n".join(
        sep.join(text((x, row)) if (x, row) in s.cells else hole for x in range(1, s.width + 1))
        for row in range(s.height, 0, -1)
    )


def parse_shape(text: str) -> Shape:
    """Parse a '#'/'.' grid, top row first, into a normalized Shape."""
    cells = _read_grid(text.splitlines(), ".", lambda ch: True if ch == "#" else None,
                       "shape text")
    return Shape(frozenset(cells))


def render_shape(s: Shape) -> str:
    """Inverse of parse_shape for normalized shapes."""
    if not s.cells:
        raise ValueError("cannot render the empty shape")
    return _write_grid(s, lambda c: "#", ".")


def is_connected(s: Shape) -> bool:
    return len(component_cell_sets(s)) <= 1


def component_cell_sets(s: Shape) -> list[frozenset[Cell]]:
    """Edge-connected components in host coordinates, lowest-leftmost first."""
    remaining = set(s.cells)
    parts = []
    while remaining:
        seed = min(remaining, key=lambda c: (c[1], c[0]))
        comp = set()
        stack = [seed]
        while stack:
            x, y = stack.pop()
            if (x, y) in comp:
                continue
            comp.add((x, y))
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in remaining and nb not in comp:
                    stack.append(nb)
        remaining -= comp
        parts.append(frozenset(comp))
    return parts


def _contiguous(s: Shape, by_row: bool) -> bool:
    """Whether every occupied row (by_row) or column is contiguous."""
    lines, spans = s._lines(by_row)
    return all(b - a + 1 == len(lines[k]) for k, (a, b) in spans.items())


def _justified(s: Shape, by_row: bool, end: int) -> bool:
    """Whether all occupied rows (by_row) or columns start (end 0) or end (end 1) alike."""
    return len({span[end] for span in s._lines(by_row)[1].values()}) <= 1


def is_convex(s: Shape) -> bool:
    """Every row and every column is contiguous."""
    return _contiguous(s, True) and _contiguous(s, False)


def is_intersection_free(s: Shape) -> bool:
    """Any two columns have nested row sets."""
    cols = [set(c) for c in s._lines(False)[0].values()]
    return all(a <= b or b <= a for a, b in itertools.combinations(cols, 2))


def is_moon(s: Shape) -> bool:
    return is_convex(s) and is_intersection_free(s)


def is_top_justified(s: Shape) -> bool:
    return _justified(s, False, 1)


def is_bottom_justified(s: Shape) -> bool:
    return _justified(s, False, 0)


def is_left_justified(s: Shape) -> bool:
    return _justified(s, True, 0)


def is_right_justified(s: Shape) -> bool:
    return _justified(s, True, 1)


def is_nw_ferrers(s: Shape) -> bool:
    return is_moon(s) and is_top_justified(s) and is_left_justified(s)


def is_se_ferrers(s: Shape) -> bool:
    return is_moon(s) and is_bottom_justified(s) and is_right_justified(s)


def is_skew(s: Shape) -> bool:
    """Difference of two NW Ferrers shapes with a shared top-left corner.

    Working criterion: every row is contiguous, row intervals have weakly
    increasing endpoints going up, and across a run of empty rows the lower
    part must end strictly left of where the upper part starts (no column may
    bridge the gap).  Column contiguity and the box-closure property (top-left
    plus bottom-right corner present forces the whole box) follow from these.
    The answer is kept on the shape.
    """
    got = s.__dict__.get("_skew")
    if got is None:
        got = _skew_criterion(s)
        object.__setattr__(s, "_skew", got)
    return got


def _skew_criterion(s: Shape) -> bool:
    spans = list(s._lines(True)[1].items())
    return _contiguous(s, True) and all(
        a >= a0 and b >= b0 and (y == y0 + 1 or a > b0)
        for (y0, (a0, b0)), (y, (a, b)) in zip(spans, spans[1:]))


def classify_shape(s: Shape) -> ShapeProperties:
    skew = is_skew(s)
    return ShapeProperties(
        connected=is_connected(s),
        convex=is_convex(s),
        intersection_free=is_intersection_free(s),
        moon=is_moon(s),
        nw_ferrers=is_nw_ferrers(s),
        se_ferrers=is_se_ferrers(s),
        top_justified=is_top_justified(s),
        bottom_justified=is_bottom_justified(s),
        left_justified=is_left_justified(s),
        right_justified=is_right_justified(s),
        skew=skew,
        ds_free=None if not skew else not _contains_dent(s),
    )


def find_shape_occurrences(host: Shape, pattern: Shape) -> list[Occurrence]:
    """All (cols, rows) selections whose induced subgrid equals the pattern.

    The match is exact: the selected grid positions must hold a host cell
    precisely where the pattern has a cell and a hole elsewhere.
    """
    k, l = pattern.height, pattern.width
    if k == 0 or l == 0:
        raise ValueError("pattern must be nonempty")
    hits: list[Occurrence] = []
    if k > host.height or l > host.width:
        return hits
    pat = pattern.cells
    for rows in itertools.combinations(range(1, host.height + 1), k):
        for cols in itertools.combinations(range(1, host.width + 1), l):
            ok = True
            for i, x in enumerate(cols, start=1):
                for j, y in enumerate(rows, start=1):
                    if ((x, y) in host.cells) != ((i, j) in pat):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                hits.append(Occurrence(cols=cols, rows=rows))
    return hits


def _interval_rectangles(intervals) -> list[tuple[int, int, int, int]]:
    """Inclusion-maximal rectangles (first column, last column, first row,
    last row) of the shape whose row y is intervals[y - 1], None if empty.

    The candidates are the intersections of the row intervals over runs of
    consecutive nonempty rows.  One is maximal unless the row just below or
    just above its run still covers its columns.  A run's intersection only
    shrinks as it grows, so once it is empty or covered from below, no
    longer run from the same row is maximal.
    """
    ivs = [None, *intervals, None]
    found = []
    for y1 in range(1, len(ivs) - 1):
        below = ivs[y1 - 1]
        lo, hi = 1, float("inf")
        for y2 in range(y1, len(ivs) - 1):
            if ivs[y2] is None:
                break
            lo, hi = max(lo, ivs[y2][0]), min(hi, ivs[y2][1])
            if lo > hi or below and below[0] <= lo and hi <= below[1]:
                break
            above = ivs[y2 + 1]
            if not (above and above[0] <= lo and hi <= above[1]):
                found.append((lo, hi, y1, y2))
    return found


def _rectangles(s: Shape) -> list[Rect]:
    """Inclusion-maximal rectangles of a shape whose rows are intervals,
    by width, then first column, then first row."""
    found = [Rect(*r) for r in _interval_rectangles(map(s.row_interval, range(1, s.height + 1)))]
    return sorted(found, key=lambda r: (r.width, r.col_lo, r.row_lo))


def maximal_rectangles(s: Shape) -> list[Rect]:
    """Inclusion-maximal rectangles inside a moon polyomino.

    A moon polyomino has exactly one maximal rectangle per occurring row
    length (and per occurring column length); callers may index by width.
    """
    if not is_moon(s):
        raise ValueError("maximal rectangles are only defined for moon polyominoes")
    return _rectangles(s)


def skew_rectangles(s: Shape) -> list[Rect]:
    """Inclusion-maximal rectangles of a skew shape."""
    return _rectangles(s)


# --- the 7-cell dented shape --------------------------------------------

DENT_TEXT = ".##\n###\n##."


@lru_cache(maxsize=1)
def dent_shape() -> Shape:
    """The 3x3 square minus its top-left and bottom-right corner cells."""
    return parse_shape(DENT_TEXT)


def _kept_skew(cells) -> Shape:
    """The skew shape of cells given in sorted_cells order and normal
    position, keeping that order and its skewness."""
    s = object.__new__(Shape)  # the cells need no validation
    object.__setattr__(s, "cells", frozenset(cells))
    object.__setattr__(s, "_sorted", cells)
    object.__setattr__(s, "_skew", True)
    return s


def _interval_shape(intervals) -> Shape:
    """The shape whose row y holds columns a_y..b_y, from intervals
    (a_1, b_1), (a_2, b_2), ... in the catalog grammar, bottom row first."""
    return _kept_skew(tuple((x, y) for y, (a, b) in enumerate(intervals, start=1)
                            for x in range(a, b + 1)))


def _lower_rows(s: Shape) -> Shape:
    """A nonempty skew shape without its top row: again a skew shape in
    normal position, whose cells are the first ones of s's labeling."""
    cells = s.sorted_cells()
    k = len(cells) - 1
    while k and cells[k - 1][1] == cells[-1][1]:
        k -= 1
    return _kept_skew(cells[:k])


def _row_spans(s: Shape) -> dict[int, tuple[int, int]]:
    """(first, last) column of every occupied row, bottom row first.  The
    dict is kept on the shape: read it, do not change it."""
    return s._lines(True)[1]


def _top_row_dents(rows, top):
    """fd's cells ((i1, j1), (i3, j2), (i2, j3)) in each dent placement, top
    (i3, j3), of a skew shape whose top row j3 is `top`, a (row, (first,
    last)) pair, with rows j1 < j2 drawn from `rows`, the rows below in that form.

    A placement picks cols i1<i2<i3 and rows j1<j2<j3 such that the host
    holds cells at all nine selected positions except (i3,j1) and (i1,j3),
    which must be holes.  The occupied rows of a skew shape are intervals
    [a, b] whose ends weakly grow upward, so this says exactly
    a2 <= i1 < a3 <= i2 <= b1 < i3 <= b2.
    """
    j3, (a3, _) = top
    for (j1, (_, b1)), (j2, (a2, b2)) in itertools.combinations(rows, 2):
        if a2 < a3 <= b1 < b2:  # else one of the ranges is empty
            for i1, i2, i3 in itertools.product(range(a2, a3), range(a3, b1 + 1),
                                                range(b1 + 1, b2 + 1)):
                yield (i1, j1), (i3, j2), (i2, j3)


def _contains_dent(s: Shape) -> bool:
    """Occurrence test for the dented shape in a skew shape."""
    rows = list(_row_spans(s).items())
    return any(next(_top_row_dents(rows[:t], rows[t]), None) is not None
               for t in range(2, len(rows)))
