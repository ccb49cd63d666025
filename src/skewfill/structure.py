"""Dent-freeness tests, Ferrers decomposition, and the sum permutations.

A skew shape that avoids the dented 7-cell pattern splits into alternating
blocks F_1, G_1, ..., F_n, G_n where the F blocks are NW Ferrers shapes,
the G blocks SE Ferrers shapes, and consecutive blocks concatenate along
vertical and horizontal cut lines.  The decomposition drives the sum
permutations rho and sigma: reversing each run of rows shared by an
F_i/G_i pair, and each run of columns shared by a G_i/F_{i+1} pair.

The block procedure reads the row spans [a, b], bottom row first.  From
a bottom row k, F takes the rows k..t that start where row k does, cut
left of the column i where row t + 1 starts.  What these rows hold from
column i on must fill a rectangle, or the shape has a dent.  G takes the
rectangle and the rows above t that end where row t does, and the walk
goes on from the next row.  When row t + 1 starts right of the end of row
t, or there is none, the component ends with F and an empty G; on a skew
shape every row after empty rows starts right of the end of the row below.

The cell-set form of the procedure had four more refusals, none of which
fires on a connected skew shape: every F begins at a whole row left of
column i, so it is not empty and the row above it exists; row t + 1 starts
at or left of the end of row t, so row t holds column i; and the rows of F
hold nothing right of the rectangle, so the column after G begins above
row t.

The validator reads each block's rows from the block's own cells, not
from the host's spans, so it checks the splitter by a second method.  The
rows of a block follow one another with no gap; an F's rows start at one
column and their ends grow upward, a G's rows end at one column and their
starts grow upward.  The cuts are the F's top-row ends and the G's top
rows, and at each seam the cells after a block begin at the least of the
later blocks' bottom-row starts and bottom rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .shapes import (
    Cell,
    Shape,
    _contains_dent,
    _row_spans,
    is_skew,
)


class DecompositionError(ValueError):
    """Raised when the block procedure finds a dented corner."""


def _require_skew(s: Shape) -> None:
    if not is_skew(s):
        raise ValueError("operation requires a skew shape")


def is_ds_free(s: Shape, method: str = "pattern") -> bool:
    """Whether a skew shape avoids the dented pattern.

    method="pattern" looks for a shape occurrence directly; "rectangle"
    checks, for every cell, that the cells weakly NW of it or the cells
    weakly SE of it fill out a rectangle.  The two agree on all skew
    shapes.

    The rectangle test reads the row spans [a, b], bottom row first.
    Starts and ends grow upward and no column bridges empty rows, so the
    rows from a cell (i, j) upward that start at or left of i follow row
    j without a gap and all reach i: the cells weakly NW fill a rectangle
    exactly when no row above starts in (a, i], and likewise the cells
    weakly SE exactly when no row below ends in [i, b).  So row j fails
    exactly when the nearest start above other than a is at most the
    nearest end below other than b.  As the starts and the ends ascend,
    these are the least start greater than a and the greatest end less
    than b, which bisect finds in the lists of starts and of ends; a row
    with no such start or no such end passes.
    """
    _require_skew(s)
    if method == "pattern":
        return not _contains_dent(s)
    if method == "rectangle":
        return _rectangle_ds_free(list(_row_spans(s).values()))
    raise ValueError(f"unknown method {method!r}, expected pattern or rectangle")


def _rectangle_ds_free(spans) -> bool:
    """The rectangle criterion of is_ds_free on a skew shape's row spans
    [a, b], bottom row first."""
    starts = [a for a, _ in spans] + [math.inf]
    ends = [-math.inf] + [b for _, b in spans]
    return all(starts[bisect_right(starts, a)] > ends[bisect_left(ends, b) - 1] for a, b in spans)


@dataclass(frozen=True)
class Decomposition:
    """Alternating F/G blocks in host coordinates, plus the cut lines.

    blocks has even length 2n: F_1, G_1, ..., F_n, G_n with G_n possibly
    empty.  vertical_cuts lists max col of each F_i; horizontal_cuts lists
    max row of each G_i for i < n.
    """

    blocks: tuple[frozenset[Cell], ...]
    vertical_cuts: tuple[int, ...]
    horizontal_cuts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.blocks) // 2


def _split_blocks(rows: list) -> list[list]:
    """The blocks of a skew shape, each as its (row, (first, last)) spans:
    F, G, ..., F, G per component, bottom component first, the last G of
    each possibly empty."""
    blocks, k = [], 0
    while k < len(rows):
        a, t = rows[k][1][0], k
        while t + 1 < len(rows) and rows[t + 1][1][0] == a:
            t += 1
        end = rows[t][1][1]
        # column i starts row t + 1, or lies right of F where the component ends
        i = rows[t + 1][1][0] if t + 1 < len(rows) else end + 1
        g = next((r for r in range(k, t + 1) if rows[r][1][1] >= i), t + 1)
        if any(b != end for _, (_, b) in rows[g:t]):
            raise DecompositionError(f"cells right of column {i - 1} and below row "
                                     f"{rows[t][0] + 1} do not fill a rectangle")
        blocks.append([(y, (a, min(b, i - 1))) for y, (_, b) in rows[k:t + 1]])
        k = t + 1
        while k < len(rows) and rows[k][1][1] == end:
            k += 1
        blocks.append([(y, (i, end)) for y, _ in rows[g:t + 1]] + rows[t + 1:k])
    return blocks


def ferrers_decompose(s: Shape) -> Decomposition:
    """Split a nonempty connected dent-free skew shape into alternating blocks."""
    _require_skew(s)
    rows = list(_row_spans(s).items())
    if not rows or any(a > b for (_, (_, b)), (_, (a, _)) in zip(rows, rows[1:])):
        raise ValueError("decomposition requires a nonempty connected shape")
    spans = _split_blocks(rows)
    d = Decomposition(
        tuple(frozenset((x, y) for y, (a, b) in blk for x in range(a, b + 1)) for blk in spans),
        tuple(f[-1][1][1] for f in spans[0::2]),
        tuple(g[-1][0] for g in spans[1:-1:2]),
    )
    if not validate_decomposition(s, d):
        raise DecompositionError("block procedure produced an invalid decomposition")
    return d


def _runs(block) -> list[tuple[int, int, int]]:
    """A block's runs of adjacent cells in a row as (row, first, last),
    bottom row first: one per row, or more where a row has a gap."""
    runs: list[tuple[int, int, int]] = []
    for y, x in sorted((y, x) for x, y in block):
        if runs and runs[-1][0] == y and runs[-1][2] == x - 1:
            runs[-1] = (y, runs[-1][1], x)
        else:
            runs.append((y, x, x))
    return runs


def validate_decomposition(s: Shape, d: Decomposition) -> bool:
    """Check the block conditions against the host shape.

    Verifies tiling, the NW/SE Ferrers classification of every block, the
    two concatenation adjacency rules, the strict increase of column tops
    and row ends across each cut, the cut-line bounds on neighboring
    blocks, and that the recorded cut lists match the blocks.
    """
    blocks, n = d.blocks, len(d.blocks) // 2
    if n == 0 or len(blocks) % 2 or not all(blocks[:-1]):
        return False
    # a cell in two blocks fails the seam after the first of them
    if set().union(*blocks) != s.cells:
        return False
    spans = [_runs(b) for b in blocks if b]  # only the last G may be empty
    # each next run is the next row; F rows start at one column and their
    # ends grow upward, G rows end at one column and their starts grow upward
    if not all(r == r0 + 1 and (a == a0 and b >= b0 if k % 2 == 0 else b == b0 and a >= a0)
               for k, rows in enumerate(spans)
               for (r0, a0, b0), (r, a, b) in zip(rows, rows[1:])):
        return False
    if (d.vertical_cuts != tuple(f[-1][2] for f in spans[0::2])
            or d.horizontal_cuts != tuple(g[-1][0] for g in spans[1:2 * n - 1:2])):
        return False

    # each seam against the least column and row of the cells after the block
    col, row = math.inf, math.inf
    for k in range(len(spans) - 1, 0, -1):
        col, row = min(col, spans[k][0][1]), min(row, spans[k][0][0])
        rows = spans[k - 1]
        if k % 2:  # after F: one column right of its cut, not below its cut column
            c = rows[-1][2]
            if col != c + 1 or row < next(y for y, _, b in rows if b == c):
                return False
        elif row != rows[-1][0] + 1 or col < rows[-1][1]:  # after G: right above, not left
            return False

    col_top, row_end = {}, {}
    for x, y in s.cells:
        col_top[x] = max(col_top.get(x, y), y)
        row_end[y] = max(row_end.get(y, x), x)
    for k in range(n - 1):  # the seams put column c + 1 and row r + 1 in the shape
        c, r = d.vertical_cuts[k], d.horizontal_cuts[k]
        if col_top[c] >= col_top[c + 1] or row_end[r] >= row_end[r + 1]:
            return False
        # each G_i stays left of the next vertical cut, each F_i below
        # the horizontal cut at its right
        if spans[2 * k + 1][0][2] > d.vertical_cuts[k + 1] or spans[2 * k][-1][0] > r:
            return False
    return True


@dataclass(frozen=True)
class SumPermutations:
    """Row and column permutations, 1-based images in index order."""

    rho: tuple[int, ...]
    sigma: tuple[int, ...]


def sum_permutations(s: Shape) -> SumPermutations:
    """The row/column involutions that transport sum vectors.

    Built by reversing each special block: each run of rows shared by F_i
    and G_i, and each run of columns shared by G_i and F_{i+1}, taken per
    connected component.  A row run goes from G_i's first row to F_i's
    last, a column run from F_{i+1}'s first column to the last column both
    blocks reach.  Components share no row and no column, so the blocks
    that meet across two components share no run.
    """
    _require_skew(s)
    rho, sigma = list(range(1, s.height + 1)), list(range(1, s.width + 1))
    blocks = _split_blocks(list(_row_spans(s).items()))
    for k, (lower, upper) in enumerate(zip(blocks, blocks[1:])):
        if not (lower and upper):
            continue
        if k % 2 == 0:
            perm, lo, hi = rho, upper[0][0], lower[-1][0]
        else:
            perm, lo, hi = sigma, upper[0][1][0], min(lower[0][1][1], upper[-1][1][1])
        if lo < hi:
            perm[lo - 1:hi] = range(hi, lo - 1, -1)
    return SumPermutations(tuple(rho), tuple(sigma))


def render_decomposition(d: Decomposition) -> str:
    """Labeled grid (top row first) plus the cut lists."""
    tag = {}
    for k, block in enumerate(d.blocks):
        name = f"{'F' if k % 2 == 0 else 'G'}{k // 2 + 1}"
        for c in block:
            tag[c] = name
    cols = [c[0] for c in tag]
    rows = [c[1] for c in tag]
    width = max(len(t) for t in tag.values())
    lines = []
    for y in range(max(rows), min(rows) - 1, -1):
        row = [tag.get((x, y), ".").ljust(width) for x in range(min(cols), max(cols) + 1)]
        lines.append(" ".join(row).rstrip())
    lines.append("vertical cuts: " + (", ".join(map(str, d.vertical_cuts)) or "-"))
    lines.append("horizontal cuts: " + (", ".join(map(str, d.horizontal_cuts)) or "-"))
    return "\n".join(lines)
