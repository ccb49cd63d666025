"""Shape catalogs and filling enumeration.

Skew shapes are generated through their row-interval encoding: row y
occupies columns a_y..b_y, both endpoints weakly increasing upward, with
a_y at most one past b_{y-1} so no column is skipped.  Every normalized
skew shape without empty rows or columns has exactly one such encoding,
which doubles as the catalog text format (bottom row first).

Filling enumeration supports four modes: binary, sparse (at most one
1-cell per row and column), transversal (exactly one per row and column),
and bounded-entry integer fillings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .fillings import (
    NE,
    Filling,
    SumVector,
    as_pattern,
    avoids,
    longest_chain,
    sum_vector,
)
from .shapes import Shape, is_moon, maximal_rectangles, normalize

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


def enum_skew_shapes(n: int, connected: bool | None = None, ds_free: bool | None = None):
    """All normalized n-cell skew shapes without empty rows or columns.

    Deterministic lexicographic order on the row-interval encoding.  The
    optional flags filter by connectivity and by dent-freeness (tri-state:
    None keeps everything).
    """
    from .structure import is_ds_free

    if n < 1:
        raise ValueError("cell count must be positive")

    def rows_ok(intervals) -> bool:
        if connected is not None:
            joined = all(
                nxt[0] <= prev[1] for prev, nxt in zip(intervals, intervals[1:])
            )
            if joined != connected:
                return False
        return True

    def rec(intervals, used):
        if used == n:
            if rows_ok(intervals):
                cells = frozenset(
                    (x, y)
                    for y, (a, b) in enumerate(intervals, start=1)
                    for x in range(a, b + 1)
                )
                s = Shape(cells)
                if ds_free is None or is_ds_free(s) == ds_free:
                    yield s
            return
        remaining = n - used
        if intervals:
            a_lo, b_lo = intervals[-1][0], intervals[-1][1]
            a_hi = b_lo + 1
        else:
            a_lo = a_hi = 1
            b_lo = 0
        for a in range(a_lo, a_hi + 1):
            for b in range(max(a, b_lo), max(a, b_lo) + remaining):
                if b - a + 1 > remaining:
                    break
                yield from rec(intervals + [(a, b)], used + b - a + 1)

    yield from rec([], 0)


def catalog_line(s: Shape) -> str:
    """Row-interval notation `[(a1,b1),...]`, bottom row first."""
    intervals = []
    for y in range(1, s.height + 1):
        cols = s.row_cols(y)
        if not cols:
            raise ValueError("catalog notation requires no empty rows")
        if cols[-1] - cols[0] + 1 != len(cols):
            raise ValueError("catalog notation requires contiguous rows")
        intervals.append((cols[0], cols[-1]))
    return "[" + ",".join(f"({a},{b})" for a, b in intervals) + "]"


def parse_catalog_line(text: str) -> Shape:
    """Inverse of catalog_line: integer pairs (a_y, b_y) with a_1 = 1,
    a_{y-1} <= a_y <= b_{y-1} + 1 and b_y >= max(a_y, b_{y-1})."""
    try:
        intervals = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError):
        raise ValueError(f"bad catalog line: {text!r}") from None
    if isinstance(intervals, tuple) and intervals and isinstance(intervals[0], int):
        intervals = (intervals,)
    if not isinstance(intervals, (list, tuple)) or not intervals:
        raise ValueError(f"bad catalog line: {text!r}")
    cells, a, b = set(), 1, 0
    for y, pair in enumerate(intervals, start=1):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, int) for v in pair)
                and a <= pair[0] <= b + 1 and pair[1] >= max(pair[0], b)):
            raise ValueError(f"interval {pair!r} breaks the catalog grammar")
        a, b = pair
        cells.update((x, y) for x in range(a, b + 1))
    return normalize(cells)


def enum_moon_polyominoes(n: int):
    """All normalized n-cell moon polyominoes, in sorted-cell order."""
    if n < 1:
        raise ValueError("cell count must be positive")
    current = {Shape(frozenset({(1, 1)})).cells}
    for _ in range(n - 1):
        grown = set()
        for cells in current:
            for x, y in cells:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    c = (x + dx, y + dy)
                    if c not in cells:
                        grown.add(normalize(cells | {c}).cells)
        current = grown
    shapes = [Shape(cells) for cells in current]
    for s in sorted(shapes, key=lambda s: s.sorted_cells()):
        if is_moon(s):
            yield s


def _enum_values(s: Shape, spec: EnumSpec):
    """Raw value tuples for the mode, in deterministic order."""
    cells = s.sorted_cells()
    n = len(cells)
    if spec.mode in ("binary", "integer"):
        cap = 1 if spec.mode == "binary" else spec.max_entry
        total_cap = spec.max_total

        def rec(idx, acc, total):
            if idx == n:
                yield tuple(acc)
                return
            for v in range(cap + 1):
                if total_cap is not None and total + v > total_cap:
                    break
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
            if y not in rows_used and x not in cols_used:
                acc.append(1)
                yield from rec(idx + 1, acc, rows_used | {y}, cols_used | {x})
                acc.pop()

        yield from rec(0, [], frozenset(), frozenset())
        return

    # transversal: one 1-cell in every row and every column
    if s.height != s.width:
        raise ValueError("transversal mode requires height = width")
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


def count_avoiders(s: Shape, spec: EnumSpec) -> int:
    """How many enumerated fillings avoid every pattern in spec.avoid."""
    return sum(1 for _ in enum_fillings(s, spec))


@dataclass(frozen=True)
class LambdaSpec:
    """Required longest NE-chain per maximal rectangle, keyed by width."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "LambdaSpec":
        return cls(tuple(sorted((int(w), int(v)) for w, v in d.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def enum_FNE(m: Shape, lam: LambdaSpec, sums: SumVector, mode: str = "binary",
             max_entry: int | None = None):
    """Fillings of a moon polyomino with fixed sums and fixed longest
    NE-chain length in every maximal rectangle."""
    if not is_moon(m):
        raise ValueError("host shape is not a moon polyomino")
    rects = maximal_rectangles(m)
    wanted = lam.as_dict()
    widths = {r.width for r in rects}
    if set(wanted) != widths:
        raise ValueError(
            f"lambda keys {sorted(wanted)} do not match rectangle widths {sorted(widths)}"
        )
    spec = EnumSpec(mode=mode, max_entry=max_entry, sums=sums)
    for f in enum_fillings(m, spec):
        if all(longest_chain(f, NE, region=r) == wanted[r.width] for r in rects):
            yield f
