"""Fillings of shapes and filling containment.

A filling assigns a nonnegative integer to every cell of a shape.  Values are
stored in the cell order of Shape.sorted_cells() (bottom row first, left to
right), which is also the labeling order used by the step bijection.

Containment follows the "iff" occurrence semantics of shapes: an occurrence
of a pattern filling picks ascending host columns and rows whose induced
subgrid equals the pattern's shape exactly, and additionally dominates the
pattern's values cellwise.  Occurrences of the square patterns iota_k and
delta_k are NE-chains and SE-chains of length k.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .shapes import (
    Cell,
    Occurrence,
    ParseError,
    Rect,
    Shape,
    _quoted,
    _read_grid,
    _write_grid,
    dent_shape,
    find_shape_occurrences,
    is_skew,
    skew_rectangles,
)

NE = "NE"
SE = "SE"


@dataclass(frozen=True)
class Filling:
    """Values attached to the cells of a shape, in sorted_cells order."""

    shape: Shape
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.shape.size:
            raise ValueError("value count does not match cell count")
        if any(v < 0 for v in self.values):
            raise ValueError("negative value in filling")

    @classmethod
    def from_map(cls, shape: Shape, mapping) -> "Filling":
        cells = shape.sorted_cells()
        if set(mapping) != set(cells):
            raise ValueError("value map domain must equal the cell set")
        return cls(shape, tuple(mapping[c] for c in cells))

    @classmethod
    def from_support(cls, shape: Shape, ones) -> "Filling":
        """Binary filling with 1-cells exactly at `ones`."""
        ones = frozenset(ones)
        if not ones <= shape.cells:
            raise ValueError("1-cells outside the shape")
        return cls(shape, tuple(1 if c in ones else 0 for c in shape.sorted_cells()))

    def value(self, cell: Cell) -> int:
        vmap = self.__dict__.get("_vmap")
        if vmap is None:
            vmap = dict(zip(self.shape.sorted_cells(), self.values))
            object.__setattr__(self, "_vmap", vmap)
        try:
            return vmap[cell]
        except KeyError:
            raise KeyError(f"{cell} is not a cell of the shape") from None

    def items(self):
        return zip(self.shape.sorted_cells(), self.values)

    def support(self) -> frozenset[Cell]:
        return frozenset(c for c, v in self.items() if v > 0)

    def is_binary(self) -> bool:
        return all(v <= 1 for v in self.values)

    def total(self) -> int:
        return sum(self.values)

    def __lt__(self, other: "Filling") -> bool:
        return (self.shape.sorted_cells(), self.values) < (
            other.shape.sorted_cells(),
            other.values,
        )


@dataclass(frozen=True)
class FillingKind:
    binary: bool
    sparse: bool
    transversal: bool


@dataclass(frozen=True)
class SumVector:
    """Per-row and per-column sums, bottom row and leftmost column first."""

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]


def filling_kind(f: Filling) -> FillingKind:
    binary = f.is_binary()
    # on a binary filling the line sums are the 1-cell counts
    sums = sum_vector(f)
    counts = sums.row_sums + sums.col_sums
    sparse = binary and all(n <= 1 for n in counts)
    transversal = sparse and all(n == 1 for n in counts)
    return FillingKind(binary=binary, sparse=sparse, transversal=transversal)


def sum_vector(f: Filling) -> SumVector:
    rows = [0] * f.shape.height
    cols = [0] * f.shape.width
    for (x, y), v in f.items():
        rows[y - 1] += v
        cols[x - 1] += v
    return SumVector(row_sums=tuple(rows), col_sums=tuple(cols))


def parse_filling(text: str) -> Filling:
    """Parse a grid of digits 0-9 and '.' holes, top row first."""
    vals = _read_grid(text.splitlines(), ".", lambda ch: int(ch) if "0" <= ch <= "9" else None,
                      "filling text")
    return Filling.from_map(Shape(frozenset(vals)), vals)


def render_filling(f: Filling) -> str:
    """Inverse of parse_filling; requires all values <= 9."""
    if any(v > 9 for v in f.values):
        raise ValueError("values above 9 need the numeric format")
    return _write_grid(f.shape, lambda c: str(f.value(c)), ".")


def parse_numeric_filling(text: str) -> Filling:
    """Extended format: rows of comma-separated integers, 'x' for holes."""
    rows = [[tok.strip() for tok in line.split(",")] for line in text.splitlines() if line.strip()]
    vals = _read_grid(rows, "x", lambda tok: int(tok) if re.fullmatch(r"[0-9]+", tok) else None,
                      "numeric filling")
    return Filling.from_map(Shape(frozenset(vals)), vals)


def render_numeric_filling(f: Filling) -> str:
    return _write_grid(f.shape, lambda c: str(f.value(c)), "x", ",")


# --- pattern library ------------------------------------------------------

# the tokens pattern_library takes; group 2 is the k of iota<k> or delta<k>
TOKEN_RE = re.compile(r"(iota|delta)\s*([0-9]+)|fd|ds")


@lru_cache(maxsize=64)
def pattern_library(name: str) -> Filling:
    """Canonical patterns: iota<k>, delta<k>, fd, and the all-zero ds."""
    m = TOKEN_RE.fullmatch(name.strip())
    if m is None:
        raise ParseError(f"unknown pattern token {_quoted(name)}")
    if m.group(1) is not None:
        k = int(m.group(2))
        if k < 1:
            raise ValueError("pattern size k must be at least 1")
        square = Shape(frozenset((x, y) for x in range(1, k + 1) for y in range(1, k + 1)))
        if m.group(1) == "iota":
            ones = {(i, i) for i in range(1, k + 1)}
        else:
            ones = {(i, k + 1 - i) for i in range(1, k + 1)}
        return Filling.from_support(square, ones)
    if name.strip() == "fd":
        return Filling.from_support(dent_shape(), {(1, 1), (2, 3), (3, 2)})
    return Filling.from_support(dent_shape(), set())  # ds, shape-level


def as_pattern(pattern) -> Filling:
    """Accept either a pattern token or an explicit Filling."""
    if isinstance(pattern, Filling):
        return pattern
    if isinstance(pattern, str):
        return pattern_library(pattern)
    raise TypeError(f"not a pattern: {pattern!r}")


@lru_cache(maxsize=4096)
def _shape_occurrences(host: Shape, pattern: Shape) -> tuple[Occurrence, ...]:
    """find_shape_occurrences, run once per pair of shapes."""
    return tuple(find_shape_occurrences(host, pattern))


def find_filling_occurrences(host: Filling, pattern) -> list[Occurrence]:
    """Shape occurrences of the pattern whose values the host dominates."""
    pat = as_pattern(pattern)
    pat_cells = list(pat.items())
    host_vals = dict(host.items())
    hits = []
    for occ in _shape_occurrences(host.shape, pat.shape):
        ok = True
        for (px, py), pv in pat_cells:
            if pv > host_vals[(occ.cols[px - 1], occ.rows[py - 1])]:
                ok = False
                break
        if ok:
            hits.append(occ)
    return hits


def avoids(host: Filling, patterns) -> bool:
    """True iff the host contains no occurrence of any given pattern."""
    if isinstance(patterns, (str, Filling)):
        patterns = [patterns]
    return all(not find_filling_occurrences(host, p) for p in patterns)


# --- chains ---------------------------------------------------------------


def _lis(seq) -> int:
    """Length of the longest strictly increasing subsequence, by patience sorting."""
    tails = []
    for v in seq:
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
    return len(tails)


def _chain(cells, direction: str) -> int:
    """Longest NE- or SE-chain among the cells, with no grid condition.

    The cells go by column; within a column the rows run against the
    chain's direction, so a strictly increasing subsequence of the rows
    (negated for SE) takes at most one cell from each column.
    """
    sign = 1 if direction == NE else -1
    return _lis([sign * y for _, y in sorted(cells, key=lambda c: (c[0], -sign * c[1]))])


def longest_chain(f: Filling, direction: str, region: Rect | None = None) -> int:
    """Length of the longest NE- or SE-chain, optionally inside a rectangle.

    A chain of length k is an occurrence of iota_k (NE) or delta_k (SE):
    its k nonzero cells are strictly monotone in both coordinates and the
    full k x k selection grid lies inside the shape.  Inside a rectangle
    contained in the shape the grid condition is automatic.
    """
    if direction not in (NE, SE):
        raise ValueError(f"direction must be NE or SE, got {direction!r}")
    nonzero = [c for c, v in f.items() if v > 0]
    if region is not None:
        if not all(c in f.shape.cells for c in region.cells()):
            raise ValueError("region is not contained in the shape")
        return _chain([c for c in nonzero if c in region], direction)
    if is_skew(f.shape):
        if direction == SE:
            # any decreasing pair spans a rectangle inside a skew shape
            return _chain(nonzero, SE)
        rects = skew_rectangles(f.shape)
        return max((_chain([c for c in nonzero if c in r], NE) for r in rects), default=0)
    return _longest_chain_generic(f, direction)


def _longest_chain_generic(f: Filling, direction: str) -> int:
    bound = min(f.shape.width, f.shape.height, len(f.support()))
    token = "iota" if direction == NE else "delta"
    k = 0
    while k < bound and find_filling_occurrences(f, f"{token}{k + 1}"):
        k += 1
    return k
