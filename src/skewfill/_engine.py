"""Whole-space scans over bit-encoded binary fillings.

A binary filling of an N-cell skew shape is an N-bit integer, bit i-1
holding the value of cell c_i.  Stage membership reduces to two per-code
numbers: the largest label of a delta_2 top cell (dmax) and the smallest
label of an iota_2 or fd top cell (umin); code f lies in stage i exactly
when dmax(f) <= i < umin(f).  The step maps act on the bits of one
maximal rectangle X, so each step is applied through a lazily built
lookup table keyed on the X-bit pattern.

The occurrences behind dmax and umin come straight from the rows.  In a
skew shape every row is an interval, so a 2x2 box of cells is a row pair
y1 < y2 and a column pair x1 < x2 drawn from the columns both rows share;
delta_2 sets bits (x1, y2) and (x2, y1), iota_2 bits (x1, y1) and
(x2, y2), and both have top (x2, y2).  An fd occurrence is a placement of
the dented shape (cols i1 < i2 < i3, rows j1 < j2 < j3, holes at (i3, j1)
and (i1, j3)) with bits (i1, j1), (i2, j3), (i3, j2) and top (i3, j3).

Row-sum vectors are packed into one int64 key per code.  Row y is one
digit of a mixed radix whose base is its length plus one, so the key of
code f is the sum of the weights of the rows of its set bits, and two
codes share a key exactly when their row sums agree.  The table over all
codes takes one slice per bit: K[2^b:2^(b+1)] = K[:2^b] + weight(row of
b).  multiset_equal packs any integer key matrix the same way, with one
digit per column spanning that column's observed range, whenever the
product of the spans fits 62 bits; two sorted 1-D arrays then decide.

Chain tables use the same bit order.  The longest chain of a support
mask m whose highest bit b sits at cell (x, y) either skips b or ends
there, in which case the rest of it lies in m & before_b: the lower
cells strictly SW of (x, y) for NE chains, strictly SE for SE chains.
So T[m] = max(T[m - 2^b], 1 + T[m & before_b]), one vectorised step per
bit.  This counts plain poset chains, which is the chain statistic
inside a rectangle of the shape.  On a whole skew shape it is also the
SE statistic, because any SE pair of cells spans a rectangle of a skew
shape; an NE chain, however, must fit one maximal rectangle, so the
whole-shape NE table is the elementwise max of the per-rectangle ones.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bijection import (
    IN_ROW,
    _anatomy,
    _backward_support,
    _forward_support,
    cell_labels,
)
from .fillings import NE, SE
from .shapes import Rect, Shape, _dent_placements, _row_spans, is_skew, skew_rectangles


class ShapeContext:
    """Bit positions, stage membership arrays, and step tables for one shape."""

    def __init__(self, s: Shape):
        self.shape = s
        self.labels = cell_labels(s)
        self.n = len(self.labels)
        self.pos = {c: k for k, c in enumerate(self.labels)}
        self._dmax = None
        self._umin = None
        self._steps = None
        self._row_keys = None

    def _occurrences(self, token: str):
        """(support mask, 1-based top label) for every placement of a pattern:
        delta2, iota2 or fd."""
        pos = self.pos
        if token == "fd":
            return [(1 << pos[(i1, j1)] | 1 << pos[(i2, j3)] | 1 << pos[(i3, j2)],
                     pos[(i3, j3)] + 1)
                    for (i1, i2, i3), (j1, j2, j3) in _dent_placements(self.shape)]
        out = []
        rows = _row_spans(self.shape).items()
        for (y1, (lo1, hi1)), (y2, (lo2, hi2)) in itertools.combinations(rows, 2):
            for x1, x2 in itertools.combinations(range(max(lo1, lo2), min(hi1, hi2) + 1), 2):
                if token == "delta2":
                    mask = 1 << pos[(x1, y2)] | 1 << pos[(x2, y1)]
                else:
                    mask = 1 << pos[(x1, y1)] | 1 << pos[(x2, y2)]
                out.append((mask, pos[(x2, y2)] + 1))
        return out

    def _bounds(self):
        if self._dmax is not None:
            return self._dmax, self._umin
        n = self.n
        codes = np.arange(1 << n, dtype=np.int64)
        dmax = np.zeros(1 << n, dtype=np.int16)
        for mask, top in sorted(self._occurrences("delta2"), key=lambda p: p[1]):
            dmax[(codes & mask) == mask] = top
        umin = np.full(1 << n, n + 1, dtype=np.int16)
        rising = self._occurrences("iota2") + self._occurrences("fd")
        for mask, top in sorted(rising, key=lambda p: p[1], reverse=True):
            umin[(codes & mask) == mask] = top
        self._dmax, self._umin = dmax, umin
        return dmax, umin

    def stage_members(self, i: int) -> np.ndarray:
        """Codes of the fillings in stage set i, ascending."""
        dmax, umin = self._bounds()
        return np.nonzero((dmax <= i) & (umin > i))[0].astype(np.int64)

    def stage_counts(self) -> list[int]:
        dmax, umin = self._bounds()
        return [int(np.count_nonzero((dmax <= i) & (umin > i)))
                for i in range(1, self.n + 1)]

    # --- step application ---------------------------------------------------

    def _compiled_steps(self):
        if self._steps is not None:
            return self._steps
        steps = []
        for i in range(1, self.n):
            an = _anatomy(self.shape, self.labels, i)
            if an.kind != IN_ROW or an.A is None:
                continue
            xcells = [c for c in an.X.cells()]
            xmask = 0
            for c in xcells:
                xmask |= 1 << self.pos[c]
            steps.append((i, an, xcells, xmask, {}, {}))
        self._steps = steps
        return steps

    def _map_bits(self, an, xcells, bits: int, forward: bool) -> int:
        support = frozenset(c for c in xcells if bits & (1 << self.pos[c]))
        fn = _forward_support if forward else _backward_support
        out = 0
        for c in fn(an, support):
            out |= 1 << self.pos[c]
        return out

    def _apply_one(self, F: np.ndarray, step, forward: bool) -> np.ndarray:
        i, an, xcells, xmask, fwd_table, bwd_table = step
        table = fwd_table if forward else bwd_table
        xb = F & xmask
        uniq, inverse = np.unique(xb, return_inverse=True)
        images = np.empty(len(uniq), dtype=np.int64)
        for k, pattern in enumerate(uniq):
            pattern = int(pattern)
            if pattern not in table:
                table[pattern] = self._map_bits(an, xcells, pattern, forward)
            images[k] = table[pattern]
        return (F & ~xmask) | images[inverse]

    def apply_step(self, F: np.ndarray, i: int, forward: bool = True) -> np.ndarray:
        for step in self._compiled_steps():
            if step[0] == i:
                return self._apply_one(F, step, forward)
        return F

    def apply_all(self, F: np.ndarray, forward: bool = True) -> np.ndarray:
        steps = self._compiled_steps()
        if not forward:
            steps = list(reversed(steps))
        for step in steps:
            F = self._apply_one(F, step, forward)
        return F

    # --- statistics ----------------------------------------------------------

    def _line_positions(self, by_row: bool):
        lines = {}
        for c, p in self.pos.items():
            lines.setdefault(c[1] if by_row else c[0], []).append(p)
        return lines

    def _sums(self, F: np.ndarray, by_row: bool) -> np.ndarray:
        lines = self._line_positions(by_row)
        count = max(lines)
        out = np.zeros((len(F), count), dtype=np.int16)
        for line, positions in lines.items():
            col = np.zeros(len(F), dtype=np.int16)
            for p in positions:
                col += ((F >> p) & 1).astype(np.int16)
            out[:, line - 1] = col
        return out

    def rowsums(self, F: np.ndarray) -> np.ndarray:
        return self._sums(F, by_row=True)

    def row_keys(self) -> np.ndarray:
        """Per code, its row-sum vector packed into one int64 key."""
        if self._row_keys is None:
            weight, radix = {}, 1
            for y, (lo, hi) in _row_spans(self.shape).items():
                weight[y], radix = radix, radix * (hi - lo + 2)
            table = np.zeros(1 << self.n, dtype=np.int64)
            for b, (_, y) in enumerate(self.labels):
                np.add(table[: 1 << b], weight[y], out=table[1 << b: 2 << b])
            self._row_keys = table
        return self._row_keys

    def colsums(self, F: np.ndarray) -> np.ndarray:
        return self._sums(F, by_row=False)


def _chain_recursion(cells, direction: str, region: Rect | None) -> np.ndarray:
    """Longest poset chain per support mask, counting only cells in region."""
    table = np.zeros(1 << len(cells), dtype=np.int8)
    low = np.arange(len(table) >> 1, dtype=np.int64)
    for b, (x, y) in enumerate(cells):
        head, tail = table[: 1 << b], table[1 << b: 2 << b]
        if region is not None and (x, y) not in region:
            tail[:] = head
            continue
        before = sum(1 << k for k, (u, v) in enumerate(cells[:b])
                     if v < y and (u < x if direction == NE else u > x)
                     and (region is None or (u, v) in region))
        np.maximum(head, head[low[: 1 << b] & before] + 1, out=tail)
    return table


def support_chain_table(s: Shape, direction: str, region: Rect | None = None) -> np.ndarray:
    """Longest chain per support mask (bits in sorted-cell order).

    Without a region the shape must be skew; see the module docstring.
    """
    cells = s.sorted_cells()
    if region is not None:
        return _chain_recursion(cells, direction, region)
    if not is_skew(s):
        raise ValueError("whole-shape chain tables are defined for skew shapes only")
    if direction == SE:
        return _chain_recursion(cells, SE, None)
    table = np.zeros(1 << len(cells), dtype=np.int8)
    for rect in skew_rectangles(s):
        np.maximum(table, _chain_recursion(cells, NE, rect), out=table)
    return table


def value_matrix(n: int, max_entry: int) -> np.ndarray:
    """All value vectors with entries 0..max_entry, one per row,
    column k giving cell c_{k+1}'s value."""
    base = max_entry + 1
    idx = np.arange(base**n, dtype=np.int64)
    return (idx[:, None] // base ** np.arange(n)) % base


def support_index(values: np.ndarray) -> np.ndarray:
    """Support bitmask per value vector row."""
    weights = 1 << np.arange(values.shape[1], dtype=np.int64)
    return (values > 0) @ weights


def line_sums(values: np.ndarray, s: Shape, by_row: bool) -> np.ndarray:
    """Row- or column-sum matrix for a value matrix."""
    cells = s.sorted_cells()
    count = s.height if by_row else s.width
    ind = np.zeros((len(cells), count), dtype=np.int64)
    for k, (x, y) in enumerate(cells):
        ind[k, (y if by_row else x) - 1] = 1
    return values @ ind


def sum_capped_mask(rows: np.ndarray, cols: np.ndarray, cap: int) -> np.ndarray:
    """Mask of fillings whose row sums or column sums all stay within cap.

    Sum classes inside this family are complete: every entry is bounded
    by its row and column sum, so no filling of such a class escapes an
    entry cap of the same size.  The family is also closed under any
    permutation of row sums or column sums, which makes it the right
    enumeration domain for the sum-class comparisons.
    """
    return (rows <= cap).all(axis=1) | (cols <= cap).all(axis=1)


def _packed_keys(a: np.ndarray, b: np.ndarray):
    """The rows of two integer key matrices as int64 keys in one shared
    mixed radix, or None when they are not integers or do not fit 62 bits.
    One-dimensional integer keys come back as they are."""
    if not (np.can_cast(a.dtype, np.int64) and np.can_cast(b.dtype, np.int64)):
        return None
    if a.ndim == 1:
        return a, b
    a = a.reshape(len(a), -1).astype(np.int64, copy=False)
    b = b.reshape(len(b), -1).astype(np.int64, copy=False)
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    radix, r = [], 1
    for low, high in zip(lo.tolist(), hi.tolist()):
        radix.append(r)
        r *= high - low + 1
        if r > 1 << 62:
            return None
    radix = np.array(radix, dtype=np.int64)
    return (a - lo) @ radix, (b - lo) @ radix


def multiset_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two key matrices hold the same rows with multiplicity."""
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    packed = _packed_keys(a, b)
    if packed is not None:
        return np.array_equal(np.sort(packed[0]), np.sort(packed[1]))
    ua, ca = np.unique(a, axis=0, return_counts=True)
    ub, cb = np.unique(b, axis=0, return_counts=True)
    return ua.shape == ub.shape and bool(np.all(ua == ub)) and bool(np.all(ca == cb))
