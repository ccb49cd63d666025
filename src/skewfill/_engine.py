"""Whole-space scans over bit-encoded binary fillings.

A binary filling of an N-cell skew shape is an N-bit integer, bit i-1
holding the value of cell c_i.  Stage membership reduces to two per-code
numbers: the largest label of a delta_2 top cell (dmax) and the smallest
label of an iota_2 or fd top cell (umin); code f lies in stage i exactly
when dmax(f) <= i < umin(f).

Step i reads and writes only the maximal rectangle X whose top-right
cell is c_{i+1}.  When X is smaller than 2x2 the step is the identity.
Otherwise X is a w x h box with c_{i+1} at its top-right, and step i
acts on X exactly as the last step (i = wh - 1) of the w x h box shape
acts on the same bit pattern: within X the labels run row by row, left
to right, as they do in the box.  So each box size has one table of the
images of all 2^(wh) patterns, built once from the support recipes, and
a shape's step gathers its X rows into a box pattern, looks the image
up, and scatters it back.

The occurrences behind dmax and umin come straight from the rows.  In a
skew shape every row is an interval, so a 2x2 box of cells is a row pair
y1 < y2 and a column pair x1 < x2 drawn from the columns both rows share;
delta_2 sets bits (x1, y2) and (x2, y1), iota_2 bits (x1, y1) and
(x2, y2), and both have top (x2, y2).  An fd occurrence is a placement of
the dented shape (cols i1 < i2 < i3, rows j1 < j2 < j3, holes at (i3, j1)
and (i1, j3)) with bits (i1, j1), (i2, j3), (i3, j2) and top (i3, j3).

Every table grows one row at a time.  A skew shape without its top row
is again a skew shape, its parent, and the labels run bottom-up, so the
parent's labels are the first p of the child's: a child code is m * 2^p
+ c, with c a parent code and m the w bits of the new top row (first
column lo).  A child table is the parent's table, repeated once per m,
plus what the new row adds:
  - An occurrence that is not the parent's has its top in the new row,
    and exactly one of its set bits lies there: (x1, y2) for delta_2,
    (x2, y2) for iota_2, (i2, j3) for fd.
  - delta_2: every set bit of c in a column x2 beyond the lowest set
    column of m is the lower-row bit of one, with top (x2, top row); the
    row ends grow upward, so its new largest top sits in the largest set
    column of c.  That column is kept per code beside dmax.
  - iota_2: the top is the set bit (x2, top row) itself, held when c has
    a bit (x1, y1) with lo <= x1 < x2 <= the end of row y1; the lowest
    such bit of m gives the new smallest top.
  - fd: the few placements whose top row is the new row, one by one.
  - umin holds a sentinel above every label where no top is held, and
    takes the elementwise min of the parent's value and each new top, so
    a smaller top of the parent survives.
  - Row keys: the new row is the top digit of the radix, so the child's
    key is the parent's plus popcount(m) times the parent's radix.
  - Steps: the parent's compiled steps are the child's first ones and
    touch only its first p bits; the new row adds its own.  apply_all
    applies the compiled steps to the given codes in order (in reverse
    order backward) and raises at the first step that is undefined on
    one of them.

Row-sum vectors are packed into one int64 key per code.  Row y is one
digit of a mixed radix whose base is its length plus one, so the key of
code f is the sum of the weights of the rows of its set bits, and two
codes share a key exactly when their row sums agree.  multiset_equal
packs any integer key matrix the same way, with one digit per column
spanning that column's observed range, whenever the product of the spans
fits 62 bits; two sorted 1-D arrays then decide.

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

from functools import lru_cache

import numpy as np

from .bijection import _backward_support, _forward_support, cell_labels, step_anatomy
from .fillings import NE, SE
from .shapes import Rect, Shape, _lower_rows, _top_row_dents, is_skew, skew_rectangles

_NO_TOP = np.iinfo(np.int16).max  # umin of a code that holds no iota2 or fd


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every caller of a cache
    return a


@lru_cache
def _codes(n: int) -> np.ndarray:
    return _frozen(np.arange(1 << n, dtype=np.int64))


@lru_cache
def _row_bits(w: int):
    """Per w-bit value m: its lowest set bit (w when m = 0) and its highest
    (far below zero when m = 0) as int16, and its popcount as int64."""
    m = np.arange(1 << w)
    bits = (m[:, None] >> np.arange(w)) & 1
    low = np.where(m > 0, np.argmax(bits, axis=1), w).astype(np.int16)
    high = np.where(m > 0, w - 1 - np.argmax(bits[:, ::-1], axis=1), -(1 << 14))
    return tuple(map(_frozen, (low, high.astype(np.int16), bits.sum(axis=1))))


class ShapeContext:
    """Stage bounds, row keys and steps over the 2^n codes of one skew
    shape.  Each extends the tables of its parent, the context of the
    shape without its top row, by that row (see the module docstring); a
    context built without a parent builds its ancestors."""

    def __init__(self, s: Shape, parent: ShapeContext | None = None):
        self.shape = s
        self.labels = cell_labels(s)
        self.n = len(self.labels)
        self._dmax = self._umin = self._steps = self._row_keys = None
        if not self.n:
            self.parent, self.rows, self._radix = None, (), 1
            return
        self.parent = parent if parent is not None else ShapeContext(_lower_rows(s))
        (lo, y), (hi, _) = self.labels[self.parent.n], self.labels[-1]
        # (row, first column, last column, label bit of the first column)
        self.rows = self.parent.rows + ((y, lo, hi, self.parent.n),)
        self._radix = self.parent._radix * (hi - lo + 2)

    def _top_row(self):
        """The parent, its cell count p, and the top row's first column and width."""
        _, lo, hi, p = self.rows[-1]
        return self.parent, p, lo, hi - lo + 1

    def _bounds(self):
        """dmax and umin per code; the largest column of a set bit is kept
        beside them for the children."""
        if self._dmax is not None:
            return self._dmax, self._umin
        if not self.n:
            self._dmax, self._colmax = np.zeros((2, 1), dtype=np.int16)
            self._umin = np.full(1, _NO_TOP, dtype=np.int16)
            return self._dmax, self._umin
        parent, p, lo, w = self._top_row()
        dmax, umin = parent._bounds()
        col = parent._colmax
        low, high, _ = _row_bits(w)
        # delta2: a set top-row column left of the largest set column below
        self._dmax = np.where(col > low[:, None] + lo, col + (p + 1 - lo), dmax).ravel()
        self._colmax = np.maximum(col, high[:, None] + lo).ravel()
        lower = self.rows[:-1]
        # iota2: top-row bit k is a top when some set bit below lies in
        # columns lo .. lo + k - 1 of a row that reaches column lo + k
        masks = [sum(1 << (f + x1 - a) for _, a, b, f in lower if b >= lo + k
                     for x1 in range(max(a, lo), lo + k))
                 for k in range(1, w)]
        if any(masks):
            held = ((_codes(p)[:, None] & masks) != 0) @ (2 << np.arange(w - 1))
            first = np.where(low < w, low + (p + 1), _NO_TOP)
            umin = np.minimum(umin, first[_codes(w)[:, None] & held])
        else:
            umin = umin[None].repeat(1 << w, axis=0)
        if len(lower) >= 2 and w >= 2:  # fd: the placements with the new top row
            bit = {y: f - a for y, a, _, f in lower}
            for (i1, i2, i3), (j1, j2, _) in _top_row_dents(
                    [(y, (a, b)) for y, a, b, _ in lower], (self.rows[-1][0], (lo, lo + w - 1))):
                mask = 1 << (bit[j1] + i1) | 1 << (bit[j2] + i3)
                rows = (_codes(w) >> (i2 - lo) & 1).astype(bool)
                tops = np.where(_codes(p) & mask == mask, p + 1 + i3 - lo, _NO_TOP)
                umin[rows] = np.minimum(umin[rows], tops)
        self._umin = umin.ravel()
        return self._dmax, self._umin

    def _in_stage(self, i: int, codes: np.ndarray | None = None) -> np.ndarray:
        """Per code (of all, or of the given ones): whether it lies in
        stage set i, that is dmax <= i < umin."""
        dmax, umin = self._bounds()
        if codes is not None:
            dmax, umin = dmax[codes], umin[codes]
        return (dmax <= i) & (umin > i)

    def stage_members(self, i: int, codes: np.ndarray | None = None) -> np.ndarray:
        """Codes of the fillings in stage set i, ascending; given codes,
        those of them in stage set i, in their order."""
        if codes is not None:
            return codes[self._in_stage(i, codes)]
        return self._in_stage(i).nonzero()[0].astype(np.int64, copy=False)

    def stage_counts(self) -> list[int]:
        return [int(np.count_nonzero(self._in_stage(i))) for i in range(1, self.n + 1)]

    # --- step application ---------------------------------------------------

    def _compiled_steps(self):
        """(i, width of X, first label bit of each X row, bottom up) for
        every step whose X is at least 2x2: the parent's, then the top row's."""
        if self._steps is None:
            self._steps = list(self.parent._compiled_steps()) if self.n else []
            rows, top = self.rows, len(self.rows) - 1
            _, lo, hi, first = rows[top] if self.n else (0, 0, 0, 0)
            for x in range(lo + 1, hi + 1):
                # rows below start at or left of the top row, so the column
                # of x runs down while they are adjacent and still reach x
                r = top
                while r and rows[r - 1][0] == rows[r][0] - 1 and rows[r - 1][2] >= x:
                    r -= 1
                if r < top:
                    bases = tuple(f + lo - a for _, a, _, f in rows[r:])
                    self._steps.append((first + x - lo, x - lo + 1, bases))
        return self._steps

    def _apply_one(self, F: np.ndarray, step, forward: bool) -> np.ndarray:
        """Images of codes under one compiled step; ValueError when it is
        undefined on some of them."""
        i, w, bases = step
        row = (1 << w) - 1
        pattern = np.zeros_like(F)
        for r, base in enumerate(bases):
            pattern |= ((F >> base) & row) << (r * w)
        image = _step_table(w, len(bases), forward)[pattern]
        if (image < 0).any():
            raise ValueError(f"step {i} is undefined on some of the given codes")
        out = F & ~sum(row << base for base in bases)
        for r, base in enumerate(bases):
            out |= ((image >> (r * w)) & row) << base
        return out

    def apply_step(self, F: np.ndarray, i: int, forward: bool = True) -> np.ndarray:
        for step in self._compiled_steps():
            if step[0] == i:
                return self._apply_one(F, step, forward)
        return F

    def apply_all(self, F: np.ndarray, forward: bool = True) -> np.ndarray:
        steps = self._compiled_steps()
        for step in steps if forward else reversed(steps):
            F = self._apply_one(F, step, forward)
        return F

    # --- statistics ----------------------------------------------------------

    def rowsums(self, F: np.ndarray) -> np.ndarray:
        return line_sums((F[:, None] >> np.arange(self.n)) & 1, self.shape, by_row=True)

    def row_keys(self) -> np.ndarray:
        """Per code, its row-sum vector packed into one int64 key."""
        if self._row_keys is None:
            if not self.n:
                self._row_keys = np.zeros(1, dtype=np.int64)
            else:
                parent, _, _, w = self._top_row()
                digit = _row_bits(w)[2] * parent._radix
                self._row_keys = (parent.row_keys() + digit[:, None]).ravel()
        return self._row_keys

    def colsums(self, F: np.ndarray) -> np.ndarray:
        return line_sums((F[:, None] >> np.arange(self.n)) & 1, self.shape, by_row=False)


@lru_cache
def _step_table(w: int, h: int, forward: bool) -> np.ndarray:
    """Image of every bit pattern of the w x h box under its last step,
    -1 where the step is undefined; see the module docstring."""
    box = Shape(frozenset(Rect(1, w, 1, h).cells()))
    an = step_anatomy(box, w * h - 1)
    cells = box.sorted_cells()
    fn = _forward_support if forward else _backward_support
    table = np.full(1 << len(cells), -1, dtype=np.int64)
    for pattern in range(len(table)):
        try:
            image = fn(an, frozenset(c for k, c in enumerate(cells) if pattern >> k & 1))
        except ValueError:
            continue
        table[pattern] = sum(1 << ((y - 1) * w + x - 1) for x, y in image)
    return table


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
