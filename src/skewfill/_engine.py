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
to right, as they do in the box.  So each box size and direction has
one table of the images of all 2^(wh) patterns, and a shape's step
gathers its X rows into a box pattern, looks the image up, and scatters
it back.  A table is built for all patterns at once from column masks of
the box: which columns of A and of R hold a 1, and whether C and c_{i+1}
do, pick each pattern's class, and one pass over the w - 1 columns of A
moves their contents for the classes that shift them (see _step_table).

The occurrences behind dmax and umin come straight from the rows.  In a
skew shape every row is an interval, so a 2x2 box of cells is a row pair
y1 < y2 and a column pair x1 < x2 drawn from the columns both rows share;
delta_2 sets bits (x1, y2) and (x2, y1), iota_2 bits (x1, y1) and
(x2, y2), and both have top (x2, y2).  An fd occurrence is a placement of
the dented shape with one bit per row, (i1, j1), (i3, j2) and (i2, j3)
bottom up, and top (i3, j3) (shapes._top_row_dents lists them).

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
  - fd: the few placements whose top row is the new row, one by one: the
    bits (x1, y1), (x2, y2) of c and x3 of m, and the top (x2, top row).
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
compares two 1-D key arrays by sorting them, and two key matrices by
sorting their rows (np.lexsort).

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
Inside a box of cells the chain statistic depends only on the box's size
and the pattern of set bits in it, and each box row is a run of
consecutive labels.  So each (w, h, direction) has one table over the
2^(wh) patterns of the w x h box, built once by the recursion, and a
region's table gathers each mask's bits in the region into a box pattern
and looks it up.  The gather is bit_gather, a table over all 2^n masks,
which also relabels rubey's support masks from one moon to another.

The sum-capped fillings (those sum_capped_mask keeps) are built directly
rather than filtered out of all (max_entry + 1)^n value vectors.  Those
with every row sum at most max_entry are the products of one capped word
per row; those with every column sum at most max_entry the products of
one per column, and the second family adds its members that are not in
the first.  capped_fillings returns the family as its line sums, in one
(N, h + w) int16 matrix (rows, then columns), and its support masks.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .bijection import cell_labels
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
            first = low + (p + 1)
            first[0] = _NO_TOP  # m = 0 holds no top
            umin = np.minimum(umin, first[_codes(w)[:, None] & held])
        else:
            umin = umin[None].repeat(1 << w, axis=0)
        if len(lower) >= 2 and w >= 2:  # fd: the placements with the new top row
            bit = {y: f - a for y, a, _, f in lower}
            for (x1, y1), (x2, y2), (x3, _) in _top_row_dents(
                    [(y, (a, b)) for y, a, b, _ in lower], (self.rows[-1][0], (lo, lo + w - 1))):
                mask = 1 << (bit[y1] + x1) | 1 << (bit[y2] + x2)
                rows = (_codes(w) >> (x3 - lo) & 1).astype(bool)
                tops = np.where(_codes(p) & mask == mask, p + 1 + x2 - lo, _NO_TOP)
                umin[rows] = np.minimum(umin[rows], tops)
        self._umin = umin.ravel()
        return self._dmax, self._umin

    def stage_members(self, i: int) -> np.ndarray:
        """Codes of the fillings in stage set i, dmax <= i < umin, ascending."""
        dmax, umin = self._bounds()
        return ((dmax <= i) & (umin > i)).nonzero()[0].astype(np.int64, copy=False)

    def stage_counts(self) -> list[int]:
        return [self.stage_members(i).size for i in range(1, self.n + 1)]

    # --- step application ---------------------------------------------------

    def _compiled_steps(self):
        """(i, width of X, first label bit of each X row, bottom up) for
        every step whose X is at least 2x2: the parent's, then the top row's."""
        if self._steps is None:
            self._steps = self.parent._compiled_steps() + _row_steps(self.rows) if self.n else []
        return self._steps

    def apply_step(self, F: np.ndarray, i: int, forward: bool = True) -> np.ndarray:
        for step in self._compiled_steps():
            if step[0] == i:
                return _apply_one(F, step, forward)
        return F

    def apply_all(self, F: np.ndarray, forward: bool = True) -> np.ndarray:
        """Images of codes under every step, in order (in reverse order
        backward); StepError at the first step undefined on one of them."""
        steps = self._compiled_steps()
        for step in steps if forward else reversed(steps):
            F = _apply_one(F, step, forward)
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


def _row_steps(rows) -> list:
    """The compiled steps the top row of rows adds, one per column whose
    X is at least 2x2."""
    top = len(rows) - 1
    _, lo, hi, first = rows[top]
    steps = []
    for x in range(lo + 1, hi + 1):
        # rows below start at or left of the top row, so the column of x
        # runs down while they are adjacent and still reach x
        r = top
        while r and rows[r - 1][0] == rows[r][0] - 1 and rows[r - 1][2] >= x:
            r -= 1
        if r < top:
            steps.append((first + x - lo, x - lo + 1, tuple(f + lo - a for _, a, _, f in rows[r:])))
    return steps


class StepError(ValueError):
    """Step i, run forward or not, is undefined on some given codes; code is the first of them."""


def _apply_one(F: np.ndarray, step, forward: bool) -> np.ndarray:
    """Images of codes under one compiled step; StepError when it is
    undefined on some of them.  Bits above the step's X pass through."""
    i, w, bases = step
    row = (1 << w) - 1
    pattern = (F >> bases[0]) & row
    for r, base in enumerate(bases[1:], start=1):
        pattern |= ((F >> base) & row) << (r * w)
    image = _step_table(w, len(bases), forward)[pattern]
    if image.size and image.min() < 0:
        exc = StepError(f"step {i} is undefined on some of the given codes")
        exc.i, exc.code, exc.forward = i, int(F[image.argmin()]), forward  # argmin: first -1
        raise exc
    out = F & ~sum(row << base for base in bases)
    for r, base in enumerate(bases):
        out |= ((image >> (r * w)) & row) << base
    return out


@lru_cache
def _step_table(w: int, h: int, forward: bool) -> np.ndarray:
    """Image of every bit pattern of the w x h box under its last step,
    -1 where the step is undefined; see the module docstring.

    c_{i+1} is the cell (w, h), R the rest of row h, C the rest of column
    w and A columns 1..w-1 x rows 1..h-1.  Per pattern, nz marks the
    columns of A that hold a 1 and r those of R; first is the lowest
    column of nz.  The classes are those of classify_lower (forward) and
    classify_upper (backward), read off the masks:

      forward   1  c_{i+1} unset, or nz empty
                2  C holds a 1
                3  nz meets r, nz one column
                4  nz meets r, nz two or more columns
                5  nz and r disjoint
      backward  1  C or r empty
                3  c_{i+1} set
                2  nz meets r, r one column
                4  nz meets r, r two or more columns
                5  nz and r disjoint

    Classes 3 to 5 forward move the contents of the nz columns one slot
    right, the last into C, in one left-to-right pass.  Classes 4 and 5
    backward move them one slot left, C's into the last and the first's
    into c1, in one right-to-left pass; c1 is the last column of r left
    of first (of all of r when nz is empty).  Backward is undefined in
    class 4 when no column of r lies left of first, and in class 5 when
    one lies right of it.
    """
    code = _codes(w * h)
    col = sum(1 << (y * w) for y in range(h - 1))  # column 1 below row h
    top, corner = (h - 1) * w, 1 << (w * h - 1)  # the bits of (1, h) and of c_{i+1}
    a = [code >> x & col for x in range(w)]  # columns 1..w below row h, moved to column 1
    c = a.pop()
    nz = sum((ax != 0).astype(np.int64) << x for x, ax in enumerate(a))
    r = code >> top & (1 << (w - 1)) - 1
    first, over = nz & -nz, nz & r != 0
    high = np.zeros(1 << (w - 1), dtype=np.int64)  # the highest set bit, 0 for 0
    for x in range(w - 1):
        high[1 << x: 2 << x] = 1 << x
    c1 = high[r & first - 1]
    moved, carry = code & ~(col * ((1 << w) - 1)), 0 if forward else c  # A and C cleared
    into = nz if forward else nz | c1
    for x in range(w - 1) if forward else reversed(range(w - 1)):
        moved |= np.where(into >> x & 1, carry, 0) << x
        carry = np.where(a[x] != 0, a[x], carry)
    if forward:
        moved |= carry << (w - 1)
        rest = nz & nz - 1  # nz without first
        return _frozen(np.select(
            [(code & corner == 0) | (nz == 0), c != 0, over & (rest == 0), over],
            [code, (code | first << top) & ~corner, moved,
             (moved | (rest & -rest) << top) & ~corner], (moved | first << top) & ~corner))
    return _frozen(np.select(
        [(c == 0) | (r == 0), code & corner != 0, over & (r & r - 1 == 0), over & (c1 == 0), over,
         r & first - 1 != r],
        [code, code & ~(col << (w - 1) | col * high[r]) | c * high[r],
         code & ~((r & -r) << top) | corner, -1, moved & ~(first << top) | corner, -1],
        moved & ~(c1 << top) | corner))


def _chain_recursion(cells, direction: str) -> np.ndarray:
    """Longest poset chain per support mask of the given cells."""
    table = np.zeros(1 << len(cells), dtype=np.int8)
    low = np.arange(len(table) >> 1, dtype=np.int64)
    for b, (x, y) in enumerate(cells):
        head, tail = table[: 1 << b], table[1 << b: 2 << b]
        before = sum(1 << k for k, (u, v) in enumerate(cells[:b])
                     if v < y and (u < x if direction == NE else u > x))
        np.maximum(head, head[low[: 1 << b] & before] + 1, out=tail)
    return table


@lru_cache
def _box_chains(w: int, h: int, direction: str) -> np.ndarray:
    """Longest chain per bit pattern of the w x h box, labels row by row."""
    return _frozen(_chain_recursion([(x, y) for y in range(h) for x in range(w)], direction))


def _region_chains(cells, direction: str, region: Rect) -> np.ndarray:
    """Longest chain inside region per support mask of cells (sorted-cell
    order), read from the region's box table."""
    label = {c: k for k, c in enumerate(cells)}
    if not all(c in label for c in region.cells()):
        raise ValueError(f"region {region} is not a box of cells of the shape")
    # box row r is the run of w labels from its first cell's: one shift
    src = [label[x, y] for y in range(region.row_lo, region.row_hi + 1)
           for x in range(region.col_lo, region.col_hi + 1)]
    return _box_chains(region.width, region.height, direction)[bit_gather(len(cells), src)]


def bit_gather(n: int, src) -> np.ndarray:
    """Per n-bit code, the code whose bit j is its bit src[j]; the bits of
    one shift move at once."""
    masks = {}
    for j, k in enumerate(src):
        masks[k - j] = masks.get(k - j, 0) | 1 << j
    codes = _codes(n)
    return reduce(np.bitwise_or, ((codes >> shift if shift >= 0 else codes << -shift) & mask
                                  for shift, mask in masks.items()))


def support_chain_table(s: Shape, direction: str, region: Rect | None = None) -> np.ndarray:
    """Longest chain per support mask (bits in sorted-cell order).

    A region must be a box of cells of s, else ValueError.  Without a
    region the shape must be skew; see the module docstring.
    """
    cells = s.sorted_cells()
    if region is not None:
        return _region_chains(cells, direction, region)
    if not is_skew(s):
        raise ValueError("whole-shape chain tables are defined for skew shapes only")
    if direction == SE:
        return _chain_recursion(cells, SE)
    table = np.zeros(1 << len(cells), dtype=np.int8)
    for rect in skew_rectangles(s):
        np.maximum(table, _region_chains(cells, NE, rect), out=table)
    return table


@lru_cache
def _capped_words(length: int, max_entry: int) -> np.ndarray:
    """The words of `length` entries summing to at most max_entry, one per
    row, the zero word first."""
    words = np.zeros((1, 0), dtype=np.int16)
    for _ in range(length):
        room = max_entry - words.sum(axis=1)
        words = np.vstack([np.column_stack([words[room >= v], np.full((room >= v).sum(), v)])
                           for v in range(max_entry + 1)]).astype(np.int16)
    return _frozen(words)


def _word_product(lengths, max_entry: int) -> np.ndarray:
    """The fillings of lines of these lengths, cells line after line,
    whose lines each sum to at most max_entry, one per row: one capped word
    per line, the first line varying fastest, so the zero filling comes
    first."""
    words = [_capped_words(k, max_entry) for k in lengths]
    values = np.empty((math.prod(map(len, words)), sum(lengths)), dtype=np.int16)
    stride, at = 1, 0
    for k, w in zip(lengths, words):
        # word i fills rows i * stride .. (i + 1) * stride - 1 of each block
        values.reshape(-1, len(w), stride, values.shape[1])[..., at:at + k] = w[:, None]
        stride, at = stride * len(w), at + k
    return values


def capped_fillings(s: Shape, max_entry: int):
    """Line sums (int16, the h rows, then the w columns) and support masks
    (support_index) of the fillings of s with entries at most max_entry
    whose row sums or column sums all stay within it, the family
    sum_capped_mask keeps (see the module docstring).  The row-capped
    fillings come first, the zero filling leading."""
    cells, h, n = s.sorted_cells(), s.height, s.size
    lines = np.zeros((n, h + s.width), dtype=np.int16)  # cell k's row, then its column
    lines[[*range(n), *range(n)], [*(y - 1 for _, y in cells), *(h + x - 1 for x, _ in cells)]] = 1
    lengths = lines.sum(axis=0).tolist()
    # the column-capped fillings come column by column, that is in sorted(cells) order
    by_column = np.argsort(sorted(range(n), key=cells.__getitem__))
    col_capped = _word_product(lengths[h:], max_entry)[:, by_column]
    col_capped = col_capped[(col_capped @ lines[:, :h] > max_entry).any(axis=1)]  # not row-capped
    values = np.vstack([_word_product(lengths[:h], max_entry), col_capped])
    return values @ lines, support_index(values)


def value_matrix(n: int, max_entry: int) -> np.ndarray:
    """All value vectors with entries 0..max_entry, one per row,
    column k giving cell c_{k+1}'s value."""
    base = max_entry + 1
    idx = np.arange(base**n, dtype=np.int64)
    return (idx[:, None] // base ** np.arange(n)) % base


def support_index(values: np.ndarray) -> np.ndarray:
    """Support bitmask per value vector row."""
    weights = 1 << np.arange(values.shape[1], dtype=np.int64)
    # einsum casts to int64 one buffer at a time; @ copies the whole matrix
    return np.einsum("ij,j->i", values > 0, weights)


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


def sorted_keys(a: np.ndarray) -> np.ndarray:
    """A key array sorted: 1-D keys by value, key matrices by row (np.lexsort)."""
    return np.sort(a) if a.ndim == 1 or not a.size else a[np.lexsort(a.T)]


def multiset_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two key arrays hold the same keys with multiplicity, compared sorted."""
    return a.shape == b.shape and np.array_equal(sorted_keys(a), sorted_keys(b))
