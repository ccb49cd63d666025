"""Shared strategies and brute-force reference helpers for the test suite.

The reference helpers deliberately avoid the package's own fast paths:
chains are checked against a subset scan, skew shapes against the
defining difference-of-Ferrers construction, avoider counts against
direct filtering, the span block splitter against the block procedure
on cell sets, the span validator against the decomposition checks on
cell sets, the sum-capped filling generator against a mask over all
value vectors, support masks against a whole-matrix product, region
chain tables against the recursion over the whole shape, the catalog
walk and its lines against the walk that appended each list's children
to a fresh list and formatted each row, the filling generator
against one recursion per mode, and the box step tables against one
support-recipe call per pattern.
Pinned constants in the test modules were produced by these oracles.
"""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from skewfill import harness
from skewfill.bijection import _backward_support, _forward_support, step_anatomy
from skewfill._engine import (
    line_sums,
    multiset_equal,
    sum_capped_mask,
    support_chain_table,
    support_index,
    value_matrix,
)
from skewfill.enumeration import EnumSpec, _flag_prefix, _transversals, _value_rows, \
    catalog_line, enum_skew_shapes
from skewfill.fillings import NE, SE, Filling
from skewfill.shapes import (
    Rect,
    Shape,
    component_cell_sets,
    is_connected,
    is_nw_ferrers,
    is_se_ferrers,
    normalize,
)
from skewfill.structure import (
    Decomposition,
    DecompositionError,
    SumPermutations,
)


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


def _is_rectangle(cells) -> bool:
    cells = list(cells)
    if not cells:
        return True
    cols = [c[0] for c in cells]
    rows = [c[1] for c in cells]
    return len(cells) == (max(cols) - min(cols) + 1) * (max(rows) - min(rows) + 1)


def rectangle_ds_free(s: Shape) -> bool:
    """The rectangle criterion by its definition: for every cell, the
    cells weakly NW of it or the cells weakly SE of it fill a rectangle."""
    for i, j in s.cells:
        nw = [c for c in s.cells if c[0] <= i and c[1] >= j]
        se = [c for c in s.cells if c[0] >= i and c[1] <= j]
        if not _is_rectangle(nw) and not _is_rectangle(se):
            return False
    return True


def reference_split_blocks(cells: frozenset) -> list[frozenset]:
    """The block procedure on the cell set of one connected component, as
    structure ran it before it read row spans; raises DecompositionError
    at a dented corner."""
    blocks = []
    cur = set(cells)
    while True:
        cmin = min(x for x, _ in cur)
        j = max(y for x, y in cur if x == cmin)
        if j == max(y for _, y in cur):
            blocks.append(frozenset(cur))
            blocks.append(frozenset())
            return blocks
        row_above = [x for x, y in cur if y == j + 1]
        if not row_above:
            raise DecompositionError(f"no cells in row {j + 1} above the first column")
        i = min(row_above)
        f_block = frozenset(c for c in cur if c[0] < i)
        if not f_block:
            raise DecompositionError(f"empty block left of column {i}")
        blocks.append(f_block)
        cur -= f_block
        q = [c for c in cur if c[1] <= j]
        if (i, j) not in cur:
            raise DecompositionError(f"cell ({i}, {j}) missing below the step")
        qi = max(x for x, _ in q)
        qj = min(y for _, y in q)
        if len(q) != (qi - i + 1) * (j - qj + 1):
            raise DecompositionError(
                f"cells right of column {i - 1} and below row {j + 1} "
                "do not fill a rectangle"
            )
        if qi == max(x for x, _ in cur):
            blocks.append(frozenset(cur))
            return blocks
        j2 = min(y for x, y in cur if x == qi + 1)
        if j2 <= j:
            raise DecompositionError(f"column {qi + 1} reaches below row {j + 1}")
        g_block = frozenset(c for c in cur if c[0] <= qi and c[1] < j2)
        blocks.append(g_block)
        cur -= g_block


def reference_validate_decomposition(s: Shape, d: Decomposition) -> bool:
    """validate_decomposition on cell sets, as structure ran it before it
    read row spans: every block goes through normalize and the Ferrers
    tests, and the seams are checked by peeling blocks off the host.

    Verifies tiling, the NW/SE Ferrers classification of every block, the
    two concatenation adjacency rules, the strict increase of column tops
    and row ends across each cut, the cut-line bounds on neighboring
    blocks, and that the recorded cut lists match the blocks.
    """
    blocks = d.blocks
    if len(blocks) < 2 or len(blocks) % 2 != 0:
        return False
    fs, gs = blocks[0::2], blocks[1::2]
    n = len(fs)
    if any(not f for f in fs) or any(not g for g in gs[:-1]):
        return False
    covered = set()
    for b in blocks:
        if covered & b:
            return False
        covered |= b
    if covered != set(s.cells):
        return False
    for f in fs:
        if not is_nw_ferrers(normalize(f)):
            return False
    for g in gs:
        if g and not is_se_ferrers(normalize(g)):
            return False
    if d.vertical_cuts != tuple(max(x for x, _ in f) for f in fs):
        return False
    if d.horizontal_cuts != tuple(max(y for _, y in g) for g in gs[:-1]):
        return False

    # concatenation geometry: peel blocks off and check each seam
    rest = set(s.cells)
    for k in range(n):
        f = fs[k]
        rest -= f
        if rest:
            c = max(x for x, _ in f)
            if min(x for x, _ in rest) != c + 1:
                return False
            col_bottom = min(y for x, y in f if x == c)
            if min(y for _, y in rest) < col_bottom:
                return False
        elif k < n - 1 or gs[k]:
            return False
        g = gs[k]
        if not g:
            continue
        rest -= g
        if rest:
            r = max(y for _, y in g)
            if min(y for _, y in rest) != r + 1:
                return False
            row_left = min(x for x, y in g if y == r)
            if min(x for x, _ in rest) < row_left:
                return False
        elif k < n - 1:
            return False
    if rest:
        return False

    col_top = {}
    row_end = {}
    for x, y in s.cells:
        col_top[x] = max(col_top.get(x, y), y)
        row_end[y] = max(row_end.get(y, x), x)
    for k in range(n - 1):
        c = d.vertical_cuts[k]
        if c + 1 not in col_top or col_top[c] >= col_top[c + 1]:
            return False
        r = d.horizontal_cuts[k]
        if r + 1 not in row_end or row_end[r] >= row_end[r + 1]:
            return False
        # each G_i stays left of the next vertical cut, each F_i below
        # the horizontal cut at its right
        if max(x for x, _ in gs[k]) > d.vertical_cuts[k + 1]:
            return False
        if max(y for _, y in fs[k]) > d.horizontal_cuts[k]:
            return False
    return True


def reference_decompose(s: Shape) -> Decomposition:
    """ferrers_decompose by the cell-set procedure."""
    if not is_connected(s):
        raise ValueError("decomposition requires a connected shape")
    blocks = reference_split_blocks(s.cells)
    fs, gs = blocks[0::2], blocks[1::2]
    d = Decomposition(tuple(blocks), tuple(max(x for x, _ in f) for f in fs),
                      tuple(max(y for _, y in g) for g in gs[:-1]))
    if not reference_validate_decomposition(s, d):
        raise DecompositionError("block procedure produced an invalid decomposition")
    return d


def reference_sum_permutations(s: Shape) -> SumPermutations:
    """sum_permutations by the cell-set procedure, one component at a time:
    reverse the rows shared by each F_i/G_i pair and the columns shared
    by each G_i/F_{i+1} pair."""
    rho, sigma = list(range(1, s.height + 1)), list(range(1, s.width + 1))
    for comp in component_cell_sets(s):
        blocks = reference_split_blocks(comp)
        fs, gs = blocks[0::2], blocks[1::2]
        runs = [(rho, {y for _, y in f} & {y for _, y in g}) for f, g in zip(fs, gs)]
        runs += [(sigma, {x for x, _ in g} & {x for x, _ in f}) for g, f in zip(gs, fs[1:])]
        for perm, run in runs:
            if not run:
                continue
            lo, hi = min(run), max(run)
            if hi - lo + 1 != len(run):
                raise AssertionError(f"special block {sorted(run)} is not contiguous")
            perm[lo - 1:hi] = range(hi, lo - 1, -1)
    return SumPermutations(tuple(rho), tuple(sigma))


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


def transversal_codes(s: Shape) -> np.ndarray:
    """Support masks of the transversals of s, in enumeration order, from
    the value rows of enum_fillings' transversal mode."""
    if s.height != s.width:
        return np.zeros(0, dtype=np.int64)
    return support_index(_value_rows(s, EnumSpec(mode="transversal")))


def reference_tr_counts(s: Shape, ks) -> list[tuple[int, int]]:
    """(#iota_k-avoiding, #delta_k-avoiding) transversals for each k, read
    off the NE and SE chain tables over all 2^n support masks."""
    ts = transversal_codes(s)
    if not ts.size:
        return [(0, 0) for _ in ks]
    ne = support_chain_table(s, NE)[ts]
    se = support_chain_table(s, SE)[ts]
    return [(int(np.count_nonzero(ne < k)), int(np.count_nonzero(se < k))) for k in ks]


def reference_support_index(values: np.ndarray) -> np.ndarray:
    """Support bitmask per value vector row, by a matrix product over the
    whole int64 copy of the support matrix."""
    return (values > 0) @ (1 << np.arange(values.shape[1], dtype=np.int64))


def reference_capped_fillings(s: Shape, max_entry: int):
    """Row sums, column sums and support masks of the sum-capped fillings of
    s, masked out of all (max_entry + 1)^n value vectors."""
    values = value_matrix(s.size, max_entry)
    rows = line_sums(values, s, by_row=True)
    cols = line_sums(values, s, by_row=False)
    keep = sum_capped_mask(rows, cols, max_entry)
    return rows[keep], cols[keep], reference_support_index(values)[keep]


def reference_region_chains(s: Shape, direction: str, region: Rect) -> np.ndarray:
    """Longest chain inside region per support mask of s, by the recursion
    over all of s's cells that counts only those in region: T[m] =
    max(T[m - 2^b], 1 + T[m & before_b]) for a highest bit b in region,
    T[m - 2^b] for one outside it."""
    cells = s.sorted_cells()
    table = np.zeros(1 << len(cells), dtype=np.int8)
    low = np.arange(len(table) >> 1, dtype=np.int64)
    for b, (x, y) in enumerate(cells):
        head, tail = table[: 1 << b], table[1 << b: 2 << b]
        if (x, y) not in region:
            tail[:] = head
            continue
        before = sum(1 << k for k, (u, v) in enumerate(cells[:b])
                     if v < y and (u < x if direction == NE else u > x) and (u, v) in region)
        np.maximum(head, head[low[: 1 << b] & before] + 1, out=tail)
    return table


@functools.lru_cache
def reference_step_table(w: int, h: int, forward: bool) -> np.ndarray:
    """Image of every bit pattern of the w x h box under its last step,
    -1 where the step is undefined, by one call of the support recipe
    (bijection._forward_support or _backward_support) per pattern."""
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


def frame_counts_by_cells(s: Shape) -> tuple[int, int]:
    """The full-height columns counted from the left and the rows as long
    as the top row counted from the top, by scanning the cells."""
    h = s.height
    k = 0
    while k < s.width and len(s.col_rows(k + 1)) == h:
        k += 1
    t = len(s.row_cols(h))
    l = 0
    while l < h and len(s.row_cols(h - l)) == t:
        l += 1
    return k, l


def reference_frame_side(h: int, t: int, k: int, l: int, se: bool):
    """One side's rectangles and sum lines of the frame (k, l) on a NW
    Ferrers shape of height h whose top row has length t.  The SE side
    gives C_1..C_k, R_1..R_l (C_i the leftmost i special columns, R_j the
    topmost j special rows) and their sum lines, columns 1..k and rows
    h..h-l+1; the NE side gives C'_i (the rightmost i), R'_j (the
    bottommost j) and columns k..1, rows h-l+1..h."""
    if se:
        rects = [Rect(1, i, 1, h) for i in range(1, k + 1)]
        rects += [Rect(1, t, h - j + 1, h) for j in range(1, l + 1)]
        return rects, list(range(1, k + 1)), [h + 1 - j for j in range(1, l + 1)]
    rects = [Rect(k - i + 1, k, 1, h) for i in range(1, k + 1)]
    rects += [Rect(1, t, h - l + 1, h - l + j) for j in range(1, l + 1)]
    return rects, [k + 1 - i for i in range(1, k + 1)], [h - l + j for j in range(1, l + 1)]


def reference_lem_ferrers(max_cells: int, kmax: int, lmax: int, max_entry: int):
    """The lem_ferrers report from signature matrices built afresh for
    each frame and side: the side's chain columns (the whole shape, then
    its rectangles), its special sum lines position by position, then the
    other columns and rows in order.  Shapes come from the filtered
    catalog, frame bounds from the cells; chain tables go through
    harness.support_chain_table, so a replacement there reaches both."""
    instances, failures = 0, []
    for n in range(1, max_cells + 1):
        for s in filter(is_nw_ferrers, enum_skew_shapes(n)):
            rows, cols, sidx = reference_capped_fillings(s, max_entry)
            k_adm, l_adm = frame_counts_by_cells(s)
            for k, l in itertools.product(range(min(k_adm, kmax) + 1),
                                          range(min(l_adm, lmax) + 1)):
                sigs = []
                for se in (True, False):
                    rects, col_lines, row_lines = reference_frame_side(
                        s.height, s.width, k, l, se)
                    columns = [harness.support_chain_table(s, SE if se else NE, r)[sidx]
                               for r in [None, *rects]]
                    columns += [cols[:, x - 1] for x in col_lines]
                    columns += [rows[:, y - 1] for y in row_lines]
                    columns += [cols[:, x - 1] for x in range(k + 1, s.width + 1)]
                    columns += [rows[:, y - 1] for y in range(1, s.height - l + 1)]
                    sigs.append(np.column_stack(columns))
                instances += 1
                if not multiset_equal(*sigs):
                    failures.append({"shape": catalog_line(s), "k": k, "l": l})
    failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
    return harness.VerificationReport(
        property="lem_ferrers",
        params={"max_cells": max_cells, "kmax": kmax, "lmax": lmax, "max_entry": max_entry},
        instances=instances, failures=failures, details={"level": "statistic multisets"})


def identity_permutations(table):
    """A stand-in for harness._filling_table: table's keys with the
    identity (rho, sigma) in place of every one they are asked for."""

    def identity_table(s, max_entry):
        keys, chains = table(s, max_entry)
        return lambda stats, *perms: keys(stats, *map(sorted, perms)), chains

    return identity_table


def own_column_sums(labeled):
    """A stand-in for harness._labeled_keys: each labeling's keys with its
    moon's own column sums, read through the labeling, in place of the
    first moon's.  Both sides of a swap then hold their moons' own keys,
    as a per-moon comparison with the identity sigma would."""

    def own(family, moon, table, sigma):
        keys, support, label = family
        rows = range(1, moon.height + 1)
        return labeled((lambda stats, **at: keys(stats, rows, sigma, **at), support, label),
                       moon, table, sigma)

    return own


def with_identity_permutations(monkeypatch, prop):
    """Make prop compare with the identity (rho, sigma): lem_ferrers and
    cor_sskew by their tables' keys, rubey by its labelings' keys."""
    if prop == "rubey":
        monkeypatch.setattr(harness, "_labeled_keys", own_column_sums(harness._labeled_keys))
    else:
        monkeypatch.setattr(harness, "_filling_table", identity_permutations(harness._filling_table))


def reference_add_children(out: list, intervals, used: int, room: int) -> list:
    """Append to out the one-row extensions (intervals, cells) of a list
    of `used` cells that the catalog grammar allows with room cells left,
    in the order the walk pushes them, and return out.  The first row of
    a list sits above the virtual row (1, 0)."""
    a_lo, b_lo = intervals[-1] if intervals else (1, 0)
    for a in range(b_lo + 1, max(a_lo, b_lo + 1 - room) - 1, -1):
        for b in range(a + room - 1, max(a, b_lo) - 1, -1):
            out.append((intervals + ((a, b),), used + b - a + 1))
    return out


def reference_catalog_walk(max_cells: int, shard: tuple[int, int] = (0, 1), keep=None):
    """enumeration._catalog_walk with each list's children computed afresh
    by reference_add_children: the same (intervals, cells, mine) in the
    same order, for the same shard and prefix test."""
    index, count = shard
    key = -1
    stack = reference_add_children([], (), 0, max_cells)
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
            reference_add_children(stack, intervals, used, max_cells - used)
        else:
            stack += [c for c in reference_add_children([], intervals, used, max_cells - used)
                      if keep(c[0], max_cells - c[1])]


def reference_catalog_lines(max_cells: int, connected: bool, ds_free: bool) -> list[str]:
    """enumeration.catalog_lines by another route: reference_catalog_walk,
    a preorder, with each row formatted on its own, and heads[d] the
    latest line of d rows, with a trailing comma in place of its closing
    bracket."""
    by_size = [[] for _ in range(max_cells + 1)]
    heads = ["["] * (max_cells + 1)
    for intervals, used, _ in reference_catalog_walk(max_cells,
                                                     keep=_flag_prefix(connected, ds_free)):
        d = len(intervals)
        a, b = intervals[-1]
        heads[d] = head = f"{heads[d - 1]}({a},{b}),"
        by_size[used].append(head[:-1] + "]")
    return [line for lines in by_size for line in lines]


def reference_enum_values(s: Shape, spec: EnumSpec):
    """enumeration._enum_values with a recursion of its own per mode: the
    binary and integer one prunes on the running total, and the sparse one
    tries 0 and then 1, a 1 only in a row and column without one."""
    cells = s.sorted_cells()
    n = len(cells)
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

    if s.height != s.width:
        raise ValueError("transversal mode requires height = width")
    if s.height > total_cap:
        return
    for p in _transversals([s.row_cols(y) for y in range(1, s.height + 1)]):
        yield tuple(int(p[y - 1] == x) for x, y in cells)


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

    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    return sizes
