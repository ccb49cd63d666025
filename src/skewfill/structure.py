"""Dent-freeness tests, Ferrers decomposition, and the sum permutations.

A skew shape that avoids the dented 7-cell pattern splits into alternating
blocks F_1, G_1, ..., F_n, G_n where the F blocks are NW Ferrers shapes,
the G blocks SE Ferrers shapes, and consecutive blocks concatenate along
vertical and horizontal cut lines.  The decomposition drives the sum
permutations rho and sigma: reversing each run of rows shared by an
F_i/G_i pair, and each run of columns shared by a G_i/F_{i+1} pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import (
    Cell,
    Shape,
    _contains_dent,
    component_cell_sets,
    is_connected,
    is_nw_ferrers,
    is_se_ferrers,
    is_skew,
    normalize,
)


class DecompositionError(ValueError):
    """Raised when the block-splitting procedure hits a dented corner."""


def _require_skew(s: Shape) -> None:
    if not is_skew(s):
        raise ValueError("operation requires a skew shape")


def _is_rectangle(cells) -> bool:
    cells = list(cells)
    if not cells:
        return True
    cols = [c[0] for c in cells]
    rows = [c[1] for c in cells]
    area = (max(cols) - min(cols) + 1) * (max(rows) - min(rows) + 1)
    return len(cells) == area


def is_ds_free(s: Shape, method: str = "pattern") -> bool:
    """Whether a skew shape avoids the dented pattern.

    method="pattern" looks for a shape occurrence directly; "rectangle"
    checks, for every cell, that the cells weakly NW of it or the cells
    weakly SE of it fill out a rectangle.  The two agree on all skew
    shapes.
    """
    _require_skew(s)
    if method == "pattern":
        return not _contains_dent(s)
    if method == "rectangle":
        for i, j in s.cells:
            nw = [c for c in s.cells if c[0] <= i and c[1] >= j]
            se = [c for c in s.cells if c[0] >= i and c[1] <= j]
            if not _is_rectangle(nw) and not _is_rectangle(se):
                return False
        return True
    raise ValueError(f"unknown method {method!r}, expected pattern or rectangle")


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


def _split_blocks(cells: frozenset[Cell]) -> list[frozenset[Cell]]:
    """Run the block-splitting procedure on one connected component."""
    blocks: list[frozenset[Cell]] = []
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


def _cuts(blocks: list[frozenset[Cell]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    fs = blocks[0::2]
    gs = blocks[1::2]
    vertical = tuple(max(x for x, _ in f) for f in fs)
    horizontal = tuple(max(y for _, y in g) for g in gs[:-1])
    return vertical, horizontal


def ferrers_decompose(s: Shape) -> Decomposition:
    """Split a connected dent-free skew shape into alternating blocks."""
    _require_skew(s)
    if not is_connected(s):
        raise ValueError("decomposition requires a connected shape")
    blocks = _split_blocks(s.cells)
    vertical, horizontal = _cuts(blocks)
    d = Decomposition(tuple(blocks), vertical, horizontal)
    if not validate_decomposition(s, d):
        raise DecompositionError("block procedure produced an invalid decomposition")
    return d


def validate_decomposition(s: Shape, d: Decomposition) -> bool:
    """Check the block conditions against the host shape.

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
    covered: set[Cell] = set()
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
            right_col = max(x for x, _ in f)
            col_bottom = min(y for x, y in f if x == right_col)
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
            top_row = max(y for _, y in g)
            row_left = min(x for x, y in g if y == top_row)
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


@dataclass(frozen=True)
class SpecialBlocks:
    """Runs of shared row indices (F_i with G_i) and column indices
    (G_i with F_{i+1}), in host coordinates."""

    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]


def _component_blocks(s: Shape) -> list[list[frozenset[Cell]]]:
    _require_skew(s)
    return [_split_blocks(comp) for comp in component_cell_sets(s)]


def special_blocks(s: Shape) -> SpecialBlocks:
    """Shared-index runs of the decomposition, per connected component."""
    row_blocks = []
    col_blocks = []
    for blocks in _component_blocks(s):
        fs, gs = blocks[0::2], blocks[1::2]
        for f, g in zip(fs, gs):
            shared = sorted({y for _, y in f} & {y for _, y in g})
            if shared:
                row_blocks.append(tuple(shared))
        for g, f2 in zip(gs, fs[1:]):
            shared = sorted({x for x, _ in g} & {x for x, _ in f2})
            if shared:
                col_blocks.append(tuple(shared))
    for block in row_blocks + col_blocks:
        if block[-1] - block[0] + 1 != len(block):
            raise AssertionError(f"special block {block} is not contiguous")
    return SpecialBlocks(tuple(sorted(row_blocks)), tuple(sorted(col_blocks)))


@dataclass(frozen=True)
class SumPermutations:
    """Row and column permutations, 1-based images in index order."""

    rho: tuple[int, ...]
    sigma: tuple[int, ...]


def _reversing_permutation(size: int, blocks) -> tuple[int, ...]:
    perm = list(range(1, size + 1))
    for block in blocks:
        lo, hi = block[0], block[-1]
        for offset in range(hi - lo + 1):
            perm[lo - 1 + offset] = hi - offset
    return tuple(perm)


def sum_permutations(s: Shape) -> SumPermutations:
    """The row/column involutions that transport sum vectors.

    Built by reversing each special block; disconnected shapes contribute
    blocks per component.
    """
    sb = special_blocks(s)
    return SumPermutations(
        rho=_reversing_permutation(s.height, sb.row_blocks),
        sigma=_reversing_permutation(s.width, sb.col_blocks),
    )


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
