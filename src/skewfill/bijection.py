"""Cell labeling, stage sets, and the stepwise bijection between them.

Cells of a skew shape are labeled c_1 ... c_N bottom row first, left to
right within a row.  An occurrence of delta_2, iota_2, or fd is "i-low"
when the image of its bounding-box top-right cell has label index <= i,
and "i-high" otherwise.  Stage set i holds the binary fillings with no
i-high delta_2 occurrence and no i-low iota_2 or fd occurrence; stage 1 is
the delta_2-avoiders and stage N the {iota_2, fd}-avoiders.

Adjacent stages are connected by a map that only edits the maximal
rectangle X whose top-right corner is c_{i+1}.  X splits into the cells R
(left of c_{i+1} in its row), C (below it in its column), and the rectangle
A = columns(R) x rows(C).  Fillings fall into five classes per side; class
1 is fixed pointwise and classes 2-5 are moved by explicit column edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fillings import Filling, find_filling_occurrences
from .shapes import Cell, Occurrence, Rect, Shape, _row_spans, _top_row_dents, is_skew

ROW_BREAK = "rowbreak"
IN_ROW = "inrow"


def cell_labels(s: Shape) -> tuple[Cell, ...]:
    """The canonical c_1 ... c_N cell order of a skew shape."""
    if not is_skew(s):
        raise ValueError("cell labels are defined for skew shapes only")
    return s.sorted_cells()


@lru_cache(maxsize=4096)
def _label_index_map(s: Shape) -> dict[Cell, int]:
    return {c: k for k, c in enumerate(s.sorted_cells(), start=1)}


def label_index(s: Shape, cell: Cell) -> int:
    """1-based position of a cell in the labeling."""
    try:
        return _label_index_map(s)[cell]
    except KeyError:
        raise ValueError(f"{cell} is not a cell of the shape") from None


def occurrence_top(occ: Occurrence) -> Cell:
    """Host image of the pattern bounding box's top-right cell."""
    return (occ.cols[-1], occ.rows[-1])


def in_G(s: Shape, f: Filling, i: int) -> bool:
    """Membership in stage set i."""
    if f.shape != s:
        raise ValueError("filling does not live on the given shape")
    n = len(cell_labels(s))
    if not f.is_binary():
        raise ValueError("stage sets contain binary fillings only")
    if not 1 <= i <= n:
        raise ValueError(f"stage index {i} out of range 1..{n}")
    for occ in find_filling_occurrences(f, "delta2") if i < n else ():  # no top is past c_n
        if label_index(s, occurrence_top(occ)) > i:
            return False
    if i < 4:  # every iota2 or fd top has 3 cells labelled before it
        return True
    for occ in find_filling_occurrences(f, "iota2"):
        if label_index(s, occurrence_top(occ)) <= i:
            return False
    # an fd occurrence is a dent placement whose fd cells all hold 1s
    ones, rows = f.support(), list(_row_spans(s).items())
    return not any(ones.issuperset(fd) and label_index(s, (fd[1][0], rows[t][0])) <= i
                   for t in range(2, len(rows)) for fd in _top_row_dents(rows[:t], rows[t]))


@dataclass(frozen=True)
class StepAnatomy:
    """Geometry of step i: either a row break or the regions around c_{i+1}."""

    index: int
    kind: str  # rowbreak | inrow
    c_next: Cell
    R: frozenset[Cell]
    C: frozenset[Cell]
    A: Rect | None


@lru_cache(maxsize=65536)
def step_anatomy(s: Shape, i: int) -> StepAnatomy:
    labels = cell_labels(s)
    if not 1 <= i < len(labels):
        raise ValueError(f"step index {i} out of range 1..{len(labels) - 1}")
    prev, nxt = labels[i - 1], labels[i]
    if prev[1] != nxt[1]:
        return StepAnatomy(i, ROW_BREAK, nxt, frozenset(), frozenset(), None)
    x, y = nxt
    r_cells = frozenset(c for c in s.cells if c[1] == y and c[0] < x)
    c_cells = frozenset(c for c in s.cells if c[0] == x and c[1] < y)
    a = None
    if r_cells and c_cells:
        a = Rect(min(c[0] for c in r_cells), x - 1, min(c[1] for c in c_cells), y - 1)
        missing = [c for c in a.cells() if c not in s.cells]
        if missing:
            raise AssertionError(f"rectangle A leaves the shape at {missing[0]}")
    return StepAnatomy(i, IN_ROW, nxt, r_cells, c_cells, a)


# --- class membership and the step recipes, on support sets ---------------


def _a_columns(an: StepAnatomy) -> range:
    return range(an.A.col_lo, an.A.col_hi + 1)


def _c_rows(an: StepAnatomy) -> range:
    return range(an.A.row_lo, an.A.row_hi + 1)


def _nonzero_a_cols(an: StepAnatomy, support) -> list[int]:
    rows = _c_rows(an)
    return [x for x in _a_columns(an) if any((x, yy) in support for yy in rows)]


def _overlap(an: StepAnatomy, support) -> bool:
    """Some column holds a 1-cell of R and a 1-cell of A."""
    y = an.c_next[1]
    rows = _c_rows(an)
    return any(
        (x, y) in support and any((x, yy) in support for yy in rows)
        for x in _a_columns(an)
    )


def classify_lower(an: StepAnatomy, support) -> int:
    if an.kind != IN_ROW:
        raise ValueError("class is defined for in-row steps only")
    if an.c_next not in support or an.A is None:
        return 1
    nz = _nonzero_a_cols(an, support)
    if not nz:
        return 1
    if any(c in support for c in an.C):
        return 2
    if _overlap(an, support):
        return 3 if len(nz) == 1 else 4
    return 5


def classify_upper(an: StepAnatomy, support) -> int:
    if an.kind != IN_ROW:
        raise ValueError("class is defined for in-row steps only")
    if not any(c in support for c in an.C) or not any(c in support for c in an.R):
        return 1
    if an.c_next in support:
        return 3
    if an.A is not None and _overlap(an, support):
        r_ones = sum(1 for c in an.R if c in support)
        return 2 if r_ones == 1 else 4
    return 5


def _forward_support(an: StepAnatomy, support: frozenset[Cell]) -> frozenset[Cell]:
    cls = classify_lower(an, support)
    if cls == 1:
        return support
    x_next, y = an.c_next
    rows = list(_c_rows(an))
    nz = _nonzero_a_cols(an, support)
    new = set(support)
    if cls == 2:
        new.add((nz[0], y))
        new.discard((x_next, y))
        return frozenset(new)
    if cls == 3:
        src = nz[0]
        for yy in rows:
            if (src, yy) in support:
                new.add((x_next, yy))
                new.discard((src, yy))
            else:
                new.discard((x_next, yy))
        return frozenset(new)
    # classes 4 and 5: shift the nonzero columns of A one slot right,
    # the last one landing in C, all reads from the original filling
    contents = {x: [yy for yy in rows if (x, yy) in support] for x in nz}
    for x in list(_a_columns(an)) + [x_next]:
        for yy in rows:
            new.discard((x, yy))
    targets = nz[1:] + [x_next]
    for src, dst in zip(nz, targets):
        for yy in contents[src]:
            new.add((dst, yy))
    new.add((nz[1], y) if cls == 4 else (nz[0], y))
    new.discard((x_next, y))
    return frozenset(new)


def _backward_support(an: StepAnatomy, support: frozenset[Cell]) -> frozenset[Cell]:
    cls = classify_upper(an, support)
    if cls == 1:
        return support
    x_next, y = an.c_next
    rows = list(_c_rows(an))
    nz = _nonzero_a_cols(an, support)
    r_cols = [x for x in _a_columns(an) if (x, y) in support]
    new = set(support)
    if cls == 2:
        new.discard((r_cols[0], y))
        new.add((x_next, y))
        return frozenset(new)
    if cls == 3:
        dst = r_cols[-1]
        for yy in rows:
            if (x_next, yy) in support:
                new.add((dst, yy))
                new.discard((x_next, yy))
            else:
                new.discard((dst, yy))
        return frozenset(new)
    # classes 4 and 5: shift contents one slot left into a recovered column
    if cls == 4:
        c2 = nz[0]
        lefts = [x for x in r_cols if x < c2]
        if not lefts:
            raise ValueError("no recoverable column for a class-4 step")
        c1 = lefts[-1]
    else:
        c1 = r_cols[-1]
        if nz and c1 >= nz[0]:
            raise ValueError("no recoverable column for a class-5 step")
    seq = [c1] + nz
    contents = {x: [yy for yy in rows if (x, yy) in support] for x in nz}
    c_content = [yy for yy in rows if (x_next, yy) in support]
    for x in list(_a_columns(an)) + [x_next]:
        for yy in rows:
            new.discard((x, yy))
    for j, dst in enumerate(seq):
        src = contents[seq[j + 1]] if j + 1 < len(seq) else c_content
        for yy in src:
            new.add((dst, yy))
    new.discard((nz[0], y) if cls == 4 else (c1, y))
    new.add((x_next, y))
    return frozenset(new)


# --- public step and full maps ---------------------------------------------


def _step(f: Filling, i: int, forward: bool, validate: bool) -> tuple[StepAnatomy, Filling]:
    """Step i forward from stage set i, or backward from stage set i+1:
    the step's anatomy and the image of f."""
    stage = i if forward else i + 1
    if validate and not in_G(f.shape, f, stage):
        raise ValueError(f"filling is not in stage set {stage}")
    an = step_anatomy(f.shape, i)
    if an.kind == ROW_BREAK:
        return an, f
    sup = f.support()
    out = (_forward_support if forward else _backward_support)(an, sup)
    return an, (f if out == sup else Filling.from_support(f.shape, out))


def step_forward(f: Filling, i: int, validate: bool = True) -> Filling:
    """Map stage set i into stage set i+1 (identity on row breaks)."""
    return _step(f, i, True, validate)[1]


def step_backward(f: Filling, i: int, validate: bool = True) -> Filling:
    """Inverse of step_forward, mapping stage set i+1 into stage set i."""
    return _step(f, i, False, validate)[1]


@dataclass(frozen=True)
class TraceStep:
    index: int
    kind: str
    cls: int | None  # None on row breaks
    before: Filling
    after: Filling


@dataclass(frozen=True)
class BijectionTrace:
    steps: tuple[TraceStep, ...]


def _bits(f: Filling) -> str:
    return "".join("1" if v else "0" for v in f.values)


def render_trace(trace: BijectionTrace) -> str:
    lines = []
    for st in trace.steps:
        cls = "id" if st.cls is None else str(st.cls)
        lines.append(
            f"i={st.index} kind={st.kind} class={cls} "
            f"before={_bits(st.before)} after={_bits(st.after)}"
        )
    return "\n".join(lines)


def _full(f: Filling, forward: bool, keep_trace: bool):
    n = f.shape.size
    order = range(1, n) if forward else range(n - 1, 0, -1)
    cur = f
    steps = []
    for i in order:
        an, nxt = _step(cur, i, forward, validate=False)
        if keep_trace:
            cls = (None if an.kind == ROW_BREAK else
                   (classify_lower if forward else classify_upper)(an, cur.support()))
            steps.append(TraceStep(i, an.kind, cls, cur, nxt))
        cur = nxt
    return cur, BijectionTrace(tuple(steps))


def full_forward(f: Filling, keep_trace: bool = True) -> tuple[Filling, BijectionTrace]:
    """Carry a delta_2-avoiding binary filling across all stages.

    The result avoids iota_2 and fd, the row sums are unchanged, and
    full_backward inverts the map exactly.
    """
    if not in_G(f.shape, f, 1):
        raise ValueError("input filling contains delta2")
    return _full(f, forward=True, keep_trace=keep_trace)


def full_backward(f: Filling, keep_trace: bool = True) -> tuple[Filling, BijectionTrace]:
    if not in_G(f.shape, f, f.shape.size):
        raise ValueError("input filling contains iota2 or fd")
    return _full(f, forward=False, keep_trace=keep_trace)
