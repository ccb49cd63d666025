"""The integer-filling scans' fast paths against their references.

_engine.capped_fillings generates the sum-capped fillings directly; the
reference masks them out of every value vector (sum_capped_mask).
support_index sums its weights with einsum; the reference multiplies the
whole support matrix, cast to int64.  A region's chain table reads the
box table of its size; the reference runs the chain recursion over the
whole shape, counting only the region's cells.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import reference_capped_fillings, reference_region_chains, reference_support_index
from skewfill import harness
from skewfill._engine import capped_fillings, support_chain_table, support_index
from skewfill.enumeration import enum_moon_polyominoes, enum_skew_shapes
from skewfill.fillings import NE, SE
from skewfill.shapes import Rect, Shape

CATALOG = [s for n in range(1, 9) for s in enum_skew_shapes(n)]
MOONS = [m for n in range(1, 9) for m in enum_moon_polyominoes(n)]


def row_multiset(s, lines, support):
    """Each filling's (line sums, support mask) as one integer, sorted: the
    sums (rows, then columns) in one radix, then the mask's n bits."""
    sums = lines.astype(np.int64)
    base = int(sums.max()) + 1
    assert base ** sums.shape[1] << s.size < 1 << 62
    return np.sort((sums @ base ** np.arange(sums.shape[1])) << s.size | support)


@pytest.mark.parametrize("max_entry", [1, 2])
@pytest.mark.parametrize("family", ["catalog", "moons"])
def test_generated_fillings_are_the_masked_ones(family, max_entry):
    """Every catalog shape and every moon of <= 8 cells: the same rows with
    multiplicity, the zero filling first."""
    for s in CATALOG if family == "catalog" else MOONS:
        got = capped_fillings(s, max_entry)
        assert not any(a[0].any() for a in got), s
        rows, cols, support = reference_capped_fillings(s, max_entry)
        assert np.array_equal(row_multiset(s, *got),
                              row_multiset(s, np.hstack([rows, cols]), support)), s
    assert (len(CATALOG), len(MOONS)) == (3909, 601)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_support_index_matches_the_whole_matrix_product(dtype):
    """Seeded random value matrices of 1..40 columns, with empty matrices
    and all-zero rows among them."""
    rng = np.random.default_rng(11)
    for width in range(1, 41):
        for rows in (0, 1, 50):
            values = rng.integers(-2, 4, (rows, width)).astype(dtype)
            values[::3] = 0
            assert np.array_equal(support_index(values), reference_support_index(values))


def test_the_filling_table_of_a_row_peaks_near_what_it_keeps():
    """The one-row shape of 10 cells at max_entry 2 (59,049 fillings): the
    identity keys are packed without an int64 copy of the line or support
    matrices, so the traced peak stays below 4x the lines and keys kept."""
    row = Shape(frozenset((x, 1) for x in range(1, 11)))
    tracemalloc.start()
    try:
        keys, _ = harness._filling_table(row, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines, _ = capped_fillings(row, 2)
    ident = keys(np.zeros((len(lines), 0), dtype=np.int8))
    assert lines.shape == (59049, 11) and ident.shape == (59049,)
    assert peak < 4 * (lines.nbytes + ident.nbytes)


def boxes(s):
    """Every rectangle of cells inside s."""
    for x1 in range(1, s.width + 1):
        for x2 in range(x1, s.width + 1):
            for y1 in range(1, s.height + 1):
                for y2 in range(y1, s.height + 1):
                    r = Rect(x1, x2, y1, y2)
                    if all(c in s.cells for c in r.cells()):
                        yield r


@pytest.mark.parametrize("family", ["catalog", "moons"])
def test_box_tables_match_the_region_recursion(family):
    """Every rectangle of cells inside every catalog shape and moon of <= 8
    cells, both directions."""
    checked = 0
    for s in CATALOG if family == "catalog" else MOONS:
        for r in boxes(s):
            for d in (NE, SE):
                assert np.array_equal(support_chain_table(s, d, r),
                                      reference_region_chains(s, d, r)), (s, r, d)
                checked += 1
    assert checked == {"catalog": 110884, "moons": 25666}[family]


@pytest.mark.parametrize("region", [Rect(1, 2, 1, 2), Rect(2, 3, 1, 1), Rect(1, 1, 1, 4),
                                    Rect(1, 10 ** 9, 1, 10 ** 9)])
def test_a_region_outside_the_shape_is_refused(region):
    # the staircase with rows (1, 1), (1, 2), (1, 3): (2, 1) and (3, 1) are
    # holes, and row 4 is empty
    s = Shape(frozenset({(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}))
    with pytest.raises(ValueError, match="not a box of cells"):
        support_chain_table(s, NE, region)
