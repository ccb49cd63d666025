import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binary_fillings,
    brute_chain,
    integer_fillings,
    mirror_filling_lr,
    rotate_filling_180,
    skew_shapes,
)
from skewfill._engine import support_chain_table
from skewfill.enumeration import enum_moon_polyominoes
from skewfill.fillings import (
    NE,
    SE,
    Filling,
    FillingKind,
    SumVector,
    avoids,
    filling_kind,
    find_filling_occurrences,
    longest_chain,
    parse_filling,
    parse_numeric_filling,
    pattern_library,
    render_filling,
    render_numeric_filling,
    skew_rectangles,
    sum_vector,
)
from skewfill.shapes import (
    ParseError,
    Rect,
    dent_shape,
    is_skew,
    maximal_rectangles,
    normalize,
    parse_shape,
)

DENT = dent_shape()
FD = pattern_library("fd")


def fill_with(s, entries):
    values = {c: 0 for c in s.cells}
    values.update(entries)
    return Filling.from_map(s, values)


def all_binary_fillings(s):
    cells = s.sorted_cells()
    for bits in range(1 << len(cells)):
        yield Filling.from_support(
            s, frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
        )


def test_pattern_library_contents():
    iota2 = pattern_library("iota2")
    assert iota2.support() == {(1, 1), (2, 2)}
    delta3 = pattern_library("delta3")
    assert delta3.support() == {(1, 3), (2, 2), (3, 1)}
    assert FD.shape == DENT
    assert FD.support() == {(1, 1), (2, 3), (3, 2)}
    ds = pattern_library("ds")
    assert ds.shape == DENT and ds.support() == set()
    with pytest.raises(ValueError):
        pattern_library("iota0")
    with pytest.raises(ValueError):
        pattern_library("sigma2")


def test_filling_kind():
    square = normalize([(1, 1), (2, 1), (1, 2), (2, 2)])
    t = Filling.from_support(square, frozenset({(1, 1), (2, 2)}))
    assert filling_kind(t) == FillingKind(binary=True, sparse=True, transversal=True)
    row = Filling.from_support(square, frozenset({(1, 1), (2, 1)}))
    k = filling_kind(row)
    assert k.binary and not k.sparse and not k.transversal
    two = fill_with(square, {(1, 1): 2})
    k2 = filling_kind(two)
    assert not k2.binary


def test_sum_vector():
    f = fill_with(DENT, {(1, 1): 1, (2, 2): 2, (3, 3): 1})
    assert sum_vector(f) == SumVector(row_sums=(1, 2, 1), col_sums=(1, 2, 1))


def test_parse_render_round_trip():
    text = ".12\n030\n10.\n"
    f = parse_filling(text)
    assert render_filling(f) == text.strip()
    assert f.value((2, 3)) == 1 and f.value((3, 3)) == 2 and f.value((2, 2)) == 3


def test_render_filling_rejects_wide_values():
    with pytest.raises(ValueError):
        render_filling(fill_with(DENT, {(1, 1): 12}))


def test_render_filling_dent_transversal():
    f = Filling.from_support(DENT, frozenset({(1, 1), (2, 2), (3, 3)}))
    assert render_filling(f) == ".01\n010\n10."


@pytest.mark.parametrize("text", ["0\u0663\n00", "0\u00b2\n00", "0\uff11\n00"])
def test_parse_filling_takes_ascii_digits_only(text):
    # an Arabic-Indic three, a superscript two, a fullwidth one
    with pytest.raises(ParseError, match="bad token"):
        parse_filling(text)


@pytest.mark.parametrize("text", ["0,\u0663\n0,0", "0,1\u00b2\n0,0", "\u0661\u0660,0\n0,0"])
def test_parse_numeric_filling_takes_ascii_digits_only(text):
    with pytest.raises(ParseError, match="bad token"):
        parse_numeric_filling(text)


@pytest.mark.parametrize("token", ["iota\u0662", "delta\u00b2", "iota1\u0660"])
def test_pattern_tokens_take_ascii_digits_only(token):
    with pytest.raises(ParseError, match="unknown pattern token"):
        pattern_library(token)


def test_numeric_filling_round_trip():
    f = fill_with(DENT, {(1, 1): 12, (3, 2): 3})
    text = render_numeric_filling(f)
    assert parse_numeric_filling(text) == f


@given(integer_fillings(max_entry=12))
def test_numeric_round_trip_random(f):
    assert parse_numeric_filling(render_numeric_filling(f)) == f


@given(binary_fillings())
def test_binary_round_trip_random(f):
    assert parse_filling(render_filling(f)) == f


@given(binary_fillings(skew_shapes(max_rows=3, max_width=3)))
@settings(max_examples=60)
def test_chain_lengths_match_brute_force(f):
    assert longest_chain(f, NE) == brute_chain(f, "NE")
    assert longest_chain(f, SE) == brute_chain(f, "SE")


@given(integer_fillings(skew_shapes(max_rows=3, max_width=3), max_entry=2))
@settings(max_examples=40)
def test_chains_use_support_only(f):
    g = Filling.from_support(f.shape, frozenset(f.support()))
    assert longest_chain(f, NE) == longest_chain(g, NE)
    assert longest_chain(f, SE) == longest_chain(g, SE)


@given(skew_shapes(max_rows=3, max_width=3).filter(lambda s: s.size <= 7))
@settings(max_examples=30, deadline=None)
def test_chain_tables_match_reference(s):
    # the subset-DP kernel against longest_chain and the subset-scan oracle,
    # for every support mask: whole shape, then each maximal rectangle
    fillings = list(all_binary_fillings(s))
    for d in (NE, SE):
        table = support_chain_table(s, d)
        for m, f in enumerate(fillings):
            assert table[m] == longest_chain(f, d) == brute_chain(f, d)
        for r in skew_rectangles(s):
            table = support_chain_table(s, d, r)
            assert [int(v) for v in table] == [longest_chain(f, d, region=r) for f in fillings]


def test_chain_tables_in_moon_rectangles():
    for n in range(1, 7):
        for m in enum_moon_polyominoes(n):
            if not is_skew(m):  # whole-shape tables are for skew shapes only
                with pytest.raises(ValueError):
                    support_chain_table(m, NE)
            fillings = list(all_binary_fillings(m))
            for r in maximal_rectangles(m):
                for d in (NE, SE):
                    table = support_chain_table(m, d, r)
                    assert [int(v) for v in table] == [
                        longest_chain(f, d, region=r) for f in fillings
                    ]


def test_chain_region_restriction():
    f = Filling.from_support(DENT, frozenset({(1, 1), (2, 2), (3, 3)}))
    assert longest_chain(f, NE) == 2  # (1,1)-(2,2) and (2,2)-(3,3), never all three
    assert longest_chain(f, NE, region=Rect(1, 2, 1, 2)) == 2
    assert longest_chain(f, NE, region=Rect(2, 3, 2, 3)) == 2
    assert longest_chain(f, NE, region=Rect(1, 3, 2, 2)) == 1
    assert longest_chain(f, SE) == 1


def test_two_short_chains_do_not_merge():
    # the diagonal of the dent shape has NE-chains of length 2 on both
    # maximal squares, but no chain of length 3: column 1 and row 3 never
    # meet inside the shape, so the 3x3 selection is not a square occurrence
    f = Filling.from_support(DENT, frozenset({(1, 1), (2, 2), (3, 3)}))
    assert not avoids(f, "iota2")
    assert avoids(f, "iota3")


def test_avoids_iff_chain_short():
    for f in all_binary_fillings(DENT):
        for k in (1, 2, 3):
            assert avoids(f, f"iota{k}") == (longest_chain(f, NE) < k)
            assert avoids(f, f"delta{k}") == (longest_chain(f, SE) < k)


def test_avoids_multiple_patterns():
    f = Filling.from_support(DENT, frozenset({(1, 2), (2, 1)}))
    assert avoids(f, ("iota2", "fd"))
    assert not avoids(f, ("delta2", "fd"))


def test_fd_occurrence_containment():
    host = Filling.from_support(DENT, frozenset({(1, 1), (2, 3), (3, 2)}))
    occs = find_filling_occurrences(host, "fd")
    assert [(o.cols, o.rows) for o in occs] == [((1, 2, 3), (1, 2, 3))]
    # the all-ones filling dominates fd cellwise
    ones = Filling.from_support(DENT, frozenset(DENT.cells))
    assert not avoids(ones, "fd")
    # flipping any fd 1-cell off kills the only occurrence
    for cell in ((1, 1), (2, 3), (3, 2)):
        sup = {(1, 1), (2, 3), (3, 2)} - {cell}
        assert avoids(Filling.from_support(DENT, frozenset(sup)), "fd")


def test_fd_requires_exact_shape_occurrence():
    # a 3x3 square contains no copy of the dent shape, hence no fd
    square = normalize([(x, y) for x in (1, 2, 3) for y in (1, 2, 3)])
    ones = Filling.from_support(square, frozenset(square.cells))
    assert avoids(ones, "fd")
    assert find_filling_occurrences(ones, FD) == []


@given(binary_fillings(skew_shapes(max_rows=3, max_width=3)))
@settings(max_examples=60)
def test_mirror_swaps_chain_directions(f):
    m = mirror_filling_lr(f)
    assert longest_chain(f, NE) == longest_chain(m, SE)
    assert longest_chain(f, SE) == longest_chain(m, NE)


@given(binary_fillings(skew_shapes(max_rows=3, max_width=3)))
@settings(max_examples=60)
def test_rotate_180_preserves_chains(f):
    r = rotate_filling_180(f)
    assert longest_chain(f, NE) == longest_chain(r, NE)
    assert longest_chain(f, SE) == longest_chain(r, SE)
    assert rotate_filling_180(r) == f


def test_values_must_be_nonnegative():
    with pytest.raises(ValueError):
        fill_with(DENT, {(1, 1): -1})
    with pytest.raises(ValueError):
        Filling.from_map(DENT, {(9, 9): 1})


def test_parse_filling_shape_mismatch():
    f = parse_filling(".1\n1.")
    assert f.shape == normalize([(2, 2), (1, 1)])
    assert f.support() == {(1, 1), (2, 2)}
