import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_subshapes_of_box,
    contains_rect,
    ferrers_difference_shapes,
    mirror_lr,
    rotate_180,
    skew_shapes,
    subshape,
)
from skewfill.enumeration import enum_moon_polyominoes
from skewfill.fillings import skew_rectangles
from skewfill.shapes import (
    Occurrence,
    ParseError,
    Rect,
    Shape,
    classify_shape,
    component_cell_sets,
    dent_shape,
    find_shape_occurrences,
    is_connected,
    is_convex,
    is_intersection_free,
    is_moon,
    is_nw_ferrers,
    is_se_ferrers,
    is_skew,
    maximal_rectangles,
    normalize,
    parse_shape,
    render_shape,
)

DENT = dent_shape()


def test_dent_shape_cells():
    assert set(DENT.cells) == {(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)}
    assert DENT.size == 7
    assert DENT.width == 3 and DENT.height == 3


def test_parse_lists_top_row_first():
    s = parse_shape("##\n#.\n")
    # top line is row 2: cells (1,2),(2,2); bottom line gives (1,1)
    assert set(s.cells) == {(1, 2), (2, 2), (1, 1)}


def test_parse_rejects_empty_grid():
    with pytest.raises(ParseError):
        parse_shape("...\n...")
    with pytest.raises(ParseError):
        parse_shape("")


def test_render_parse_round_trip_on_dent():
    assert parse_shape(render_shape(DENT)) == DENT
    assert render_shape(DENT) == ".##\n###\n##."


def test_normalize_translates_to_origin():
    s = normalize([(5, 7), (6, 7)])
    assert set(s.cells) == {(1, 1), (2, 1)}


@given(skew_shapes())
def test_normalize_idempotent(s):
    assert normalize(s.cells) == s


@given(skew_shapes())
def test_render_parse_round_trip(s):
    assert parse_shape(render_shape(s)) == s


def test_is_skew_matches_ferrers_difference_oracle():
    # ground truth: a shape is skew exactly when it arises as a difference
    # of two corner-anchored NW Ferrers shapes
    box = all_subshapes_of_box(3, 3)
    expected = ferrers_difference_shapes(3, 3)
    got = {s for s in box if is_skew(s)}
    assert got == expected


def test_is_skew_small_cases():
    assert is_skew(normalize([(1, 1)]))
    assert is_skew(DENT)
    # anti-diagonal pair: rows shift leftwards going up
    assert not is_skew(normalize([(2, 1), (1, 2)]))
    # gap in a column
    assert not is_skew(normalize([(1, 1), (1, 3)]))
    # row with a hole
    assert not is_skew(normalize([(1, 1), (3, 1)]))


def test_ferrers_predicates():
    stair = normalize([(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
    assert is_nw_ferrers(stair)
    assert not is_se_ferrers(stair)
    assert is_se_ferrers(rotate_180(stair))
    assert is_nw_ferrers(normalize([(1, 1), (2, 1), (1, 2), (2, 2)]))
    assert not is_nw_ferrers(DENT)


def test_classify_dent():
    props = classify_shape(DENT)
    assert props.skew
    assert props.connected
    assert props.convex
    assert not props.intersection_free
    assert not props.moon
    assert props.ds_free is False


def test_classify_square():
    props = classify_shape(normalize([(1, 1), (2, 1), (1, 2), (2, 2)]))
    assert props.moon and props.convex and props.intersection_free
    assert props.nw_ferrers and props.se_ferrers
    assert props.skew and props.ds_free is True


def test_connectivity():
    assert is_connected(DENT)
    two = normalize([(1, 1), (3, 3)])
    assert not is_connected(two)
    sets = component_cell_sets(two)
    assert {frozenset(c) for c in sets} == {frozenset({(1, 1)}), frozenset({(3, 3)})}


@given(skew_shapes())
def test_components_partition_cells(s):
    parts = component_cell_sets(s)
    union = set().union(*parts) if parts else set()
    assert union == set(s.cells)
    assert sum(len(p) for p in parts) == s.size


def test_moon_and_convexity():
    assert is_moon(normalize([(1, 1), (2, 1), (1, 2), (2, 2)]))
    plus = normalize([(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
    assert is_convex(plus) and is_intersection_free(plus)
    assert is_moon(plus)
    hook = normalize([(1, 1), (2, 1), (2, 2), (3, 2)])
    assert is_convex(hook)
    assert not is_intersection_free(hook)
    assert not is_moon(hook)
    bent = normalize([(1, 1), (1, 3)])
    assert not is_convex(bent)


def test_occurrences_iff_semantics():
    # inside the dent shape, column 1 and row 3 do not meet, so the four
    # corner-ish cells below do NOT induce a square subgrid
    occs = find_shape_occurrences(DENT, normalize([(1, 1), (2, 1), (1, 2), (2, 2)]))
    assert all(
        subshape(DENT, occ.cols, occ.rows)
        == normalize([(1, 1), (2, 1), (1, 2), (2, 2)])
        for occ in occs
    )
    squares = {(tuple(o.cols), tuple(o.rows)) for o in occs}
    assert ((1, 2), (1, 2)) in squares
    assert ((2, 3), (2, 3)) in squares
    assert ((1, 3), (1, 3)) not in squares


def test_dent_occurrence_in_itself():
    occs = find_shape_occurrences(DENT, DENT)
    assert len(occs) == 1
    assert occs[0] == Occurrence(cols=(1, 2, 3), rows=(1, 2, 3))


def test_no_dent_in_small_shapes():
    for s in all_subshapes_of_box(3, 2):
        assert find_shape_occurrences(s, DENT) == []


def test_maximal_rectangles_of_moon_shapes():
    square = normalize([(1, 1), (2, 1), (1, 2), (2, 2)])
    assert maximal_rectangles(square) == [Rect(1, 2, 1, 2)]
    plus = normalize([(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
    assert set(maximal_rectangles(plus)) == {Rect(1, 3, 2, 2), Rect(2, 2, 1, 3)}
    with pytest.raises(ValueError):
        maximal_rectangles(DENT)


MOON_RECTANGLES = [
    (m, maximal_rectangles(m)) for n in range(1, 7) for m in enum_moon_polyominoes(n)
]


@given(skew_shapes())
def test_skew_rectangles_are_maximal(s):
    # the drawn skew shape, then every moon polyomino of at most 6 cells
    for host, rects in [(s, skew_rectangles(s))] + MOON_RECTANGLES:
        for r in rects:
            assert contains_rect(host, r)
            grown = [
                Rect(r.col_lo - 1, r.col_hi, r.row_lo, r.row_hi),
                Rect(r.col_lo, r.col_hi + 1, r.row_lo, r.row_hi),
                Rect(r.col_lo, r.col_hi, r.row_lo - 1, r.row_hi),
                Rect(r.col_lo, r.col_hi, r.row_lo, r.row_hi + 1),
            ]
            assert not any(
                g.col_lo >= 1 and g.row_lo >= 1 and contains_rect(host, g) for g in grown
            )
        # every cell belongs to some maximal rectangle
        for cell in host.cells:
            assert any(
                r.col_lo <= cell[0] <= r.col_hi and r.row_lo <= cell[1] <= r.row_hi
                for r in rects
            )


def test_skew_rectangles_of_dent():
    rects = set(skew_rectangles(DENT))
    assert rects == {Rect(1, 2, 1, 2), Rect(2, 3, 2, 3), Rect(1, 3, 2, 2), Rect(2, 2, 1, 3)}


@given(skew_shapes())
def test_rotate_180_preserves_skew(s):
    assert is_skew(rotate_180(s))


def test_mirror_turns_nw_into_ne():
    stair = normalize([(1, 1), (1, 2), (2, 2)])
    assert is_nw_ferrers(stair)
    assert not is_nw_ferrers(mirror_lr(stair))
    assert is_moon(mirror_lr(stair))


def test_shape_ordering_is_deterministic():
    a = normalize([(1, 1)])
    b = normalize([(1, 1), (2, 1)])
    assert a < b
    assert sorted([b, a]) == [a, b]
