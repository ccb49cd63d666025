import pytest
from hypothesis import given, settings

from conftest import skew_shapes
from skewfill.enumeration import enum_skew_shapes
from skewfill.shapes import dent_shape, is_connected, normalize
from skewfill.structure import (
    Decomposition,
    DecompositionError,
    SpecialBlocks,
    SumPermutations,
    ferrers_decompose,
    is_ds_free,
    render_decomposition,
    special_blocks,
    sum_permutations,
    validate_decomposition,
)


def shape_from_intervals(intervals):
    cells = []
    for y, (a, b) in enumerate(intervals, start=1):
        cells.extend((x, y) for x in range(a, b + 1))
    return normalize(cells)


STAIRCASE = shape_from_intervals([(1, 2), (2, 3)])
THREE_STAGE = shape_from_intervals([(1, 2), (2, 4), (3, 5)])


def test_is_ds_free_basic():
    assert not is_ds_free(dent_shape())
    assert is_ds_free(STAIRCASE)
    assert is_ds_free(shape_from_intervals([(1, 3), (1, 3), (1, 3)]))


def test_is_ds_free_methods_agree_small():
    for n in range(1, 8):
        for s in enum_skew_shapes(n):
            assert is_ds_free(s, method="pattern") == is_ds_free(s, method="rectangle")


def test_is_ds_free_rejects_unknown_method():
    with pytest.raises(ValueError):
        is_ds_free(STAIRCASE, method="corner")


def test_is_ds_free_requires_skew():
    with pytest.raises(ValueError):
        is_ds_free(normalize([(1, 1), (1, 3)]))


def test_decompose_staircase():
    d = ferrers_decompose(STAIRCASE)
    assert d.blocks == (
        frozenset({(1, 1)}),
        frozenset({(2, 1)}),
        frozenset({(2, 2), (3, 2)}),
        frozenset(),
    )
    assert d.vertical_cuts == (1, 3)
    assert d.horizontal_cuts == (1,)
    assert d.n == 2
    assert validate_decomposition(STAIRCASE, d)


def test_decompose_three_stage():
    d = ferrers_decompose(THREE_STAGE)
    assert d.blocks == (
        frozenset({(1, 1)}),
        frozenset({(2, 1)}),
        frozenset({(2, 2)}),
        frozenset({(3, 2), (4, 2)}),
        frozenset({(3, 3), (4, 3), (5, 3)}),
        frozenset(),
    )
    assert d.vertical_cuts == (1, 2, 5)
    assert d.horizontal_cuts == (1, 2)


def test_decompose_single_ferrers():
    s = shape_from_intervals([(1, 2), (1, 3)])
    d = ferrers_decompose(s)
    assert d.blocks == (frozenset(s.cells), frozenset())
    assert d.vertical_cuts == (3,)
    assert d.horizontal_cuts == ()


def test_render_decomposition():
    d = ferrers_decompose(STAIRCASE)
    assert render_decomposition(d) == (
        ".  F2 F2\nF1 G1 .\nvertical cuts: 1, 3\nhorizontal cuts: 1"
    )


def test_decompose_rejects_dent():
    with pytest.raises(DecompositionError):
        ferrers_decompose(dent_shape())


def test_decompose_rejects_disconnected():
    with pytest.raises(ValueError):
        ferrers_decompose(normalize([(1, 1), (3, 3)]))


def test_decompose_rejects_non_skew():
    with pytest.raises(ValueError):
        ferrers_decompose(normalize([(1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (3, 1)]))


def test_decompose_detects_exactly_the_dent_free_shapes():
    for n in range(1, 8):
        for s in enum_skew_shapes(n, connected=True):
            try:
                d = ferrers_decompose(s)
            except DecompositionError:
                assert not is_ds_free(s)
            else:
                assert is_ds_free(s)
                assert validate_decomposition(s, d)


def test_validate_rejects_wrong_cuts():
    d = ferrers_decompose(STAIRCASE)
    bad = Decomposition(d.blocks, (2, 3), d.horizontal_cuts)
    assert not validate_decomposition(STAIRCASE, bad)


def test_validate_rejects_swapped_blocks():
    d = ferrers_decompose(STAIRCASE)
    bad = Decomposition(
        (d.blocks[1], d.blocks[0], d.blocks[2], d.blocks[3]),
        d.vertical_cuts,
        d.horizontal_cuts,
    )
    assert not validate_decomposition(STAIRCASE, bad)


def test_validate_rejects_incomplete_cover():
    d = ferrers_decompose(STAIRCASE)
    bad = Decomposition(d.blocks[:2], d.vertical_cuts[:1], ())
    assert not validate_decomposition(STAIRCASE, bad)


def test_validate_rejects_odd_block_count():
    d = ferrers_decompose(STAIRCASE)
    assert not validate_decomposition(STAIRCASE, Decomposition(d.blocks[:3], (1, 3), (1,)))


def test_special_blocks_staircase():
    assert special_blocks(STAIRCASE) == SpecialBlocks(
        row_blocks=((1,),), col_blocks=((2,),)
    )


def test_special_blocks_three_stage():
    assert special_blocks(THREE_STAGE) == SpecialBlocks(
        row_blocks=((1,), (2,)), col_blocks=((2,), (3, 4))
    )


def test_sum_permutations_ferrers_identity():
    s = shape_from_intervals([(1, 1), (1, 2), (1, 3)])
    assert sum_permutations(s) == SumPermutations(rho=(1, 2, 3), sigma=(1, 2, 3))


def test_sum_permutations_two_columns():
    # two full rows sharing both columns with the row above the cut
    s = shape_from_intervals([(1, 2), (1, 2), (2, 2)])
    assert sum_permutations(s).rho == (2, 1, 3)
    s = shape_from_intervals([(1, 2), (1, 2), (1, 2), (2, 2)])
    assert sum_permutations(s).rho == (3, 2, 1, 4)


def test_sum_permutations_three_stage():
    assert sum_permutations(THREE_STAGE) == SumPermutations(
        rho=(1, 2, 3), sigma=(1, 2, 4, 3, 5)
    )


def test_sum_permutations_disconnected_components():
    s = normalize([(1, 1), (3, 3)])
    assert sum_permutations(s) == SumPermutations(rho=(1, 2, 3), sigma=(1, 2, 3))


def blockwise_reversal_is_involution(perm):
    return all(perm[perm[i] - 1] == i + 1 for i in range(len(perm)))


def test_sum_permutations_are_involutions():
    for n in range(1, 8):
        for s in enum_skew_shapes(n, ds_free=True):
            p = sum_permutations(s)
            assert blockwise_reversal_is_involution(p.rho)
            assert blockwise_reversal_is_involution(p.sigma)
            assert sorted(p.rho) == list(range(1, s.height + 1))
            assert sorted(p.sigma) == list(range(1, s.width + 1))


@given(skew_shapes())
@settings(max_examples=60)
def test_decompose_round_trip_random(s):
    if not is_connected(s) or not is_ds_free(s):
        return
    d = ferrers_decompose(s)
    assert validate_decomposition(s, d)
    assert set().union(*d.blocks) == set(s.cells)
