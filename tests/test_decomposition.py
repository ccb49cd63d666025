import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import (
    all_subshapes_of_box,
    rectangle_ds_free,
    reference_decompose,
    reference_sum_permutations,
    reference_validate_decomposition,
    skew_shapes,
)
from skewfill import structure
from skewfill.enumeration import enum_skew_shapes
from skewfill.shapes import Shape, dent_shape, is_connected, is_skew, normalize
from skewfill.structure import (
    Decomposition,
    DecompositionError,
    SumPermutations,
    ferrers_decompose,
    is_ds_free,
    render_decomposition,
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


def test_rectangle_criterion_matches_its_definition_on_the_catalog():
    for n in range(1, 9):
        for s in enum_skew_shapes(n):
            assert is_ds_free(s, method="rectangle") == rectangle_ds_free(s), s


@pytest.fixture(scope="module")
def box_skew_shapes():
    """Every skew shape inside the 4x4 box, those with empty rows too."""
    shapes = [s for s in all_subshapes_of_box(4, 4) if is_skew(s)]
    assert any(len({y for _, y in s.cells}) < s.height for s in shapes)
    return shapes


def test_rectangle_criterion_matches_its_definition_on_box_subshapes(box_skew_shapes):
    for s in box_skew_shapes:
        assert is_ds_free(s, "pattern") == is_ds_free(s, "rectangle") == rectangle_ds_free(s), s


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
    for s in normalize([(1, 1), (3, 3)]), Shape(frozenset()):
        with pytest.raises(ValueError, match="a nonempty connected shape"):
            ferrers_decompose(s)


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
    # cuts that would fit F_1, G_1, F_2 read as a last pair with G_2 empty
    assert not validate_decomposition(STAIRCASE, Decomposition(d.blocks[:3], (1, 3), ()))


def with_cuts(*blocks) -> Decomposition:
    """The blocks with the cut lists read off them: each F's last column and
    each G's top row but the last, 0 for an empty block."""
    blocks = tuple(frozenset(b) for b in blocks)
    return Decomposition(blocks, tuple(max((x for x, _ in f), default=0) for f in blocks[0::2]),
                         tuple(max((y for _, y in g), default=0) for g in blocks[1:-1:2]))


TWO_COMPONENTS = shape_from_intervals([(1, 2), (2, 2), (3, 4)])

REFUSALS = {
    "empty F": (STAIRCASE, [(1, 1)], [(2, 1)], [], [(2, 2), (3, 2)]),
    "empty middle G": (STAIRCASE, [(1, 1)], [], [(2, 1), (2, 2), (3, 2)], []),
    "overlapping blocks": (STAIRCASE, [(1, 1)], [(1, 1), (2, 1)], [(2, 2), (3, 2)], []),
    "seam column off by one": (STAIRCASE, [(1, 1), (2, 1)], [(2, 2), (3, 2)]),
    "G not SE Ferrers": (THREE_STAGE, [(1, 1)], [(2, 1), (2, 2), (3, 2), (4, 2)],
                         [(3, 3), (4, 3), (5, 3)], []),
    "row with a gap": (THREE_STAGE, [(1, 1)], [(2, 1)], [(2, 2)], [(3, 2), (4, 2)],
                       [(3, 3), (5, 3)], [(4, 3)]),
    "seam row above G off by one": (THREE_STAGE, [(1, 1)], [(2, 1), (2, 2)],
                                    [(3, 2), (4, 2), (3, 3), (4, 3), (5, 3)], []),
    "F not NW Ferrers": (TWO_COMPONENTS, [(1, 1), (2, 1), (2, 2)], [(3, 3), (4, 3)]),
    "row ends do not rise": (TWO_COMPONENTS, [(1, 1)], [(2, 1)], [(2, 2)], [(3, 3), (4, 3)]),
    "column tops do not rise": (shape_from_intervals([(1, 1), (1, 2), (3, 3)]),
                                [(1, 1), (1, 2)], [(2, 2)], [(3, 3)], []),
    "G past the next vertical cut": (shape_from_intervals([(1, 3), (2, 4), (4, 4)]),
                                     [(1, 1)], [(2, 1), (3, 1)], [(2, 2)],
                                     [(3, 2), (4, 2), (4, 3)]),
    "F above its horizontal cut": (shape_from_intervals([(1, 2), (1, 3), (2, 3)]),
                                   [(1, 1), (1, 2)], [(2, 1)],
                                   [(2, 2), (3, 2), (2, 3), (3, 3)], []),
    # the last three break no other condition only off skew shapes: on a
    # skew host that the blocks cover, breaking one of them breaks another
    "rows skip": (normalize([(1, 1), (1, 3)]), [(1, 1), (1, 3)], []),
    "seam row below the column bottom": (normalize([(1, 2), (2, 1)]), [(1, 2)], [(2, 1)]),
    "seam column left of G's top row": (normalize([(1, 1), (2, 3), (3, 2), (3, 3), (4, 3)]),
                                        [(1, 1)], [(3, 2)], [(2, 3), (3, 3), (4, 3)], []),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_validate_refuses_each_broken_condition(name):
    """Each entry breaks the named condition.  Past the empty-block checks
    it breaks no other, except where the named one forces it: an overlap
    breaks a seam, and a row with a gap its block's shape."""
    s, *blocks = REFUSALS[name]
    d = with_cuts(*blocks)
    assert not validate_decomposition(s, d)
    assert not reference_validate_decomposition(s, d)


def row_partition(s: Shape) -> Decomposition:
    """Each row a block, bottom row first, with an empty last G if needed."""
    rows = [[c for c in s.cells if c[1] == y] for y in sorted({y for _, y in s.cells})]
    return with_cuts(*rows, *[[]] * (len(rows) % 2))


def mutations(s: Shape, d: Decomposition, rng: random.Random):
    """(family, decomposition) pairs around d on s.  A cell moves or is
    copied only between neighbouring blocks."""
    yield "base", d
    blocks = [set(b) for b in d.blocks]
    for i, j in itertools.combinations(range(len(blocks)), 2):
        b = blocks[:]
        b[i], b[j] = b[j], b[i]
        yield "swap", with_cuts(*b)
    neighbours = [(i, i + 1) for i in range(len(blocks) - 1)]
    for i, j in neighbours + [(j, i) for i, j in neighbours]:
        for c in blocks[i]:
            b = blocks[:]
            b[i], b[j] = b[i] - {c}, b[j] | {c}
            yield "move", with_cuts(*b)
            yield "move, cuts kept", Decomposition(with_cuts(*b).blocks, d.vertical_cuts,
                                                   d.horizontal_cuts)
            b[i] = blocks[i]
            yield "copy", with_cuts(*b)
    for which in ("vertical_cuts", "horizontal_cuts"):
        cuts = getattr(d, which)
        for k, step in itertools.product(range(len(cuts)), (-1, 1)):
            moved = cuts[:k] + (cuts[k] + step,) + cuts[k + 1:]
            yield "cut", dataclasses.replace(d, **{which: moved})
    yield "last pair dropped", with_cuts(*blocks[:-2])
    yield "empty pair appended", with_cuts(*blocks, [], [])
    for i in range(len(blocks) - 2):
        yield "merge", with_cuts(*blocks[:i], set().union(*blocks[i:i + 3]), *blocks[i + 3:])
    yield "merge", with_cuts(*blocks[:-2], blocks[-2] | blocks[-1], [])
    for _ in range(4):
        b = [set() for _ in range(2 * rng.randint(1, s.size))]
        for c in sorted(s.cells):
            b[rng.randrange(len(b))].add(c)
        yield "repartition", with_cuts(*b)


def validator_cases(shapes, seed=0):
    """(shape, family, decomposition) around each shape's decomposition, or
    its row partition when it has none."""
    rng = random.Random(seed)
    for s in shapes:
        try:
            d = ferrers_decompose(s)
        except ValueError:
            d = row_partition(s)
        for family, m in mutations(s, d, rng):
            yield s, family, m


def catalog(max_cells):
    return (s for n in range(1, max_cells + 1) for s in enum_skew_shapes(n))


# Swaps, copies, shifted cuts and added or dropped pairs are refused by
# construction: the seams order the blocks, a copied cell fails the seam
# after its first block, the cuts must be read off the blocks, and the
# blocks must cover the shape with a nonempty F in every pair.
ALWAYS_REFUSED = {"swap", "copy", "cut", "last pair dropped", "empty pair appended"}


def test_validator_matches_the_cell_based_reference():
    """Every skew shape of at most 8 cells, connected or not, dented or not,
    then every other shape in a 3 x 3 box."""
    off_skew = (s for s in sorted(all_subshapes_of_box(3, 3)) if not is_skew(s))
    verdicts = {}
    for s, family, d in validator_cases(itertools.chain(catalog(8), off_skew)):
        got = validate_decomposition(s, d)
        assert got == reference_validate_decomposition(s, d), (s, family, d)
        verdicts.setdefault(family, set()).add(got)
    assert verdicts == {family: {False} if family in ALWAYS_REFUSED else {False, True}
                        for family in verdicts}
    assert len(verdicts) == 10


def test_validator_reads_no_span_of_the_host(monkeypatch):
    """The validator checks the splitter by a second method, so it must not
    read the splitter or the host's row spans."""
    cases = list(validator_cases(catalog(6)))
    expected = [validate_decomposition(s, d) for s, _, d in cases]

    def refuse(*args):
        raise AssertionError("validate_decomposition read the host's spans")

    monkeypatch.setattr(structure, "_split_blocks", refuse)
    monkeypatch.setattr(structure, "_row_spans", refuse)
    monkeypatch.setattr(Shape, "_lines", refuse)
    assert [validate_decomposition(s, d) for s, _, d in cases] == expected
    assert True in expected and False in expected


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


def outcome(fn, s):
    """What fn returns on s, or the class of the ValueError it raises."""
    try:
        return fn(s)
    except ValueError as exc:
        return type(exc)


def test_span_splitter_matches_the_cell_set_procedure_on_the_catalog():
    """The refined part of cor_sskew also passes with identity
    permutations, so no verify run would catch a wrong rho or sigma."""
    for n in range(1, 9):
        for s in enum_skew_shapes(n):
            assert outcome(sum_permutations, s) == outcome(reference_sum_permutations, s), s
            assert outcome(ferrers_decompose, s) == outcome(reference_decompose, s), s


def test_span_splitter_matches_the_cell_set_procedure_on_box_subshapes(box_skew_shapes):
    for s in box_skew_shapes:
        assert outcome(sum_permutations, s) == outcome(reference_sum_permutations, s), s
        assert outcome(ferrers_decompose, s) == outcome(reference_decompose, s), s
