"""The checker commutes with the symmetries of the catalog.

The transpose (x, y) -> (y, x) and the half-turn (x, y) -> (w + 1 - x,
h + 1 - y) map skew shapes to skew shapes, NE chains to NE chains, SE
chains to SE chains and the dented shape to itself.  So a shape and its
two images must get the same chain-table counts, dent-freeness, Ferrers
decomposability, transversal counts and stage sizes.  No reference runs
in the loop: each shape is compared with its own images, which ties
together code paths (the rectangles of different row lists, both dent
criteria, the transversal kernel, the stage bounds) that no oracle
reaches above small budgets.

fd is transpose-symmetric but not half-turn-symmetric; thm_bp's counts
still agree on the half-turn, since the theorem holds on both shapes.
sum_permutations is not equivariant, so it is not compared.
"""

from skewfill import harness, shapes, structure
from skewfill._engine import ShapeContext, support_chain_table
from skewfill.enumeration import _admits_transversal, enum_skew_shapes
from skewfill.fillings import NE, SE
from skewfill.harness import _bp_counts, _tr_counts
from skewfill.shapes import Shape, _row_spans
from skewfill.structure import DecompositionError, ferrers_decompose, is_ds_free

SYMMETRY_CELLS = 9
CONNECTED = [s for n in range(1, SYMMETRY_CELLS + 1) for s in enum_skew_shapes(n, connected=True)]


def transpose(s: Shape) -> Shape:
    return Shape(frozenset((y, x) for x, y in s.cells))


def half_turn(s: Shape) -> Shape:
    return Shape(frozenset((s.width + 1 - x, s.height + 1 - y) for x, y in s.cells))


def decomposes(s: Shape) -> bool:
    try:
        ferrers_decompose(s)
    except DecompositionError:
        return False
    return True


def invariants(s: Shape) -> list:
    """What the checker says about s that each symmetry must keep."""
    rows = list(_row_spans(s).values())
    ctx = ShapeContext(s)
    facts = [[int((support_chain_table(s, d) < k).sum()) for k in (2, 3, 4)] for d in (SE, NE)]
    facts += [is_ds_free(s, "pattern"), is_ds_free(s, "rectangle"), decomposes(s),
              ctx.stage_members(1).size, ctx.stage_members(ctx.n).size]
    if _admits_transversal(rows):
        facts += [_tr_counts(rows, (2, 3)), _bp_counts(rows)]
    return facts


def asymmetric() -> list[Shape]:
    """The connected shapes that an image disagrees with."""
    found = []
    for s in CONNECTED:
        own = invariants(s)
        if any(invariants(image) != own for image in (transpose(s), half_turn(s))):
            found.append(s)
    return found


def test_the_images_are_catalog_shapes():
    # each image is a connected skew shape of the same size: the loop
    # below compares like with like
    catalog = set(CONNECTED)
    assert len(catalog) == 986
    assert all({transpose(s), half_turn(s)} <= catalog for s in CONNECTED)


def test_every_shape_agrees_with_its_transpose_and_half_turn():
    assert asymmetric() == []


def test_a_dropped_rectangle_breaks_the_symmetry(monkeypatch):
    # the last maximal rectangle of a row list is a different one on each
    # image, so the NE chains it held are lost on a shape but not on all
    # of its images
    rectangles = shapes._interval_rectangles
    for module in (shapes, harness):
        monkeypatch.setattr(module, "_interval_rectangles", lambda rows: rectangles(rows)[:-1])
    assert asymmetric()


def test_a_rectangle_criterion_blind_to_the_top_row_breaks_the_symmetry(monkeypatch):
    # a dent that uses the top row goes unseen on a shape and
    # seen on its half-turn, which puts that row at the bottom
    criterion = structure._rectangle_ds_free
    monkeypatch.setattr(structure, "_rectangle_ds_free", lambda spans: criterion(spans[:-1]))
    assert asymmetric()
