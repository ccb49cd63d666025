import pytest
from hypothesis import given, settings

from conftest import skew_shapes
from skewfill._engine import ShapeContext
from skewfill.bijection import (
    cell_labels,
    classify_lower,
    classify_upper,
    full_backward,
    full_forward,
    in_G,
    label_index,
    render_trace,
    step_anatomy,
    step_backward,
    step_forward,
)
from skewfill.enumeration import enum_skew_shapes
from skewfill.fillings import NE, SE, Filling, avoids, longest_chain, parse_filling, sum_vector
from skewfill.shapes import dent_shape

DENT = dent_shape()
LABELS = cell_labels(DENT)


def all_binary(s):
    cells = cell_labels(s)
    for bits in range(1 << len(cells)):
        yield Filling.from_support(
            s, frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
        )


def support_of_labels(s, indices):
    cells = cell_labels(s)
    return Filling.from_support(s, frozenset(cells[i - 1] for i in indices))


def test_cell_labels_dent():
    assert LABELS == ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3))
    for k, c in enumerate(LABELS, start=1):
        assert label_index(DENT, c) == k
    with pytest.raises(ValueError):
        label_index(DENT, (3, 1))


def test_stage_sets_all_size_72():
    for i in range(1, 8):
        assert sum(1 for f in all_binary(DENT) if in_G(DENT, f, i)) == 72


def test_stage_endpoints_are_avoider_sets():
    # the first stage is the SE-avoiders; the last stage avoids both the
    # NE pair and the three-cell obstruction filling, which matters on a
    # dented host: 80 fillings avoid the NE pair but only 72 avoid both
    ne_count = 0
    for f in all_binary(DENT):
        assert in_G(DENT, f, 1) == (longest_chain(f, SE) < 2)
        ne_short = longest_chain(f, NE) < 2
        ne_count += ne_short
        assert in_G(DENT, f, 7) == (ne_short and avoids(f, "fd"))
    assert ne_count == 80


def test_stage_endpoints_coincide_on_dent_free_shapes():
    for s in enum_skew_shapes(5, ds_free=True):
        n = len(s.cells)
        for f in all_binary(s):
            assert in_G(s, f, 1) == (longest_chain(f, SE) < 2)
            assert in_G(s, f, n) == (longest_chain(f, NE) < 2)


@given(skew_shapes(max_rows=3, max_width=3).filter(lambda s: s.size <= 7))
@settings(max_examples=30, deadline=None)
def test_engine_end_stages_are_avoider_masks(s):
    # the bitmask stage sets that thm_bp counts transversals in
    ctx = ShapeContext(s)
    fillings = list(all_binary(s))
    assert ctx.stage_members(1).tolist() == [
        m for m, f in enumerate(fillings) if avoids(f, "delta2")
    ]
    assert ctx.stage_members(ctx.n).tolist() == [
        m for m, f in enumerate(fillings) if avoids(f, ("iota2", "fd"))
    ]


def test_full_forward_on_diagonal():
    t1 = support_of_labels(DENT, (1, 4, 7))
    assert sorted(t1.support()) == [(1, 1), (2, 2), (3, 3)]
    out, trace = full_forward(t1)
    assert sorted(out.support()) == [(1, 2), (2, 1), (3, 3)]
    back, _ = full_backward(out)
    assert back == t1
    assert len(trace.steps) == 6


def test_trace_render_format():
    t1 = support_of_labels(DENT, (1, 4, 7))
    _, trace = full_forward(t1)
    assert render_trace(trace) == (
        "i=1 kind=inrow class=1 before=1001001 after=1001001\n"
        "i=2 kind=rowbreak class=id before=1001001 after=1001001\n"
        "i=3 kind=inrow class=5 before=1001001 after=0110001\n"
        "i=4 kind=inrow class=1 before=0110001 after=0110001\n"
        "i=5 kind=rowbreak class=id before=0110001 after=0110001\n"
        "i=6 kind=inrow class=1 before=0110001 after=0110001"
    )


def test_step_three_class_two_rewiring():
    f = support_of_labels(DENT, (1, 2, 4))
    assert classify_lower(step_anatomy(DENT, 3), f.support()) == 2
    g = step_forward(f, 3)
    assert g == support_of_labels(DENT, (1, 2, 3))
    assert step_backward(g, 3) == f


def test_rowbreak_steps_are_identity():
    for f in all_binary(DENT):
        for i in (2, 5):
            if in_G(DENT, f, i):
                assert step_forward(f, i) == f


def test_class_of_undefined_at_rowbreaks():
    support = support_of_labels(DENT, (1, 4, 7)).support()
    for classify in (classify_lower, classify_upper):
        with pytest.raises(ValueError):
            classify(step_anatomy(DENT, 2), support)


def test_step_anatomy_kinds():
    kinds = [step_anatomy(DENT, i).kind for i in range(1, 7)]
    assert kinds == ["inrow", "rowbreak", "inrow", "inrow", "rowbreak", "inrow"]
    assert step_anatomy(DENT, 2).c_next == (1, 2)


def test_steps_preserve_row_sums_and_total():
    for f in all_binary(DENT):
        for i in range(1, 7):
            if in_G(DENT, f, i):
                g = step_forward(f, i)
                assert sum_vector(g).row_sums == sum_vector(f).row_sums
                assert g.total() == f.total()


def test_steps_land_in_next_stage():
    for f in all_binary(DENT):
        for i in range(1, 7):
            if in_G(DENT, f, i):
                assert in_G(DENT, step_forward(f, i), i + 1)


def test_step_rejects_nonmembers():
    for f in all_binary(DENT):
        if not in_G(DENT, f, 3):
            with pytest.raises(ValueError):
                step_forward(f, 3)
            break


def test_step_index_bounds():
    f = support_of_labels(DENT, ())
    with pytest.raises(ValueError):
        step_forward(f, 0)
    with pytest.raises(ValueError):
        step_forward(f, 7)
    with pytest.raises(ValueError):
        in_G(DENT, f, 8)


@pytest.mark.parametrize("grid", ["11\n1.\n11\n", "1.\n.1\n"])
def test_stage_sets_refuse_non_skew_shapes(grid):
    """Labels and stages are undefined off skew shapes, so every entry
    point gives the same refusal, whatever the filling holds."""
    f = parse_filling(grid)
    for call in (lambda: in_G(f.shape, f, 1), lambda: full_forward(f),
                 lambda: full_backward(f), lambda: step_forward(f, 1)):
        with pytest.raises(ValueError, match="skew shapes only"):
            call()


def test_bijection_on_all_small_shapes():
    # exhaustive inverse check plus a counting consequence: the forward
    # map is a bijection between the two avoider families
    for n in range(1, 6):
        for s in enum_skew_shapes(n):
            lower = [f for f in all_binary(s) if in_G(s, f, 1)]
            images = set()
            for f in lower:
                out, _ = full_forward(f)
                back, _ = full_backward(out)
                assert back == f
                assert sum_vector(out).row_sums == sum_vector(f).row_sums
                images.add(out)
            assert len(images) == len(lower)
            n_cells = len(s.cells)
            assert all(in_G(s, g, n_cells) for g in images)
            uppers = {f for f in all_binary(s) if in_G(s, f, n_cells)}
            assert images == uppers


@given(skew_shapes(max_rows=4, max_width=4))
@settings(max_examples=40, deadline=None)
def test_bijection_round_trip_random(s):
    import random

    rng = random.Random(len(s.cells))
    cells = cell_labels(s)
    for _ in range(10):
        sup = frozenset(c for c in cells if rng.random() < 0.4)
        f = Filling.from_support(s, sup)
        if not in_G(s, f, 1):
            continue
        out, trace = full_forward(f)
        back, _ = full_backward(out)
        assert back == f
        assert len(trace.steps) == len(cells) - 1


def test_trace_steps_chain_together():
    f = support_of_labels(DENT, (1, 4, 7))
    out, trace = full_forward(f)
    assert trace.steps[0].before == f
    assert trace.steps[-1].after == out
    for a, b in zip(trace.steps, trace.steps[1:]):
        assert a.after == b.before
    assert [s.index for s in trace.steps] == [1, 2, 3, 4, 5, 6]
