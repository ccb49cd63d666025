"""Differential tests for the bitmask fast paths of the genskew engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import skew_shapes
from skewfill._engine import ShapeContext, _packed_keys, multiset_equal
from skewfill.bijection import in_G, step_backward, step_forward
from skewfill.enumeration import enum_skew_shapes
from skewfill.fillings import Filling, as_pattern, find_filling_occurrences
from skewfill.shapes import parse_shape

TOKENS = ("delta2", "iota2", "fd")


def small_skew_shapes(max_cells):
    for n in range(1, max_cells + 1):
        yield from enum_skew_shapes(n)


def reference_occurrences(ctx, token):
    """(support mask, top label) pairs from the box scan over the all-ones filling."""
    host = Filling(ctx.shape, (1,) * ctx.shape.size)
    pat = as_pattern(token)
    out = []
    for occ in find_filling_occurrences(host, token):
        mask = 0
        for (px, py), v in pat.items():
            if v:
                mask |= 1 << ctx.pos[(occ.cols[px - 1], occ.rows[py - 1])]
        out.append((mask, ctx.pos[(occ.cols[-1], occ.rows[-1])] + 1))
    return sorted(out)


def test_occurrence_masks_match_box_scan():
    for s in small_skew_shapes(7):
        ctx = ShapeContext(s)
        for token in TOKENS:
            assert sorted(ctx._occurrences(token)) == reference_occurrences(ctx, token)


@given(skew_shapes(max_rows=5, max_width=4).filter(lambda s: s.size >= 7))
@settings(max_examples=40, deadline=None)
def test_occurrence_masks_match_box_scan_on_larger_shapes(s):
    # fd needs at least the 7 cells of the dent, so most fd hits live here
    ctx = ShapeContext(s)
    for token in TOKENS:
        assert sorted(ctx._occurrences(token)) == reference_occurrences(ctx, token)


def test_row_keys_separate_exactly_the_row_sum_vectors():
    for s in small_skew_shapes(7):
        ctx = ShapeContext(s)
        codes = np.arange(1 << ctx.n, dtype=np.int64)
        keys = ctx.row_keys()[codes]
        rows = ctx.rowsums(codes)
        n_keys = np.unique(keys).size
        n_rows = np.unique(rows, axis=0).shape[0]
        pairs = {(k, tuple(r)) for k, r in zip(keys.tolist(), rows.tolist())}
        assert n_keys == n_rows == len(pairs)


def filling_of(ctx, code):
    return Filling.from_support(ctx.shape, frozenset(c for k, c in enumerate(ctx.labels)
                                                     if code >> k & 1))


def code_of(ctx, f):
    return sum(1 << ctx.pos[c] for c in f.support())


def check_stages_and_steps(s):
    """Stage sets and step images of the bitmask engine against in_G and
    the Filling step maps, on every filling of s."""
    ctx = ShapeContext(s)
    fillings = [filling_of(ctx, code) for code in range(1 << ctx.n)]
    for i in range(1, ctx.n + 1):
        expected = [code for code, f in enumerate(fillings) if in_G(s, f, i)]
        assert ctx.stage_members(i).tolist() == expected
    for i in range(1, ctx.n):
        lower, upper = ctx.stage_members(i), ctx.stage_members(i + 1)
        assert ctx.apply_step(lower, i).tolist() == [
            code_of(ctx, step_forward(fillings[c], i, validate=False)) for c in lower.tolist()]
        assert ctx.apply_step(upper, i, forward=False).tolist() == [
            code_of(ctx, step_backward(fillings[c], i, validate=False)) for c in upper.tolist()]


def test_steps_match_filling_maps_on_small_shapes():
    for s in small_skew_shapes(6):
        check_stages_and_steps(s)


@given(skew_shapes(max_rows=4, max_width=3).filter(lambda s: 7 <= s.size <= 8))
@settings(max_examples=15, deadline=None)
def test_steps_match_filling_maps_on_larger_shapes(s):
    # the smaller shapes are all covered by the exhaustive pass above
    check_stages_and_steps(s)


@pytest.mark.parametrize("text", [".##\n###\n##.\n", "###\n###\n"])
def test_apply_step_matches_filling_maps_off_the_stage_sets(text):
    # every code, so the steps also see patterns outside their stage sets;
    # on the 3x2 box the backward recipe rejects some of them
    ctx = ShapeContext(parse_shape(text))
    rejected = 0
    for i in range(1, ctx.n):
        for forward, step in ((True, step_forward), (False, step_backward)):
            for code in range(1 << ctx.n):
                F = np.array([code], dtype=np.int64)
                try:
                    expected = code_of(ctx, step(filling_of(ctx, code), i, validate=False))
                except ValueError:
                    rejected += 1
                    with pytest.raises(ValueError):
                        ctx.apply_step(F, i, forward)
                else:
                    assert ctx.apply_step(F, i, forward).tolist() == [expected]
    assert rejected == (3 if ctx.shape.size == 6 else 0)


def reference_multiset_equal(a, b):
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    ua, ca = np.unique(a, axis=0, return_counts=True)
    ub, cb = np.unique(b, axis=0, return_counts=True)
    return ua.shape == ub.shape and bool(np.all(ua == ub)) and bool(np.all(ca == cb))


def key_pair(values, max_rows=12, max_cols=5):
    """Two equally shaped int64 key matrices: b is a row shuffle of a,
    optionally with one entry replaced."""
    @st.composite
    def pair(draw):
        shape = (draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols)))
        a = draw(arrays(np.int64, shape, elements=values))
        b = a[draw(st.permutations(range(shape[0])))] if shape[0] else a.copy()
        if shape[0] and draw(st.booleans()):
            b = b.copy()
            b[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = \
                draw(values)
        return a, b

    return pair()


@given(key_pair(st.integers(-3, 3)))
@settings(max_examples=200, deadline=None)
def test_multiset_equal_packed_matches_unique(ab):
    a, b = ab
    if a.size:
        assert _packed_keys(a, b) is not None
    assert multiset_equal(a, b) == reference_multiset_equal(a, b)
    assert multiset_equal(a[:, 0], b[:, 0]) == reference_multiset_equal(a[:, 0], b[:, 0])


@given(key_pair(st.integers(-(2**40), 2**40), max_cols=4))
@settings(max_examples=100, deadline=None)
def test_multiset_equal_wide_keys_match_unique(ab):
    a, b = ab
    assert multiset_equal(a, b) == reference_multiset_equal(a, b)


def test_multiset_equal_edge_cases():
    wide = np.array([[-(2**40), 2**40, 0], [2**40, -(2**40), 1]], dtype=np.int64)
    assert _packed_keys(wide, wide[::-1]) is None  # span product above 2^62
    assert multiset_equal(wide, wide[::-1])
    assert not multiset_equal(wide, wide[[0, 0]])
    assert not multiset_equal(np.zeros((3, 2), np.int64), np.zeros((2, 3), np.int64))
    assert not multiset_equal(np.zeros((3, 2), np.int64), np.zeros((4, 2), np.int64))
    assert multiset_equal(np.zeros((0, 3), np.int64), np.zeros((0, 3), np.int64))
    one_d = np.array([5, -1, 5, 2], dtype=np.int16)
    assert multiset_equal(one_d, one_d[::-1])
    assert not multiset_equal(one_d, np.array([5, -1, 2, 2], dtype=np.int16))
    floats = np.array([[0.5, 1.0], [2.0, 0.5]])
    assert _packed_keys(floats, floats) is None
    assert multiset_equal(floats, floats[::-1])
