"""Differential tests for the bitmask fast paths of the genskew engine."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import skew_shapes
from skewfill._engine import ShapeContext, _packed_keys, _step_table, multiset_equal
from skewfill.bijection import in_G, label_index, step_backward, step_forward
from skewfill.enumeration import enum_skew_shapes
from skewfill.fillings import Filling, as_pattern, find_filling_occurrences
from skewfill.harness import _contexts
from skewfill.shapes import _row_spans, is_skew, normalize, parse_shape

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
                mask |= 1 << label_index(ctx.shape, (occ.cols[px - 1], occ.rows[py - 1])) - 1
        out.append((mask, label_index(ctx.shape, (occ.cols[-1], occ.rows[-1]))))
    return sorted(out)


# --- the whole-shape construction the engine's row-by-row tables replaced ---


def whole_shape_occurrences(s, token):
    """(support mask, top label) pairs from every pair or triple of rows."""
    pos = {c: k for k, c in enumerate(s.sorted_cells())}
    rows = _row_spans(s).items()
    if token == "fd":
        # a2 <= i1 < a3 <= i2 <= b1 < i3 <= b2 over rows j1 < j2 < j3
        return [(1 << pos[(i1, j1)] | 1 << pos[(i2, j3)] | 1 << pos[(i3, j2)],
                 pos[(i3, j3)] + 1)
                for (j1, (_, b1)), (j2, (a2, b2)), (j3, (a3, _)) in itertools.combinations(rows, 3)
                for i1, i2, i3 in itertools.product(range(a2, a3), range(a3, b1 + 1),
                                                    range(b1 + 1, b2 + 1))]
    out = []
    for (y1, (lo1, hi1)), (y2, (lo2, hi2)) in itertools.combinations(rows, 2):
        for x1, x2 in itertools.combinations(range(max(lo1, lo2), min(hi1, hi2) + 1), 2):
            lower, upper = ((x1, y2), (x2, y1)) if token == "delta2" else ((x1, y1), (x2, y2))
            out.append((1 << pos[lower] | 1 << pos[upper], pos[(x2, y2)] + 1))
    return out


def bounds_from(occurrences, n):
    """dmax and umin per code (umin n + 1 where no top is held) from the
    occurrence pairs of each token."""
    codes = np.arange(1 << n, dtype=np.int64)
    dmax = np.zeros(1 << n, dtype=np.int64)
    for mask, top in occurrences["delta2"]:
        held = (codes & mask) == mask
        dmax[held] = np.maximum(dmax[held], top)
    umin = np.full(1 << n, n + 1, dtype=np.int64)
    for mask, top in occurrences["iota2"] + occurrences["fd"]:
        held = (codes & mask) == mask
        umin[held] = np.minimum(umin[held], top)
    return dmax, umin


def whole_shape_steps(s):
    """(i, width of X, first label bit of each X row) for every step whose
    X is at least 2x2, read off the whole shape."""
    spans = _row_spans(s)
    first, k = {}, 0
    for y, (lo, hi) in spans.items():
        first[y], k = k, k + hi - lo + 1
    steps = []
    for y, (lo, hi) in spans.items():
        for x in range(lo + 1, hi + 1):
            bottom = y
            while spans.get(bottom - 1, (0, 0))[1] >= x:
                bottom -= 1
            if bottom < y:
                bases = tuple(first[r] + lo - spans[r][0] for r in range(bottom, y + 1))
                steps.append((first[y] + x - lo, x - lo + 1, bases))
    return steps


def step_images(F, step, forward):
    """One step on every code of F, -1 where it is undefined or F is -1."""
    _, w, bases = step
    row = (1 << w) - 1
    pattern = sum(((F >> base) & row) << (r * w) for r, base in enumerate(bases))
    image = _step_table(w, len(bases), forward)[pattern]
    out = F & ~sum(row << base for base in bases)
    for r, base in enumerate(bases):
        out |= ((image >> (r * w)) & row) << base
    return np.where((image < 0) | (F < 0), -1, out)


def whole_shape_tables(s):
    """dmax, umin, row keys and the forward and backward images of all
    codes under all steps, -1 where some step is undefined."""
    n = s.size
    dmax, umin = bounds_from({t: whole_shape_occurrences(s, t) for t in TOKENS}, n)
    weight, radix = {}, 1
    for y, (lo, hi) in _row_spans(s).items():
        weight[y], radix = radix, radix * (hi - lo + 2)
    codes = np.arange(1 << n, dtype=np.int64)
    keys = sum(((codes >> b) & 1) * weight[y] for b, (_, y) in enumerate(s.sorted_cells()))
    forward = backward = codes
    steps = whole_shape_steps(s)
    for step in steps:
        forward = step_images(forward, step, True)
    for step in reversed(steps):
        backward = step_images(backward, step, False)
    return dmax, umin, keys, forward, backward


def assert_tables_match(ctx):
    dmax, umin, keys, forward, backward = whole_shape_tables(ctx.shape)
    got_dmax, got_umin = ctx._bounds()
    assert np.array_equal(got_dmax, dmax)
    assert np.array_equal(np.minimum(got_umin, ctx.n + 1), umin)
    assert got_umin.min(initial=ctx.n + 1) >= 1
    assert np.array_equal(ctx.row_keys(), keys)
    assert ctx._compiled_steps() == whole_shape_steps(ctx.shape)
    codes = np.arange(1 << ctx.n, dtype=np.int64)
    for direction, table in ((True, forward), (False, backward)):
        defined = table >= 0
        assert np.array_equal(ctx.apply_all(codes[defined], direction), table[defined])
        for code in codes[~defined].tolist():
            with pytest.raises(ValueError, match="is undefined"):
                ctx.apply_all(np.array([code], dtype=np.int64), direction)


def test_walk_tables_match_whole_shape_construction():
    # every node of the catalog walk, each extending its parent's tables
    seen = 0
    for ctx in _contexts({"max_cells": 8}, (0, 1)):
        assert_tables_match(ctx)
        seen += 1
    assert seen == 3909


def test_stage_members_of_given_codes_match_intersection():
    # every walk node of at most 7 cells: all codes, then a seeded subset
    rng = np.random.default_rng(7)
    for ctx in _contexts({"max_cells": 7}, (0, 1)):
        every = np.arange(1 << ctx.n, dtype=np.int64)
        subset = np.sort(rng.choice(every, size=rng.integers(0, every.size + 1), replace=False))
        for i in range(1, ctx.n + 1):
            for codes in (every, subset):
                got = ctx.stage_members(i, codes)
                assert np.array_equal(got, np.intersect1d(ctx.stage_members(i), codes))


@st.composite
def gapped_skew_shapes(draw, max_blocks=3):
    """Skew shapes with at least one empty row: skew blocks stacked with
    gaps, each block starting right of every column below it."""
    intervals, right = [], 0
    for block in range(draw(st.integers(2, max_blocks))):
        if block:
            intervals += [None] * draw(st.integers(1, 2))
        shift = right + draw(st.integers(0, 1))
        s = draw(skew_shapes(max_rows=3, max_width=3))
        intervals += [(s.row_cols(y)[0] + shift, s.row_cols(y)[-1] + shift)
                      for y in range(1, s.height + 1)]
        right = intervals[-1][1]
    return normalize((x, y) for y, iv in enumerate(intervals, start=1) if iv
                     for x in range(iv[0], iv[1] + 1))


@given(gapped_skew_shapes().filter(lambda s: s.size <= 12))
@settings(max_examples=40, deadline=None)
def test_tables_match_whole_shape_construction_with_empty_rows(s):
    assert is_skew(s) and len(_row_spans(s)) < s.height
    assert_tables_match(ShapeContext(s))


def test_occurrence_masks_match_box_scan():
    # the whole-shape occurrence lists against the box scan, and the
    # engine's bounds against the bounds of the box-scan occurrences
    for s in small_skew_shapes(7):
        ctx = ShapeContext(s)
        occurrences = {token: reference_occurrences(ctx, token) for token in TOKENS}
        for token in TOKENS:
            assert sorted(whole_shape_occurrences(s, token)) == occurrences[token]
        dmax, umin = bounds_from(occurrences, ctx.n)
        assert np.array_equal(ctx._bounds()[0], dmax)
        assert np.array_equal(np.minimum(ctx._bounds()[1], ctx.n + 1), umin)


@given(skew_shapes(max_rows=5, max_width=4).filter(lambda s: s.size >= 7))
@settings(max_examples=40, deadline=None)
def test_occurrence_masks_match_box_scan_on_larger_shapes(s):
    # fd needs at least the 7 cells of the dent, so most fd hits live here
    ctx = ShapeContext(s)
    occurrences = {token: reference_occurrences(ctx, token) for token in TOKENS}
    for token in TOKENS:
        assert sorted(whole_shape_occurrences(s, token)) == occurrences[token]
    if ctx.n <= 12:  # the reference bounds take one pass over 2^n codes per occurrence
        dmax, umin = bounds_from(occurrences, ctx.n)
        assert np.array_equal(ctx._bounds()[0], dmax)
        assert np.array_equal(np.minimum(ctx._bounds()[1], ctx.n + 1), umin)


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
    return sum(1 << label_index(ctx.shape, c) - 1 for c in f.support())


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
    if rejected:
        # apply_all raises what the steps, applied one by one, raise
        codes = np.arange(1 << ctx.n, dtype=np.int64)
        with pytest.raises(ValueError) as stepwise:
            F = codes
            for i in range(ctx.n - 1, 0, -1):
                F = ctx.apply_step(F, i, forward=False)
        with pytest.raises(ValueError) as whole:
            ctx.apply_all(codes, forward=False)
        assert str(whole.value) == str(stepwise.value)


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
