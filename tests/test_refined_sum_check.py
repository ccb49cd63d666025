"""cor_sskew's refined part against the per-k construction of its keys.

harness._refined_sum_check packs the row and column sum keys of all
kept fillings once per shape (harness._filling_table's keys) and
compares subsets of them for each k.  The reference below builds,
permutes and compares the key matrices of each k afresh.
"""

import numpy as np
import pytest

from conftest import with_identity_permutations
from skewfill import harness
from skewfill._engine import capped_fillings, multiset_equal, sorted_keys, support_chain_table
from skewfill.enumeration import _catalog_walk, _ferrers_prefix, enum_moon_polyominoes, \
    enum_skew_shapes
from skewfill.fillings import NE, SE
from skewfill.shapes import Shape, _interval_shape, _rectangles
from skewfill.structure import SumPermutations


def reference_refined_sum_check(s, kmax, max_entry):
    perms = harness.sum_permutations(s)
    rho_idx = np.array(perms.rho, dtype=np.int64) - 1
    sigma_idx = np.array(perms.sigma, dtype=np.int64) - 1
    lines, _ = capped_fillings(s, max_entry)
    _, chains = harness._filling_table(s, max_entry)
    se, ne = chains(SE), chains(NE)
    bad = []
    for k in range(2, kmax + 1):
        d_keys = lines[se < k]
        i_keys = lines[ne < k][:, np.concatenate([rho_idx, s.height + sigma_idx])]
        if not multiset_equal(d_keys, i_keys):
            bad.append(k)
    return bad


SHAPES = [s for n in range(1, 8) for s in enum_skew_shapes(n, connected=True, ds_free=True)]


def rows_reversed(s):
    return SumPermutations(tuple(range(s.height, 0, -1)), tuple(range(1, s.width + 1)))


def columns_reversed(s):
    return SumPermutations(tuple(range(1, s.height + 1)), tuple(range(s.width, 0, -1)))


def ne_chains_one_longer(s, direction, region=None):
    table = support_chain_table(s, direction, region)
    return table + 1 if direction == NE else table


# name -> (attribute of harness to replace, replacement).  The real sum
# permutations make no k fail on these shapes, and neither would the
# identity permutations; each break below makes some k fail.
BREAKS = {
    "rows_reversed": ("sum_permutations", rows_reversed),
    "columns_reversed": ("sum_permutations", columns_reversed),
    "ne_chains_one_longer": ("support_chain_table", ne_chains_one_longer),
}


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
@pytest.mark.parametrize("brk", ["as_built", *BREAKS])
def test_refined_check_matches_the_per_k_reference(monkeypatch, brk, packed):
    """Equal failing-k lists on every connected dent-free shape of <= 7
    cells, as built and under each break.  With no key packed in the
    fixed radix, the keys are the key matrices, and multiset_equal
    compares them by sorting their rows (np.lexsort)."""
    if brk in BREAKS:
        monkeypatch.setattr(harness, *BREAKS[brk])
    if not packed:
        monkeypatch.setattr(harness, "_KEY_BOUND", 0)  # no key packs in the fixed radix
    failing = 0
    for max_entry in (1, 2):
        for s in SHAPES:
            got = harness._refined_sum_check(s, 3, max_entry)
            assert got == reference_refined_sum_check(s, 3, max_entry), (s, max_entry)
            failing += bool(got)
    assert len(SHAPES) == 186
    assert (failing > 0) == (brk in BREAKS)


SQUARE = Shape(frozenset((x, y) for x in (1, 2) for y in (1, 2)))


def unpacked_verdict(left, right, rho, sigma):
    """multiset_equal on the key matrices of two sides (statistics, line
    sums): each side's statistics, then its line sums, the right side's
    taken by (rho, sigma)."""
    (a_stats, a_lines), (b_stats, b_lines) = left, right
    a = np.column_stack([a_stats, a_lines])
    b = np.column_stack([b_stats, b_lines[:, np.subtract(rho, 1)],
                         b_lines[:, len(rho) + np.subtract(sigma, 1)]])
    return multiset_equal(a, b)


def wide_sides(max_entry, rng, n=40):
    """Two sides (statistics, line sums) of n random fillings of the 2x2
    square with entries up to max_entry and two statistics up to min(2,
    2), the right one the left's fillings in another order with rows 1, 2
    and columns 1, 2 swapped; a copy of the right one with one statistic
    changed; and the rho and sigma that swap them back."""
    rows = rng.integers(0, 2 * max_entry + 1, (n, 2))
    cols = rng.integers(0, 2 * max_entry + 1, (n, 2))
    stats = rng.integers(0, 3, (n, 2)).astype(np.int8)
    stats[0, 1] = 2
    order = rng.permutation(n)
    lines = np.hstack([rows, cols])
    right = stats[order], lines[order][:, [1, 0, 3, 2]]
    broken = right[0].copy(), right[1]
    broken[0][0, 0] = (broken[0][0, 0] + 1) % 3
    return (stats, lines), right, broken, [2, 1], [2, 1]


def side_keys(monkeypatch, side, max_entry):
    """The keys function of the 2x2 square's filling table whose fillings
    have the side's line sums."""
    lines = side[1]
    monkeypatch.setattr(harness, "capped_fillings",
                        lambda s, e: (lines, np.zeros(len(lines), dtype=np.int64)))
    return harness._filling_table(SQUARE, max_entry)[0]


@pytest.mark.parametrize("wide", ["sums", "digits"])
def test_class_keys_past_their_radix_compare_the_key_matrices(monkeypatch, wide):
    """Sums whose radix passes 62 bits, and sums that fit with chain digits
    that do not: the keys are the key matrices, with the verdict of
    multiset_equal on them; when all fits, they are packed."""
    rng = np.random.default_rng(7)
    # four line digits in base 2^21 + 1 (84 bits), or in base 2^15 + 1
    # (60 bits) and then two chain digits in base 3
    max_entry = {"sums": 1 << 20, "digits": 1 << 14}[wide]
    left, right, broken, rho, sigma = wide_sides(max_entry, rng)
    keys = side_keys(monkeypatch, left, max_entry)
    none = np.zeros((40, 0), dtype=np.int8)
    assert (keys(none).ndim == 2) == (wide == "sums")  # the sums alone
    for other, equal in ((right, True), (broken, False)):
        got = keys(left[0]), side_keys(monkeypatch, other, max_entry)(other[0], rho, sigma)
        assert got[0].shape == got[1].shape == (40, 6)  # two statistics, two rows, two columns
        assert multiset_equal(*got) == unpacked_verdict(left, other, rho, sigma) == equal
    left, right, broken, rho, sigma = wide_sides(3, rng)
    keys = side_keys(monkeypatch, left, 3)
    for other, equal in ((right, True), (broken, False)):
        a, b = keys(left[0]), side_keys(monkeypatch, other, 3)(other[0], rho, sigma)
        assert a.ndim == b.ndim == 1
        assert multiset_equal(a, b) == unpacked_verdict(left, other, rho, sigma) == equal


def packs(s, digits, max_entry):
    """Whether the filling table of shape s packs keys with this many chain
    statistics; capped_fillings must be stubbed out."""
    keys, _ = harness._filling_table(s, max_entry)
    return keys(np.zeros((1, digits), dtype=np.int8)).ndim == 1


def test_the_fixed_radix_fits_every_shape_up_to_the_caps(monkeypatch):
    """At the caps, the key matrices are never compared: every partition
    up to lem_ferrers' cap with its widest frames (1 + k + l chain
    digits), every moon up to rubey's with a digit per maximal rectangle
    and every connected dent-free shape up to cor_sskew's refine_cells,
    with no digit, packs at the max_entry cap."""
    monkeypatch.setattr(harness, "capped_fillings",  # one filling: only the radix matters
                        lambda s, e: (np.zeros((1, s.height + s.width), dtype=np.int16),
                                      np.zeros(1, dtype=np.int64)))
    caps = {prop: {name: cap for name, (_, _, cap) in budgets.items()}
            for prop, (_, budgets) in harness._PROPERTIES.items()}
    ferrers, moons, cor = caps["lem_ferrers"], caps["rubey"], caps["cor_sskew"]
    for iv, _, _ in _catalog_walk(ferrers["max_cells"], (0, 1), _ferrers_prefix):
        w = iv[-1][1]
        frames = min(iv[0][1], ferrers["kmax"]) + min(sum(b == w for _, b in iv), ferrers["lmax"])
        assert packs(_interval_shape(iv), 1 + frames, ferrers["max_entry"]), iv
    counted = 0
    for n in range(1, moons["max_cells"] + 1):
        for m in enum_moon_polyominoes(n):
            counted += 1
            assert packs(m, len(_rectangles(m)), moons["max_entry"]), m
    assert counted == 7788  # the moons of <= 12 cells
    for n in range(1, cor["refine_cells"] + 1):
        for s in enum_skew_shapes(n, connected=True, ds_free=True):
            assert packs(s, 0, cor["max_entry"]), s


@pytest.mark.parametrize("prop, max_cells", [("lem_ferrers", 7), ("rubey", 7), ("cor_sskew", 8)])
def test_the_benchmark_budgets_compare_packed_keys_only(monkeypatch, prop, max_cells):
    """At the budgets of the chains and catalog benchmark workloads every
    sum-class comparison sorts 1-D int64 keys, none key matrices: both
    sides in multiset_equal (cor_sskew, lem_ferrers), or each labeling's
    keys once (rubey's sorted_keys)."""
    seen = set()

    def recording(a, b):
        seen.update({(a.ndim, a.dtype), (b.ndim, b.dtype)})
        return multiset_equal(a, b)

    def sorting(a):
        seen.add((a.ndim, a.dtype))
        return sorted_keys(a)

    monkeypatch.setattr(harness, "multiset_equal", recording)
    monkeypatch.setattr(harness, "sorted_keys", sorting)
    assert harness.verify(prop, max_cells=max_cells).passed
    assert seen == {(1, np.dtype(np.int64))}


@pytest.mark.parametrize("prop, params, failing", [
    ("cor_sskew", {"max_cells": 8, "refine_cells": 8}, None),
    *(("lem_ferrers", {"max_cells": 7, "max_entry": e}, 59) for e in (1, 2)),
    *(("rubey", {"max_cells": 7, "max_entry": e}, 304) for e in (1, 2))],
    ids=["cor_sskew", "lem_ferrers-1", "lem_ferrers-2", "rubey-1", "rubey-2"])
def test_the_key_matrices_give_the_packed_reports(monkeypatch, prop, params, failing):
    """With no key packed (_KEY_BOUND 0) every comparison sorts key
    matrices, and each report equals the packed one: as built, and with
    the identity (rho, sigma) in place of every one asked for, which fails
    59 lem_ferrers frames and 304 rubey swaps (rubey's with each side
    packed in its own moon's column order, conftest.own_column_sums).
    cor_sskew's refined part passes with the identity too (see the harness
    docstring), so it runs as built only."""
    seen, reports = set(), {}
    variants = ["as_built"] if failing is None else ["as_built", "identity"]

    def recording(a, b):
        seen.update({a.ndim, b.ndim})
        return multiset_equal(a, b)

    def sorting(a):
        seen.add(a.ndim)
        return sorted_keys(a)

    monkeypatch.setattr(harness, "multiset_equal", recording)
    monkeypatch.setattr(harness, "sorted_keys", sorting)
    for bound in (harness._KEY_BOUND, 0):
        monkeypatch.setattr(harness, "_KEY_BOUND", bound)
        for name in variants:
            with monkeypatch.context() as patch:
                if name == "identity":
                    with_identity_permutations(patch, prop)
                seen.clear()
                reports[bound > 0, name] = harness.verify(prop, **params)
            assert seen == {1 if bound else 2}
    for name in variants:
        assert reports[True, name] == reports[False, name]
    assert reports[True, "as_built"].passed
    if failing is not None:
        assert len(reports[True, "identity"].failures) == failing


def repacked(lines, h, max_entry, stats, rho, sigma):
    """Keys under (rho, sigma), packed from all the line sums (h rows,
    then the columns) and the statistics, one digit each, in the radix of
    the harness docstring."""
    w = lines.shape[1] - h
    bases = [max_entry * w + 1] * h + [max_entry * h + 1] * w + [min(h, w) + 1] * stats.shape[1]
    perm = [*np.subtract(rho, 1), *(h + np.subtract(sigma, 1))]
    return np.column_stack([lines[:, perm], stats]).astype(np.int64) @ np.cumprod([1, *bases[:-1]])


@pytest.mark.parametrize("prop, compared", [("cor_sskew", 186), ("lem_ferrers", 235)])
def test_moved_lines_keys_equal_the_full_repack(monkeypatch, prop, compared):
    """For each (rho, sigma) a property compares under on shapes of <= 7
    cells at max_entry 2, and a random (rho, sigma) beside each, the keys
    built from the identity keys and the moved lines equal the keys packed
    from all lines, and so do the identity keys."""
    rng = np.random.default_rng(11)
    table, moved = harness._filling_table, []

    def checked_table(s, max_entry):
        keys, chains = table(s, max_entry)
        lines, h, w = capped_fillings(s, max_entry)[0], s.height, s.width

        def checked(stats, rho=None, sigma=None):
            got = keys(stats, rho, sigma)
            if rho is None:
                assert np.array_equal(got, repacked(lines, h, max_entry, stats,
                                                    range(1, h + 1), range(1, w + 1)))
                return got
            assert np.array_equal(got, repacked(lines, h, max_entry, stats, rho, sigma))
            rho2, sigma2 = rng.permutation(h) + 1, rng.permutation(w) + 1
            assert np.array_equal(keys(stats, rho2, sigma2),
                                  repacked(lines, h, max_entry, stats, rho2, sigma2))
            moved.append(list(rho) != sorted(rho) or list(sigma) != sorted(sigma))
            return got

        return checked, chains

    monkeypatch.setattr(harness, "_filling_table", checked_table)
    assert harness.verify(prop, max_cells=7, max_entry=2).passed
    assert len(moved) == compared and any(moved)


def unpacked(keys, h, w, max_entry, digits):
    """The line sums (h rows, then the w columns) and statistics of packed
    keys, read back digit by digit in the radix of the harness docstring."""
    out = []
    for base in [max_entry * w + 1] * h + [max_entry * h + 1] * w + [min(h, w) + 1] * digits:
        keys, digit = np.divmod(keys, base)
        out.append(digit)
    assert not keys.any()
    lines = np.column_stack(out)
    return lines[:, :h + w], lines[:, h + w:]


def canonical_labeling(first, cols):
    """Per column of a moon, the first moon's column (1-based) with its
    interval: the k-th occurrence of an interval goes to the k-th."""
    taken = {}
    labeling = []
    for c in cols:
        taken[c] = taken.get(c, 0) + 1
        labeling.append([x for x, d in enumerate(first, start=1) if d == c][taken[c] - 1])
    return labeling


@pytest.mark.parametrize("max_entry", [1, 2])
def test_transported_keys_equal_each_moons_own_table(monkeypatch, max_entry):
    """rubey's transport against the per-moon construction, comparison by
    comparison, on the 427 comparisons of <= 7 cells.  The sides of swap t
    of moon m hold the keys of the first moon's fillings, read through
    m's canonical labeling and through it composed with the swap, packed
    with the first moon's column sums.  Put the column sums back in m's
    order (the labeling's fixed injective map on keys), and the left side
    is the sorted keys of m's own table, keys(stats_m), and the right side
    those of the swapped moon's, keys(stats_s, identity rho, sigma)."""
    labeled, sides = harness._labeled_keys, {}

    def recording(family, moon, table, sigma):
        sides[moon, tuple(sigma)] = got = labeled(family, moon, table, sigma)
        return got

    monkeypatch.setattr(harness, "_labeled_keys", recording)
    assert harness.verify("rubey", max_cells=7, max_entry=max_entry).passed
    compared = 0
    for moons in harness._column_classes(7):
        first = next(iter(moons))
        for cols, m in moons.items():
            h, w = m.height, m.width
            sigma = canonical_labeling(first, cols)
            rects_m = _rectangles(m)
            for t in range(1, w):
                swap = [*range(1, t), t + 1, t, *range(t + 2, w + 1)]
                swapped = tuple(cols[x - 1] for x in swap)
                if cols > swapped or swapped not in moons:
                    continue
                compared += 1
                s = moons[swapped]
                keys_m, chains_m = harness._filling_table(m, max_entry)
                keys_s, chains_s = harness._filling_table(s, max_entry)
                own = (np.sort(keys_m(np.column_stack([chains_m(NE, r) for r in rects_m]))),
                       np.sort(keys_s(np.column_stack([chains_s(NE, r) for r in _rectangles(s)]),
                                      range(1, h + 1), swap)))
                for moon, labeling, want in ((m, sigma, own[0]),
                                             (s, [sigma[x - 1] for x in swap], own[1])):
                    lines, stats = unpacked(sides[moon, tuple(labeling)], h, w, max_entry,
                                            len(rects_m))
                    assert np.array_equal(np.sort(repacked(lines, h, max_entry, stats,
                                                           range(1, h + 1), sigma)), want)
    assert compared == 427
