"""cor_sskew's refined part against the per-k construction of its keys.

harness._refined_sum_check packs the row and column sum keys of all
kept fillings once per shape (harness._class_keys) and compares subsets
of them for each k.  The reference below builds, permutes and compares
the key matrices of each k afresh.
"""

import numpy as np
import pytest

from skewfill import harness
from skewfill._engine import multiset_equal, support_chain_table
from skewfill.enumeration import enum_skew_shapes
from skewfill.fillings import NE, SE
from skewfill.structure import SumPermutations


def reference_refined_sum_check(s, kmax, max_entry):
    perms = harness.sum_permutations(s)
    rho_idx = np.array(perms.rho, dtype=np.int64) - 1
    sigma_idx = np.array(perms.sigma, dtype=np.int64) - 1
    rows, cols, chains = harness._filling_table(s, max_entry)
    se, ne = chains(SE), chains(NE)
    bad = []
    for k in range(2, kmax + 1):
        d_keys = np.hstack([rows[se < k], cols[se < k]])
        i_keys = np.hstack([rows[ne < k][:, rho_idx], cols[ne < k][:, sigma_idx]])
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
    cells, as built and under each break.  With no key packed a priori
    and _packed_keys returning None, the matrix keys go to np.unique on
    both sides."""
    if brk in BREAKS:
        monkeypatch.setattr(harness, *BREAKS[brk])
    if not packed:
        monkeypatch.setattr(harness, "_KEY_BOUND", 0)  # no key packs a priori
        monkeypatch.setattr(harness, "_packed_keys", lambda a, b: None)
        monkeypatch.setattr("skewfill._engine._packed_keys", lambda a, b: None)
    failing = 0
    for max_entry in (1, 2):
        for s in SHAPES:
            got = harness._refined_sum_check(s, 3, max_entry)
            assert got == reference_refined_sum_check(s, 3, max_entry), (s, max_entry)
            failing += bool(got)
    assert len(SHAPES) == 186
    assert (failing > 0) == (brk in BREAKS)


def unpacked_verdict(left, right, rho, sigma):
    """multiset_equal on the key matrices of _class_keys' docstring."""
    (a_stats, a_sums), (b_stats, b_sums) = left, right
    a = np.column_stack([a_stats, a_sums.rows, a_sums.cols])
    b = np.column_stack([b_stats, b_sums.rows[:, np.subtract(rho, 1)],
                         b_sums.cols[:, np.subtract(sigma, 1)]])
    return multiset_equal(a, b)


def wide_sides(bounds, top, rng, n=40):
    """Two sides of n random fillings with two statistics up to top, the
    right one the left's fillings in another order with rows 1, 2 and
    columns 1, 2 swapped; a copy of the right one with one statistic
    changed; and the rho and sigma that swap them back."""
    (rb, cb) = bounds
    rows = rng.integers(0, min(rb) + 1, (n, len(rb)))
    cols = rng.integers(0, min(cb) + 1, (n, len(cb)))
    stats = rng.integers(0, top + 1, (n, 2)).astype(np.int8)
    stats[0, 1] = top
    order = rng.permutation(n)
    swap = [1, 0, *range(2, len(rb))], [1, 0, *range(2, len(cb))]
    right = stats[order], harness._Sums(rows[order][:, swap[0]], cols[order][:, swap[1]], bounds)
    broken = right[0].copy(), right[1]
    broken[0][0, 0] = (broken[0][0, 0] + 1) % (top + 1)
    rho, sigma = (np.add(p, 1).tolist() for p in swap)
    return (stats, harness._Sums(rows, cols, bounds)), right, broken, rho, sigma


@pytest.mark.parametrize("wide", ["sums", "digits", "statistic"])
def test_class_keys_past_their_radix_compare_the_key_matrices(monkeypatch, wide):
    """Sums whose radix passes 62 bits, sums that fit with chain digits
    that do not, and a statistic past its digit: the keys are the key
    matrices (the unpacked path, through _packed_keys), with the verdict
    of multiset_equal on them; when all fits, they are packed a priori."""
    unpacked = []
    packed_keys = harness._packed_keys
    monkeypatch.setattr(harness, "_packed_keys",
                        lambda a, b: unpacked.append(a.shape) or packed_keys(a, b))
    rng = np.random.default_rng(7)
    bounds = {"sums": ((1 << 20,) * 2, (1 << 20,) * 2),  # 80 bits of sums
              "digits": ((1 << 29,) * 2, (1, 1)),  # 60 bits of sums, then 2 digits
              "statistic": ((3, 3), (3, 3))}[wide]
    top = 3 if wide == "statistic" else 2  # the base is min(2 rows, 2 columns) + 1
    left, right, broken, rho, sigma = wide_sides(bounds, top, rng)
    assert (left[1].key(left[0][:, :0]) is None) == (wide == "sums")  # the sums alone
    for other, equal in ((right, True), (broken, False)):
        keys = harness._class_keys(left, other, rho, sigma)
        assert unpacked.pop() == (40, 6)  # two statistics, two rows, two columns
        assert multiset_equal(*keys) == unpacked_verdict(left, other, rho, sigma) == equal
    if wide == "sums":
        assert keys[0].ndim == 2  # past 62 bits by their observed ranges too
    left, right, broken, rho, sigma = wide_sides(((3, 3), (3, 3)), 2, rng)
    for other, equal in ((right, True), (broken, False)):
        a, b = harness._class_keys(left, other, rho, sigma)
        assert not unpacked and a.ndim == b.ndim == 1
        assert multiset_equal(a, b) == unpacked_verdict(left, other, rho, sigma) == equal
