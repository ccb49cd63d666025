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
    cells, as built and under each break.  With _packed_keys returning
    None, the matrix keys go to np.unique on both sides."""
    if brk in BREAKS:
        monkeypatch.setattr(harness, *BREAKS[brk])
    if not packed:
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
