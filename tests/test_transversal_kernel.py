"""The transversal kernel (harness._transversal_chains) against the 2^n
tables it replaced: support_chain_table for the chains and the avoider
counts, ShapeContext's stage sets for thm_bp's counts."""

import numpy as np
import pytest

from conftest import reference_tr_counts, transversal_codes
from skewfill import harness
from skewfill._engine import support_chain_table
from skewfill.enumeration import _admits_transversal, _catalog_walk, _diagonal_prefix, catalog_line
from skewfill.fillings import NE, SE
from skewfill.harness import _bp_counts, _contexts, _tr_counts, _transversal_chains, verify
from skewfill.shapes import _interval_shape, dent_shape

SQUARE_CELLS = 11


def test_chains_match_the_chain_tables():
    # every catalog shape of at most SQUARE_CELLS cells that admits a
    # transversal: each transversal's code, in enumeration order, and
    # its NE and SE chains; then the avoider counts of every k
    shapes = 0
    for intervals, _, _ in _catalog_walk(SQUARE_CELLS, keep=_diagonal_prefix):
        if not _admits_transversal(intervals):
            continue
        shapes += 1
        s = _interval_shape(intervals)
        label = {c: k for k, c in enumerate(s.sorted_cells())}
        chains = list(_transversal_chains(intervals))
        codes = np.array([sum(1 << label[x, y] for y, x in enumerate(p, start=1))
                          for p, _, _ in chains], dtype=np.int64)
        assert codes.tolist() == transversal_codes(s).tolist()
        assert [ne for _, ne, _ in chains] == support_chain_table(s, NE)[codes].tolist()
        assert [se for _, _, se in chains] == support_chain_table(s, SE)[codes].tolist()
        ks = range(1, len(intervals) + 2)
        assert _tr_counts(intervals, ks) == reference_tr_counts(s, ks)
    assert shapes == 3213


def test_thm_bp_counts_match_the_stage_sets():
    # stage 1 holds the delta2-avoiders and stage N the {iota2,
    # fd}-avoiders among all 2^n codes
    for ctx in _contexts({"max_cells": SQUARE_CELLS}, (0, 1), _diagonal_prefix):
        intervals = tuple((lo, hi) for _, lo, hi, _ in ctx.rows)
        if not _admits_transversal(intervals):
            continue
        ts = transversal_codes(ctx.shape)
        want = tuple(int(np.isin(ts, ctx.stage_members(i)).sum()) for i in (1, ctx.n))
        assert _bp_counts(intervals) == want


def test_runners_build_no_context_shape_or_chain_table(monkeypatch):
    want = {prop: verify(prop, max_cells=8) for prop in ("thm_bp", "conjecture")}

    def refuse(*args, **kwargs):
        raise AssertionError("built")

    for name in ("ShapeContext", "_interval_shape", "_kept_skew", "support_chain_table"):
        monkeypatch.setattr(harness, name, refuse)
    for prop, report in want.items():
        assert verify(prop, max_cells=8) == report
    # cor_sskew builds a shape only for its refined part
    assert verify("cor_sskew", max_cells=8, refine_cells=0).passed


@pytest.mark.parametrize("prop", ["thm_bp", "conjecture"])
def test_a_longer_ne_chain_is_reported(monkeypatch, prop):
    chains = harness._transversal_chains
    monkeypatch.setattr(harness, "_transversal_chains",
                        lambda intervals: ((p, ne + 1, se) for p, ne, se in chains(intervals)))
    assert verify(prop, max_cells=6).failures


def test_dropped_fd_hits_are_reported(monkeypatch):
    # without its fd placements the dent has two {iota2, fd}-avoiders
    monkeypatch.setattr(harness, "_top_row_dents", lambda rows, top: iter(()))
    failures = verify("thm_bp", max_cells=7).failures
    assert {f["clause"] for f in failures} == {"iota2+fd"}
    assert {"shape": catalog_line(dent_shape()), "clause": "iota2+fd", "count": 2} in failures
