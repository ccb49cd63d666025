"""The genskew runner against its reference path, under broken engines.

The reference is the earlier runner, kept here only: on every shape it
compares the direct refined counts, tests the forward image for repeats
and for being the final stage, and checks the row keys and the backward
map, whatever the other checks found.  The runner in harness computes
the direct counts and the repeat test only when a check they depend on
failed.  Each test below breaks the engine in one way and expects the
two runners to give the same report.
"""

import numpy as np
import pytest

from skewfill import _engine, harness
from skewfill._engine import ShapeContext, multiset_equal
from skewfill.enumeration import catalog_line, parse_catalog_line

LINE = "[(1,2),(1,3)]"  # five cells, one step on a 2x2 box
BROKEN = parse_catalog_line(LINE)


def reference_run_genskew(params, shard):
    instances, failures = 0, []
    details = {"shapes": 0}
    for ctx in harness._contexts(params, shard):
        g1 = ctx.stage_members(1)
        gn = ctx.stage_members(ctx.n)
        rk = ctx.row_keys()
        image = ctx.apply_all(g1)
        ordered = np.sort(image)
        clauses = []
        if not multiset_equal(rk[g1], rk[gn]):
            clauses.append("direct refined counts")
        if np.any(ordered[1:] == ordered[:-1]):
            clauses.append("forward not injective")
        elif not np.array_equal(ordered, gn):
            clauses.append("image is not the final stage")
        if not (rk[image] == rk[g1]).all():
            clauses.append("row sums not preserved")
        if not (ctx.apply_all(image, forward=False) == g1).all():
            clauses.append("backward not inverse")
        failures += [{"shape": catalog_line(ctx.shape), "clause": c} for c in clauses]
        instances += 1 << ctx.n
        details["shapes"] += 1
        if params.get("shape") is not None:
            details["g1_count"] = int(g1.size)
            details["gN_count"] = int(gn.size)
    return {"instances": instances, "failures": failures, "details": details}


def forward_is_identity(monkeypatch):
    apply_all = ShapeContext.apply_all

    def broken(self, F, forward=True):
        return F if self.shape == BROKEN else apply_all(self, F, forward)

    monkeypatch.setattr(ShapeContext, "apply_all", broken)
    return {"image is not the final stage"}


def duplicated_step_entry(monkeypatch):
    step_table = _engine._step_table

    def broken(w, h, forward):
        table = step_table(w, h, forward)
        if (w, h, forward) == (2, 2, True):
            # two one-cell patterns in the bottom row now share an image
            table = table.copy()
            table[0b0010] = table[0b0001]
        return table

    monkeypatch.setattr(_engine, "_step_table", broken)
    return {"forward not injective"}


def perturbed_row_key(monkeypatch):
    ctx = ShapeContext(BROKEN)
    code = np.setdiff1d(ctx.stage_members(1), ctx.stage_members(ctx.n))[0]
    row_keys = ShapeContext.row_keys

    def broken(self):
        keys = row_keys(self)
        if self.shape == BROKEN:
            keys = keys.copy()
            keys[code] += 1 << 40
        return keys

    monkeypatch.setattr(ShapeContext, "row_keys", broken)
    return {"row sums not preserved", "direct refined counts"}


def backward_skips_last_step(monkeypatch):
    apply_all = ShapeContext.apply_all

    def broken(self, F, forward=True):
        if forward:
            return apply_all(self, F, forward)
        for step in reversed(self._compiled_steps()[1:]):
            F = self._apply_one(F, step, forward)
        return F

    monkeypatch.setattr(ShapeContext, "apply_all", broken)
    return {"backward not inverse"}


def shifted_stage_bound(monkeypatch):
    bounds = ShapeContext._bounds

    def broken(self):
        dmax, umin = bounds(self)
        if self.shape == BROKEN:
            # the empty filling leaves the last stage only: |g1| > |gN|
            umin = umin.copy()
            umin[0] = self.n
        return dmax, umin

    monkeypatch.setattr(ShapeContext, "_bounds", broken)
    return {"direct refined counts", "image is not the final stage"}


BREAKS = (forward_is_identity, duplicated_step_entry, perturbed_row_key,
          backward_skips_last_step, shifted_stage_bound)


@pytest.mark.parametrize("max_cells", (5, 6))
@pytest.mark.parametrize("brk", BREAKS, ids=lambda b: b.__name__)
def test_runner_matches_reference_under_a_broken_engine(monkeypatch, brk, max_cells):
    clauses = brk(monkeypatch)
    params = {"max_cells": max_cells}
    got = harness._run_genskew(params, (0, 1))
    assert got == reference_run_genskew(params, (0, 1))
    assert clauses <= {f["clause"] for f in got["failures"] if f["shape"] == LINE}


@pytest.mark.parametrize("brk", BREAKS, ids=lambda b: b.__name__)
def test_single_shape_matches_reference_under_a_broken_engine(monkeypatch, brk):
    brk(monkeypatch)
    params = {"shape": LINE}
    got = harness._run_genskew(params, (0, 1))
    assert got == reference_run_genskew(params, (0, 1))
    assert got["failures"]


def test_direct_counts_compared_only_after_a_failed_check(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return multiset_equal(a, b)

    monkeypatch.setattr(harness, "multiset_equal", counting)
    assert harness._run_genskew({"max_cells": 6}, (0, 1))["failures"] == []
    assert calls == []
    perturbed_row_key(monkeypatch)
    failures = harness._run_genskew({"max_cells": 6}, (0, 1))["failures"]
    assert len(calls) == len({f["shape"] for f in failures}) > 0
