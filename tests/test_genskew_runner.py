"""The genskew runner against its reference path, under broken engines.

The reference is an earlier runner, kept here only: shape by shape, on a
ShapeContext each, it compares the direct refined counts, tests the
forward image for repeats and for being the final stage, and checks the
row keys and the backward map, whatever the other checks found.  The
runner in harness checks a sibling group at a time and reruns a failing
group shape by shape, computing the direct counts and the repeat test
only when a check they depend on failed.  Each test below breaks the
engine in one way, in the group path and in the per-shape path alike,
and expects the two runners to give the same report.
"""

import numpy as np
import pytest

from skewfill import _engine, harness
from skewfill._engine import ShapeContext, SiblingGroup, multiset_equal
from skewfill.enumeration import _line, catalog_line, parse_catalog_line

LINE = "[(1,2),(1,3)]"  # five cells, one step on a 2x2 box
BROKEN = parse_catalog_line(LINE)
# LINE's sibling group: the three shapes over [(1,2)] with a top row of width 3
SIBLINGS = [LINE, "[(1,2),(2,4)]", "[(1,2),(3,5)]"]


def member_lines(parent, w, los):
    """The catalog lines of the shapes extending parent by a top row of
    width w starting at each column in los."""
    below = [(a, b) for _, a, b, _ in parent.rows]
    return [_line(below + [(lo, lo + w - 1)]) for lo in los]


def member_of(group, line):
    """The index of the given shape in the group, or None when it is not
    one of the group's shapes."""
    lines = member_lines(group.parent, group.w, group.los)
    return None if line not in lines else lines.index(line)


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
    group_apply_all = SiblingGroup.apply_all

    def broken(self, F, forward=True):
        return F if self.shape == BROKEN else apply_all(self, F, forward)

    def broken_group(self, F, forward=True):
        image = group_apply_all(self, F, forward)
        g = member_of(self, LINE)
        if forward and g is not None:
            image = np.where(F >> self.n == g, F, image)
        return image

    monkeypatch.setattr(ShapeContext, "apply_all", broken)
    monkeypatch.setattr(SiblingGroup, "apply_all", broken_group)
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
    row_keys_of = SiblingGroup.row_keys_of

    def broken(self):
        keys = row_keys(self)
        if self.shape == BROKEN:
            keys = keys.copy()
            keys[code] += 1 << 40
        return keys

    def broken_group(self, F):
        keys = row_keys_of(self, F)
        g = member_of(self, LINE)
        if g is not None:
            keys = np.where(F == (g << self.n) + code, keys + (1 << 40), keys)
        return keys

    monkeypatch.setattr(ShapeContext, "row_keys", broken)
    monkeypatch.setattr(SiblingGroup, "row_keys_of", broken_group)
    return {"row sums not preserved", "direct refined counts"}


def backward_skips_last_step(monkeypatch):
    apply_all = ShapeContext.apply_all
    group_apply_all = SiblingGroup.apply_all

    def broken(self, F, forward=True):
        if forward:
            return apply_all(self, F, forward)
        return _engine._apply_steps(F, self._compiled_steps()[1:], False)

    def broken_group(self, F, forward=True):
        if forward:
            return group_apply_all(self, F, forward)
        out = F.copy()
        for g, top in enumerate(self.top_steps):
            mine = F >> self.n == g
            steps = self.parent._compiled_steps() + top
            out[mine] = _engine._apply_steps(F[mine], steps[1:], False)
        return out

    monkeypatch.setattr(ShapeContext, "apply_all", broken)
    monkeypatch.setattr(SiblingGroup, "apply_all", broken_group)
    return {"backward not inverse"}


def shifted_stage_bound(monkeypatch):
    # a lone ShapeContext and a sibling group build their bounds alike
    sibling_bounds = _engine._sibling_bounds

    def broken(parent, y, w, los):
        dmax, umin, colmax = sibling_bounds(parent, y, w, los)
        lines = member_lines(parent, w, los)
        if LINE in lines:
            # the empty filling leaves the last stage only: |g1| > |gN|
            umin = umin.copy()
            umin[lines.index(LINE), 0] = parent.n + w
        return dmax, umin, colmax

    monkeypatch.setattr(_engine, "_sibling_bounds", broken)
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


@pytest.mark.parametrize("max_cells", (7, 8))
def test_runner_matches_reference(max_cells):
    params = {"max_cells": max_cells}
    assert harness._run_genskew(params, (0, 1)) == reference_run_genskew(params, (0, 1))


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


def test_a_break_in_one_sibling_reruns_its_group_alone(monkeypatch):
    # in the middle one of three siblings the empty filling leaves every
    # stage but the last, so only it fails, and only its group is rerun
    middle = SIBLINGS[1]
    sibling_bounds = _engine._sibling_bounds

    def broken(parent, y, w, los):
        dmax, umin, colmax = sibling_bounds(parent, y, w, los)
        lines = member_lines(parent, w, los)
        if middle in lines:
            dmax = dmax.copy()
            dmax[lines.index(middle), 0] = parent.n + w
        return dmax, umin, colmax

    monkeypatch.setattr(_engine, "_sibling_bounds", broken)
    rerun = []
    clauses = harness._genskew_clauses

    def recording(ctx):
        rerun.append(catalog_line(ctx.shape))
        return clauses(ctx)

    monkeypatch.setattr(harness, "_genskew_clauses", recording)
    params = {"max_cells": 5}
    got = harness._run_genskew(params, (0, 1))
    assert rerun == SIBLINGS
    assert got["failures"] == [{"shape": middle, "clause": c} for c in
                               ("direct refined counts", "image is not the final stage")]
    assert got == reference_run_genskew(params, (0, 1))
