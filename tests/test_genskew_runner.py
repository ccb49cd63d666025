"""The genskew and lemma_gi runners against full-walk references, under
broken engines.

The references are earlier runners, kept here only: they scan every
catalog shape on a ShapeContext each.  genskew's compares the direct
refined counts, tests the forward image for repeats and for being the
final stage, and checks the row keys and the backward map, whatever the
other checks found.  The runners in harness scan only the connected
shapes, cover the disconnected ones by the product lemma (see the
harness docstring), and compute the direct counts and the repeat test
only when a check they depend on failed.  With a sound engine the
reports are equal.  Each break below breaks the engine in one way; the
runners then report the same connected shapes with the same clauses as
the references, and every disconnected shape a reference reports has a
component that the runner reports.
"""

from functools import partial

import numpy as np
import pytest

from skewfill import _engine, cli, harness
from skewfill._engine import ShapeContext, multiset_equal
from skewfill.enumeration import _catalog_intervals, _joined, _line, catalog_line, \
    parse_catalog_line

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


def reference_run_lemma_gi(params, shard):
    instances, failures = 0, []
    shapes = 0
    for ctx in harness._contexts(params, shard):
        shapes += 1
        stages = [ctx.stage_members(i) for i in range(1, ctx.n + 1)]
        counts = [int(g.size) for g in stages]
        if len(set(counts)) > 1:
            failures.append({"shape": catalog_line(ctx.shape), "clause": "stage sizes differ",
                             "counts": counts})
        for i in range(1, ctx.n):
            instances += 1
            if not np.array_equal(np.sort(ctx.apply_step(stages[i - 1], i)), stages[i]):
                failures.append({"shape": catalog_line(ctx.shape), "clause": "step image", "i": i})
    return {"instances": instances, "failures": failures, "details": {"shapes": shapes}}


def components(line):
    """The catalog lines of a shape's components, lower left first, each
    moved to start at column 1."""
    blocks = []
    for a, b in _catalog_intervals(line):
        if not blocks or not _joined([blocks[-1][-1], (a, b)]):
            blocks.append([])
        blocks[-1].append((a, b))
    return [_line([(a - rows[0][0] + 1, b - rows[0][0] + 1) for a, b in rows])
            for rows in blocks]


def assert_covers(got, ref):
    """got, a runner's result, against ref, the reference's: the same
    counts, the same connected failures, and a reported component for
    every disconnected shape that ref reports."""
    assert (got["instances"], got["details"]) == (ref["instances"], ref["details"])
    connected = [f for f in ref["failures"] if len(components(f["shape"])) == 1]
    assert got["failures"] == connected
    reported = {f["shape"] for f in got["failures"]}
    for f in ref["failures"]:
        assert reported & set(components(f["shape"])), f


def forward_is_identity(monkeypatch):
    apply_all = ShapeContext.apply_all

    def broken(self, F, forward=True):
        return F if forward and self.shape == BROKEN else apply_all(self, F, forward)

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
            F = _engine._apply_one(F, step, False)
        return F

    monkeypatch.setattr(ShapeContext, "apply_all", broken)
    return {"backward not inverse"}


def shifted_stage_bound(monkeypatch):
    bounds = ShapeContext._bounds

    def broken(self):
        dmax, umin = bounds(self)
        if self.shape == BROKEN and umin[0] != self.n:
            # the empty filling leaves the last stage only: |g1| > |gN|;
            # the children extend the broken table
            self._umin = umin = umin.copy()
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
    got = harness._run("genskew", params, (0, 1))
    ref = reference_run_genskew(params, (0, 1))
    assert_covers(got, ref)
    # at 6 cells every break but the one of LINE's forward map alone
    # reaches disconnected shapes too
    if max_cells == 6 and brk is not forward_is_identity:
        assert any(len(components(f["shape"])) > 1 for f in ref["failures"])
    assert clauses <= {f["clause"] for f in got["failures"] if f["shape"] == LINE}


@pytest.mark.parametrize("max_cells", (5, 6))
@pytest.mark.parametrize("brk", BREAKS, ids=lambda b: b.__name__)
def test_lemma_gi_runner_matches_reference_under_a_broken_engine(monkeypatch, brk, max_cells):
    brk(monkeypatch)
    params = {"max_cells": max_cells}
    assert_covers(harness._run("lemma_gi", params, (0, 1)),
                  reference_run_lemma_gi(params, (0, 1)))


@pytest.mark.parametrize("brk", BREAKS, ids=lambda b: b.__name__)
def test_single_shape_matches_reference_under_a_broken_engine(monkeypatch, brk):
    brk(monkeypatch)
    params = {"shape": LINE}
    got = harness._run("genskew", params, (0, 1))
    assert got == reference_run_genskew(params, (0, 1))
    assert got["failures"]


def test_a_disconnected_single_shape_is_scanned_itself(monkeypatch):
    # a break on one disconnected shape: the catalog runs cover it by its
    # components and pass; given as the shape parameter it fails
    line = "[(1,2),(1,3),(4,4)]"
    shape = parse_catalog_line(line)
    stage_members = ShapeContext.stage_members

    def broken(self, i):
        got = stage_members(self, i)
        return got[1:] if self.shape == shape and i == self.n else got

    monkeypatch.setattr(ShapeContext, "stage_members", broken)
    for prop in ("genskew", "lemma_gi"):
        run = partial(harness._run, prop)
        assert run({"max_cells": 6}, (0, 1))["failures"] == []
        assert {f["shape"] for f in run({"shape": line}, (0, 1))["failures"]} == {line}


@pytest.mark.parametrize("max_cells", range(1, 9))
def test_runner_matches_reference(max_cells):
    params = {"max_cells": max_cells}
    assert harness._run("genskew", params, (0, 1)) == reference_run_genskew(params, (0, 1))


@pytest.mark.parametrize("max_cells", range(1, 9))
def test_lemma_gi_runner_matches_reference(max_cells):
    params = {"max_cells": max_cells}
    assert harness._run("lemma_gi", params, (0, 1)) == reference_run_lemma_gi(params, (0, 1))


def test_direct_counts_compared_only_after_a_failed_check(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(len(a))
        return multiset_equal(a, b)

    monkeypatch.setattr(harness, "multiset_equal", counting)
    assert harness._run("genskew", {"max_cells": 6}, (0, 1))["failures"] == []
    assert calls == []
    perturbed_row_key(monkeypatch)
    failures = harness._run("genskew", {"max_cells": 6}, (0, 1))["failures"]
    assert len(calls) == len({f["shape"] for f in failures}) > 0


def broken_tables(monkeypatch, **breaks):
    """Patch _engine._step_table: breaks maps "w{w}h{h}" plus "f" (forward)
    or "b" (backward) to "moved" (every moved pattern undefined), "all"
    (every pattern undefined) or "fixed" (every pattern kept, a defined but
    wrong step)."""
    step_table = _engine._step_table

    def broken(w, h, forward):
        table = step_table(w, h, forward)
        fixed = np.arange(table.size)
        return {"moved": np.where(table == fixed, table, -1), "all": np.full_like(table, -1),
                "fixed": fixed, None: table}[breaks.get(f"w{w}h{h}{'fb'[not forward]}")]

    monkeypatch.setattr(_engine, "_step_table", broken)


def test_an_undefined_step_is_a_failure_not_a_usage_error(monkeypatch, capsys):
    """With every 2x2 pattern that the last step of the 2x2 box moves made
    undefined, both runners fail the square at step 3, name the first code
    the step is undefined on, and go on to the other shapes; the CLI exits
    1, as for any failed report, not 2."""
    sound = {prop: harness.verify(prop, max_cells=4) for prop in ("genskew", "lemma_gi")}
    broken_tables(monkeypatch, w2h2f="moved")
    for prop, report in sound.items():
        got = harness.verify(prop, max_cells=4)
        assert got.failures == [{"shape": "[(1,2),(1,2)]", "clause": "step undefined", "i": 3,
                                 "code": 9}]
        assert (got.instances, got.details) == (report.instances, report.details)
        assert cli.main(["verify", prop, "--max-cells", "4"]) == 1
        assert "step undefined" in capsys.readouterr().out


def test_a_backward_undefined_step_is_named_and_keeps_the_forward_clauses(monkeypatch):
    """A step undefined only backward, on a code of the forward image,
    gives genskew a backward step undefined clause, whose code is the one
    the backward step was given; lemma_gi runs no backward step and passes.
    When the forward step is also wrong but defined, the forward clause
    stays beside it."""
    sound = harness.verify("lemma_gi", max_cells=4)
    broken_tables(monkeypatch, w2h2b="moved")
    assert harness.verify("genskew", max_cells=4).failures == [
        {"shape": "[(1,2),(1,2)]", "clause": "backward step undefined", "i": 3, "code": 6}]
    assert harness.verify("lemma_gi", max_cells=4).failures == sound.failures == []
    broken_tables(monkeypatch, w2h2f="fixed", w2h2b="all")
    square = "[(1,2),(1,2)]"
    assert harness.verify("genskew", max_cells=4).failures == [
        {"shape": square, "clause": "backward step undefined", "i": 3, "code": 0},
        {"shape": square, "clause": "image is not the final stage"}]


def test_lemma_gi_checks_every_step_past_an_undefined_one(monkeypatch):
    """On three rows of width 2, with the 2x2 box's step kept fixed and the
    2x3 box's undefined where it moves, lemma_gi reports step 3's wrong
    image before step 5's undefined clause: an undefined step drops no
    other step's clause."""
    line = "[(1,2),(1,2),(1,2)]"
    assert harness.verify("lemma_gi", shape=line).failures == []
    broken_tables(monkeypatch, w2h2f="fixed", w2h3f="moved")
    assert harness.verify("lemma_gi", shape=line).failures == [
        {"shape": line, "clause": "step image", "i": 3},
        {"shape": line, "clause": "step undefined", "i": 5, "code": 33}]
