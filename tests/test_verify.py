import csv
import itertools
import json
import os

import numpy as np
import pytest

from skewfill import harness
from skewfill._engine import ShapeContext
from skewfill.enumeration import catalog_line, enum_skew_shapes, parse_catalog_line
from skewfill.harness import (
    _MAX_JOBS,
    PROPERTIES,
    BudgetError,
    VerificationReport,
    check_budget,
    format_report,
    parse_report_csv,
    parse_report_json,
    verify,
)
from skewfill.fillings import NE
from skewfill.shapes import Rect, _contains_dent, _interval_shape, dent_shape, is_nw_ferrers, \
    normalize
from conftest import frame_counts_by_cells, reference_lem_ferrers, with_identity_permutations
from test_genskew_runner import LINE, forward_is_identity


def shape_from_intervals(intervals):
    cells = []
    for y, (a, b) in enumerate(intervals, start=1):
        cells.extend((x, y) for x in range(a, b + 1))
    return normalize(cells)


def test_property_roster():
    assert PROPERTIES == (
        "cor_sskew",
        "conjecture",
        "thm_bp",
        "genskew",
        "lemma_gi",
        "lem_ferrers",
        "rubey",
        "ds_free_oracle",
    )


SMALL_BUDGETS = {
    "cor_sskew": dict(max_cells=6, refine_cells=5),
    "conjecture": dict(max_cells=6),
    "thm_bp": dict(max_cells=6),
    "genskew": dict(max_cells=6),
    "lemma_gi": dict(max_cells=6),
    "lem_ferrers": dict(max_cells=6),
    "rubey": dict(max_cells=6),
    "ds_free_oracle": dict(max_cells=6),
}


def test_all_properties_pass_at_small_budgets():
    for prop, kw in SMALL_BUDGETS.items():
        r = verify(prop, **kw)
        assert r.passed, f"{prop}: {r.failures[:3]}"
        assert r.instances > 0


def test_cor_sskew_small_counts():
    r = verify("cor_sskew", max_cells=6, refine_cells=5)
    assert r.instances == 236
    assert r.details == {"refined_shapes": 36, "shapes": 82}


def test_genskew_counts_all_binary_fillings():
    # sum over all canonical skew shapes with <= 6 cells of 2^cells
    r = verify("genskew", max_cells=6)
    assert r.details["shapes"] == 400
    assert r.instances == 20726


def test_genskew_single_shape():
    r = verify("genskew", shape=dent_shape())
    assert r.passed
    assert r.instances == 128
    assert r.details == {"g1_count": 72, "gN_count": 72, "shapes": 1}
    assert r.params["shape"] == "[(1,2),(1,3),(2,3)]"


@pytest.mark.parametrize("prop", ["genskew", "lemma_gi"])
def test_a_shape_of_none_is_no_shape(prop):
    assert verify(prop, max_cells=3, shape=None) == verify(prop, max_cells=3)


def test_lemma_gi_single_shape_accepts_catalog_line():
    r = verify("lemma_gi", shape="[(1,2),(1,3),(2,3)]")
    assert r.passed
    assert r.instances == 6


def test_conjecture_strictness_details():
    r = verify("conjecture", max_cells=6)
    assert r.passed and r.details == {"ds_strict": False, "strict": 0}
    r7 = verify("conjecture", max_cells=7)
    # the 7-cell dented shape is the first strict case and the only one
    assert r7.passed and r7.details == {"ds_strict": True, "strict": 1}


def test_ds_free_oracle_details():
    r = verify("ds_free_oracle", max_cells=6)
    # every skew shape with at most 6 cells avoids the 7-cell pattern
    assert r.details == {"decomposed": 82, "dent_free": 400}
    assert r.instances == 400


@pytest.mark.parametrize("name, broken", [("_new_dent", lambda intervals: False),
                                           ("_rectangle_ds_free", lambda spans: True)],
                         ids=["dent_bit_never_set", "rectangle_test_always_passes"])
def test_ds_free_oracle_sees_either_criterion_break(monkeypatch, name, broken):
    """With the pattern's dent bit never set, or the rectangle test passing
    every shape, the criteria disagree on exactly the 7 dented shapes of
    the 3,909 of <= 8 cells."""
    assert verify("ds_free_oracle", max_cells=8).details["dent_free"] == 3909 - 7
    monkeypatch.setattr(harness, name, broken)
    r = verify("ds_free_oracle", max_cells=8)
    disagree = [f for f in r.failures if f["clause"] == "criteria disagree"]
    assert r.instances == 3909 and len(disagree) == 7
    assert {f["pattern"] for f in disagree} == {name == "_new_dent"}


@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)])
def test_ds_free_oracle_source_carries_each_dent_bit_from_its_parent(shard):
    # the dent bit grown down the walk against the whole-shape scan, on
    # every list a shard owns, in the walk's order
    source = harness._PROPERTIES["ds_free_oracle"][0][0]
    items = list(source({"max_cells": 9}, shard))
    assert [intervals for intervals, _ in items] == list(harness._walk(None)({"max_cells": 9},
                                                                             shard))
    assert [dented for _, dented in items] == \
        [_contains_dent(_interval_shape(intervals)) for intervals, _ in items]


def test_ds_free_oracle_shards_merge_to_the_serial_report():
    serial = verify("ds_free_oracle", max_cells=9)
    assert verify("ds_free_oracle", max_cells=9, jobs=3) == serial
    assert serial.passed


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        verify("thm_sskew_made_up")


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        verify("thm_bp", kmax=2)
    with pytest.raises(ValueError):
        verify("thm_bp", shape="[(1,1)]")


def test_budget_caps_enforced():
    saved = os.environ.pop("SKEWFILL_BUDGET_OVERRIDE", None)
    try:
        for prop in ("cor_sskew", "conjecture", "thm_bp"):
            with pytest.raises(BudgetError):
                verify(prop, max_cells=17)
        with pytest.raises(BudgetError):
            verify("genskew", max_cells=15)
        with pytest.raises(BudgetError):
            verify("lemma_gi", max_cells=13)
        with pytest.raises(BudgetError):
            verify("rubey", max_entry=3)
        with pytest.raises(BudgetError):
            verify("rubey", max_cells=13)
        with pytest.raises(BudgetError):
            verify("ds_free_oracle", max_cells=14)
    finally:
        if saved is not None:
            os.environ["SKEWFILL_BUDGET_OVERRIDE"] = saved


def test_lem_ferrers_caps_max_cells_at_11_and_defaults_to_8(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    with pytest.raises(BudgetError, match="max_cells=12 exceeds cap 11"):
        verify("lem_ferrers", max_cells=12)
    assert verify("lem_ferrers", kmax=0, lmax=0, max_entry=1).params["max_cells"] == 8


def test_budget_override_unlocks(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    with pytest.raises(BudgetError):
        verify("lemma_gi", shape="[(1,13)]")  # 13 cells, over lemma_gi's cap of 12
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    r = verify("lemma_gi", shape="[(1,13)]")
    assert r.passed and r.instances == 12


def test_shape_parameter_respects_cell_cap(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    for prop, line in (("genskew", "[(1,15)]"), ("lemma_gi", "[(1,13)]")):
        with pytest.raises(BudgetError):
            verify(prop, shape=line)
    assert verify("lemma_gi", shape="[(1,12)]").instances == 11  # at the cap
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    r = verify("genskew", shape="[(1,15)]")
    assert r.passed and r.instances == 1 << 15
    assert verify("lemma_gi", shape="[(1,13)]").instances == 12


def test_shape_cap_follows_the_max_cells_cap(monkeypatch):
    # a single shape's cells count to the max_cells cap, so raising that
    # cap is the one edit that lets a larger shape through
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    line = "[(1,3),(2,4),(3,5),(4,6),(6,6)]"  # 13 cells
    with pytest.raises(BudgetError, match="shape cells=13 exceeds cap 12"):
        verify("lemma_gi", shape=line)
    monkeypatch.setitem(harness._PROPERTIES["lemma_gi"][1], "max_cells", (1, 8, 13))
    r = verify("lemma_gi", shape=line)
    assert r.passed and r.instances == 12


def test_shape_budget_is_checked_before_the_shape_is_built(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    built = []

    def recording(intervals):
        built.append(intervals)
        raise AssertionError("a shape was built")

    monkeypatch.setattr("skewfill.enumeration._interval_shape", recording)
    with pytest.raises(BudgetError):
        verify("genskew", shape="[(1,1000000000)]")
    assert built == []


def test_parameters_below_their_floor_rejected(monkeypatch):
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")  # lifts no floor
    # cor_sskew's parts both start at k = 2, so kmax = 1 would check nothing
    for prop, kw in (("cor_sskew", dict(refine_cells=-1)), ("cor_sskew", dict(kmax=0)),
                     ("cor_sskew", dict(kmax=1)),
                     ("lem_ferrers", dict(kmax=-1)), ("lem_ferrers", dict(lmax=-1)),
                     ("lemma_gi", dict(max_cells=0)), ("rubey", dict(max_entry=0))):
        with pytest.raises(ValueError, match="is below"):
            verify(prop, **kw)
    # a frame with no special columns or rows is still a frame: one per
    # Ferrers shape, and the partitions of 1..4 number 1 + 2 + 3 + 5
    r = verify("lem_ferrers", max_cells=4, kmax=0, lmax=0)
    assert r.passed and r.instances == 11
    assert verify("cor_sskew", max_cells=4, refine_cells=0).details["refined_shapes"] == 0


def test_check_budget_floor_cap_and_override(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    check_budget("x", 1, 1, 3)
    check_budget("x", 3, 1, 3)
    with pytest.raises(ValueError, match="x=0 is below 1") as below:
        check_budget("x", 0, 1, 3)
    assert below.type is ValueError
    with pytest.raises(BudgetError, match="x=4 exceeds cap 3"):
        check_budget("x", 4, 1, 3)
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    check_budget("x", 4, 1, 3)
    with pytest.raises(ValueError, match="is below"):
        check_budget("x", 0, 1, 3)
    with pytest.raises(BudgetError, match="x=4 exceeds cap 3$"):
        check_budget("x", 4, 1, 3, unlock=False)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        verify("thm_bp", max_cells=4, jobs=0)


def test_budgets_and_jobs_must_be_ints(monkeypatch):
    def no_work(*args):
        raise AssertionError("a runner started")

    monkeypatch.setattr(harness, "_run", no_work)
    for prop, kw in (("thm_bp", dict(max_cells=2.7)), ("thm_bp", dict(kmax=True)),
                     ("genskew", dict(jobs=True)), ("genskew", dict(jobs=1.0)),
                     ("genskew", dict(shape="[(True,True)]"))) + tuple(
                        (prop, dict(shape=shape)) for prop in ("genskew", "lemma_gi")
                        for shape in (5, ["x"])):
        with pytest.raises(ValueError):
            verify(prop, **kw)
    with pytest.raises(ValueError, match="is not an integer"):
        check_budget("x", 2.7, 1, 3)
    with pytest.raises(ValueError, match="is not an integer"):
        check_budget("x", True, 1, 3)


def test_jobs_capped_before_any_pool(fake_pool, monkeypatch):
    serial = verify("thm_bp", max_cells=3)
    assert verify("thm_bp", max_cells=3, jobs=_MAX_JOBS) == serial
    assert fake_pool == [_MAX_JOBS]
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")  # lifts no jobs cap
    for jobs in (_MAX_JOBS + 1, 100000):
        with pytest.raises(BudgetError, match="jobs"):
            verify("thm_bp", max_cells=3, jobs=jobs)
    assert fake_pool == [_MAX_JOBS]


def test_lemma_gi_failure_names_its_shape(monkeypatch):
    line = "[(1,2),(2,3)]"
    broken = parse_catalog_line(line)
    apply_step = ShapeContext.apply_step

    def wrong_for_one_shape(self, F, i, forward=True):
        image = apply_step(self, F, i, forward)
        return np.zeros_like(image) if self.shape == broken else image

    monkeypatch.setattr(ShapeContext, "apply_step", wrong_for_one_shape)
    r = verify("lemma_gi", max_cells=5)
    assert r.failures == [{"shape": line, "clause": "step image", "i": i}
                          for i in range(1, broken.size)]


def test_genskew_failure_names_its_shape(monkeypatch):
    # the forward map is the identity on one connected shape
    forward_is_identity(monkeypatch)
    r = verify("genskew", max_cells=5)
    assert r.failures == [{"shape": LINE, "clause": "image is not the final stage"}]


def test_parallel_run_matches_serial():
    a = verify("ds_free_oracle", max_cells=6, jobs=1)
    b = verify("ds_free_oracle", max_cells=6, jobs=2)
    assert a == b
    c = verify("genskew", max_cells=5, jobs=2)
    assert c == verify("genskew", max_cells=5)


@pytest.mark.parametrize("prop", PROPERTIES)
def test_three_jobs_match_one(prop):
    assert verify(prop, jobs=3, **SMALL_BUDGETS[prop]) == verify(prop, **SMALL_BUDGETS[prop])


@pytest.mark.parametrize("prop", ["thm_bp", "conjecture", "cor_sskew"])
def test_three_jobs_match_one_on_pruned_walks(prop):
    # these runners deal out pruned walks, whose subtrees differ from the
    # full catalog's; conjecture's shard 0 also reports the catalog size
    assert verify(prop, max_cells=8, jobs=3) == verify(prop, max_cells=8)


@pytest.mark.parametrize("prop", ["genskew", "lemma_gi"])
def test_three_jobs_match_one_on_the_connected_walk(prop):
    # these runners deal out the connected walk; shard 0 also reports the
    # catalog's counts
    assert verify(prop, max_cells=8, jobs=3) == verify(prop, max_cells=8)


def test_three_jobs_with_empty_and_lopsided_shards():
    # one catalog shape, or one single shape, leaves two shards empty
    for kw in (dict(max_cells=1), dict(shape=dent_shape())):
        for prop in ("genskew", "lemma_gi"):
            assert verify(prop, jobs=3, **kw) == verify(prop, **kw)
    # four subtrees at two cells: the first shard gets two of them
    assert verify("thm_bp", max_cells=2, jobs=3) == verify("thm_bp", max_cells=2)


@pytest.mark.parametrize("prop", PROPERTIES)
def test_shards_outnumbering_the_items_merge_to_the_serial_report(fake_pool, prop):
    # at one to three cells most of the 64 shards own no item, and their
    # parts carry no tally at all; two and three shards split up to five
    # cells unevenly, and shard 0 alone starts with the covered totals
    runs = [(1, 64), (2, 64), (3, 64)] + [(n, jobs) for n in range(1, 6) for jobs in (2, 3)]
    for max_cells, jobs in runs:
        assert verify(prop, max_cells=max_cells, jobs=jobs) == verify(prop, max_cells=max_cells)
    assert fake_pool == [jobs for _, jobs in runs]


@pytest.mark.parametrize("prop", PROPERTIES)
def test_checks_and_covered_give_flat_details(prop):
    # _add folds details of ints, bools and constants only, and never nests
    (source, check, covered), budgets = harness._PROPERTIES[prop]
    params = {name: default for name, (_, default, _) in budgets.items() if default is not None}
    runs = [dict(params, max_cells=4)]
    if "shape" in budgets:
        runs.append(dict(params, max_cells=4, shape=catalog_line(dent_shape())))
    flat = (int, bool, str)
    for run in runs:
        items = list(source(run, (0, 1)))
        assert items
        for item in items:
            instances, failures, details = check(item, run)
            assert type(instances) is int and type(failures) is list
            assert type(details) is dict and all(type(v) in flat for v in details.values())
        if covered is not None:
            instances, details = covered(run)
            assert type(instances) is int and type(details) is dict
            assert all(type(v) in flat for v in details.values())


def test_report_equality_ignores_timing():
    a = verify("thm_bp", max_cells=5)
    b = verify("thm_bp", max_cells=5)
    assert a == b
    assert a != "not a report"
    b.elapsed_ms = a.elapsed_ms + 123.0
    assert a == b


def test_reports_are_unhashable():
    with pytest.raises(TypeError):
        hash(verify("thm_bp", max_cells=2))


def test_format_report_text():
    r = verify("thm_bp", max_cells=4)
    text = format_report(r)
    lines = text.splitlines()
    assert lines[0] == "property: thm_bp"
    assert lines[1] == "params: max_cells=4"
    assert lines[2] == f"instances: {r.instances}"
    assert lines[3] == "failures: 0"
    assert lines[-1] == "status: PASS"


def test_report_json_round_trip():
    r = verify("conjecture", max_cells=5)
    back = parse_report_json(format_report(r, fmt="json"))
    assert back == r
    for text in ("[]", '"report"', "{}", '{"property": "thm_bp"}',
                 '{"property": 1, "params": 2, "instances": "x", "failures": 5, '
                 '"details": 6, "millis": "z"}',
                 json.dumps(dict(json.loads(format_report(r, fmt="json")), instances=True))):
        with pytest.raises(ValueError):
            parse_report_json(text)


def test_report_csv_round_trip():
    r = verify("rubey", max_cells=5)
    back = parse_report_csv(format_report(r, fmt="csv"))
    assert back == r
    header = "property,params,instances,failures,details,millis\n"
    for text in ("property,extra\nx,y\n",
                 header.replace("millis", "bogus") + 'thm_bp,{},3,"[]",{},0.0\n',
                 header + 'thm_bp,{},3,"[]",{}\n',
                 header + 'thm_bp,1,3,"[]",{},0.0\n',
                 header + 'thm_bp,{},3,{},{},0.0\n',
                 header + 'thm_bp,{},3,"[]",[],0.0\n'):
        with pytest.raises(ValueError):
            parse_report_csv(text)


def test_reports_past_the_csv_field_limit_round_trip():
    limit = csv.field_size_limit()
    failures = [{"shape": "[(1,2),(1,3),(2,3)]", "swap": i, "clause": "class sizes"}
                for i in range(3000)]
    r = VerificationReport("rubey", {"max_cells": 10, "max_entry": 1}, 5676, failures,
                           {"level": "cardinalities"}, 12.5)
    text = format_report(r, fmt="csv")
    assert len(json.dumps(failures, sort_keys=True)) > limit  # one field passes it
    assert parse_report_csv(text) == r
    assert parse_report_json(format_report(r, fmt="json")) == r
    assert csv.field_size_limit() == limit


def test_report_parsers_refuse_deep_nesting():
    limit = csv.field_size_limit()
    deep = "[" * 100_000 + "]" * 100_000
    header = "property,params,instances,failures,details,millis\n"
    for text in (deep, '{"property": ' + deep + "}"):
        with pytest.raises(ValueError):
            parse_report_json(text)
    for row in (f'x,{{}},1,"{deep}",{{}},0.0', f'x,"{{""a"": {deep}}}",1,[],{{}},0.0'):
        with pytest.raises(ValueError):
            parse_report_csv(header + row + "\n")
    assert csv.field_size_limit() == limit


def test_format_report_unknown_format():
    r = verify("thm_bp", max_cells=4)
    with pytest.raises(ValueError):
        format_report(r, fmt="yaml")


def recorded_frames(monkeypatch, max_cells):
    """{catalog line: {(k, l): (rho, sigma)}} of the lem_ferrers runner on
    the partitions of <= max_cells cells, with kmax and lmax past every
    bound.  Stub fillings stand in, so no table is built."""
    frames, at = {}, {}
    frame_rects = harness._frame_rects

    def keys(stats, rho=None, sigma=None):
        if rho is not None:
            frames.setdefault(at["line"], {})[at["frame"]] = (list(rho), list(sigma))
        return np.zeros(1, dtype=np.int64)

    def table(s, max_entry):
        at["line"] = catalog_line(s)
        return keys, lambda direction, region=None: np.zeros(1, dtype=np.int8)

    def rects(h, t, k, l, se):
        at["frame"] = (k, l)
        return frame_rects(h, t, k, l, se)

    monkeypatch.setattr(harness, "_filling_table", table)
    monkeypatch.setattr(harness, "_frame_rects", rects)
    params = {"max_cells": max_cells, "kmax": max_cells, "lmax": max_cells, "max_entry": 1}
    harness._run("lem_ferrers", params, (0, 1))
    return frames


def test_gamma_frame_geometry(monkeypatch):
    # the frame (2, 2) on the partition with rows (1, 2), (1, 4), (1, 4):
    # height 3, top row of length 4
    # C_1, C_2, R_1, R_2 over columns 1..2 and the top row's 4 columns
    assert harness._frame_rects(3, 4, 2, 2, True) == [
        Rect(1, 1, 1, 3), Rect(1, 2, 1, 3), Rect(1, 4, 3, 3), Rect(1, 4, 2, 3)]
    # C'_1, C'_2, R'_1, R'_2
    assert harness._frame_rects(3, 4, 2, 2, False) == [
        Rect(2, 2, 1, 3), Rect(1, 2, 1, 3), Rect(1, 4, 2, 2), Rect(1, 4, 2, 3)]
    # the sum lines: SE's columns 1, 2 and rows 3, 2 meet NE's columns
    # 2, 1 and rows 2, 3, the other lines themselves
    line = catalog_line(shape_from_intervals([(1, 2), (1, 4), (1, 4)]))
    assert recorded_frames(monkeypatch, 10)[line][2, 2] == ([1, 3, 2], [2, 1, 3, 4])


def test_admissible_frame_counts(monkeypatch):
    tri = shape_from_intervals([(1, 1), (1, 2), (1, 3)])
    assert frame_counts_by_cells(tri) == (1, 1)
    box = shape_from_intervals([(1, 3), (1, 3)])
    assert frame_counts_by_cells(box) == (3, 2)
    stacked = shape_from_intervals([(1, 2), (1, 4), (1, 4)])
    assert frame_counts_by_cells(stacked) == (2, 2)
    # the runner's row rule, with kmax and lmax past every bound, takes
    # each frame the cell scan allows on every partition of <= 8 cells
    frames = {line: set(f) for line, f in recorded_frames(monkeypatch, 8).items()}
    expected = {}
    for n in range(1, 9):
        for s in filter(is_nw_ferrers, enum_skew_shapes(n)):
            k_adm, l_adm = frame_counts_by_cells(s)
            expected[catalog_line(s)] = set(itertools.product(range(k_adm + 1), range(l_adm + 1)))
    assert len(expected) == 66  # partitions of 1..8
    assert frames == expected


@pytest.mark.parametrize("broken", [False, True], ids=["as_built", "ne_rects_one_longer"])
@pytest.mark.parametrize("max_entry", [1, 2])
def test_lem_ferrers_matches_the_per_frame_reference(monkeypatch, max_entry, broken):
    """The runner's reports against signature matrices built for each
    frame and side with the sum lines in the lemma's order, as built and
    with NE chains one longer inside rectangles: then every frame with a
    special line fails and the frames (0, 0) pass."""
    if broken:
        chains = harness.support_chain_table

        def one_longer(s, direction, region=None):
            table = chains(s, direction, region)
            return table + 1 if direction == NE and region is not None else table

        monkeypatch.setattr(harness, "support_chain_table", one_longer)
    r = verify("lem_ferrers", max_cells=7, max_entry=max_entry)
    assert r == reference_lem_ferrers(7, 2, 2, max_entry)
    assert r.instances == 235
    assert len(r.failures) == (235 - 44 if broken else 0)  # 44 partitions of 1..7


@pytest.mark.parametrize("prop, max_cells, failing", [("lem_ferrers", 6, 43), ("rubey", 7, 304)])
def test_identity_permutations_fail_lem_ferrers_and_rubey(monkeypatch, prop, max_cells, failing):
    """The frames' and the swaps' (rho, sigma) are seen: with identity
    permutations in their place the checks fail.  rubey's swaps carry
    sigma in their labelings: with each side packed in its own moon's
    column order they fail as the per-moon check with the identity did.
    cor_sskew's refined part passes with the identity too (see the
    harness docstring)."""
    with_identity_permutations(monkeypatch, prop)
    assert len(verify(prop, max_cells=max_cells).failures) == failing


def test_sum_capped_family_is_closed_but_plain_cap_is_not():
    # the integer scans restrict to fillings whose row sums or column
    # sums all stay within the entry cap; those sum classes are complete
    # under the cap, and permuting row or column sums cannot leave the
    # family.  A bare entry cap lacks that closure: on the 2x2 square the
    # class with row and column sums (1, 3) contains a filling with an
    # entry 3, so capping entries at 2 keeps one member and drops the
    # other, and sum-reversal comparisons break.
    import numpy as np

    from skewfill._engine import line_sums, sum_capped_mask, value_matrix

    square = shape_from_intervals([(1, 2), (1, 2)])
    values = value_matrix(4, 3)
    rows = line_sums(values, square, by_row=True)
    cols = line_sums(values, square, by_row=False)
    want = np.array(
        [(r <= 2).all() or (c <= 2).all() for r, c in zip(rows, cols)]
    )
    assert (sum_capped_mask(rows, cols, 2) == want).all()

    # the problem class: all fillings with row sums (1, 3), col sums (1, 3)
    target = []
    for i in range(len(values)):
        if tuple(rows[i]) == (1, 3) and tuple(cols[i]) == (1, 3):
            target.append(values[i])
    entries = sorted(int(v.max()) for v in target)
    assert entries == [2, 3]  # one member needs an entry above 2


def test_report_is_deterministic_data():
    r = verify("lem_ferrers", max_cells=5)
    assert isinstance(r, VerificationReport)
    assert r.params == {"max_cells": 5, "kmax": 2, "lmax": 2, "max_entry": 2}
    assert r.passed


def test_lem_ferrers_builds_each_table_once_per_shape(monkeypatch):
    built = []
    table, chains = harness._filling_table, harness.support_chain_table

    def count_fillings(s, max_entry):
        built.append(("fillings", s))
        return table(s, max_entry)

    def count_chains(s, direction, region=None):
        built.append((direction, region, s))
        return chains(s, direction, region)

    monkeypatch.setattr(harness, "_filling_table", count_fillings)
    monkeypatch.setattr(harness, "support_chain_table", count_chains)
    r = verify("lem_ferrers", max_cells=6)
    assert r.passed and r.instances == 159
    assert len(built) == len(set(built))
    assert sum(key[0] == "fillings" for key in built) == 29  # partitions of 1..6
