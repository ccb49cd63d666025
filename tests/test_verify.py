import os

import numpy as np
import pytest

from skewfill import harness
from skewfill._engine import ShapeContext
from skewfill.enumeration import parse_catalog_line
from skewfill.harness import (
    _MAX_JOBS,
    PROPERTIES,
    BudgetError,
    GammaFrame,
    VerificationReport,
    admissible_frame_counts,
    check_budget,
    format_report,
    parse_report_csv,
    parse_report_json,
    verify,
)
from skewfill.shapes import Rect, dent_shape, normalize


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
                verify(prop, max_cells=15)
        with pytest.raises(BudgetError):
            verify("genskew", max_cells=13)
        with pytest.raises(BudgetError):
            verify("rubey", max_entry=3)
        with pytest.raises(BudgetError):
            verify("rubey", max_cells=11)
    finally:
        if saved is not None:
            os.environ["SKEWFILL_BUDGET_OVERRIDE"] = saved


def test_budget_override_unlocks():
    saved = os.environ.get("SKEWFILL_BUDGET_OVERRIDE")
    os.environ["SKEWFILL_BUDGET_OVERRIDE"] = "1"
    try:
        r = verify("lemma_gi", max_cells=9, shape="[(1,1)]")
        assert r.passed
    finally:
        if saved is None:
            del os.environ["SKEWFILL_BUDGET_OVERRIDE"]
        else:
            os.environ["SKEWFILL_BUDGET_OVERRIDE"] = saved


def test_shape_parameter_respects_cell_cap(monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    for prop, line in (("genskew", "[(1,13)]"), ("lemma_gi", "[(1,11)]")):
        with pytest.raises(BudgetError):
            verify(prop, shape=line)
    assert verify("lemma_gi", shape="[(1,10)]").instances == 9  # at the cap
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    r = verify("genskew", shape="[(1,11)]")
    assert r.passed and r.instances == 2048
    assert verify("lemma_gi", shape="[(1,11)]").instances == 10


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
    for prop, kw in (("cor_sskew", dict(refine_cells=-1)), ("cor_sskew", dict(kmax=0)),
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
    line = "[(1,2),(1,3)]"
    broken = parse_catalog_line(line)
    apply_all = ShapeContext.apply_all

    def identity_for_one_shape(self, F, forward=True):
        return F if self.shape == broken else apply_all(self, F, forward)

    monkeypatch.setattr(ShapeContext, "apply_all", identity_for_one_shape)
    r = verify("genskew", max_cells=5)
    assert r.failures == [{"shape": line, "clause": "image is not the final stage"}]


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


def test_three_jobs_with_empty_and_lopsided_shards():
    # one catalog shape, or one single shape, leaves two shards empty
    for kw in (dict(max_cells=1), dict(shape=dent_shape())):
        for prop in ("genskew", "lemma_gi"):
            assert verify(prop, jobs=3, **kw) == verify(prop, **kw)
    # four subtrees at two cells: the first shard gets two of them
    assert verify("thm_bp", max_cells=2, jobs=3) == verify("thm_bp", max_cells=2)


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
    for text in ("[]", '"report"', "{}", '{"property": "thm_bp"}'):
        with pytest.raises(ValueError):
            parse_report_json(text)


def test_report_csv_round_trip():
    r = verify("rubey", max_cells=5)
    back = parse_report_csv(format_report(r, fmt="csv"))
    assert back == r
    with pytest.raises(ValueError):
        parse_report_csv("property,extra\nx,y\n")


def test_format_report_unknown_format():
    r = verify("thm_bp", max_cells=4)
    with pytest.raises(ValueError):
        format_report(r, fmt="yaml")


def test_gamma_frame_geometry():
    f = shape_from_intervals([(1, 2), (1, 4), (1, 4)])
    frame = GammaFrame(F=f, k=2, l=2)
    assert frame.h == 3 and frame.w == 4 and frame.t == 4
    assert frame.c_rect(1) == Rect(1, 1, 1, 3)
    assert frame.c_prime_rect(1) == Rect(2, 2, 1, 3)
    assert frame.r_rect(1) == Rect(1, 4, 3, 3)
    assert frame.r_prime_rect(1) == Rect(1, 4, 2, 2)
    assert frame.c_line(2) == 2 and frame.c_prime_line(2) == 1
    assert frame.r_line(1) == 3 and frame.r_prime_line(2) == 3


def test_gamma_frame_validation():
    dent = dent_shape()
    with pytest.raises(ValueError):
        GammaFrame(F=dent, k=1, l=1)
    tri = shape_from_intervals([(1, 1), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        GammaFrame(F=tri, k=2, l=1)  # column 2 misses the bottom row
    with pytest.raises(ValueError):
        GammaFrame(F=tri, k=1, l=2)  # top two rows differ in length
    with pytest.raises(ValueError):
        GammaFrame(F=tri, k=5, l=0)


def test_admissible_frame_counts():
    tri = shape_from_intervals([(1, 1), (1, 2), (1, 3)])
    assert admissible_frame_counts(tri) == (1, 1)
    box = shape_from_intervals([(1, 3), (1, 3)])
    assert admissible_frame_counts(box) == (3, 2)
    stacked = shape_from_intervals([(1, 2), (1, 4), (1, 4)])
    assert admissible_frame_counts(stacked) == (2, 2)


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
    from skewfill.fillings import sum_vector

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
    capped, chains = harness._capped_fillings, harness.support_chain_table

    def count_fillings(s, max_entry):
        built.append(("fillings", s))
        return capped(s, max_entry)

    def count_chains(s, direction, region=None):
        built.append((direction, region, s))
        return chains(s, direction, region)

    monkeypatch.setattr(harness, "_capped_fillings", count_fillings)
    monkeypatch.setattr(harness, "support_chain_table", count_chains)
    r = verify("lem_ferrers", max_cells=6)
    assert r.passed and r.instances == 159
    assert len(built) == len(set(built))
    assert sum(key[0] == "fillings" for key in built) == 29  # partitions of 1..6
