import hashlib

import pytest

from skewfill import cli
from skewfill.cli import main
from skewfill.enumeration import EnumSpec, catalog_line, catalog_lines, count_avoiders, \
    enum_skew_shapes
from skewfill.fillings import parse_filling, pattern_library
from skewfill.harness import format_report, parse_report_csv, parse_report_json, verify
from skewfill.shapes import classify_shape, parse_shape
from skewfill.structure import ferrers_decompose

DENT_TEXT = ".##\n###\n##.\n"


@pytest.fixture
def dent_file(tmp_path):
    path = tmp_path / "dent.txt"
    path.write_text(DENT_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_dent(capsys, dent_file):
    code, out, err = run(capsys, "classify", dent_file)
    assert code == 0 and err == ""
    assert out == (
        "cells: 7\n"
        "width: 3\n"
        "height: 3\n"
        "connected: true\n"
        "convex: true\n"
        "intersection_free: false\n"
        "moon: false\n"
        "nw_ferrers: false\n"
        "se_ferrers: false\n"
        "top_justified: false\n"
        "bottom_justified: false\n"
        "left_justified: false\n"
        "right_justified: false\n"
        "skew: true\n"
        "ds_free: false\n"
    )


def test_classify_all_hole_grid_is_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("..\n..\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/shape.txt")
    assert code == 2 and err.startswith("error:")


def test_decompose_staircase(capsys, tmp_path):
    path = tmp_path / "stair.txt"
    path.write_text(".##\n##.\n")
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 0
    assert out == ".  F2 F2\nF1 G1 .\nvertical cuts: 1, 3\nhorizontal cuts: 1\n"


def test_decompose_dent_is_an_error(capsys, dent_file):
    code, _, err = run(capsys, "decompose", dent_file)
    assert code == 2 and err.startswith("error:")


def test_count_transversal_avoiders(capsys, dent_file):
    code, out, _ = run(
        capsys, "count", "--mode", "transversal", "--avoid", "delta2", dent_file
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(
        capsys, "count", "--mode", "transversal", "--avoid", "iota2", dent_file
    )
    assert (code, out) == (0, "2\n")


def test_count_modes(capsys, dent_file):
    assert run(capsys, "count", dent_file)[:2] == (0, "128\n")
    assert run(
        capsys, "count", "--mode", "integer", "--max-entry", "2", dent_file
    )[:2] == (0, "2187\n")


def test_count_refuses_shapes_over_budget(capsys, dent_file, tmp_path, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    rect = tmp_path / "rect.txt"
    rect.write_text("######\n" * 5)
    counted = []

    def guarded_count(s, spec):
        counted.append(s.size)
        return count_avoiders(s, spec) if s.size <= 7 else 0

    monkeypatch.setattr("skewfill.cli.count_avoiders", guarded_count)
    for mode in ("binary", "sparse", "transversal"):
        code, out, err = run(capsys, "count", "--mode", mode, str(rect))
        assert (code, out) == (2, "") and "budget" in err
    code, _, err = run(capsys, "count", "--mode", "integer", "--max-entry", "7", dent_file)
    assert code == 2 and "8^7" in err
    assert counted == []
    assert run(capsys, "count", dent_file)[:2] == (0, "128\n")
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    assert run(capsys, "count", str(rect))[:2] == (0, "0\n")
    assert counted == [7, 30]


def test_count_multiple_avoid_flags_intersect(capsys, dent_file):
    code, out, _ = run(
        capsys, "count", "--avoid", "iota2", "--avoid", "fd", dent_file
    )
    assert (code, out) == (0, "72\n")


def test_count_reuses_one_parser_without_leaking_avoid_lists(capsys, dent_file, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    dent = parse_shape(DENT_TEXT)
    outputs = []
    for avoid in (("delta2",), ("iota2", "fd")):
        argv = ["count"] + [a for p in avoid for a in ("--avoid", p)] + [dent_file]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, f"{count_avoiders(dent, EnumSpec(avoid=avoid))}\n")
        outputs.append(out)
    # both counts are 72; a leaked delta2 would make the second one 45
    assert outputs == ["72\n", "72\n"]
    assert built == [1]


def test_count_avoid_pattern_from_file(capsys, dent_file, tmp_path):
    pat = tmp_path / "fd.txt"
    pat.write_text(".10\n001\n10.\n")
    code, out, _ = run(capsys, "count", "--avoid", f"@{pat}", dent_file)
    assert (code, out) == (0, "112\n")


def test_count_integer_mode_past_the_int16_range(capsys, tmp_path):
    """Entries past 32767 on a 1-cell shape: the values 0..4 avoid the
    filling 5.  An int16 value matrix would wrap and count 7238."""
    cell, five = tmp_path / "cell.txt", tmp_path / "five.txt"
    cell.write_text("#\n")
    five.write_text("5\n")
    code, out, _ = run(capsys, "count", "--mode", "integer", "--max-entry", "40000",
                       "--avoid", f"@{five}", str(cell))
    assert (code, out) == (0, "5\n")


def test_count_rejects_unknown_pattern(capsys, dent_file):
    code, _, err = run(capsys, "count", "--avoid", "sigma3", dent_file)
    assert code == 2 and err.startswith("error:")


def test_count_rejects_non_ascii_digits_in_pattern_tokens(capsys, tmp_path):
    square = tmp_path / "square.txt"
    square.write_text("##\n##\n")
    code, out, _ = run(capsys, "count", "--avoid", "iota2", str(square))
    assert (code, out) == (0, "12\n")
    code, out, err = run(capsys, "count", "--avoid", "iota\u0662", str(square))
    assert (code, out) == (2, "") and "unknown pattern token" in err


def test_enum_shapes_listing(capsys):
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "2")
    assert code == 0
    assert out == "[(1,1)]\n[(1,1),(1,1)]\n[(1,1),(2,2)]\n[(1,2)]\n"


def test_enum_shapes_filters(capsys):
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "4", "--connected")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 + 4 + 9


@pytest.mark.parametrize("flags", [(), ("--connected",), ("--ds-free",),
                                   ("--connected", "--ds-free")])
def test_enum_shapes_lists_each_size_as_enum_skew_shapes(capsys, flags):
    connected = True if "--connected" in flags else None
    ds_free = True if "--ds-free" in flags else None
    want = []
    for n in range(1, 9):
        want += [catalog_line(s) for s in enum_skew_shapes(n, connected, ds_free)]
        code, out, _ = run(capsys, "enum-shapes", "--max-cells", str(n), *flags)
        assert (code, out) == (0, "\n".join(want) + "\n")


# sha256 of `enum-shapes --max-cells 10` stdout and its line count, per
# flag set, as the walk that appended each list's children afresh gave them
ENUM_SHAPES_DIGESTS = {
    (): (38252, "77a67be85c596e21d1ad737a79b28e6185a64ef5222ea36af37588adb11fe346"),
    ("--ds-free",): (38079, "2765ed2d0fde60e5a6b5e71d3f261103c2935f663266bee554d9692fd98c94fe"),
    ("--connected",): (2271, "8a59ba48f1032f20273435f2726a22eba23e84921292c8ccaf24f2175547d6ae"),
    ("--connected", "--ds-free"):
        (2199, "a8c1f219c519411d00e9c78df69dc8bc3c538f8f8677f9996eb54603c666e0b8"),
}


@pytest.mark.parametrize("flags", list(ENUM_SHAPES_DIGESTS), ids=lambda f: "-".join(f) or "none")
def test_enum_shapes_output_is_pinned_by_digest(capsys, flags):
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "10", *flags)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (out.count("\n"), digest) == ENUM_SHAPES_DIGESTS[flags]


def test_enum_shapes_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "enum-shapes", "--max-cells", "0")
    assert code == 2 and err.startswith("error:")


def test_enum_shapes_capped_at_thirteen_cells(capsys, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    walked = []

    def no_lines(max_cells, connected, ds_free):
        walked.append(max_cells)
        return []

    monkeypatch.setattr("skewfill.cli.catalog_lines", no_lines)
    code, out, err = run(capsys, "enum-shapes", "--max-cells", "14")
    assert (code, out) == (2, "") and "exceeds cap 13" in err
    assert walked == []
    assert run(capsys, "enum-shapes", "--max-cells", "13")[0] == 0
    assert walked == [13]
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    assert run(capsys, "enum-shapes", "--max-cells", "14")[0] == 0
    assert walked == [13, 14]


def test_enum_shapes_writes_batches_as_one_listing(capsys, monkeypatch):
    lines = catalog_lines(6, False, False)
    monkeypatch.setattr("skewfill.cli._ENUM_BATCH", 100)
    assert len(lines) > 3 * 100
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "6")
    assert (code, out) == (0, "\n".join(lines) + "\n")


def test_bijection_forward_with_trace(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(".00\n010\n11.\n")
    code, out, _ = run(capsys, "bijection", "--forward", "--trace", str(path))
    assert code == 0
    assert out == (
        ".00\n"
        "100\n"
        "11.\n"
        "i=1 kind=inrow class=1 before=1101000 after=1101000\n"
        "i=2 kind=rowbreak class=id before=1101000 after=1101000\n"
        "i=3 kind=inrow class=2 before=1101000 after=1110000\n"
        "i=4 kind=inrow class=1 before=1110000 after=1110000\n"
        "i=5 kind=rowbreak class=id before=1110000 after=1110000\n"
        "i=6 kind=inrow class=1 before=1110000 after=1110000\n"
    )


def test_bijection_forward_backward_round_trip(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(".00\n010\n11.\n")
    code, out, _ = run(capsys, "bijection", "--forward", str(path))
    assert code == 0
    path.write_text(out)
    code, back, _ = run(capsys, "bijection", "--backward", str(path))
    assert code == 0
    assert back == ".00\n010\n11.\n"


def test_bijection_rejects_invalid_member(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(".00\n010\n11.\n")
    code, _, err = run(capsys, "bijection", "--backward", str(path))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("grid", ["11\n1.\n11\n", "1.\n.1\n"])
@pytest.mark.parametrize("direction", ["--forward", "--backward"])
def test_bijection_refuses_non_skew_shapes(capsys, tmp_path, grid, direction):
    path = tmp_path / "f.txt"
    path.write_text(grid)
    code, out, err = run(capsys, "bijection", direction, str(path))
    assert (code, out, err) == (2, "", "error: cell labels are defined for skew shapes only\n")


@pytest.mark.parametrize("grid", ["0\u0663\n00\n", "0\u00b2\n00\n"])
def test_bijection_rejects_non_ascii_digits(capsys, tmp_path, grid):
    path = tmp_path / "f.txt"
    path.write_text(grid, encoding="utf-8")
    code, out, err = run(capsys, "bijection", str(path))
    assert (code, out) == (2, "") and "bad token" in err


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "thm_bp", "--max-cells", "5")
    assert code == 0
    assert out == (
        "property: thm_bp\n"
        "params: max_cells=5\n"
        "instances: 24\n"
        "failures: 0\n"
        "details: shapes_with_transversal=24\n"
        "status: PASS\n"
    )


def test_verify_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "verify", "conjecture", "--max-cells", "5", "--format", "json"
    )
    assert code == 0
    report = parse_report_json(out)
    assert report.property == "conjecture" and report.passed
    assert report.elapsed_ms == 0.0


def test_verify_csv_round_trip(capsys):
    code, out, _ = run(
        capsys, "verify", "rubey", "--max-cells", "5", "--format", "csv"
    )
    assert code == 0
    report = parse_report_csv(out)
    assert report.property == "rubey" and report.passed


def test_verify_output_independent_of_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys,
            "verify",
            "ds_free_oracle",
            "--max-cells",
            "6",
            "--jobs",
            jobs,
            "--format",
            "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_budget_violation_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, _, err = run(capsys, "verify", "genskew", "--max-cells", "15")
    assert code == 2 and "exceeds cap" in err


def test_verify_jobs_cap_is_usage_error(capsys, fake_pool):
    argv = ("verify", "thm_bp", "--max-cells", "3", "--format", "json")
    code, serial, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--jobs", "64")
    assert (code, out) == (0, serial) and fake_pool == [64]
    code, out, err = run(capsys, *argv, "--jobs", "65")
    assert (code, out) == (2, "") and err.startswith("error:") and "jobs" in err
    assert fake_pool == [64]


@pytest.mark.parametrize("argv,message", [
    (("cor_sskew", "--refine-cells", "10"), "refine_cells=10 exceeds cap 9"),
    (("lem_ferrers", "--lmax", "3"), "lmax=3 exceeds cap 2"),
    (("thm_bp", "--lmax", "1"), "does not take parameter 'lmax'"),
    (("lem_ferrers", "--refine-cells", "1"), "does not take parameter 'refine_cells'"),
])
def test_verify_refine_cells_and_lmax_refusals(capsys, monkeypatch, fake_pool, argv, message):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, out, err = run(capsys, "verify", *argv, "--jobs", "2")
    assert (code, out) == (2, "") and err.startswith("error:") and message in err
    assert fake_pool == []


@pytest.mark.parametrize("argv,params", [
    (("cor_sskew", "--max-cells", "6", "--refine-cells", "5"), dict(max_cells=6, refine_cells=5)),
    (("cor_sskew", "--refine-cells", "0"), dict(refine_cells=0)),
    (("lem_ferrers", "--max-cells", "5", "--lmax", "1"), dict(max_cells=5, lmax=1)),
    (("lem_ferrers", "--max-cells", "4", "--lmax", "0", "--k", "1"),
     dict(max_cells=4, lmax=0, kmax=1)),
])
def test_verify_refine_cells_and_lmax_reach_verify(capsys, argv, params):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    report = verify(argv[0], **params)
    report.elapsed_ms = 0.0
    assert (code, out) == (0, format_report(report, "json") + "\n")


@pytest.mark.parametrize("argv", [
    ("verify", "thm_bp", "--max-cells", "\u0663"),  # an Arabic-Indic three
    ("verify", "thm_bp", "--max-cells", "3", "--jobs", "\u0661"),  # an Arabic-Indic one
    ("verify", "conjecture", "--max-cells", "3", "--k", "\u0661"),
    ("verify", "rubey", "--max-cells", "3", "--max-entry", "\u0661"),
    ("verify", "cor_sskew", "--max-cells", "3", "--refine-cells", "\u0661"),
    ("verify", "lem_ferrers", "--max-cells", "3", "--lmax", "\u0661"),
    ("enum-shapes", "--max-cells", "\u0663"),
])
def test_integer_options_take_ascii_digits_only(capsys, fake_pool, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "invalid integer value" in err
    assert fake_pool == []


def test_count_max_entry_takes_ascii_digits_only(capsys, tmp_path):
    square = tmp_path / "square.txt"
    square.write_text("##\n##\n")
    code, out, _ = run(capsys, "count", "--mode", "integer", "--max-entry", "1", str(square))
    assert (code, out) == (0, "16\n")
    code, out, err = run(capsys, "count", "--mode", "integer", "--max-entry", "\u0661",
                         str(square))
    assert (code, out) == (2, "") and "invalid integer value" in err


def test_integer_options_take_plain_ascii_digits(capsys):
    code, out, _ = run(capsys, "verify", "thm_bp", "--max-cells", "3", "--jobs", "1",
                       "--format", "json")
    report = parse_report_json(out)
    assert code == 0 and report.params == {"max_cells": 3} and report.instances == 5


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("argv", [
    ("cor_sskew", "--max-cells", "4", "--k", "0"),
    ("conjecture", "--k", "0"),
    ("lem_ferrers", "--max-entry", "-1"),
    ("rubey", "--max-entry", "-1"),
    ("cor_sskew", "--max-entry", "0"),
    ("genskew", "--max-cells", "0"),
    ("thm_bp", "--max-cells", "-1"),
    ("cor_sskew", "--refine-cells", "-1"),
    ("lem_ferrers", "--lmax", "-1"),
    ("cor_sskew", "--max-cells", "4", "--k", "1"),
])
def test_verify_rejects_low_values_before_any_pool(capsys, monkeypatch, fake_pool,
                                                    argv, override):
    if override:
        monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    else:
        monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, out, err = run(capsys, "verify", *argv, "--jobs", "2")
    assert (code, out) == (2, "") and err.startswith("error:") and "is below" in err
    assert fake_pool == []


def test_verify_rubey_at_its_cell_cap(capsys, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, out, _ = run(capsys, "verify", "rubey", "--max-cells", "10", "--format", "json")
    report = parse_report_json(out)
    assert code == 0 and report.passed and report.instances == 5676


def test_verify_shape_checks_one_catalog_line(capsys):
    line = "[(1,2),(1,3),(2,3)]"
    code, out, _ = run(capsys, "verify", "genskew", "--shape", line, "--format", "json")
    assert code == 0
    assert parse_report_json(out) == verify("genskew", shape=line)
    assert parse_report_json(out).params["shape"] == line


def test_verify_shape_rejects_a_malformed_line(capsys):
    code, out, err = run(capsys, "verify", "lemma_gi", "--shape", "[(1,2),(1,3")
    assert (code, out) == (2, "") and "bad catalog line" in err


@pytest.mark.parametrize("line", ["[(1," + "-" * 5000 + "1)]", "[(1," + "-" * 100_000 + "1)]",
                                  "{[1]}", "{[1]: 2}"],
                         ids=["recursion", "parser_stack", "unhashable_member", "unhashable_key"])
def test_verify_shape_rejects_a_line_literal_eval_cannot_build(capsys, line):
    # literal_eval raises RecursionError, MemoryError and TypeError here
    code, out, err = run(capsys, "verify", "genskew", "--shape", line)
    assert (code, out) == (2, "") and "bad catalog line" in err
    with pytest.raises(ValueError, match="bad catalog line"):
        verify("genskew", shape=line)


CUT = "more characters cut"


@pytest.mark.parametrize("argv, message, marker", [
    (("verify", "genskew", "--shape", "[(1," + "-" * 100_000 + "1)]"), "bad catalog line", CUT),
    (("verify", "genskew", "--shape", "[(1,1),(2,'" + "x" * 100_000 + "')]"),
     "breaks the catalog grammar", CUT),
    (("verify", "genskew", "--shape", "[(1,0x" + "f" * 3000 + ")]"), "exceeds cap 14", CUT),
    # past the interpreter's limit of 4300 printed digits
    (("verify", "genskew", "--shape", "[(1,0x" + "f" * 5000 + ")]"), "exceeds cap 14",
     "int too long to print"),
    (("verify", "genskew", "--max-cells", "x" * 100_000), "invalid integer value", CUT),
    (("count", "--avoid", "x" * 100_000, "SHAPE"), "unknown pattern token", CUT),
    # all digits, but past the interpreter's limit on parsed digits
    (("verify", "genskew", "--max-cells", "9" * 5000), "invalid integer value", CUT),
    (("verify", "x" * 5000), "invalid choice", CUT),
    (("verify", "genskew", "--format", "x" * 5000), "invalid choice", CUT),
    (("count", "--mode", "x" * 5000, "SHAPE"), "invalid choice", CUT),
    (("x" * 5000,), "invalid choice", CUT),
], ids=["catalog_line", "interval", "cells", "cells_past_digit_limit", "integer", "pattern",
        "integer_past_digit_limit", "property", "format", "mode", "verb"])
def test_a_long_bad_input_is_quoted_cut(capsys, monkeypatch, dent_file, argv, message, marker):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, out, err = run(capsys, *(str(dent_file) if a == "SHAPE" else a for a in argv))
    assert (code, out) == (2, "") and message in err and marker in err
    assert len(err) < 600  # the usage lines and one quoted prefix


def test_verify_shape_over_the_cap_names_it(capsys, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    code, out, err = run(capsys, "verify", "genskew", "--shape", "[(1,15)]")
    assert (code, out) == (2, "") and "shape cells=15 exceeds cap 14" in err


def test_verify_shape_refused_by_a_property_without_one(capsys):
    code, out, err = run(capsys, "verify", "thm_bp", "--shape", "[(1,1)]")
    assert (code, out) == (2, "")
    assert "property thm_bp does not take parameter 'shape'" in err


def test_verify_rejects_unknown_property(capsys):
    code, _, _ = run(capsys, "verify", "everything")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "classify" in out and "verify" in out


def test_missing_verb_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_classify_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(DENT_TEXT))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert out.startswith("cells: 7\n")


def test_grid_verbs_refuse_grids_over_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    calls = []

    def recorded(verb, body):
        def run_body(*args, **kwargs):
            calls.append(verb)
            return body(*args, **kwargs)
        return run_body

    monkeypatch.setattr("skewfill.cli.classify_shape", recorded("classify", classify_shape))
    monkeypatch.setattr("skewfill.cli.ferrers_decompose",
                        recorded("decompose", ferrers_decompose))
    monkeypatch.setattr("skewfill.cli.full_forward",
                        recorded("bijection", lambda f, keep_trace: (f, None)))

    def grid(n, ch):
        return (ch * n + "\n") * n

    diagonal = "".join("." * (15 - i) + "#" + "." * i + "\n" for i in range(16))
    path = tmp_path / "grid.txt"
    big = [("classify", grid(16, "#")), ("classify", diagonal),
           ("decompose", grid(16, "#")), ("bijection", grid(16, "0"))]
    for verb, text in big:  # the diagonal has 16 cells on a 16 x 16 grid
        path.write_text(text)
        code, out, err = run(capsys, verb, str(path))
        assert (code, out) == (2, "") and "grid cells=256 exceeds cap 225" in err
    assert calls == []
    for verb, ch in (("classify", "#"), ("decompose", "#"), ("bijection", "0")):
        path.write_text(grid(15, ch))  # at the cap
        assert run(capsys, verb, str(path))[0] == 0
    assert calls == ["classify", "decompose", "bijection"]
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    for verb, text in big:
        path.write_text(text)
        assert run(capsys, verb, str(path))[0] == 0
    assert calls[3:] == [verb for verb, _ in big]


@pytest.mark.parametrize("argv, token, message", [
    (("classify", "BIG"), "#", "classify: grid cells=200000 exceeds cap 225"),
    (("decompose", "BIG"), "#", "decompose: grid cells=200000 exceeds cap 225"),
    (("bijection", "BIG"), "0", "bijection: grid cells=200000 exceeds cap 225"),
    (("count", "BIG"), "#", "count budget: host cells=200000 exceeds cap 20"),
    (("count", "--avoid", "@BIG", "SHAPE"), "0", "pattern grid: columns=200000 exceeds cap 20"),
], ids=["classify", "decompose", "bijection", "count", "avoid_file"])
def test_an_oversized_grid_is_refused_before_it_is_parsed(capsys, tmp_path, monkeypatch,
                                                         dent_file, argv, token, message):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    parsed = []

    def recorded(parse):
        def run_parse(text):
            parsed.append(len(text))
            return parse(text)
        return run_parse

    monkeypatch.setattr("skewfill.cli.parse_shape", recorded(parse_shape))
    monkeypatch.setattr("skewfill.cli.parse_filling", recorded(parse_filling))
    big = tmp_path / "big.txt"
    big.write_text(token * 200_000 + "\n")
    argv = [a.replace("BIG", str(big)).replace("SHAPE", str(dent_file)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and message in err
    assert all(n < 200_000 for n in parsed)


def test_count_caps_an_avoid_file_at_20_rows_and_columns(capsys, tmp_path, dent_file,
                                                        monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    pattern = tmp_path / "pattern.txt"
    for text, message in (("0" * 21 + "\n", "columns=21 exceeds cap 20"),
                          ("0\n" * 21, "rows=21 exceeds cap 20")):
        pattern.write_text(text)
        code, out, err = run(capsys, "count", "--avoid", f"@{pattern}", str(dent_file))
        assert (code, out) == (2, "") and message in err
    pattern.write_text("0" * 20 + "\n")  # at the cap, and it cannot occur
    assert run(capsys, "count", "--avoid", f"@{pattern}", str(dent_file))[:2] == (0, "128\n")
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    pattern.write_text("0\n" * 21)
    assert run(capsys, "count", "--avoid", f"@{pattern}", str(dent_file))[:2] == (0, "128\n")


def test_count_refuses_oversized_pattern_tokens(capsys, dent_file, monkeypatch):
    monkeypatch.delenv("SKEWFILL_BUDGET_OVERRIDE", raising=False)
    built = []

    def recorded_library(name):
        built.append(name)
        return pattern_library(name)

    monkeypatch.setattr("skewfill.cli.pattern_library", recorded_library)
    for token in ("iota21", "delta1000", " iota 100000000"):
        code, out, err = run(capsys, "count", "--avoid", token, dent_file)
        assert (code, out) == (2, "") and "exceeds cap 20" in err
    assert built == []
    assert run(capsys, "count", "--avoid", "delta20", dent_file)[:2] == (0, "128\n")
    monkeypatch.setenv("SKEWFILL_BUDGET_OVERRIDE", "1")
    assert run(capsys, "count", "--avoid", "iota21", dent_file)[:2] == (0, "128\n")
    assert built == ["delta20", "iota21"]
