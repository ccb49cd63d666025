import pytest

from skewfill.cli import main
from skewfill.enumeration import count_avoiders
from skewfill.harness import parse_report_csv, parse_report_json

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


def test_count_avoid_pattern_from_file(capsys, dent_file, tmp_path):
    pat = tmp_path / "fd.txt"
    pat.write_text(".10\n001\n10.\n")
    code, out, _ = run(capsys, "count", "--avoid", f"@{pat}", dent_file)
    assert (code, out) == (0, "112\n")


def test_count_rejects_unknown_pattern(capsys, dent_file):
    code, _, err = run(capsys, "count", "--avoid", "sigma3", dent_file)
    assert code == 2 and err.startswith("error:")


def test_enum_shapes_listing(capsys):
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "2")
    assert code == 0
    assert out == "[(1,1)]\n[(1,1),(1,1)]\n[(1,1),(2,2)]\n[(1,2)]\n"


def test_enum_shapes_filters(capsys):
    code, out, _ = run(capsys, "enum-shapes", "--max-cells", "4", "--connected")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 + 4 + 9


def test_enum_shapes_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "enum-shapes", "--max-cells", "0")
    assert code == 2 and err.startswith("error:")


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
    code, _, err = run(capsys, "verify", "genskew", "--max-cells", "12")
    assert code == 2 and "exceeds cap" in err


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
