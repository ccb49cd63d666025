"""Golden verify reports at the small test budgets and at the defaults.

tests/golden/<prop>.json holds the JSON report of verify(prop) at
SMALL_BUDGETS, and tests/golden/default/<prop>.json the report of
verify(prop) at its default budgets, each without its timing field.  The
files were written by this module run as a script (PYTHONPATH=src python
tests/test_golden.py) and are self-generated: they catch any change in a
report, but they are not an oracle.  The acceptance tests stay the gate
for correctness.
"""

import json
import pathlib

import pytest

from skewfill.harness import PROPERTIES, format_report, verify

from test_verify import SMALL_BUDGETS

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEFAULT = GOLDEN / "default"


def report_data(prop, budgets):
    data = json.loads(format_report(verify(prop, **budgets), fmt="json"))
    del data["millis"]
    return data


@pytest.mark.parametrize("prop", PROPERTIES)
def test_report_matches_golden(prop):
    assert report_data(prop, SMALL_BUDGETS[prop]) == json.loads((GOLDEN / f"{prop}.json").read_text())


@pytest.mark.parametrize("prop", PROPERTIES)
def test_default_report_matches_golden(prop):
    # reports at default budgets must stay byte-identical across refactors
    assert report_data(prop, {}) == json.loads((DEFAULT / f"{prop}.json").read_text())


if __name__ == "__main__":
    DEFAULT.mkdir(parents=True, exist_ok=True)
    for prop in PROPERTIES:
        for folder, budgets in ((GOLDEN, SMALL_BUDGETS[prop]), (DEFAULT, {})):
            text = json.dumps(report_data(prop, budgets), sort_keys=True, indent=1)
            (folder / f"{prop}.json").write_text(text + "\n")
