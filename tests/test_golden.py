"""Golden verify reports at the small test budgets.

tests/golden/<prop>.json holds the JSON report of verify(prop) at
SMALL_BUDGETS, without its timing field.  The files were written by this
module run as a script (PYTHONPATH=src python tests/test_golden.py) and
are self-generated: they catch any change in a report, but they are not
an oracle.  The acceptance tests stay the gate for correctness.
"""

import json
import pathlib

import pytest

from skewfill.harness import PROPERTIES, format_report, verify

from test_verify import SMALL_BUDGETS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report_data(prop):
    data = json.loads(format_report(verify(prop, **SMALL_BUDGETS[prop]), fmt="json"))
    del data["millis"]
    return data


@pytest.mark.parametrize("prop", PROPERTIES)
def test_report_matches_golden(prop):
    assert report_data(prop) == json.loads((GOLDEN / f"{prop}.json").read_text())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for prop in PROPERTIES:
        text = json.dumps(report_data(prop), sort_keys=True, indent=1)
        (GOLDEN / f"{prop}.json").write_text(text + "\n")
