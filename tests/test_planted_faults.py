"""Every entry of ``planted_faults.json`` still applies to the source: its
old text occurs exactly once in its file, and each test it names exists.
Running the faults takes a pytest process each; ``planted_faults.py``
does that, outside this suite."""

import re

import pytest
from planted_faults import ROOT, load, patched


@pytest.mark.parametrize("fault", load(), ids=lambda fault: fault["id"])
def test_a_planted_fault_still_applies(fault):
    assert patched(fault) != (ROOT / fault["file"]).read_text()
    assert fault["tests"] and fault["why"]
    for test in fault["tests"]:
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[[^\]]+\])?", test).group(1, 2)
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
