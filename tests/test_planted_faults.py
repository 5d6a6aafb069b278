"""Every entry of ``planted_faults.json`` still applies to the source: its
old text occurs exactly once in its file, and each test it names exists.
Running the faults takes a pytest process each; ``planted_faults.py``
does that, outside this suite.  Likewise each site that ``raise_sweep.py``
allows to be missed is still exactly one of its sites."""

import re

import pytest
from planted_faults import ROOT, load, patched
from raise_sweep import ALLOWED, sites


@pytest.mark.parametrize("fault", load(), ids=lambda fault: fault["id"])
def test_a_planted_fault_still_applies(fault):
    assert patched(fault) != (ROOT / fault["file"]).read_text()
    assert fault["tests"] and fault["why"]
    for test in fault["tests"]:
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[[^\]]+\])?", test).group(1, 2)
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


@pytest.mark.parametrize("file, text", sorted(ALLOWED), ids=lambda x: x.rsplit("/")[-1])
def test_an_allowed_miss_of_the_raise_sweep_is_one_site(file, text):
    assert sum(text in statement for _, statement, _ in sites(file)) == 1
