"""What a cold process loads: ``import richseed.cli`` and an A5 ``compute
--no-check`` load neither ``dataclasses`` (with ``inspect`` behind it) nor
the golden tables, and that ``compute``, read without a parser, loads
neither ``argparse`` nor ``richseed.commands``.  Each set is the modules
the code adds beyond a bare interpreter started the same way, so site
hooks do not count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import richseed

SRC = str(Path(richseed.__file__).resolve().parent.parent)
# the environment in which perfbench/run.py starts its processes
ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": SRC,
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
    "LC_ALL": "C",
}
UNWANTED = {"dataclasses", "inspect", "richseed.golden"}
PARSER = {"argparse", "richseed.commands"}
A5_COMPUTE = ["compute", "--type", "A5", "--w", "1,3,2,4,3,2,4,5,4,3,2,1,2",
              "--v", "2,4,5,3,1,2", "--no-check"]


def _modules(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, check=True)
    return set(proc.stderr.split())


def _added(code: str) -> set[str]:
    return _modules(code) - _modules("pass")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_golden():
    added = _added("import richseed.cli")
    assert {"richseed.cli", "richseed.mutalg"} <= added
    assert not added & UNWANTED


def test_a_cold_compute_loads_no_dataclasses_inspect_or_golden():
    added = _added(f"from richseed.cli import main\nassert main({A5_COMPUTE!r}) == 0")
    assert {"richseed.cli", "richseed.mutalg"} <= added
    assert not added & (UNWANTED | PARSER)


def test_examples_load_the_golden_tables():
    # the check above can see a loaded module
    added = _added("from richseed.cli import main\nassert main(['examples']) == 0")
    assert "richseed.golden" in added
    assert PARSER <= added


@pytest.mark.parametrize("argv", [
    ["verify", "--type", "A3", "--samples", "2", "--checks", "induction"],
    ["compute", "-h"],
], ids=["verify", "compute-help"])
def test_other_command_lines_load_argparse_and_commands(argv):
    # as examples does: the check of a cold compute can see both modules
    added = _added(f"from richseed.cli import main\ntry:\n    main({argv!r})\nexcept SystemExit:\n    pass")
    assert PARSER <= added
