"""Run the planted faults of ``planted_faults.json``, one at a time.

Each entry names a source file, a text that must occur in it exactly
once, its replacement and the tests that must catch the fault.  For each
entry the runner copies ``src/`` to a temporary directory, applies the one
replacement there and runs the named tests against the copy in a single
pytest process; the fault is caught when at least one of them fails.  An
entry whose text no longer occurs exactly once is an error, not a skip:
a change to the source must update its faults.  The entries run one after
another, never in parallel.

Usage, from anywhere::

    python tests/planted_faults.py

It prints one line per fault and exits 1 unless every fault was caught.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAULTS = Path(__file__).with_name("planted_faults.json")

# imports the package from the patched copy before pytest starts, so that
# neither the path pytest prepends nor an installed copy can shadow it
_PYTEST = """
import sys
import richseed
if not richseed.__file__.startswith(sys.argv[1]):
    sys.exit(f"richseed was imported from {richseed.__file__}")
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def load() -> list[dict]:
    return json.loads(FAULTS.read_text())


def patched(fault: dict) -> str:
    """The text of the fault's file with the one replacement made; raises
    ``ValueError`` unless the old text occurs exactly once."""
    text = (ROOT / fault["file"]).read_text()
    if (n := text.count(fault["old"])) != 1:
        raise ValueError(f"the old text occurs {n} times in {fault['file']}")
    return text.replace(fault["old"], fault["new"])


def run_patched(file: str, text: str, args: list[str]) -> tuple[bool, str]:
    """(some test failed, the last line of pytest's report) for one pytest
    process that runs ``args`` against a copy of ``src/`` in which
    ``file``, a path from the repository root, reads ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / file).write_text(text)
        src = str(Path(tmp) / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _PYTEST, src, "-q", "-p", "no:cacheprovider", *args],
            cwd=tmp, env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True,
        )
    lines = (proc.stdout + proc.stderr).strip().splitlines() or [""]
    # pytest exits 1 when a test failed; 0 is a missed fault, and any other
    # code (a test not found, an error before the run) is no catch either
    return proc.returncode == 1 and bool(re.search(r"\d+ failed", lines[-1])), lines[-1]


def plant(fault: dict) -> tuple[bool, str]:
    """(caught, the last line of pytest's report) for one fault."""
    return run_patched(fault["file"], patched(fault), [str(ROOT / t) for t in fault["tests"]])


def main() -> int:
    ok = True
    for fault in load():
        start = time.perf_counter()
        try:
            caught, summary = plant(fault)
            status = "caught" if caught else "MISSED"
        except ValueError as exc:
            status, summary = "STALE", str(exc)
        ok &= status == "caught"
        seconds = time.perf_counter() - start
        print(f"{status} {fault['id']}: {summary} ({seconds:.1f} s)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
