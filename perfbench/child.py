"""A ``richseed`` command line in a fresh process, measured from inside.

    python perfbench/child.py [--trace] compute ...

It runs ``richseed.cli.main`` on its arguments and then writes one JSON
line to standard error, after whatever the command wrote there:
``ref`` and ``spent`` are the reference samples taken while it ran
(see calib.py) and their time; with ``--trace`` it takes none and
``trace`` holds the per-layer totals of tracer.py instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calib import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    traced = argv[:1] == ["--trace"]
    argv = argv[1:] if traced else argv
    cal = Calibrator()
    tracer = Tracer() if traced else None
    if not traced:
        cal.sample()
        cal.start()
    from richseed.cli import main as cli_main

    if tracer:
        tracer.install()
    try:
        rc = cli_main(argv)
    finally:
        cal.stop()
        if tracer:
            tracer.uninstall()
    sys.stderr.write("\n" + json.dumps({
        "ref": [r for _, r in cal.samples],
        "spent": cal.spent,
        "trace": tracer.totals() if tracer else None,
    }) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
