"""Record the output digest of every pool case: ``refs.json``.

    python3 perfbench/record.py [workload ...]

Run it only at the commit whose outputs are the reference; every
benchmark run compares against what it wrote.  Digests are the first 16
hex digits of the sha256 of the ``richseed compute`` output, which is
the same for a fresh process and for ``main`` called in-process.
"""

from __future__ import annotations

import json
import sys

import worker

POOLS = {
    "cold_cli": 5 * worker.COLD_PASSES,
    "warm_long_v": worker.WARM_POOL,
    "sweep_small": worker.SWEEP_BLOCKS * worker.corpus.SWEEP_BLOCK,
}


def main(names: list[str]) -> int:
    path = worker.HERE / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(POOLS):
        digests = []
        for i in range(POOLS[name]):
            rc, out = worker.run_in_process(worker.corpus.case(name, i),
                                            check=name != "cold_cli")
            if rc != 0:
                print(f"{name} case {i}: exit code {rc}", file=sys.stderr)
                return 1
            digests.append(worker.digest(out))
        refs[name] = digests
        print(f"{name}: {len(digests)} cases", file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
