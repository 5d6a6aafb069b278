"""One workload in one fresh process; ``run.py`` starts it.

It prints ``ready`` once set-up is done (import, input generation, Word
construction and, on ``warm_long_v``, the untimed warm-up pass), then
measures, and prints its raw measurements as one JSON line.

On ``cold_cli`` and ``warm_long_v`` it repeats every seed until
``--seconds`` have passed and each seed ran at least MIN_REPEATS times
and for at least MIN_SEED_S.
On ``sweep_small`` it runs one pass over its seeds, each once, since the
seeds of that workload must meet caches that only grow; ``run.py``
repeats the pass in fresh processes.  With ``--trace 1`` the first pass
is traced and not counted among the timed seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from calib import Calibrator  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

# Pool sizes: case i of a pool is corpus.case(workload, i) and its
# output digest is refs.json[workload][i].
COLD_PASSES = 12  # cold_cli pass j is cases 5j..5j+4
WARM_POOL = 16
SWEEP_BLOCKS = 182
SWEEP_PASS = 5  # blocks of corpus.SWEEP_BLOCK cases in one pass
MIN_REPEATS = 2
MIN_SEED_S = 2.0
CHILD_TIMEOUT_S = 150


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:16]


def compute_argv(case: dict, check: bool) -> list[str]:
    argv = ["compute", "--type", case["type"], "--w", case["w"], "--v", case["v"],
            "--order", case["order"]]
    if "vdot" in case:
        argv += ["--vdot", case["vdot"]]
    if not check:
        argv.append("--no-check")
    return argv


class Plan:
    """The pool cases a seed selects: one per type on ``cold_cli``, one
    on ``warm_long_v``, SWEEP_PASS blocks on ``sweep_small``."""

    def __init__(self, workload: str, seed: int):
        rng = random.Random(seed)
        if workload == "cold_cli":
            # slot s of pass j is case 5j+s; every slot is drawn on its own
            self.indices = [5 * rng.randrange(COLD_PASSES) + s for s in range(5)]
        elif workload == "warm_long_v":
            self.indices = [rng.randrange(WARM_POOL)]
        else:
            blocks = rng.sample(range(SWEEP_BLOCKS), SWEEP_PASS)
            self.indices = [b * corpus.SWEEP_BLOCK + k for b in blocks
                            for k in range(corpus.SWEEP_BLOCK)]


def run_cold(case: dict, traced: bool) -> tuple[int, bytes, dict]:
    """One fresh ``richseed compute --no-check`` process, and what it
    reported of itself (see child.py)."""
    cmd = [sys.executable, str(HERE / "child.py")] + ["--trace"] * traced
    proc = subprocess.run(cmd + compute_argv(case, check=False), capture_output=True,
                          env=os.environ.copy(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    lines = proc.stderr.decode().rsplit("\n", 2)
    if proc.returncode != 0:
        sys.stderr.write(lines[0])
    return proc.returncode, proc.stdout, json.loads(lines[-2])


def run_in_process(case: dict, check: bool = True) -> tuple[int, bytes]:
    """``richseed compute`` in this process, through the same ``main``."""
    from richseed.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(compute_argv(case, check))
    return rc, buf.getvalue().encode()


def golden_failures(out: bytes) -> list[str]:
    """Differences between an A5 golden output and golden.A5_*."""
    from richseed import golden

    doc = json.loads(out)
    meta = doc["metadata"]
    got = {
        "positions": tuple(meta["positions"]),
        "schedule": tuple(tuple(b) for b in meta["schedule"]),
        "deleted": tuple(meta["deleted"]),
        "survivors": tuple(v["id"] for v in doc["vertices"]),
        "frozen": tuple(v["id"] for v in doc["vertices"] if v["frozen"]),
        "arrows": {(a["src"], a["dst"]) for a in doc["arrows"]},
    }
    want = {
        "positions": golden.A5_POSITIONS,
        "schedule": golden.A5_SCHEDULE,
        "deleted": golden.A5_DELETED,
        "survivors": golden.A5_SURVIVORS,
        "frozen": golden.A5_FROZEN,
        "arrows": golden.A5_FINAL_ARROWS,
    }
    return [k for k in want if got[k] != want[k]]


class Runner:
    def __init__(self, workload: str, refs: list[str], cal: Calibrator):
        self.workload = workload
        self.refs = refs
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.totals: dict = {}
        # what the last cold child reported of itself
        self.child: dict | None = None
        # seed -> [seconds, mean reference sample] of each timed repeat
        self.samples: dict[int, list[list[float]]] = {}

    def seed(self, i: int, case: dict, traced: bool) -> float:
        """Run one seed, check it, and return its time in seconds."""
        self.attempted += 1
        self.child = None
        t0 = time.perf_counter()
        try:
            if self.workload == "cold_cli":
                rc, out, self.child = run_cold(case, traced)
                if traced:
                    merge(self.totals, self.child["trace"])
            else:
                rc, out = run_in_process(case)
        except Exception:  # a seed that raises is a failed seed; keep going
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        elif digest(out) != self.refs[i]:
            problems.append(f"output digest {digest(out)} != reference {self.refs[i]}")
        elif "vdot" in case:  # the A5 golden instance
            problems += [f"golden {k} differs" for k in golden_failures(out)]
        if problems:
            self.failed += 1
            print(f"{self.workload} case {i}: {'; '.join(problems)}", file=sys.stderr)
        return dt

    def timed(self, i: int, case: dict) -> float:
        """One timed repeat of a seed, without the time of the reference
        samples taken while it ran (in this process or in its child)."""
        t0, spent = time.perf_counter(), self.cal.spent
        dt = self.seed(i, case, traced=False)
        if self.child:
            spent, refs = self.child["spent"], self.child["ref"]
        else:  # in this process, or a cold child that reported nothing
            spent, refs = self.cal.spent - spent, self.cal.refs_since(t0)
        self.samples.setdefault(i, []).append([dt - spent, statistics.fmean(refs)])
        return dt

    def traced_pass(self, cases: list[tuple[int, dict]]) -> float:
        tracer = None
        if self.workload != "cold_cli":
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            for i, case in cases:
                self.seed(i, case, traced=True)
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
                merge(self.totals, tracer.totals())
        return wall

    def repeat(self, cases: list[tuple[int, dict]], seconds: float) -> None:
        """Repeat each seed until ``seconds`` have passed and each ran
        MIN_REPEATS times and for MIN_SEED_S in all.  Until ``seconds``
        have passed, a seed that has its share also runs again while its
        share of the time spent is at most even; so cheap seeds, whose
        times spread most, are repeated more often than costly ones."""
        spent = {i: 0.0 for i, _ in cases}
        t_start = time.perf_counter()
        while True:
            for i, case in cases:
                done = {j: len(self.samples.get(j, ())) >= MIN_REPEATS and t >= MIN_SEED_S
                        for j, t in spent.items()}
                over = time.perf_counter() - t_start >= seconds
                if over and all(done.values()):
                    return
                if done[i] and (over or spent[i] > sum(spent.values()) / len(spent)):
                    continue
                spent[i] += self.timed(i, case)


def prepare(indices: list[int], workload: str) -> list[tuple[int, dict]]:
    """Generate the cases and build their words, which checks that each
    w is a reduced word."""
    from richseed.rootsys import parse_type
    from richseed.words import make_word

    cases = [(i, corpus.case(workload, i)) for i in indices]
    for _, case in cases:
        make_word(parse_type(case["type"]), corpus.letters(case["w"]), order=case["order"])
    return cases


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # reference samples through set-up; run.py takes their time out of
    # the set-up time
    cal = Calibrator()
    cal.sample()
    cal.start()
    import richseed

    if Path(richseed.__file__).resolve().parent != ROOT / "src" / "richseed":
        print(f"richseed imported from {richseed.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())[args.workload]
    runner = Runner(args.workload, refs, cal)
    cases = prepare(Plan(args.workload, args.seed).indices, args.workload)
    if args.workload == "warm_long_v":
        for i, case in cases:
            runner.seed(i, case, traced=False)
    cal.stop()
    print("ready", flush=True)
    setup = {"excluded_s": cal.spent}
    cal.sample()
    setup["ref_s"] = [r for _, r in cal.samples]
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    traced_wall = runner.traced_pass(cases) if args.trace else None
    # cold children sample for themselves; this process only waits
    if args.workload != "cold_cli":
        cal.start()
    if args.workload != "sweep_small":
        runner.repeat(cases, args.seconds)
    elif not args.trace:
        for i, case in cases:
            runner.timed(i, case)
    cal.stop()
    # the process that ran the workload: the largest cold child, or this one
    who = resource.RUSAGE_CHILDREN if args.workload == "cold_cli" else resource.RUSAGE_SELF
    print(json.dumps({
        "setup": setup,
        "samples": {str(i): ts for i, ts in runner.samples.items()},
        "traced_pass_s": traced_wall,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rss_kib": resource.getrusage(who).ru_maxrss,
        "trace": runner.totals if args.trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
