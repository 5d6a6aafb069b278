"""The richseed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (cold_cli, warm_long_v or sweep_small, see README.md)
on the inputs that --seed selects, checks every output against the
references in refs.json, prints each metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a separate traced pass.

Every process it starts gets the same pinned environment, whatever the
caller's, and imports the package from this checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_cli", "warm_long_v", "sweep_small")
# Set-up is repeated in fresh processes until there are this many
# samples or this much time went into set-up.
SETUP_SAMPLES = 7
SETUP_BUDGET_S = 5.0
# sweep_small passes, each in a fresh worker
MIN_PASSES = 3
# Time of one reference sample (calib.reference_work) on the host
# the benchmark was written on, in a quiet spell; see README.md.
REF_NOMINAL_S = 0.0025
# Leave room under the 180 s a run may take.
HARD_LIMIT_S = 170.0
P90_MIN_SAMPLES = 100


def child_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C",
    }


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "richseed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Worker:
    """A worker process; ``setup_s`` is the time from its start until it
    reported ``ready``, and ``result`` its final JSON line."""

    def __init__(self, args, deadline: float, setup_only: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        # its own process group, so that a kill also ends the cold_cli children
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        killer = threading.Timer(max(deadline - time.monotonic(), 0), _kill_group, [proc])
        killer.start()
        try:
            first = proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()
            proc.stdout.close()
        if first.strip() != "ready" or proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with code {proc.returncode} "
                               f"before reporting (first line {first.strip()!r})")
        self.result = json.loads(lines[-1])
        setup = self.result["setup"]
        self.setup_raw_s = self.setup_s
        self.setup_s = ((self.setup_s - setup["excluded_s"])
                        * REF_NOMINAL_S / statistics.fmean(setup["ref_s"]))


def samples_of(workers: list[Worker], raw: bool = False) -> dict[str, list[float]]:
    """The timed repeats of each seed, over all workers of the run, in
    reference seconds (or as measured, with ``raw``)."""
    samples: dict[str, list[float]] = {}
    for w in workers:
        for i, ts in w.result["samples"].items():
            samples.setdefault(i, []).extend(
                dt if raw else dt * REF_NOMINAL_S / ref for dt, ref in ts)
    return samples


def seed_times(workers: list[Worker], raw: bool = False) -> list[float]:
    """Each seed's median time over its repeats in the run."""
    return [statistics.median(ts) for ts in samples_of(workers, raw).values()]


def end_to_end(workers: list[Worker], setups: list[Worker]) -> dict[str, tuple[float, str]]:
    seeds = sorted(seed_times(workers))
    # nearest rank: on cold_cli it is the E8 seed
    p90 = seeds[math.ceil(0.9 * len(seeds)) - 1]
    return {
        "wall_s": (sum(seeds), "s"),
        "seed_s_p50": (statistics.median(seeds), "s"),
        "seed_s_p90": (p90, "s"),
        "setup_s": (statistics.median(w.setup_s for w in setups), "s"),
        "peak_rss_mib": (max(w.result["rss_kib"] for w in workers) / 1024, "MiB"),
    }


def per_layer(workers: list[Worker]) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(HERE))
    from tracer import layer_metrics

    traced = workers[0].result
    out = layer_metrics(traced["trace"])
    out["trace.overhead_s"] = (traced["traced_pass_s"] - sum(seed_times(workers, raw=True)), "s")
    return out


def run_workers(args, deadline: float) -> tuple[list[Worker], list[Worker]]:
    """The workers that measure, and every worker of the run: their
    set-up times make ``setup_s``."""
    t_start = time.monotonic()
    workers = [Worker(args, deadline)]
    if args.workload == "sweep_small":
        # the first worker of a traced run runs only the traced pass
        untraced = argparse.Namespace(**dict(vars(args), trace=0))
        while (len(workers) - args.trace < MIN_PASSES
               or time.monotonic() - t_start < args.seconds):
            workers.append(Worker(untraced, deadline))
    setups = list(workers)
    while (not args.trace and len(setups) < SETUP_SAMPLES
           and sum(w.setup_raw_s for w in setups) < SETUP_BUDGET_S):
        setups.append(Worker(args, deadline, setup_only=True))
    return workers, setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (SRC / "richseed" / "__init__.py").is_file():
        print(f"error: no richseed package under {SRC}", file=sys.stderr)
        return 2
    info = machine()
    info["loadavg_before"] = os.getloadavg()

    try:
        workers, setups = run_workers(args, deadline)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["loadavg_after"] = os.getloadavg()
    counts = [len(ts) for ts in samples_of(workers).values()]
    n_seeds = len(counts)

    print("machine: " + json.dumps(info))
    print(f"workload {args.workload}, seed {args.seed}: {n_seeds} seeds, "
          f"{min(counts, default=0)} to {max(counts, default=0)} timed repeats each, "
          f"{len(setups)} set-ups")
    attempted = sum(w.result["attempted"] for w in workers)
    failed = sum(w.result["failed"] for w in workers)
    print(f"failed_frac: {failed / attempted:.4g} ratio ({failed} of {attempted} seeds)")
    ref = statistics.median(r for w in workers for ts in w.result["samples"].values()
                            for _, r in ts)
    print(f"as measured: wall_s {sum(seed_times(workers, raw=True)):.6g} s, setup_s "
          f"{statistics.median(w.setup_raw_s for w in setups):.6g} s; reference sample "
          f"{ref:.6g} s, so reference seconds are these times {REF_NOMINAL_S / ref:.4g}")
    if args.trace:
        metrics = per_layer(workers)
    else:
        metrics = end_to_end(workers, setups)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "seed_s_p90" and n_seeds < P90_MIN_SAMPLES:
            note = f"  (from {n_seeds} seeds: fewer than {P90_MIN_SAMPLES})"
        print(f"{name}: {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
