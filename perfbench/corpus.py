"""Seeded inputs for the benchmark, generated without the package.

Every case is a dict of ``richseed compute`` arguments.  The letters are
drawn by the benchmark's own Weyl-group code below, so that a change to
the package cannot change what a workload runs.  ``case(workload, i)``
is a pure function of its arguments: case ``i`` of a workload is the
same input on every machine and at every commit, which is what lets
``refs.json`` pin its output.
"""

from __future__ import annotations

import random


# Dynkin edges with the package's numbering: A is the chain 1--...--n,
# D branches at n-2, and in E the vertex 2 hangs off vertex 4 of the
# chain 1--3--4--5--...--n.
def _edges(family: str, rank: int) -> set[tuple[int, int]]:
    if family == "A":
        return {(i, i + 1) for i in range(1, rank)}
    if family == "D":
        return {(i, i + 1) for i in range(1, rank - 2)} | {(rank - 2, rank - 1), (rank - 2, rank)}
    if family == "E":
        return {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)} | {(i, i + 1) for i in range(6, rank)}
    raise ValueError(f"unknown family {family!r}")


class Walk:
    """An element w of the Weyl group, kept as the images w(alpha_j) of
    the simple roots in simple-root coordinates.  ``ascents`` are the i
    with l(w s_i) > l(w), i.e. w(alpha_i) > 0."""

    def __init__(self, type_: str):
        family, rank = type_[0], int(type_[1:])
        edges = _edges(family, rank)
        self.a = [[2 if i == j else -1 if (min(i, j), max(i, j)) in edges else 0
                   for j in range(1, rank + 1)] for i in range(1, rank + 1)]
        self.cols = [[int(i == j) for i in range(rank)] for j in range(rank)]

    def ascents(self) -> list[int]:
        return [i + 1 for i, col in enumerate(self.cols) if any(x > 0 for x in col)]

    def times(self, i: int) -> None:
        # (w s_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i)
        wi = self.cols[i - 1]
        self.cols = [[x - self.a[i - 1][j] * y for x, y in zip(col, wi)]
                     for j, col in enumerate(self.cols)]


def reduced_picks(type_: str, length: int | None, rng: random.Random) -> list[int]:
    """Letters p_1..p_l with s_{p_1}...s_{p_l} reduced; stops early at w0.

    Read as a word in display order (leftmost first) this is a reduced
    word of that product; ``length=None`` walks all the way to w0."""
    walk = Walk(type_)
    picks: list[int] = []
    while length is None or len(picks) < length:
        choices = walk.ascents()
        if not choices:
            break
        i = rng.choice(choices)
        walk.times(i)
        picks.append(i)
    return picks


def _csv(letters) -> str:
    return ",".join(map(str, letters))


def letters(csv: str) -> list[int]:
    return [int(x) for x in csv.split(",")]


# A5 golden instance (display order), the paper's worked example; its
# output is also compared with the golden tables of the package.
A5_GOLDEN = {
    "type": "A5",
    "w": "1,3,2,4,3,2,4,5,4,3,2,1,2",
    "v": "2,4,5,3,1,2",
    "vdot": "2,3,4,5,4,1,2,3,1,2,4,5,3,1,2",
}

COLD_TYPES = ("D5", "E6", "E7", "E8")
COLD_LV = {"D5": 10, "E6": 18, "E7": 31, "E8": 38}
SWEEP_BLOCK = 22


def full_length_w(type_: str) -> list[int]:
    """The one full-length w of a type that the workloads use; only v is
    drawn per case, since the cost of a run depends on w as much as on v."""
    return reduced_picks(type_, None, random.Random(f"richseed-bench/w0/{type_}"))


def case(workload: str, i: int) -> dict:
    """Case ``i`` of a workload's pool, as compute arguments."""
    rng = random.Random(f"richseed-bench/{workload}/{i}")
    if workload == "cold_cli":
        # i = 5 * j + slot: slot 0 is the A5 golden run, slots 1..4 are
        # D5, E6, E7, E8 with the type's full-length w and a seeded v
        slot = i % 5
        if slot == 0:
            return dict(A5_GOLDEN, order="paper")
        t = COLD_TYPES[slot - 1]
        w = full_length_w(t)
        v = reduced_picks(t, COLD_LV[t], rng)
        return {"type": t, "w": _csv(w), "v": _csv(v), "order": "paper"}
    if workload == "warm_long_v":
        w = full_length_w("E8")
        v = reduced_picks("E8", rng.randint(90, 100), rng)
        return {"type": "E8", "w": _csv(w), "v": _csv(v), "order": "paper"}
    if workload == "sweep_small":
        # as `richseed verify` samples: a random reduced w of length 2..12
        # and v spelled by a random nonempty subset of w's positions.  The
        # type and the length of w are stratified rather than drawn: each
        # block of SWEEP_BLOCK cases has every (type, length) pair once.
        t = ("D5", "E6")[i % 2]
        w = reduced_picks(t, 2 + (i // 2) % 11, rng)
        count = rng.randint(1, len(w))
        pos = sorted(rng.sample(range(len(w)), count))
        return {"type": t, "w": _csv(w), "v": _csv(w[p] for p in pos), "order": "paper"}
    raise ValueError(f"unknown workload {workload!r}")
