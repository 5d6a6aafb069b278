"""The seed-computation algorithm and its verifiers.

A run starts from a word's initial seed, performs one batch of
mutations per letter of the rightmost subword for v (each batch clears
one more leading coordinate of every surviving vector), then discards
the tail summand of every line that was touched.  What survives is the
seed of the smaller category: l(w) - l(v) summands whose leading l(v)
coordinates all vanish, on a quiver that keeps each survivor's color and
the set of frozen survivors, with no entry between two of them.

A batch changes only the vectors and the run's one quiver and hands each
mutation's record to the run's one observer.  :class:`NoChecks` keeps
it; :class:`BatchChecker` first runs the structural checks that the
method guarantees (cut-seed properties, branch consistency, tooth
shifts, configuration transitions), which raise
:class:`InvariantViolation` since they falsify the run, not the input.
The checks of the initial seed are the step-0 pass of
:func:`check_induction`, which compares every summand's truncation with
the combinatorial form of Leclerc's seeds.  After that, each check
carries the cut view of the last one forward and re-examines only what a
batch changed: the matrix entries that the quiver's journal names (in
checked runs only; a record per mutation, the split of its row), the
vertices whose vector it replaced, which with the newly deleted index are
the only ones that can enter or leave the cut, and the members of the
batch's color.  A view keeps the members and the deleted indices; every
other summand is evicted.  Each color's members are kept as one ascending
line; a saw-teeth report reads the quiver's rows over two such lines, one
report per pair of adjacent colors that both have members, and only the
pairs that the batch touched are classified again, the others' reports
are kept.  Green labels and the arrows each mutation makes appear and
vanish come from one replay of the run's mutations: :func:`green_report`.

The vectors are packed integers (see :mod:`richseed.deltavec`): the
exchange is a few big-integer adds and its sign one mask, and every read
of a vector in the run loop and the checks is a mask or a shift; a
:class:`MutationRecord` keeps its mutation's packed ints and decodes them
only when the output reads them.  Its configuration labels are plain
strings (see :class:`~richseed.quiver.ConfigLabel`).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from operator import is_not
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .deltavec import (
    SIDE_BOUND,
    STORED_BOUND,
    W,
    DeltaVector,
    coordinate_mask,
    decode,
    decode_offset,
    delta_vectors,
    offset,
    prefix_mask,
    support_prefixes,
)
# not called here: perfbench/tracer.py resolves its span
# mutalg.delta_tilde_from_combo through this module's name
from .deltavec import delta_tilde_from_combo  # noqa: F401
from .errors import AmbiguousBranch, InvariantViolation, NoValidBranch
from .quiver import (
    CONFIG_TRANSITIONS,
    Quiver,
    SawTeethReport,
    Split,
    build_gamma,
    classify_configs,
    classify_sawteeth,
    cross_arrows,
)
from .rootsys import CartanData, WeylElement, number_of_positive_roots
from .words import (
    ComboNumbers,
    SubwordEmbedding,
    Word,
    combo_numbers,
    left_complete,
    rightmost_subword,
)


# ---------------------------------------------------------------------------
# mutation schedules


def schedule_tilde(word: Word, emb: SubwordEmbedding) -> list[list[int]]:
    """The combinatorial schedule, one ascending index batch per v-letter.

    Batch m walks the color line of p_m from (k_min)^{beta_m +} up to
    (k_max)^{gamma_m -}: the line without its first beta_m and last
    gamma_m entries, empty when these overlap.
    """
    combo = combo_numbers(word, emb)
    batches = []
    for m, pm in enumerate(emb.positions, start=1):
        line = word.positions_of_color(word.color(pm))
        batches.append(list(line[combo.beta(m) : len(line) - combo.gamma(m)]))
    return batches


# ---------------------------------------------------------------------------
# run state


NO_LABELS: Mapping[int, str] = MappingProxyType({})  # read-only, so records may share it


class MutationRecord(NamedTuple):
    """One mutation.  ``packed`` holds the rejected candidate as G + vector
    (see :mod:`richseed.deltavec`) and the vectors before and after, each
    over ``length`` coordinates; the chosen candidate is the vector after.
    ``chosen`` is "in" or "out"; ``configs`` maps each adjacent color to
    the label of the vertex before its mutation (the observer's ``labels``).
    ``candidate_in``, ``candidate_out``, ``before`` and ``after`` decode
    them at each read.  A named tuple, so equal when the seven fields are;
    unhashable, since ``configs`` is a mapping."""

    step: int
    vertex: int
    chosen: str
    evicted: bool
    packed: tuple[int, int, int]
    length: int
    configs: Mapping[int, str] = NO_LABELS

    @property
    def candidate_in(self) -> tuple[int, ...]:
        return self.after if self.chosen == "in" else decode_offset(self.packed[0], self.length)

    @property
    def candidate_out(self) -> tuple[int, ...]:
        return self.after if self.chosen == "out" else decode_offset(self.packed[0], self.length)

    @property
    def before(self) -> tuple[int, ...]:
        return decode(self.packed[1], self.length)

    @property
    def after(self) -> tuple[int, ...]:
        return decode(self.packed[2], self.length)

    def to_json(self, replay: dict) -> dict:
        """The record as JSON; ``green`` and the arrow changes are read off
        this mutation's dict of :func:`green_report`."""
        return {
            "step": self.step,
            "vertex": self.vertex,
            "candidate_in": list(self.candidate_in),
            "candidate_out": list(self.candidate_out),
            "chosen": self.chosen,
            "before": list(self.before),
            "after": list(self.after),
            "evicted": self.evicted,
            "green": replay["green"],
            "configs": {str(color): label for color, label in self.configs.items()},
            "arrows_added": [list(a) for a in replay["arrows_added"]],
            "arrows_removed": [list(a) for a in replay["arrows_removed"]],
        }


class AlgState:
    """A run's state: ``reference`` completes the rightmost subword, ``quiver``
    is mutated in place, ``checker`` (BatchChecker or NoChecks) is made once
    per batch and keeps the records in ``trace``, ``cut`` is the last
    checked view, ``support`` the prefix table that the support check reads
    and ``col[k]`` the color of vertex k.  The run's constants are read
    once: ``lv`` = l(v), ``lw`` = l(w), ``g`` = G(n) and ``high``, the bits
    that no stored vector of n fields sets, n the reference's length.  A
    new state is at step 0, with no trace, batches or view, and 0 counts.
    Compared by identity."""

    __slots__ = ("word", "embedding", "combo", "reference", "deltas", "quiver", "checker",
                 "step", "trace", "batches", "stats", "cut", "support", "col",
                 "lv", "lw", "g", "high")

    def __init__(self, word: Word, embedding: SubwordEmbedding, combo: ComboNumbers,
                 reference: Word, deltas: dict[int, DeltaVector], quiver: Quiver, checker: type):
        self.word, self.embedding, self.combo, self.reference = word, embedding, combo, reference
        self.deltas, self.quiver, self.checker, self.step = deltas, quiver, checker, 0
        self.trace, self.batches, self.cut = [], [], None
        self.stats = dict.fromkeys(("mutations", "batches", "evictions"), 0)
        self.support, self.col = support_prefixes(combo), (0, *word.letters)
        self.lv, self.lw, self.g = len(embedding), len(word), offset(len(reference))
        self.high = ~((self.g >> (W - 1)) * (STORED_BOUND - 1))

    def clone(self) -> "AlgState":
        """An independent copy: ``step_hat`` changes the state it is given."""
        copy = AlgState(self.word, self.embedding, self.combo, self.reference,
                        dict(self.deltas), self.quiver.copy(), self.checker)
        copy.step, copy.trace = self.step, list(self.trace)
        copy.cut = None if self.cut is None else self.cut.copy()
        copy.batches, copy.stats = [list(b) for b in self.batches], dict(self.stats)
        return copy


class CutSeedView:
    """The cut seed after a step: its ``members`` and the ``deleted``
    indices; every other summand is evicted.  ``check_induction`` fills in
    each color's members in ascending order (colors with members only), the
    reports per ordered pair and ``verified``, the tuple of the vectors it
    saw in the order of ``state.deltas``.  Steps 1..m delete m distinct
    indices, so a view is of step m exactly when it holds m deleted
    indices.  Compared by identity."""

    __slots__ = ("members", "deleted", "lines", "reports", "verified")

    def __init__(self, members: set[int], deleted: frozenset[int]):
        self.members, self.deleted = members, deleted
        self.lines, self.reports = {}, {}
        self.verified: tuple[DeltaVector, ...] = ()

    def copy(self) -> "CutSeedView":
        """A view with its own sets, lines and reports, so that a change to
        either view leaves the other as it was."""
        view = CutSeedView(set(self.members), self.deleted)
        view.lines = {color: list(line) for color, line in self.lines.items()}
        view.reports, view.verified = dict(self.reports), self.verified
        return view


class FinalSeed:
    """The seed a run leaves: the survivors' vectors and quiver; ``frozen``
    is the quiver's frozen set, and no arrow joins two of its vertices.
    Compared by identity."""

    __slots__ = ("cartan", "word", "embedding", "reference", "summands", "deleted", "frozen",
                 "quiver", "schedule", "trace", "stats")

    def __init__(self, cartan: CartanData, word: Word, embedding: SubwordEmbedding,
                 reference: Word, summands: dict[int, DeltaVector], deleted: frozenset[int],
                 frozen: frozenset[int], quiver: Quiver, schedule: list[list[int]],
                 trace: list[MutationRecord], stats: dict):
        self.cartan, self.word, self.embedding, self.reference = cartan, word, embedding, reference
        self.summands, self.deleted, self.frozen, self.quiver = summands, deleted, frozen, quiver
        self.schedule, self.trace, self.stats = schedule, trace, stats


# ---------------------------------------------------------------------------
# elementary moves


def cut_view(state: AlgState) -> CutSeedView:
    """Members (a nonvanishing truncation) and deleted (index bound), read
    off every vector; the checks follow the replaced vectors instead."""
    deleted, lead = state.combo.deleted(state.step), prefix_mask(state.lv)
    members = {k for k, d in state.deltas.items() if k not in deleted and d.bits & lead}
    return CutSeedView(members, deleted)


def mutate_delta(state: AlgState, k: int, split: Split) -> tuple[DeltaVector, int, str]:
    """The two exchange computations at k, off ``split``, row k as
    ``Quiver.split`` gives it; exactly one must be valid.

    Returns (chosen, rejected, branch name): the valid candidate as a
    vector and the other packed as G + its vector (see
    :mod:`richseed.deltavec`), whose coordinates may be negative;
    ``decode_offset`` reads it.  The in-candidate is G - d_k + the sum of
    m * d_s over the m arrows s -> k,
    the out-candidate the same over the arrows out of k.  Each side's
    multiplicities must sum below SIDE_BOUND, so that no field carries.
    """
    if k not in state.deltas:
        raise KeyError(f"no vertex {k}")
    deltas, (ins, outs), g = state.deltas, split, state.g
    acc_in = acc_out = g - deltas[k].bits
    n_in = n_out = 0
    for s, m in ins:
        acc_in += m * deltas[s].bits
        n_in += m
    for t, m in outs:
        acc_out += m * deltas[t].bits
        n_out += m
    if n_in >= SIDE_BOUND or n_out >= SIDE_BOUND:
        raise InvariantViolation(
            f"{max(n_in, n_out)} arrows on one side of vertex {k}, "
            f"at most {SIDE_BOUND - 1} fit the packed exchange"
        )
    ok_in, ok_out = acc_in & g == g, acc_out & g == g
    if ok_in and ok_out and acc_in != acc_out:
        raise AmbiguousBranch(f"both exchange vectors are valid at vertex {k}")
    if not ok_in and not ok_out:
        raise NoValidBranch(f"no nonnegative exchange vector at vertex {k}")
    chosen, rejected, branch = (acc_in, acc_out, "in") if ok_in else (acc_out, acc_in, "out")
    if (bits := chosen - g) & state.high:
        DeltaVector.packed(state.reference, bits)  # raises, naming every field
    vector = DeltaVector.__new__(DeltaVector)
    vector.reference, vector.bits = state.reference, bits
    return vector, rejected, branch


def index_set_A(state: AlgState, m: int) -> list[int]:
    """Vertices to mutate in batch m: nonzero m-th coordinate, index
    below the one step m deletes on p_m's line, (k_max)^{gamma_m -}."""
    b_m = state.word.pred(state.combo.deleted_at[m - 1])
    field_m, deltas = coordinate_mask(m), state.deltas
    return [i for i in range(1, b_m + 1) if deltas[i].bits & field_m]


def step_hat(state: AlgState) -> AlgState:
    """Apply the next batch of the vector-driven schedule to the state, in
    place, handing each record to its observer; return the advanced state."""
    if state.step >= state.lv:
        raise InvariantViolation("all batches have already been applied")
    m = state.step + 1
    batch = index_set_A(state, m)
    state.batches.append(batch)
    checker = state.checker(state, batch)
    q, deltas, lead, n = state.quiver, state.deltas, prefix_mask(state.lv), len(state.reference)
    evictions = 0
    for k in batch:
        split = q.split(k)  # the labels, exchange, update and journal read it
        checker.before(k, split)
        chosen, rejected, branch = mutate_delta(state, k, split)
        q.mutate_in_place(k, split)
        evicted = not chosen.bits & lead
        evictions += evicted
        rec = (m, k, branch, evicted, (rejected, deltas[k].bits, chosen.bits), n, checker.labels)
        deltas[k] = chosen
        checker.after(tuple.__new__(MutationRecord, rec))  # past its Python-level __new__
    state.step, stats = m, state.stats
    stats["mutations"] += len(batch)
    stats["batches"] += 1
    stats["evictions"] += evictions
    checker.finish(batch)
    return state


class BatchChecker:
    """The structural checks of one batch: ``before(k)`` sees the mutation
    at k and sets ``labels``, ``after`` its record, which it keeps once the
    checks pass, and ``finish`` the cut seed the batch leaves.  It holds
    the cut before the batch, the batch's line of members, the adjacent
    colors with a member and the last mutation's labels.  ``before(k)``
    first requires k to be a member of that cut, of the batch's color, so
    k is on the line.  Only the labels read the line, and only when some
    adjacent color has a member; it only shrinks, by each evicted vertex.
    A non-empty batch reads what the hooks compare (G and the lead mask of
    the line formula, the colors, the quiver, the cut) here, once."""

    def __init__(self, state: AlgState, batch: list[int]):
        self.state, self.labels = state, NO_LABELS
        # whether the last mutated vertex, and whether any, left the cut
        self.evicted = self.evicted_during = False
        if not batch:
            return
        word, self.line_color = state.word, state.col[state.embedding.positions[state.step]]
        # the cut before this batch is the last check's view; a mutation moves only its vertex
        self.cut = cut = state.cut
        self.line = list(cut.lines.get(self.line_color, ()))
        self.other_colors = [oc for oc in word.cartan.neighbors(self.line_color) if oc in cut.lines]
        self.col, self.quiver, self.deltas = state.col, state.quiver, state.deltas
        self.succ, self.pred = word._succ, word._pred  # what Word.succ and Word.pred index
        self.g, self.lead = offset(state.lv), prefix_mask(state.lv)

    def before(self, k: int, split: Split) -> None:
        """Check that k is a member of the batch's line, then its
        configurations, read off ``split``, which become ``labels``."""
        prev, colors = self.labels, self.other_colors
        if self.col[k] != self.line_color or k not in self.cut.members:
            raise InvariantViolation(
                f"batch {self.state.step + 1} touches vertex {k}, "
                f"which is not a member of line {self.line_color}"
            )
        if not colors:
            return
        self.labels = labels = classify_configs(
            self.quiver, k, colors, self.cut.members, self.line, split)
        for oc, label in labels.items():
            if oc in prev:
                allowed = CONFIG_TRANSITIONS.get((prev[oc], self.evicted))
                if allowed is not None and label not in allowed:
                    raise InvariantViolation(
                        f"configuration {prev[oc]} may not be followed by {label} "
                        f"(vertex {k}, color {oc}, eviction={self.evicted})"
                    )
            elif not label.startswith("alpha"):
                raise InvariantViolation(
                    f"first mutated vertex {k} is not in an initial configuration "
                    f"for color {oc} (got {label})"
                )

    def after(self, rec: MutationRecord) -> None:
        # the line formula, packed: G + succ + pred - old - chosen must read
        # G over the first l(v) fields (see _check_branch_formula); k is on
        # p_m's line at or below word.pred(deleted_at[m - 1]), so its
        # successor is at most deleted_at[m - 1], a vertex
        k, (_, old, chosen) = rec.vertex, rec.packed
        deltas, kp, km = self.deltas, self.succ[k], self.pred[k]
        expected = self.g - old + deltas[kp].bits
        if km in deltas:
            expected += deltas[km].bits
        if (expected - chosen) & self.lead != self.g:
            _check_branch_formula(rec, expected & self.lead, self.state.lv)
        self.evicted = rec.evicted
        if rec.evicted:
            self.evicted_during = True
            if self.other_colors:
                self.line.remove(k)
        self.state.trace.append(rec)

    def finish(self, batch: list[int]) -> None:
        state = self.state
        check_induction(state)
        if batch and not self.evicted_during:
            _check_teeth_shift(self.cut, state, self.line_color, batch)
            state.stats["teeth_shift_checks"] = state.stats.get("teeth_shift_checks", 0) + 1


class NoChecks:
    """The observer of an unchecked run: it keeps each record as it comes."""

    labels = NO_LABELS

    def __init__(self, state: AlgState, batch: list[int]):
        self.after = state.trace.append

    def before(self, k: int, split: Split) -> None:
        pass

    def finish(self, batch: list[int]) -> None:
        pass


def _check_branch_formula(rec: MutationRecord, expected: int, lv: int) -> None:
    """Raise for a record whose chosen truncation is not (successor) +
    (predecessor, zero when absent) - (old) inside the cut view;
    ``BatchChecker.after`` compares and calls this only on a mismatch.

    The comparison is packed over the first l(v) fields: G + succ + pred
    - old - chosen must read G there, and ``expected`` is G + succ + pred
    - old masked to those fields.  Every stored field is below 2^8, so
    each field of the sum lies within 2^15 +- 510 and none borrows from
    the next; borrows run only upward, so the fields past l(v) do not
    matter."""
    raise InvariantViolation(
        f"exchange at {rec.vertex} does not match the line formula: "
        f"{rec.after[:lv]} != {decode_offset(expected, lv)}"
    )


def _check_teeth_shift(
    before: CutSeedView, state: AlgState, line_color: int, batch: list[int]
) -> None:
    """After an eviction-free pass over a pure line, each tooth must move
    one notch from the cut ``before`` toward the start, in the cut
    ``state.cut``, with the two boundary exceptions.  A color without
    members before the pass has no summit, so no teeth or barbs to move;
    a pair that is no longer bicolor after it holds no report, and reads
    as a report with neither."""
    after = state.cut
    members_before = before.lines.get(line_color, [])
    if not members_before or not batch:
        return
    # the member before k on the line; None for the first one or a non-member
    prev = dict(zip(members_before[1:], members_before)).get
    newlast = batch[-1]
    first = members_before[0]
    for oc in state.word.cartan.neighbors(line_color):
        if oc not in before.lines:
            continue
        rep_before = before.reports[(line_color, oc)]
        rep_after = after.reports.get((line_color, oc)) or SawTeethReport(line_color, oc, True)
        if not rep_before.valid or not rep_before.pure:
            raise InvariantViolation(
                f"line {line_color} was not pure before its pass (color {oc})"
            )
        if not rep_after.valid:
            raise InvariantViolation(
                f"line {line_color} lost the tooth structure after its pass "
                f"(color {oc}): {rep_after.violation}"
            )
        expected_teeth: list[tuple[int, int, int]] = []
        expected_barb: Optional[tuple[int, int]] = None
        for right, summit, left in rep_before.teeth:
            if right == first:
                expected_barb = (prev(left), summit)
            else:
                expected_teeth.append((prev(right), summit, prev(left)))
        if rep_before.final_barb is not None:
            y, target = rep_before.final_barb
            if target != members_before[-1]:
                if prev(target) is None:
                    expected_barb = (newlast, y)
                else:
                    expected_teeth.append((prev(target), y, newlast))
        if rep_after.teeth != tuple(expected_teeth) or rep_after.initial_barb != expected_barb:
            got_teeth = list(map(tuple, rep_after.teeth))
            raise InvariantViolation(
                f"tooth shift failed on line {line_color} vs color {oc}: "
                f"teeth {got_teeth} != {expected_teeth} or barb "
                f"{rep_after.initial_barb} != {expected_barb}"
            )


def check_induction(state: AlgState) -> None:
    """The six structural checkpoints of the cut seed after each batch; the
    view goes to ``state.cut`` with a saw-teeth report for each bicolor
    pair (two adjacent colors that both have members), which the next
    batch's tooth shift reads as its "before".

    The view is carried forward from the last one.  The members change
    only at the newly deleted index and at the vertices whose vector was
    replaced, found by one identity comparison of every vector with the
    tuple the last view saw.  One walk of the quiver's journal, a record
    per write since then, each expanded over its member ends only, gives
    the entries between two members to examine again; with the lines that
    changed, those joining two adjacent colors make their pair of colors
    stale, once per pair.  Only the stale pairs are visited: every other
    report is kept, valid as it was when stored.  The cross arrows of a
    stale pair of colors are read once, off the rows of its shorter member
    line, and each stale order is classified from them; the line arrows,
    which the line and row scans verified, are not read again.  An
    expected support is a difference of two entries of the prefix table
    ``state.support``, found for a whole line in one pass.  The first
    check, or one without a view of the previous step or without a
    journal, starts from a view with no members and this step's deleted
    set, so no index is newly deleted, and walks no journal: every vector
    counts as replaced, so every member enters, and the rows of the
    entered members hold every entry between two members.  At step 0
    these are the checks of the initial seed, and the support check covers
    every summand, not only the members: its truncation must be the packed
    form of ``delta_tilde_from_combo``.
    """
    word, q, col, deltas = state.word, state.quiver, state.col, state.deltas
    nbrs = word.cartan.nbrs
    m, lv = state.step, state.lv
    prev, journal, deleted = state.cut, q.journal, state.combo.deleted(m)
    # steps 1..m - 1 delete m - 1 distinct indices: a view of step m - 1
    # holds exactly that many
    if prev is None or len(prev.deleted) != m - 1 or journal is None:
        # every member enters: the entered rows cover every entry
        prev, journal = CutSeedView(set(), deleted), ()
    seen = tuple(deltas.values())
    if len(prev.verified) == len(seen):
        replaced = compress(deltas, map(is_not, seen, prev.verified))
    else:
        replaced = deltas
    # a newly deleted index leaves the cut, member or evicted; an empty
    # view has none
    changed = set(deleted - prev.deleted)
    members = prev.members - changed
    # only a replaced vector can move its vertex into or out of the cut
    entered, lead, recheck = set(), prefix_mask(lv), []
    for k in replaced:
        if k in deleted:
            continue
        if deltas[k].bits & lead:
            recheck.append(k)
            if k not in members:
                members.add(k)
                changed.add(k)
                entered.add(k)
        elif k in members:
            members.remove(k)
            changed.add(k)
    view = CutSeedView(members, deleted)
    view.verified = seen

    # a member keeps the support it was last verified with unless its
    # vector was replaced or alpha(k, m) moved, which happens on the color
    # of p_m only; coordinate m, a v-index of that color, was 0 in it.
    # At step 0 every summand is checked, member or not
    if m:
        line = word.positions_of_color(col[state.embedding.positions[m - 1]])
        recheck, who = members.intersection(line).union(recheck), "member"
    else:
        recheck, who = deltas.keys(), "summand"
    supports, cleared = {}, prefix_mask(m)
    for color in set(map(col.__getitem__, recheck)):
        supports.update(_expected_supports(state, color, m))
    for k in sorted(recheck):
        bits = deltas[k].bits
        if bits & cleared:
            raise InvariantViolation(
                f"member {k} keeps a nonzero coordinate among the first {m}"
            )
        expected = supports[k]
        if bits & lead != expected:
            got, want = (
                [j for j, a in enumerate(decode(t, lv), start=1) if a]
                for t in (bits & lead, expected)
            )
            raise InvariantViolation(
                f"{who} {k} has truncated support {got}, expected {want} at step {m}"
            )

    # one walk of the journal's records, each expanded over its member ends
    # only, gives the entries between two members written since the last
    # view: those of adjacent colors give their pair of colors, those of a
    # line the line arrows to read again (the line check reads a line
    # arrow's multiplicity and sign).  Any other arrow between two members
    # of one color or of two colors that are not adjacent is scanned, as is
    # every arrow between an entered vertex and a member
    succ, rows = word._succ, q.b  # what Word.succ indexes
    line_ends = set(map(word.pred, entered)).union(entered)
    scan, crossed = set(), set()  # arrows (s, t); pairs of colors (of s, of t)
    for k, ins, outs in journal:
        # k's own entries are paths too: a member k walks first and then
        # joins the tails, for (k, t) and (s, k); no row holds (k, k)
        heads, tails = [k] if k in members else [], []
        for s, _ in ins:
            if s in members:
                heads.append(s)
        for t, _ in outs:
            if t in members:
                tails.append(t)
        for s in heads:
            cs = col[s]
            edges = nbrs[cs - 1]
            for t in tails:
                if (ct := col[t]) in edges:  # so cs != ct
                    crossed.add((cs, ct))
                elif succ[s] == t or succ[t] == s:  # of one line
                    line_ends.add(min(s, t))
                elif e := rows[s].get(t):
                    scan.add((s, t) if e > 0 else (t, s))
            if s == k:
                tails.append(k)
    stale = {pair for cs, ct in crossed for pair in ((cs, ct), (ct, cs))}
    for k in sorted(line_ends):
        kp = succ[k]
        if k not in members or kp not in members:
            continue
        n = rows[k].get(kp, 0)
        if n <= 0:
            raise InvariantViolation(f"missing line arrow {k}->{kp} at step {m}")
        if n != 1:
            raise InvariantViolation(f"line arrow {k}->{kp} has multiplicity {n} at step {m}")

    for x in entered:
        for t, e in rows[x].items():
            if t in members:
                scan.add((x, t) if e > 0 else (t, x))
    for s, t in sorted(scan):
        cs, ct = col[s], col[t]
        if cs == ct:
            if succ[s] != t:
                raise InvariantViolation(f"stray same-color arrow {s}->{t} at step {m}")
        elif ct not in nbrs[cs - 1]:
            raise InvariantViolation(
                f"arrow {s}->{t} joins non-adjacent colors {cs},{ct} at step {m}"
            )

    # along every line, the evicted summands precede all members; the
    # member lines of the colors whose cut changed are read again
    dirty = set(map(col.__getitem__, changed))
    lines = view.lines = dict(prev.lines)
    for color in sorted(dirty):
        line = []
        for k in word.positions_of_color(color):
            if k in members:
                line.append(k)
            elif k not in deleted and line:
                raise InvariantViolation(
                    f"evicted summand {k} sits above a member on line {color} "
                    f"at step {m}"
                )
        if line:
            lines[color] = line
        else:
            lines.pop(color, None)

    # the view holds a report for each bicolor pair, two adjacent colors
    # that both have members.  A (c1, c2) report reads the members of both
    # colors, the c1-c1 arrows and the arrows joining c1 and c2; past the
    # line and row scans, the only c1-c1 arrows between members are the
    # line arrows every report expects, so a report goes stale only when
    # a color's members change or an entry joins members of both colors.
    # Stale pairs are classified again in the order of the pairs, or
    # dropped when they are no longer bicolor; every other report is kept.
    # For the same reason a report needs only the cross arrows, gathered
    # once per pair of colors for both orders
    for a in dirty:
        for c in nbrs[a - 1]:
            stale.update(((a, c), (c, a)))
    reports = view.reports = dict(prev.reports)
    classified, gathered = 0, {}
    for c1, c2 in sorted(stale):
        if c1 not in lines or c2 not in lines:
            reports.pop((c1, c2), None)
            continue
        pair = (c1, c2) if c1 < c2 else (c2, c1)
        if pair not in gathered:
            gathered[pair] = cross_arrows(q, lines[c1], lines[c2])
        rep = reports[(c1, c2)] = classify_sawteeth(q, c1, c2, lines, cross=gathered[pair])
        classified += 1
        if not rep.valid:
            raise InvariantViolation(f"bicolor ({c1},{c2}) broken at step {m}: {rep.violation}")

    next_color = col[state.embedding.positions[m]] if m < lv else None
    if next_color in lines:
        for oc in nbrs[next_color - 1]:
            rep = reports.get((next_color, oc))  # held exactly when oc has members
            if rep is not None and not (rep.valid and rep.pure):
                raise InvariantViolation(
                    f"next line {next_color} is not pure against {oc} at step {m}"
                )

    if m == lv and members:
        raise InvariantViolation(f"cut seed still has members {sorted(members)}")
    stats = state.stats
    stats["reports_classified"] = stats.get("reports_classified", 0) + classified
    stats["reports_reused"] = stats.get("reports_reused", 0) + len(reports) - classified
    q.journal = []
    state.cut = view


def _expected_supports(state: AlgState, color: int, m: int) -> dict[int, int]:
    """Summand k of ``color`` -> its expected truncation after step m,
    packed: the color's v-indices js[a:b], with a = alpha(k, m) for every
    k and b >= a the count of js at positions up to k advanced a times
    along the line (all of js past its end); b only grows: one pass."""
    js, line = state.combo.v_indices[color], state.word.positions_of_color(color)
    table, positions = state.support[color], state.embedding.positions
    a, b, n = bisect_right(js, m), 0, len(js)
    low, out, beyond = table[a], {}, len(state.col)  # past every position: L + 1
    for k, end in zip(line, (*line[a:], *(beyond,) * a)):
        while b < n and positions[js[b] - 1] <= end:
            b += 1
        out[k] = table[b if b > a else a] - low
    return out


# ---------------------------------------------------------------------------
# whole runs


def initial_vectors(
    cartan: CartanData, word: Word, v: WeylElement, completion: Optional[Word] = None
) -> tuple[SubwordEmbedding, ComboNumbers, Word, dict[int, DeltaVector]]:
    """(embedding, combo, reference, deltas) of a run: the rightmost
    subword for v, its numbers, the reference completing it (``completion``
    or ``left_complete``) and every initial summand's vector relative to
    it, walked from w itself."""
    if cartan != word.cartan:
        raise ValueError("cartan data and word of different types")
    emb = rightmost_subword(v, word)
    combo = combo_numbers(word, emb)
    vbar = emb.subword()
    if completion is None:
        reference = left_complete(vbar)
    else:
        reference = completion
        _validate_completion(reference, vbar)
    ks = range(1, len(word) + 1)
    return emb, combo, reference, dict(zip(ks, delta_vectors(word, reference, ks)))


def initial_state(
    cartan: CartanData,
    word: Word,
    v: WeylElement,
    completion: Optional[Word] = None,
    check: bool = True,
) -> AlgState:
    emb, combo, reference, deltas = initial_vectors(cartan, word, v, completion)
    state = AlgState(
        word=word,
        embedding=emb,
        combo=combo,
        reference=reference,
        deltas=deltas,
        quiver=build_gamma(word),
        checker=BatchChecker if check else NoChecks,
    )
    if check:
        check_induction(state)
    return state


def _validate_completion(reference: Word, vbar: Word) -> None:
    if reference.cartan != vbar.cartan:
        raise ValueError("completion and word of different types")
    r = number_of_positive_roots(vbar.cartan)
    if len(reference) != r:
        raise ValueError("completion must be a reduced word of w0")
    if reference.letters[: len(vbar)] != vbar.letters:
        raise ValueError("completion does not end with the subword for v")


def run(
    cartan: CartanData,
    word: Word,
    v: WeylElement,
    completion: Optional[Word] = None,
    check: bool = True,
) -> FinalSeed:
    """Execute every batch, delete the line tails, freeze, and package."""
    state = initial_state(cartan, word, v, completion, check)
    for _ in range(state.lv):
        state = step_hat(state)

    lw, lv = state.lw, state.lv
    deleted = state.combo.deleted(lv)
    survivors = [k for k in range(1, lw + 1) if k not in deleted]
    if len(survivors) != lw - lv:
        raise InvariantViolation(
            f"{len(survivors)} summands survive, expected {lw - lv}"
        )
    lead = prefix_mask(lv)
    for k in survivors:
        if state.deltas[k].bits & lead:
            raise InvariantViolation(
                f"surviving summand {k} keeps nonzero leading coordinates"
            )

    rows, col = state.quiver.b, state.col
    arrows = {(s, t): x for s in survivors for t, x in rows[s].items()
              if x > 0 and t not in deleted}
    final_quiver = Quiver({k: col[k] for k in survivors}, arrows,
                          frozen_vertices_from(state, deleted, survivors))

    return FinalSeed(
        cartan=cartan,
        word=word,
        embedding=state.embedding,
        reference=state.reference,
        summands={k: state.deltas[k] for k in survivors},
        deleted=deleted,
        frozen=final_quiver.frozen,
        quiver=final_quiver,
        schedule=state.batches,
        trace=state.trace,
        stats=state.stats,
    )


def frozen_vertices_from(
    state: AlgState, deleted: frozenset[int], survivors: list[int]
) -> set[int]:
    """Non-mutable survivors.

    Three sources: neighbors of a deleted vertex (in the pre-deletion
    quiver), survivors isolated after deletion, and the surviving line
    tails (the original coefficients of untouched colors).  A survivor
    with no deleted neighbor keeps all of its neighbors, so it is
    isolated after deletion exactly when it has none at all.
    """
    word, q, col = state.word, state.quiver, state.col
    frozen = set()
    for k in survivors:
        near = q.neighbors(k)
        if not near or any(n in deleted for n in near) or k == word.k_max(col[k]):
            frozen.add(k)
    return frozen


# ---------------------------------------------------------------------------
# cross-checks


def verify_equivalence(word: Word, emb: SubwordEmbedding) -> tuple[bool, list[dict]]:
    """Compare the combinatorial schedule with the vector-driven one."""
    tilde = schedule_tilde(word, emb)
    state = initial_state(word.cartan, word, emb.element(), check=False)
    report = []
    for m in range(1, len(emb) + 1):
        state = step_hat(state)
        hat = state.batches[m - 1]
        if hat != tilde[m - 1]:
            report.append({"m": m, "tilde": tilde[m - 1], "hat": hat})
    return not report, report


def framed_quiver(q: Quiver) -> Quiver:
    """One frozen frame -k of k's color per vertex k, with an arrow -k -> k;
    the frame arrows of a mutable vertex are its c-vector
    (Fomin-Zelevinsky, IV)."""
    frames = {-k: color for k, color in q.vertices.items()}
    fq = Quiver({**q.vertices, **frames}, frozen=q.frozen.union(frames))
    for k in q.vertices:
        fq.b[k] = dict(q.b[k])
        fq._add(-k, k, 1)
    return fq


def green_report(word: Word, mutations: list[int]) -> list[dict]:
    """Replay a mutation sequence on the framed initial quiver.

    Returns one record per mutation: its green/red label, green when no
    arrow leads from the vertex into a frame, and the sorted arrows
    between unframed vertices that appear (``arrows_added``) and vanish
    (``arrows_removed``).  A mutation at k writes only entries among k and
    its neighbours, which stay its neighbours, so only those are compared.
    A red mutation is data for the caller, not an error.
    """
    fq, out = framed_quiver(build_gamma(word)), []

    def arrows_among(near: set[int]) -> set[tuple[int, int]]:
        return {(s, t) for s in near for t, x in fq.b[s].items() if x > 0 and t in near}

    for n, k in enumerate(mutations, start=1):
        ins, outs = split = fq.split(k)
        near = {j for j, _ in (*ins, *outs) if j > 0} | {k}
        green = all(t > 0 for t, _ in outs)
        old = arrows_among(near)
        fq.mutate_in_place(k, split)
        new = arrows_among(near)
        out.append({"n": n, "vertex": k, "green": green,
                    "arrows_added": sorted(new - old), "arrows_removed": sorted(old - new)})
    return out
