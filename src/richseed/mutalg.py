"""The seed-computation algorithm and its verifiers.

A run starts from a word's initial seed, performs one batch of
mutations per letter of the rightmost subword for v (each batch clears
one more leading coordinate of every surviving vector), then discards
the tail summand of every line that was touched.  What survives is the
seed of the smaller category: l(w) - l(v) summands whose leading l(v)
coordinates all vanish, with frozen vertices marked.

A batch changes only the vectors and the run's one quiver.  The
structural checks that the method guarantees (cut-seed properties,
branch consistency, tooth shifts, configuration transitions) observe it
through a :class:`BatchChecker`; violations raise
:class:`InvariantViolation` since they falsify the run, not the input.
The checks of the initial seed are the step-0 pass of
:func:`check_induction`, which compares every summand's truncation with
the combinatorial form of Leclerc's seeds.  After that, the checks
re-examine only what a batch changed: the matrix entries in the
quiver's journal (kept only in checked runs), the vertices whose vector
it replaced, which are the only ones that can enter or leave the cut, and
the members of the batch's color.  Each color's members are kept as one
ascending line; a saw-teeth report reads the quiver's rows over two such
lines, and one that nothing it reads moved is reused.  Green labels
and the arrows each mutation makes appear and vanish come from one
replay of the run's mutations: :func:`green_report`.

The vectors are packed integers (see :mod:`richseed.deltavec`): the
exchange is a few big-integer adds and its sign one mask, and every read
of a vector in the run loop and the checks is a mask or a shift.  A
:class:`MutationRecord` keeps its mutation's packed ints (the rejected
candidate, the vectors before and after) and decodes its coordinate
tuples only when they are first read.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import cached_property
from typing import Optional

from .deltavec import (
    SIDE_BOUND,
    W,
    DeltaVector,
    coordinate_mask,
    decode,
    decode_offset,
    delta_vectors,
    offset,
    prefix_mask,
)
# not called here: perfbench/tracer.py resolves its span
# mutalg.delta_tilde_from_combo through this module's name
from .deltavec import delta_tilde_from_combo  # noqa: F401
from .errors import AmbiguousBranch, InvariantViolation, NoValidBranch
from .quiver import (
    CONFIG_TRANSITIONS,
    ConfigLabel,
    Quiver,
    SawTeethReport,
    Vertex,
    build_gamma,
    classify_config,
    classify_sawteeth,
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


class MutationRecord:
    """One mutation.  ``packed`` holds the rejected candidate as G + vector
    (see :mod:`richseed.deltavec`) and the vectors before and after, each
    over ``length`` coordinates; the chosen candidate is the vector after.
    ``chosen`` is "in" or "out".  ``candidate_in``, ``candidate_out``,
    ``before`` and ``after`` decode them on first read.  Two records are
    equal when their seven fields are; records are unhashable."""

    def __init__(self, step: int, vertex: int, chosen: str, evicted: bool,
                 packed: tuple[int, int, int], length: int, configs: Optional[dict] = None):
        self.step = step
        self.vertex = vertex
        self.chosen = chosen
        self.evicted = evicted
        self.packed = packed
        self.length = length
        self.configs = {} if configs is None else configs

    def __eq__(self, other) -> bool:
        fields = ("step", "vertex", "chosen", "evicted", "packed", "length", "configs")
        return isinstance(other, MutationRecord) and all(
            getattr(self, f) == getattr(other, f) for f in fields)

    @cached_property
    def candidate_in(self) -> tuple[int, ...]:
        return self.after if self.chosen == "in" else decode_offset(self.packed[0], self.length)

    @cached_property
    def candidate_out(self) -> tuple[int, ...]:
        return self.after if self.chosen == "out" else decode_offset(self.packed[0], self.length)

    @cached_property
    def before(self) -> tuple[int, ...]:
        return decode(self.packed[1], self.length)

    @cached_property
    def after(self) -> tuple[int, ...]:
        return decode(self.packed[2], self.length)

    def to_json(self, replay: Optional[dict] = None) -> dict:
        """The record as JSON; ``green`` and the arrow changes are read off
        this mutation's dict of :func:`green_report`, null without one."""

        def pairs(key: str) -> Optional[list[list[int]]]:
            return None if replay is None else [list(a) for a in replay[key]]

        return {
            "step": self.step,
            "vertex": self.vertex,
            "candidate_in": list(self.candidate_in),
            "candidate_out": list(self.candidate_out),
            "chosen": self.chosen,
            "before": list(self.before),
            "after": list(self.after),
            "evicted": self.evicted,
            "green": None if replay is None else replay["green"],
            "configs": {str(color): label for color, label in self.configs.items()},
            "arrows_added": pairs("arrows_added"),
            "arrows_removed": pairs("arrows_removed"),
        }


class AlgState:
    """A run's state: ``reference`` completes the rightmost subword, ``quiver``
    is mutated in place, ``checker`` (BatchChecker or NoChecks) is made once
    per batch, ``cut`` is the last checked view.  Compared by identity."""

    __slots__ = ("word", "embedding", "combo", "reference", "deltas", "quiver", "checker",
                 "step", "trace", "batches", "stats", "cut")

    def __init__(self, word: Word, embedding: SubwordEmbedding, combo: ComboNumbers,
                 reference: Word, deltas: dict[int, DeltaVector], quiver: Quiver, checker: type,
                 step: int = 0, trace: Optional[list[MutationRecord]] = None,
                 batches: Optional[list[list[int]]] = None, stats: Optional[dict] = None,
                 cut: Optional[CutSeedView] = None):
        self.word, self.embedding, self.combo, self.reference = word, embedding, combo, reference
        self.deltas, self.quiver, self.checker, self.step = deltas, quiver, checker, step
        self.trace = [] if trace is None else trace
        self.batches = [] if batches is None else batches
        self.stats = {} if stats is None else stats
        self.cut = cut

    @property
    def lv(self) -> int:
        return len(self.embedding)

    @property
    def lw(self) -> int:
        return len(self.word)

    def clone(self) -> "AlgState":
        """An independent copy: ``step_hat`` changes the state it is given."""
        return AlgState(
            self.word, self.embedding, self.combo, self.reference, dict(self.deltas),
            self.quiver.copy(), self.checker, self.step, list(self.trace),
            [list(b) for b in self.batches], dict(self.stats), self.cut,
        )


class CutSeedView:
    """The cut seed after a step.  ``check_induction`` fills in each color's
    members in ascending order (colors with members only), the reports per
    ordered pair and the vectors it saw.  Compared by identity."""

    __slots__ = ("members", "evicted", "deleted", "step", "lines", "reports", "verified")

    def __init__(self, members: set[int], evicted: set[int], deleted: set[int], step: int = 0,
                 lines: Optional[dict[int, list[int]]] = None,
                 reports: Optional[dict[tuple[int, int], SawTeethReport]] = None,
                 verified: Optional[dict[int, DeltaVector]] = None):
        self.members, self.evicted, self.deleted, self.step = members, evicted, deleted, step
        self.lines = {} if lines is None else lines
        self.reports = {} if reports is None else reports
        self.verified = {} if verified is None else verified


class FinalSeed:
    """The seed a run leaves: the survivors' vectors and quiver, frozen
    vertices marked, arrows between two dropped.  Compared by identity."""

    __slots__ = ("cartan", "word", "embedding", "reference", "summands", "deleted", "frozen",
                 "quiver", "schedule", "trace", "stats")

    def __init__(self, cartan: CartanData, word: Word, embedding: SubwordEmbedding,
                 reference: Word, summands: dict[int, DeltaVector], deleted: set[int],
                 frozen: set[int], quiver: Quiver, schedule: list[list[int]],
                 trace: list[MutationRecord], stats: Optional[dict] = None):
        self.cartan, self.word, self.embedding, self.reference = cartan, word, embedding, reference
        self.summands, self.deleted, self.frozen, self.quiver = summands, deleted, frozen, quiver
        self.schedule, self.trace = schedule, trace
        self.stats = {} if stats is None else stats

    @property
    def size(self) -> int:
        return len(self.summands)


# ---------------------------------------------------------------------------
# elementary moves


def cut_view(state: AlgState) -> CutSeedView:
    """Members, evicted (vanishing truncation), deleted (index bound),
    read off every vector; the checks follow the replaced vectors instead."""
    deleted, lead = state.combo.deleted(state.step), prefix_mask(state.lv)
    members = {k for k, d in state.deltas.items() if k not in deleted and d.bits & lead}
    evicted = state.deltas.keys() - deleted - members
    return CutSeedView(members, evicted, deleted, state.step)


def mutate_delta(state: AlgState, k: int) -> tuple[DeltaVector, int, int, str]:
    """The two exchange computations at k; exactly one must be valid.

    Returns (chosen, in-candidate, out-candidate, branch name), each
    candidate packed as G + its vector (see :mod:`richseed.deltavec`),
    whose coordinates may be negative; ``decode_offset`` reads them.  The
    in-candidate replaces the vector by the sum over arrows into k minus
    itself, the out-candidate uses the arrows out of k.
    """
    if k not in state.deltas:
        raise KeyError(f"no vertex {k}")
    g = offset(len(state.reference))
    acc_in, acc_out = _exchange(state, k, g)
    ok_in, ok_out = acc_in & g == g, acc_out & g == g
    if ok_in and ok_out and acc_in != acc_out:
        raise AmbiguousBranch(f"both exchange vectors are valid at vertex {k}")
    if not ok_in and not ok_out:
        raise NoValidBranch(f"no nonnegative exchange vector at vertex {k}")
    chosen = DeltaVector.packed(state.reference, (acc_in if ok_in else acc_out) - g)
    return chosen, acc_in, acc_out, "in" if ok_in else "out"


def _exchange(state: AlgState, k: int, g: int) -> tuple[int, int]:
    """G - d_k + the sum of m * d_s over the arrows into k (m arrows
    s -> k), and the same over the arrows out of k, in one walk of row k.
    Each side's multiplicities must sum below SIDE_BOUND, so that no field
    carries (see :mod:`richseed.deltavec`)."""
    deltas = state.deltas
    acc_in = acc_out = g - deltas[k].bits
    n_in = n_out = 0
    for s, e in state.quiver.b[k].items():
        if e > 0:
            acc_out += e * deltas[s].bits
            n_out += e
        else:
            acc_in -= e * deltas[s].bits
            n_in -= e
    if n_in >= SIDE_BOUND or n_out >= SIDE_BOUND:
        raise InvariantViolation(
            f"{max(n_in, n_out)} arrows on one side of vertex {k}, "
            f"at most {SIDE_BOUND - 1} fit the packed exchange"
        )
    return acc_in, acc_out


def index_set_A(state: AlgState, m: int) -> list[int]:
    """Vertices to mutate in batch m: nonzero m-th coordinate, index
    at most (p_m line maximum) pulled back gamma_m times."""
    pm = state.embedding.positions[m - 1]
    color = state.word.color(pm)
    b_m = state.word.pred_iter(state.word.k_max(color), state.combo.gamma(m))
    field_m, deltas = coordinate_mask(m), state.deltas
    return [i for i in range(1, min(b_m, state.lw) + 1) if deltas[i].bits & field_m]


def step_hat(state: AlgState) -> AlgState:
    """Apply one batch of the vector-driven schedule to the state, in
    place, advance the step and return the state."""
    if state.step >= state.lv:
        raise InvariantViolation("all batches have already been applied")
    m = state.step + 1
    batch = index_set_A(state, m)
    state.batches.append(batch)
    checker = state.checker(state)
    lead, n = prefix_mask(state.lv), len(state.reference)
    for k in batch:
        configs = checker.before(k)
        chosen, acc_in, acc_out, branch = mutate_delta(state, k)
        old = state.deltas[k]
        state.quiver.mutate_in_place(k)
        state.deltas[k] = chosen
        evicted = not chosen.bits & lead
        checker.after(k, old, chosen, evicted)
        packed = (acc_out if branch == "in" else acc_in, old.bits, chosen.bits)
        state.trace.append(MutationRecord(m, k, branch, evicted, packed, n, configs))
    state.step = m
    checker.finish(batch)
    return state


class BatchChecker:
    """The structural checks of one batch: ``before(k)`` and ``after``
    see the mutation at k, ``finish`` the cut seed the batch leaves.  It
    holds the cut before the batch, the batch's line of members as it
    moves (no other color moves, and k only after ``before(k)``), the
    adjacent colors with a member and the previous mutation's labels."""

    def __init__(self, state: AlgState):
        word, self.state = state.word, state
        self.line_color = line = word.color(state.embedding.positions[state.step])
        # the cut before this batch is the last check's view; a mutation moves only its vertex
        self.cut = state.cut
        self.line = list(self.cut.lines.get(line, ()))
        self.other_colors = [oc for oc in word.cartan.neighbors(line) if oc in self.cut.lines]
        self.labels: dict[int, ConfigLabel] = {}
        # whether the last mutated vertex, and whether any, left the cut
        self.evicted = self.evicted_during = False

    def before(self, k: int) -> dict[int, str]:
        """Check k's color and configurations; return its labels."""
        color, prev = self.state.word.color(k), self.labels
        if color != self.line_color:
            raise InvariantViolation(
                f"batch {self.state.step + 1} touches vertex {k} of color {color}, "
                f"expected color {self.line_color}"
            )
        q = self.state.quiver
        self.labels = {
            oc: classify_config(q, k, oc, self.cut.members, self.line) for oc in self.other_colors
        }
        for oc, label in self.labels.items():
            if oc in prev:
                allowed = CONFIG_TRANSITIONS.get((prev[oc], self.evicted))
                if allowed is not None and label not in allowed:
                    raise InvariantViolation(
                        f"configuration {prev[oc].value} may not be followed by {label.value} "
                        f"(vertex {k}, color {oc}, eviction={self.evicted})"
                    )
            elif not label.is_initial:
                raise InvariantViolation(
                    f"first mutated vertex {k} is not in an initial configuration "
                    f"for color {oc} (got {label.value})"
                )
        return {oc: label.value for oc, label in self.labels.items()}

    def after(self, k: int, old: DeltaVector, chosen: DeltaVector, evicted: bool) -> None:
        _check_branch_formula(self.state, k, old, chosen)
        self.evicted, self.evicted_during = evicted, self.evicted_during or evicted
        if k in self.cut.deleted or (k in self.line) != evicted:
            return
        if evicted:
            self.line.remove(k)
        else:
            insort(self.line, k)

    def finish(self, batch: list[int]) -> None:
        state = self.state
        check_induction(state)
        if batch and not self.evicted_during:
            _check_teeth_shift(self.cut, state, self.line_color, batch)
            state.stats["teeth_shift_checks"] = state.stats.get("teeth_shift_checks", 0) + 1


class NoChecks:
    """The checker of an unchecked run: its calls do nothing."""

    def __init__(self, state: AlgState):
        pass

    def before(self, k: int) -> dict[int, str]:
        return {}

    def after(self, k: int, old: DeltaVector, chosen: DeltaVector, evicted: bool) -> None:
        pass

    def finish(self, batch: list[int]) -> None:
        pass


def _check_branch_formula(state: AlgState, k: int, old: DeltaVector, chosen: DeltaVector) -> None:
    """Inside the cut view, the chosen vector's truncation must equal
    (successor) + (predecessor, zero when absent) - (old).

    Compared packed over the first l(v) fields: G + succ + pred - old -
    chosen must read G there.  Every stored field is below 2^8, so each
    field of the sum lies within 2^15 +- 510 and none borrows from the
    next; borrows run only upward, so the fields past l(v) do not matter."""
    lv = state.lv
    kp = state.word.succ(k)
    km = state.word.pred(k)
    succ = state.deltas[kp].bits if kp <= state.lw else 0
    pred = state.deltas[km].bits if km >= 1 else 0
    g, lead = offset(lv), prefix_mask(lv)
    expected = g + succ + pred - old.bits
    if (expected - chosen.bits) & lead != g:
        raise InvariantViolation(
            f"exchange at {k} does not match the line formula: "
            f"{chosen.truncated(lv)} != {decode_offset(expected & lead, lv)}"
        )


def _check_teeth_shift(
    before: CutSeedView, state: AlgState, line_color: int, batch: list[int]
) -> None:
    """After an eviction-free pass over a pure line, each tooth must move
    one notch from the cut ``before`` toward the start, in the cut
    ``state.cut``, with the two boundary exceptions."""
    word, after = state.word, state.cut
    members_before = before.lines.get(line_color, [])
    if not members_before or not batch:
        return
    # the member before k on the line; None for the first one or a non-member
    prev = dict(zip(members_before[1:], members_before)).get
    newlast = batch[-1]
    first = members_before[0]
    for oc in word.cartan.neighbors(line_color):
        rep_before = before.reports[(line_color, oc)]
        rep_after = after.reports.get((line_color, oc)) or classify_sawteeth(
            state.quiver, line_color, oc, after.lines
        )
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
        for tooth in rep_before.teeth:
            if tooth.right_end == first:
                expected_barb = (prev(tooth.left_end), tooth.summit)
            else:
                expected_teeth.append(
                    (prev(tooth.right_end), tooth.summit, prev(tooth.left_end))
                )
        if rep_before.final_barb is not None:
            y, target = rep_before.final_barb
            if target != members_before[-1]:
                if prev(target) is None:
                    expected_barb = (newlast, y)
                else:
                    expected_teeth.append((prev(target), y, newlast))
        got_teeth = [(t.right_end, t.summit, t.left_end) for t in rep_after.teeth]
        if got_teeth != expected_teeth or rep_after.initial_barb != expected_barb:
            raise InvariantViolation(
                f"tooth shift failed on line {line_color} vs color {oc}: "
                f"teeth {got_teeth} != {expected_teeth} or barb "
                f"{rep_after.initial_barb} != {expected_barb}"
            )


def check_induction(state: AlgState) -> None:
    """The six structural checkpoints of the cut seed after each batch; the
    view goes to ``state.cut`` with its saw-teeth reports, the next line's
    included, which the next batch's tooth shift reads as its "before".

    Only what changed since the last view is examined again: the matrix
    entries in the quiver's journal, the vertices whose vector was replaced
    (the only ones that can enter or leave the cut, besides the newly
    deleted), the members of p_m's color, and the color lines and saw-teeth
    reports that these touch; a report reads the quiver's rows over two
    member lines.  The first check, or one without a view of the previous
    step or without a journal, starts from an empty view, so that every
    vector counts as replaced and every matrix entry as written.  At step
    0 these are the checks of the initial seed, and the support check
    covers every summand, not only the members: its truncation must be
    the packed form of ``delta_tilde_from_combo``.
    """
    word, q = state.word, state.quiver
    m = state.step
    lv = state.lv
    prev, journal = state.cut, q.journal
    if prev is None or prev.step != m - 1 or journal is None:
        prev = CutSeedView(set(), set(), set())
        journal = [(s, t) for s, row in q.b.items() for t in row if s < t]
    # only a replaced vector can move its vertex into or out of the cut
    replaced = [k for k, d in state.deltas.items() if d is not prev.verified.get(k)]
    deleted = state.combo.deleted(m)
    members = prev.members - deleted
    lead = prefix_mask(lv)
    for k in set(replaced) - deleted:
        (members.add if state.deltas[k].bits & lead else members.discard)(k)
    view = CutSeedView(members, state.deltas.keys() - deleted - members, deleted, m)
    view.verified = dict(state.deltas)
    changed = (members ^ prev.members) | (view.evicted ^ prev.evicted)
    entered = members - prev.members

    # a member keeps the support it was last verified with unless its
    # vector was replaced or alpha(k, m) moved, which happens on the color
    # of p_m only; coordinate m, a v-index of that color, was 0 in it.
    # At step 0 every summand is checked, member or not
    if m:
        line = word.positions_of_color(word.color(state.embedding.positions[m - 1]))
        recheck, who = members & {*replaced, *line}, "member"
    else:
        recheck, who = state.deltas.keys(), "summand"
    cleared = prefix_mask(m)
    for k in sorted(recheck):
        d = state.deltas[k]
        if d.bits & cleared:
            raise InvariantViolation(
                f"member {k} keeps a nonzero coordinate among the first {m}"
            )
        expected = _expected_support(state, k, m)
        if d.bits & lead != expected:
            got, want = (
                [j for j, a in enumerate(decode(t, lv), start=1) if a]
                for t in (d.bits & lead, expected)
            )
            raise InvariantViolation(
                f"{who} {k} has truncated support {got}, expected {want} at step {m}"
            )

    # entries (s < t) between two members that were written since the last
    # view; a line arrow k -> k+ has k < k+
    moved = [(s, t) for s, t in journal if s in members and t in members]
    line_ends = {word.pred(x) for x in entered} | entered
    line_ends.update(s for s, t in moved if word.succ(s) == t)
    for k in sorted(line_ends):
        kp = word.succ(k)
        if k not in members or kp not in members:
            continue
        n = q.mult(k, kp)
        if not n:
            raise InvariantViolation(f"missing line arrow {k}->{kp} at step {m}")
        if n != 1:
            raise InvariantViolation(f"line arrow {k}->{kp} has multiplicity {n} at step {m}")

    scan = {(s, t) if e > 0 else (t, s) for s, t in moved if (e := q.b[s].get(t))}
    for x in entered:
        scan.update((x, t) if e > 0 else (t, x) for t, e in q.b[x].items() if t in members)
    for s, t in sorted(scan):
        cs, ct = word.color(s), word.color(t)
        if cs == ct:
            if word.succ(s) != t:
                raise InvariantViolation(f"stray same-color arrow {s}->{t} at step {m}")
        elif not word.cartan.adjacent(cs, ct):
            raise InvariantViolation(
                f"arrow {s}->{t} joins non-adjacent colors {cs},{ct} at step {m}"
            )

    # along every line, the evicted summands precede all members; the
    # member lines of the colors whose cut changed are read again
    dirty = {word.color(k) for k in changed}
    lines = view.lines = dict(prev.lines)
    for color in sorted(dirty):
        line = []
        for k in word.positions_of_color(color):
            if k in members:
                line.append(k)
            elif k in view.evicted and line:
                raise InvariantViolation(
                    f"evicted summand {k} sits above a member on line {color} "
                    f"at step {m}"
                )
        if line:
            lines[color] = line
        else:
            lines.pop(color, None)

    # a (c1, c2) report reads the members of both colors, the c1-c1 arrows
    # and the arrows joining c1 and c2; a report none of these moved is reused
    touched = {(word.color(s), word.color(t)) for s, t in moved}

    def report(c1: int, c2: int) -> SawTeethReport:
        if (c1, c2) not in view.reports:
            old = prev.reports.get((c1, c2))
            if old is None or {c1, c2} & dirty or {(c1, c1), (c1, c2), (c2, c1)} & touched:
                old = classify_sawteeth(q, c1, c2, lines)
            view.reports[(c1, c2)] = old
        return view.reports[(c1, c2)]

    for c1 in sorted(lines):
        for c2 in word.cartan.neighbors(c1):
            if c2 in lines and not (rep := report(c1, c2)).valid:
                raise InvariantViolation(
                    f"bicolor ({c1},{c2}) broken at step {m}: {rep.violation}"
                )

    if m < lv:
        next_color = word.color(state.embedding.positions[m])
        for oc in word.cartan.neighbors(next_color):
            rep = report(next_color, oc)
            if oc in lines and (not rep.valid or not rep.pure):
                raise InvariantViolation(
                    f"next line {next_color} is not pure against {oc} at step {m}"
                )

    if m == lv and members:
        raise InvariantViolation(f"cut seed still has members {sorted(members)}")
    reused = sum(prev.reports.get(pair) is rep for pair, rep in view.reports.items())
    for key, n in (("reports_classified", len(view.reports) - reused), ("reports_reused", reused)):
        state.stats[key] = state.stats.get(key, 0) + n
    q.journal = set()
    state.cut = view


def _expected_support(state: AlgState, k: int, m: int) -> int:
    """Packed 0/1 indicator of the predicted support: the v-indices of color
    i_k in [f_min(k) advanced alpha(k,m) times, f(k advanced alpha(k,m) times)],
    that is js[alpha(k,m) : ...] for js those v-indices in ascending order."""
    combo = state.combo
    a = combo.alpha(k, m)
    hi = combo.f(state.word.succ_iter(k, a))
    js = combo.v_indices[state.word.color(k)]
    return sum(1 << (W * (j - 1)) for j in js[a : bisect_right(js, hi)])


# ---------------------------------------------------------------------------
# whole runs


def initial_state(
    cartan: CartanData,
    word: Word,
    v: WeylElement,
    completion: Optional[Word] = None,
    check: bool = True,
) -> AlgState:
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
    deltas = dict(zip(ks, delta_vectors(left_complete(word), reference, ks)))
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

    trimmed = state.quiver.restricted(set(survivors))
    frozen = frozen_vertices_from(state, deleted, trimmed)
    final_quiver = trimmed.with_frozen(frozen)

    return FinalSeed(
        cartan=cartan,
        word=word,
        embedding=state.embedding,
        reference=state.reference,
        summands={k: state.deltas[k] for k in survivors},
        deleted=deleted,
        frozen=frozen,
        quiver=final_quiver,
        schedule=state.batches,
        trace=state.trace,
        stats=state.stats,
    )


def frozen_vertices_from(state: AlgState, deleted: set[int], trimmed: Quiver) -> set[int]:
    """Non-mutable survivors.

    Three sources: neighbors of a deleted vertex (in the pre-deletion
    quiver), survivors isolated after deletion, and the surviving line
    tails (the original coefficients of untouched colors).
    """
    word = state.word
    frozen = set()
    for k in trimmed.vertices:
        if any(n in deleted for n in state.quiver.neighbors(k)):
            frozen.add(k)
        elif not trimmed.neighbors(k):
            frozen.add(k)
        elif k == word.k_max(word.color(k)):
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
    """One frozen frame -k per vertex k, with an arrow -k -> k; the frame
    arrows of a mutable vertex are its c-vector (Fomin-Zelevinsky, IV)."""
    verts = list(q.vertices.values())
    frames = [Vertex(-v.id, v.color, v.column, frozen=True) for v in verts]
    fq = Quiver(verts + frames)
    for v in verts:
        fq.b[v.id] = dict(q.b[v.id])
        fq._add(-v.id, v.id, 1)
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
        if k not in fq.vertices:
            raise KeyError(f"no vertex {k}")
        near = {j for j in fq.b[k] if j > 0} | {k}
        green = all(t > 0 for t, x in fq.b[k].items() if x > 0)
        old = arrows_among(near)
        fq.mutate_in_place(k)
        new = arrows_among(near)
        out.append({"n": n, "vertex": k, "green": green,
                    "arrows_added": sorted(new - old), "arrows_removed": sorted(old - new)})
    return out
