"""Seed quivers and their combinatorics.

A quiver is a map from each vertex id to its color, a set of frozen
ids, and its skew-symmetric exchange matrix: ``b[i][j]`` is
#(i->j) - #(j->i), so ``b[j][i] == -b[i][j]``, a zero entry is absent,
and a 2-cycle cannot be represented.  An entry joining two frozen
vertices is never stored, since seeds are only defined up to such
arrows.  ``mutate_in_place`` applies the Fomin-Zelevinsky matrix
rule in O(deg_in * deg_out) and returns nothing: the arrows a mutation
makes appear or vanish are read off by ``mutalg.green_report``, the one
replay that needs them.  Every other operation, ``mutate`` included,
returns a new quiver.

A saw-teeth report and its teeth are named tuples that hold what the
checks read: the barbs, the teeth as (right end, summit, left end) and
the isolated summits, or the first violation.

The configuration labels of a vertex about to be mutated are plain
strings, the ones the mutation records store: :class:`ConfigLabel` only
names them, and :data:`CONFIG_TRANSITIONS` is keyed by (label, eviction).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Iterable, KeysView, NamedTuple, Optional

from .errors import FrozenVertex, Unclassifiable
from .words import Word


class Quiver:
    """A finite quiver without loops or 2-cycles, as one signed row per vertex.

    ``vertices`` maps each vertex id to its color and ``frozen`` is the
    frozenset of frozen ids; a frozen id that is not a vertex raises
    :class:`KeyError`, as an arrow to an unknown vertex does.  ``b[i]``
    maps each vertex joined to i to #(i->j) - #(j->i): the positive
    entries of a row are the arrows out of i, the negative ones the
    arrows into i.  Every row is the negated column of its vertex,
    and no entry joins two frozen vertices.  ``arrows`` is the view
    (source, target) -> multiplicity of the positive entries.
    ``journal``, when it is a set, collects every matrix entry written,
    once, as (smaller id, larger id); checked runs turn it on and drain
    it after each batch.
    """

    __slots__ = ("vertices", "frozen", "b", "journal")

    def __init__(self, vertices: dict[int, int],
                 arrows: Optional[dict[tuple[int, int], int]] = None, frozen: Iterable[int] = ()):
        self.vertices: dict[int, int] = dict(vertices)
        self.frozen: frozenset[int] = frozenset(frozen)
        if unknown := self.frozen.difference(self.vertices):
            raise KeyError(f"frozen vertex {min(unknown)} is not a vertex")
        self.b: dict[int, dict[int, int]] = {k: {} for k in self.vertices}
        self.journal: Optional[set[tuple[int, int]]] = None
        if arrows:
            for (s, t), m in arrows.items():
                self._add(s, t, m)

    # -- construction helpers ---------------------------------------------

    def _add(self, s: int, t: int, mult: int = 1) -> None:
        """Add mult arrows s -> t; opposite arrows cancel."""
        if mult == 0:
            return
        if s == t:
            raise ValueError("loops are not allowed")
        if s not in self.vertices or t not in self.vertices:
            raise KeyError(f"arrow {s}->{t} uses an unknown vertex")
        if s in self.frozen and t in self.frozen:
            return
        self._set(s, t, self.b[s].get(t, 0) + mult)

    def _set(self, s: int, t: int, x: int) -> None:
        """Set b[s][t] = x and b[t][s] = -x; x = 0 removes both entries."""
        if self.journal is not None:
            self.journal.add((s, t) if s < t else (t, s))
        if x:
            self.b[s][t] = x
            self.b[t][s] = -x
        elif t in self.b[s]:
            del self.b[s][t], self.b[t][s]

    def copy(self) -> "Quiver":
        """An independent copy; a journal is copied too."""
        q = self.restricted(self.vertices)
        if self.journal is not None:
            q.journal = set(self.journal)
        return q

    # -- queries ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.frozen == other.frozen and self.b == other.b)

    @property
    def arrows(self) -> dict[tuple[int, int], int]:
        """(source, target) -> multiplicity, read off the positive entries."""
        return {(s, t): x for s, row in self.b.items() for t, x in row.items() if x > 0}

    def mult(self, s: int, t: int) -> int:
        """The number of arrows s -> t (0 for an unknown vertex)."""
        return max(self.b.get(s, {}).get(t, 0), 0)

    def has_arrow(self, s: int, t: int) -> bool:
        return self.b.get(s, {}).get(t, 0) > 0

    def neighbors(self, k: int) -> KeysView[int]:
        """The vertices joined to k, as a view of its row."""
        return self.b[k].keys()

    def ids_of_color(self, color: int) -> list[int]:
        return sorted(k for k, c in self.vertices.items() if c == color)

    def colors(self) -> list[int]:
        return sorted(set(self.vertices.values()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Quiver({len(self.vertices)} vertices, {sum(self.arrows.values())} arrows)"

    # -- transformations -----------------------------------------------------

    def restricted(self, keep: set[int]) -> "Quiver":
        """Subquiver on a vertex subset, keeping arrows inside it."""
        ids = {k: c for k, c in self.vertices.items() if k in keep}
        q = Quiver(ids, frozen=self.frozen.intersection(ids))
        q.b = {i: {j: x for j, x in self.b[i].items() if j in ids} for i in ids}
        return q

    def mutate(self, k: int) -> "Quiver":
        """Fomin-Zelevinsky mutation at a mutable vertex, as a new quiver."""
        q = self.copy()
        q.mutate_in_place(k)
        return q

    def mutate_in_place(self, k: int) -> None:
        """Fomin-Zelevinsky mutation at a mutable vertex, in place: every
        path s -> k -> t adds b[s][k] * b[k][t] arrows s -> t (none
        between two frozen vertices), then row k is negated."""
        if k not in self.vertices:
            raise KeyError(f"no vertex {k}")
        frozen, b, row = self.frozen, self.b, self.b[k]
        if k in frozen:
            raise FrozenVertex(f"vertex {k} is frozen")
        outs = [(t, m) for t, m in row.items() if m > 0]
        for s, m1 in row.items():
            if m1 > 0:
                continue
            both = s in frozen
            for t, m2 in outs:
                if not (both and t in frozen):
                    self._set(s, t, b[s].get(t, 0) - m1 * m2)
        for j, m in list(row.items()):
            self._set(k, j, -m)


def build_gamma(word: Word) -> Quiver:
    """The combinatorial quiver of a word's initial seed.

    Vertex k = 1..l(w) has color i_k.  Horizontal arrows run k -> k+
    inside every color line.  An ordinary arrow j -> k (with j > k of a
    different color) exists when the colors are adjacent and
    j+ >= k+ > j > k, with multiplicity -a_{i_j, i_k}.

    One pass over j keeps each color's last index so far: an earlier k
    of that color has k+ < j, so the last one is the only candidate per
    adjacent color.  Arrows are added in the same order as an all-pairs
    scan of (j, k), so every row lists its entries in that order too.
    """
    c = word.cartan
    L = len(word)
    q = Quiver(dict(enumerate(word.letters, start=1)))
    for k in range(1, L + 1):
        kp = word.succ(k)
        if kp <= L:
            q._add(k, kp, 1)
    last = [0] * (c.rank + 1)  # last[i]: the last index of color i before j, 0 if none
    for j, ij in enumerate(word.letters, start=1):
        jp = word.succ(j)
        for k in sorted(last[i] for i in c.neighbors(ij)):
            if k and jp >= word.succ(k) > j:
                q._add(j, k, -c.a(ij, word.color(k)))
        last[ij] = j
    return q


# ---------------------------------------------------------------------------
# saw-teeth classification


class Tooth(NamedTuple):
    """One tooth: the cycle left_end -> summit -> right_end -> ... -> left_end.
    A named tuple, so immutable, hashable and equal by value."""

    right_end: int
    summit: int
    left_end: int


class SawTeethReport(NamedTuple):
    """The decomposition of one bicolor subquiver by :func:`classify_sawteeth`:
    ``initial_barb`` is (line source, summit target), ``final_barb`` (summit
    source, line target), and ``isolated`` the summits without a cross arrow.
    An invalid report holds only its ``violation``.  A named tuple."""

    line_color: int
    summit_color: int
    valid: bool
    violation: Optional[str] = None
    initial_barb: Optional[tuple[int, int]] = None
    teeth: tuple[Tooth, ...] = ()
    final_barb: Optional[tuple[int, int]] = None
    isolated: frozenset[int] = frozenset()

    @property
    def pure(self) -> bool:
        return self.initial_barb is None


def classify_sawteeth(
    q: Quiver, c1: int, c2: int, lines: Optional[dict[int, list[int]]] = None
) -> SawTeethReport:
    """Decompose the (c1, c2)-bicolor subquiver of ``q``, or report the
    first violation.

    The subquiver has the vertices of colors c1 (the line) and c2 (the
    summits), the arrows between two c1-vertices and the arrows joining
    the two colors in either direction, but not the arrows between two
    c2-vertices; so it is not symmetric in c1 and c2.  Each of its arrows
    has an end on the line, so it is read off the rows of the line's
    vertices alone, without a copy, and the teeth in one ascending pass
    over the line vertices with a cross arrow.  The first violation is the
    one met in the order (source id, entry of its row); only to find it
    are the summits' rows read.  ``lines``, when given, holds the
    ascending vertex list of each color (e.g. a cut's members) and
    replaces every vertex of that color.  Violations are data, not
    errors: the report comes back with ``valid=False`` and a description.
    """
    if lines is None:
        line, jline = q.ids_of_color(c1), q.ids_of_color(c2)
    else:
        line, jline = lines.get(c1, []), lines.get(c2, [])

    # in a line's row, an arrow of the subquiver is a positive entry toward
    # the line or an entry of either sign toward a summit.  A vertex of
    # either color may have one outgoing and one incoming cross arrow
    on_line, summits, rows = set(line), frozenset(jline), q.b
    succ_of: dict[int, int] = {}  # source -> target of its cross arrow
    pred_of: dict[int, int] = {}  # target -> source of its cross arrow
    n = h = 0  # cross arrows, and line arrows to the next line vertex
    broken = False  # a multiplicity other than 1, or a line arrow to another vertex
    for s, s_next in zip(line, line[1:] + [None]):
        for t, m in rows[s].items():
            if t in summits:
                if m > 0:
                    succ_of[s] = t
                    pred_of[t] = s
                else:
                    succ_of[t] = s
                    pred_of[s] = t
                n += 1
                broken = broken or m * m != 1
            elif m > 0 and t in on_line:
                h += 1
                broken = broken or m != 1 or t != s_next
    if broken or len(succ_of) != n or len(pred_of) != n or h < len(line) - 1:
        return SawTeethReport(c1, c2, False, _first_violation(rows, line, jline))

    isolated = summits.difference(succ_of, pred_of)
    crossed = [x for x in line if x in succ_of or x in pred_of]
    if not crossed:
        return SawTeethReport(c1, c2, True, isolated=isolated)

    n, anchor, teeth, final_barb = 0, crossed[0], [], None
    initial_barb = (anchor, succ_of[anchor]) if anchor in succ_of else None
    # a tooth's left end, the line vertex with an arrow into its summit, is
    # the next crossed vertex: any crossed vertex before it is inside the tooth
    while anchor in pred_of:
        y = pred_of[anchor]
        closer = pred_of.get(y)
        if closer is None or closer <= anchor:
            # no matching left side: the arrow y -> anchor is a final barb
            final_barb = (y, anchor)
            break
        n += 1
        if crossed[n] != closer:
            dirty = [x for x in crossed[n:] if x < closer]
            msg = f"cross arrows {dirty} inside the tooth {anchor}..{closer}"
            return SawTeethReport(c1, c2, False, msg)
        teeth.append(Tooth(anchor, y, closer))
        anchor = closer

    # every cross arrow must have been used by the structure: none may sit
    # beyond the last anchor, so in particular nothing follows a final barb
    if rest := crossed[n + 1 :]:
        msg = (f"ordinary arrows outside the structure (in at {[x for x in rest if x in pred_of]}, "
               f"out at {[x for x in rest if x in succ_of]})")
        return SawTeethReport(c1, c2, False, msg)
    if initial_barb and final_barb and final_barb[0] <= initial_barb[1]:
        msg = "final barb does not start beyond the initial barb target"
        return SawTeethReport(c1, c2, False, msg)
    return SawTeethReport(c1, c2, True, None, initial_barb, tuple(teeth), final_barb, isolated)


def _first_violation(rows: dict[int, dict[int, int]], line: list[int], jline: list[int]) -> str:
    """The first violation of a bicolor subquiver's arrows, meeting them in
    the order (source id, entry of its row), so that the summits' rows are
    read too; else the line arrows that are missing or extra."""
    on_line, summits = set(line), set(jline)
    sources: set[int] = set()
    targets: set[int] = set()
    for s in sorted(line + jline):
        for t, m in rows[s].items():
            if m <= 0 or not (t in on_line or s in on_line and t in summits):
                continue
            if m != 1:
                return f"arrow {s}->{t} has multiplicity {m}"
            if s in on_line and t in on_line:
                continue
            if s in sources or t in targets:
                side = "outgoing" if s in on_line else "incoming"
                return f"vertex with two {side} ordinary arrows near {s}->{t}"
            sources.add(s)
            targets.add(t)
    horizontals = {(s, t) for s in line for t, m in rows[s].items() if m > 0 and t in on_line}
    expected = set(zip(line, line[1:]))
    missing, extra = sorted(expected - horizontals), sorted(horizontals - expected)
    return f"line arrows broken (missing {missing}, extra {extra})"


def quiver_has_sawteeth(q: Quiver, cartan) -> bool:
    """Every ordered pair of adjacent colors classifies as valid."""
    cols = q.colors()
    for c1 in cols:
        for c2 in cols:
            if c1 == c2 or not cartan.adjacent(c1, c2):
                continue
            if not classify_sawteeth(q, c1, c2).valid:
                return False
    return True


# ---------------------------------------------------------------------------
# local configurations around a vertex about to be mutated


class ConfigLabel:
    """The configuration labels: plain strings, as the mutation records
    store them; the initial ones start with "alpha"."""

    ALPHA0, ALPHA1, ALPHA2 = "alpha0", "alpha1", "alpha2"
    BETA0, BETA1, BETA2, BETA3, BETA4 = "beta0", "beta1", "beta2", "beta3", "beta4"


# allowed follow-ups keyed by (label, previous vertex evicted after mutation)
CONFIG_TRANSITIONS: dict[tuple[str, bool], set[str]] = {
    ("alpha0", True): {"alpha0", "alpha1", "alpha2"},
    ("alpha0", False): {"beta0", "beta1", "beta2"},
    ("alpha1", True): {"alpha1", "alpha2"},
    ("alpha1", False): {"beta3", "beta4"},
    ("alpha2", True): {"alpha0", "alpha1", "alpha2"},
    ("alpha2", False): {"beta0", "beta1", "beta2"},
    ("beta0", False): {"beta0", "beta1", "beta2"},
    ("beta1", False): {"beta3", "beta4"},
    ("beta2", False): {"beta0", "beta1", "beta2"},
    ("beta3", False): {"beta3", "beta4"},
    ("beta4", False): {"beta0", "beta1", "beta2"},
}


def classify_config(q: Quiver, k: int, other_color: int) -> str:
    """Label the arrow pattern around k relative to one adjacent color.

    The quiver is expected to be a cut view in which the line of k obeys
    the structure theory; anything else raises :class:`Unclassifiable`.
    :func:`classify_configs` labels k against several colors in one walk
    of its row, inside a cut's members.
    """
    line = q.ids_of_color(q.vertices[k]) if k in q.vertices else []
    return classify_configs(q, k, (other_color,), q.vertices, line)[other_color]


def classify_configs(
    q: Quiver, k: int, colors: Collection[int], within: Collection[int], line: list[int]
) -> dict[int, str]:
    """The label of k against each of ``colors``, as :func:`classify_config`
    gives it: one walk of row k sorts k's neighbours in ``within`` by
    color, and ``line``, k's line within ``within``, ascending, gives the
    line vertices before and after k.  The first color in order that does
    not classify raises."""
    vs, b = q.vertices, q.b
    if k not in vs or k not in within:
        raise KeyError(f"no vertex {k}")
    i = bisect_left(line, k)
    if i == len(line) or line[i] != k:
        raise ValueError(f"vertex {k} is not on its line {line}")
    near: dict[int, list[tuple[int, int]]] = {}
    for j, x in b[k].items():
        if j in within and (oc := vs[j]) in colors:
            near.setdefault(oc, []).append((j, x))
    k_prev = line[i - 1] if i else None
    k_next = line[i + 1] if i + 1 < len(line) else None

    labels = {}
    for oc in colors:
        js = near.get(oc, [])
        if len(js) > 1 or js and js[0][1] > 0:
            if outs := [j for j, x in js if x > 0]:
                raise Unclassifiable(f"vertex {k} has an outgoing ordinary arrow toward {outs}")
            ins = [j for j, _ in js]
            raise Unclassifiable(f"vertex {k} has several incoming ordinary arrows {ins}")
        if not js:
            labels[oc] = ConfigLabel.ALPHA0 if k_prev is None else ConfigLabel.BETA0
            continue
        j = js[0][0]
        up = k_next is not None and b[k_next].get(j, 0) > 0
        if k_prev is None:
            labels[oc] = ConfigLabel.ALPHA2 if up else ConfigLabel.ALPHA1
        elif b[k_prev].get(j, 0) > 0:
            labels[oc] = ConfigLabel.BETA4 if up else ConfigLabel.BETA3
        else:
            labels[oc] = ConfigLabel.BETA2 if up else ConfigLabel.BETA1
    return labels


# ---------------------------------------------------------------------------
# DOT export


def to_dot(q: Quiver, name: str = "seed") -> str:
    """Graphviz source; one rank per color line, frozen vertices boxed, and
    each vertex's id as its column."""
    lines = [f"digraph {name} {{", "  rankdir=RL;", "  node [shape=ellipse];"]
    for color in q.colors():
        ids = q.ids_of_color(color)
        row = "; ".join(f"v{k}" for k in ids)
        lines.append(f"  {{ rank=same; {row}; }}")
    for k in sorted(q.vertices):
        shape = "box" if k in q.frozen else "ellipse"
        lines.append(f'  v{k} [label="{k}", shape={shape}, color_line={q.vertices[k]}, column={k}];')
    for (s, t), m in sorted(q.arrows.items()):
        for _ in range(m):
            lines.append(f"  v{s} -> v{t};")
    lines.append("}")
    return "\n".join(lines)
