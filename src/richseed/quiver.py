"""Seed quivers and their combinatorics.

A quiver is stored as its skew-symmetric exchange matrix: ``b[i][j]``
is #(i->j) - #(j->i), so ``b[j][i] == -b[i][j]``, a zero entry is
absent, and a 2-cycle cannot be represented.  An entry joining two
frozen vertices is never stored, since seeds are only defined up to
such arrows.  ``mutate_in_place`` applies the Fomin-Zelevinsky matrix
rule in O(deg_in * deg_out) and returns nothing: the arrows a mutation
makes appear or vanish are read off by ``mutalg.green_report``, the one
replay that needs them.  Every other operation, ``mutate`` included,
returns a new quiver.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Iterable, KeysView, NamedTuple, Optional

from .errors import FrozenVertex, Unclassifiable
from .words import Word


class Vertex(NamedTuple):
    """A vertex on line ``color`` at ``column``: a named tuple, so
    immutable, hashable and equal by value."""

    id: int
    color: int
    column: int
    frozen: bool = False


class Quiver:
    """A finite quiver without loops or 2-cycles, as one signed row per vertex.

    ``b[i]`` maps each vertex joined to i to #(i->j) - #(j->i): the
    positive entries of a row are the arrows out of i, the negative ones
    the arrows into i.  Every row is the negated column of its vertex,
    and no entry joins two frozen vertices.  ``arrows`` is the view
    (source, target) -> multiplicity of the positive entries.
    ``journal``, when it is a set, collects every matrix entry written,
    once, as (smaller id, larger id); checked runs turn it on and drain
    it after each batch.
    """

    __slots__ = ("vertices", "b", "journal")

    def __init__(
        self, vertices: Iterable[Vertex], arrows: Optional[dict[tuple[int, int], int]] = None
    ):
        self.vertices: dict[int, Vertex] = {v.id: v for v in vertices}
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
        if self.vertices[s].frozen and self.vertices[t].frozen:
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
        return isinstance(other, Quiver) and self.vertices == other.vertices and self.b == other.b

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
        return sorted(v.id for v in self.vertices.values() if v.color == color)

    def colors(self) -> list[int]:
        return sorted({v.color for v in self.vertices.values()})

    def __repr__(self) -> str:  # pragma: no cover
        return f"Quiver({len(self.vertices)} vertices, {sum(self.arrows.values())} arrows)"

    # -- transformations -----------------------------------------------------

    def restricted(self, keep: set[int]) -> "Quiver":
        """Subquiver on a vertex subset, keeping arrows inside it."""
        verts = [v for v in self.vertices.values() if v.id in keep]
        q = Quiver(verts)
        ids = q.vertices
        q.b = {i: {j: x for j, x in self.b[i].items() if j in ids} for i in ids}
        return q

    def with_frozen(self, frozen_ids: set[int]) -> "Quiver":
        """Mark vertices frozen; arrows between two frozen vertices drop."""
        verts = [v._replace(frozen=v.id in frozen_ids) for v in self.vertices.values()]
        return Quiver(verts, self.arrows)

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
        if self.vertices[k].frozen:
            raise FrozenVertex(f"vertex {k} is frozen")
        vs, b, row = self.vertices, self.b, self.b[k]
        outs = [(t, m) for t, m in row.items() if m > 0]
        for s, m1 in row.items():
            if m1 > 0:
                continue
            frozen = vs[s].frozen
            for t, m2 in outs:
                if not (frozen and vs[t].frozen):
                    self._set(s, t, b[s].get(t, 0) - m1 * m2)
        for j, m in list(row.items()):
            self._set(k, j, -m)


def build_gamma(word: Word) -> Quiver:
    """The combinatorial quiver of a word's initial seed.

    Vertices k = 1..l(w) sit on line i_k, column k.  Horizontal arrows
    run k -> k+ inside every color line.  An ordinary arrow j -> k (with
    j > k of a different color) exists when the colors are adjacent and
    j+ >= k+ > j > k, with multiplicity -a_{i_j, i_k}.

    One pass over j keeps each color's last index so far: an earlier k
    of that color has k+ < j, so the last one is the only candidate per
    adjacent color.  Arrows are added in the same order as an all-pairs
    scan of (j, k), so every row lists its entries in that order too.
    """
    c = word.cartan
    L = len(word)
    q = Quiver(Vertex(k, word.color(k), k) for k in range(1, L + 1))
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
    chain: tuple[int, ...]  # line vertices from right_end to left_end inclusive


class SawTeethReport:
    """The decomposition of one bicolor subquiver, filled in by
    :func:`classify_sawteeth`.  ``initial_barb`` is (line source, summit
    target), ``final_barb`` (summit source, line target).  Mutable; two
    reports are equal when every field is, and they are unhashable."""

    __slots__ = ("line_color", "summit_color", "valid", "violation", "initial_run",
                 "initial_barb", "teeth", "final_barb", "final_run", "isolated")

    def __init__(self, line_color: int, summit_color: int, valid: bool,
                 violation: Optional[str] = None, initial_run: Optional[list[int]] = None,
                 initial_barb: Optional[tuple[int, int]] = None,
                 teeth: Optional[list[Tooth]] = None, final_barb: Optional[tuple[int, int]] = None,
                 final_run: Optional[list[int]] = None, isolated: Optional[set[int]] = None):
        self.line_color, self.summit_color, self.valid = line_color, summit_color, valid
        self.violation, self.initial_barb, self.final_barb = violation, initial_barb, final_barb
        self.initial_run = [] if initial_run is None else initial_run
        self.teeth = [] if teeth is None else teeth
        self.final_run = [] if final_run is None else final_run
        self.isolated = set() if isolated is None else isolated

    def __eq__(self, other) -> bool:
        return isinstance(other, SawTeethReport) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def pure(self) -> bool:
        return self.initial_barb is None


def classify_sawteeth(
    q: Quiver, c1: int, c2: int, lines: Optional[dict[int, list[int]]] = None
) -> SawTeethReport:
    """Decompose the (c1, c2)-bicolor subquiver of ``q``, or report the
    first violation.

    The subquiver is read off the rows of ``q``, without a copy: the
    vertices of colors c1 (the line) and c2 (the summits), the arrows
    between two c1-vertices and the arrows joining the two colors in
    either direction, but not the arrows between two c2-vertices; so it
    is not symmetric in c1 and c2.  ``lines``, when given, holds the
    ascending vertex list of each color (e.g. a cut's members) and
    replaces every vertex of that color.  Violations are data, not
    errors: the report comes back with ``valid=False`` and a description.
    """
    if lines is None:
        line, jline = q.ids_of_color(c1), q.ids_of_color(c2)
    else:
        line, jline = lines.get(c1, []), lines.get(c2, [])
    rep = SawTeethReport(c1, c2, valid=True)

    def fail(msg: str) -> SawTeethReport:
        rep.valid = False
        rep.violation = msg
        return rep

    # inventory the line's arrows and those joining the colors, by source id
    on_line, summits = set(line), set(jline)
    horizontals: set[tuple[int, int]] = set()
    out_at: dict[int, int] = {}  # line vertex -> summit target
    in_at: dict[int, int] = {}  # line vertex -> summit source
    in_j: dict[int, int] = {}  # summit -> line source of its incoming arrow
    out_j: dict[int, int] = {}  # summit -> line target of its outgoing arrow
    for s in sorted(line + jline):
        from_line = s in on_line
        for t, m in q.b[s].items():
            if m <= 0 or not (t in on_line or from_line and t in summits):
                continue
            if m != 1:
                return fail(f"arrow {s}->{t} has multiplicity {m}")
            if from_line and t in on_line:
                horizontals.add((s, t))
            elif from_line:
                if s in out_at or t in in_j:
                    return fail(f"vertex with two outgoing ordinary arrows near {s}->{t}")
                out_at[s] = t
                in_j[t] = s
            else:
                if t in in_at or s in out_j:
                    return fail(f"vertex with two incoming ordinary arrows near {s}->{t}")
                in_at[t] = s
                out_j[s] = t

    expected = {(a, b) for a, b in zip(line, line[1:])}
    if horizontals != expected:
        missing = expected - horizontals
        extra = horizontals - expected
        return fail(f"line arrows broken (missing {sorted(missing)}, extra {sorted(extra)})")

    rep.isolated = {j for j in jline if j not in in_j and j not in out_j}

    if not line:
        if in_at or out_at:
            return fail("cross arrows without a line")
        return rep

    crossed = sorted(set(in_at) | set(out_at))
    if not crossed:
        rep.initial_run = list(line)
        return rep

    x0 = crossed[0]
    pos = {k: idx for idx, k in enumerate(line)}
    rep.initial_run = line[: pos[x0] + 1]

    consumed_out: set[int] = set()
    consumed_in: set[int] = set()
    if x0 in out_at:
        rep.initial_barb = (x0, out_at[x0])
        consumed_out.add(x0)

    anchor = x0
    while True:
        if anchor not in in_at:
            break
        y = in_at[anchor]
        consumed_in.add(anchor)
        closer = in_j.get(y)  # line vertex with an arrow into y
        if closer is None or closer <= anchor or closer in consumed_out:
            # no matching left side: the arrow y -> anchor is a final barb
            rep.final_barb = (y, anchor)
            break
        interior = line[pos[anchor] + 1 : pos[closer]]
        dirty = [v for v in interior if v in in_at or v in out_at]
        if dirty:
            return fail(f"cross arrows {dirty} inside the tooth {anchor}..{closer}")
        rep.teeth.append(
            Tooth(anchor, y, closer, tuple(line[pos[anchor] : pos[closer] + 1]))
        )
        consumed_out.add(closer)
        anchor = closer

    rep.final_run = line[pos[anchor] :]

    # every cross arrow must have been used by the structure; in particular
    # nothing may follow a final barb
    leftover_in = set(in_at) - consumed_in
    leftover_out = set(out_at) - consumed_out
    if leftover_in or leftover_out:
        return fail(
            f"ordinary arrows outside the structure (in at {sorted(leftover_in)}, "
            f"out at {sorted(leftover_out)})"
        )
    if rep.initial_barb is not None and rep.final_barb is not None:
        b_t = rep.initial_barb[1]
        d_s = rep.final_barb[0]
        if jline.index(d_s) <= jline.index(b_t):
            return fail("final barb does not start beyond the initial barb target")
    return rep


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


class ConfigLabel(Enum):
    ALPHA0 = "alpha0"
    ALPHA1 = "alpha1"
    ALPHA2 = "alpha2"
    BETA0 = "beta0"
    BETA1 = "beta1"
    BETA2 = "beta2"
    BETA3 = "beta3"
    BETA4 = "beta4"

    @property
    def is_initial(self) -> bool:
        return self.value.startswith("alpha")


# allowed follow-ups keyed by (label, previous vertex evicted after mutation)
CONFIG_TRANSITIONS: dict[tuple[ConfigLabel, bool], set[ConfigLabel]] = {
    (ConfigLabel.ALPHA0, True): {ConfigLabel.ALPHA0, ConfigLabel.ALPHA1, ConfigLabel.ALPHA2},
    (ConfigLabel.ALPHA0, False): {ConfigLabel.BETA0, ConfigLabel.BETA1, ConfigLabel.BETA2},
    (ConfigLabel.ALPHA1, True): {ConfigLabel.ALPHA1, ConfigLabel.ALPHA2},
    (ConfigLabel.ALPHA1, False): {ConfigLabel.BETA3, ConfigLabel.BETA4},
    (ConfigLabel.ALPHA2, True): {ConfigLabel.ALPHA0, ConfigLabel.ALPHA1, ConfigLabel.ALPHA2},
    (ConfigLabel.ALPHA2, False): {ConfigLabel.BETA0, ConfigLabel.BETA1, ConfigLabel.BETA2},
    (ConfigLabel.BETA0, False): {ConfigLabel.BETA0, ConfigLabel.BETA1, ConfigLabel.BETA2},
    (ConfigLabel.BETA1, False): {ConfigLabel.BETA3, ConfigLabel.BETA4},
    (ConfigLabel.BETA2, False): {ConfigLabel.BETA0, ConfigLabel.BETA1, ConfigLabel.BETA2},
    (ConfigLabel.BETA3, False): {ConfigLabel.BETA3, ConfigLabel.BETA4},
    (ConfigLabel.BETA4, False): {ConfigLabel.BETA0, ConfigLabel.BETA1, ConfigLabel.BETA2},
}


def classify_config(
    q: Quiver,
    k: int,
    other_color: int,
    within: Optional[Collection[int]] = None,
    line: Optional[list[int]] = None,
) -> ConfigLabel:
    """Label the arrow pattern around k relative to one adjacent color.

    The quiver, restricted to ``within`` when given (a cut's members),
    is expected to be a cut view in which the line of k obeys the
    structure theory; anything else raises :class:`Unclassifiable`.
    ``line``, when the caller keeps it, is k's line within ``within``, ascending.
    """
    inside = q.vertices if within is None else within
    if k not in q.vertices or k not in inside:
        raise KeyError(f"no vertex {k}")
    vs = q.vertices
    if line is None:
        line = sorted(v for v in inside if vs[v].color == vs[k].color)
    idx = line.index(k)

    near = [(j, x) for j, x in q.b[k].items() if j in inside and vs[j].color == other_color]
    ins = [j for j, x in near if x < 0]
    outs = [j for j, x in near if x > 0]
    if outs:
        raise Unclassifiable(f"vertex {k} has an outgoing ordinary arrow toward {outs}")
    if len(ins) > 1:
        raise Unclassifiable(f"vertex {k} has several incoming ordinary arrows {ins}")

    k_next = line[idx + 1] if idx + 1 < len(line) else None
    first = idx == 0

    if first:
        if not ins:
            return ConfigLabel.ALPHA0
        j = ins[0]
        if k_next is not None and q.has_arrow(k_next, j):
            return ConfigLabel.ALPHA2
        return ConfigLabel.ALPHA1

    k_prev = line[idx - 1]
    if not ins:
        return ConfigLabel.BETA0
    j = ins[0]
    down = q.has_arrow(k_prev, j)
    up = k_next is not None and q.has_arrow(k_next, j)
    if down and up:
        return ConfigLabel.BETA4
    if down:
        return ConfigLabel.BETA3
    if up:
        return ConfigLabel.BETA2
    return ConfigLabel.BETA1


# ---------------------------------------------------------------------------
# DOT export


def to_dot(q: Quiver, name: str = "seed") -> str:
    """Graphviz source; one rank per color line, frozen vertices boxed."""
    lines = [f"digraph {name} {{", "  rankdir=RL;", "  node [shape=ellipse];"]
    for color in q.colors():
        ids = q.ids_of_color(color)
        row = "; ".join(f"v{k}" for k in ids)
        lines.append(f"  {{ rank=same; {row}; }}")
    for v in sorted(q.vertices.values(), key=lambda v: v.id):
        shape = "box" if v.frozen else "ellipse"
        lines.append(
            f'  v{v.id} [label="{v.id}", shape={shape}, color_line={v.color}, column={v.column}];'
        )
    for (s, t), m in sorted(q.arrows.items()):
        for _ in range(m):
            lines.append(f"  v{s} -> v{t};")
    lines.append("}")
    return "\n".join(lines)
