"""Matrix, root-sequence and all-pairs paths kept as oracles of the weight
walks in ``richseed.words`` and ``richseed.deltavec`` and of the one-pass
``richseed.quiver.build_gamma``; a bicolor copy, and frozen copies of the
saw-teeth and configuration classifiers as they were before they read
only the line's rows and k's row once, as oracles of those two."""

from typing import Collection, Optional

from richseed.deltavec import DeltaVector
from richseed.errors import NegativeCoordinate, NotLessOrEqual, Unclassifiable
from richseed.quiver import ConfigLabel, Quiver, SawTeethReport, Tooth, Vertex
from richseed.rootsys import (
    element_of_word,
    fundamental_weight,
    identity_element,
    is_negative,
    root_pairing,
    root_to_weight,
)
from richseed.words import SubwordEmbedding, leftmost_subword


def matrix_betas(c, letters):
    """The root sequence beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) with a
    matrix product per letter, and the prefix length of the first
    negative root (None for a reduced word)."""
    betas = []
    x = identity_element(c)
    for k, i in enumerate(letters, start=1):
        beta = x.image_of_simple(i)
        if is_negative(beta):
            return tuple(betas), k
        betas.append(beta)
        x = x.rmul(i)
    return tuple(betas), None


def root_sequence_delta_via_xi(module_word, k, target):
    """The xi-walk along the target's root sequence, ascending: at every
    position outside the leftmost subword for the matrix of u_k = s_{i_L}
    ... s_{i_{k+1}}, the coefficient is the pairing <xi, beta_i^vee> and xi
    is reflected in beta_i."""
    c = target.cartan
    u_k = element_of_word(c, module_word.letters[k:])
    q_positions = set(leftmost_subword(u_k, target))
    xi = fundamental_weight(c, module_word.color(k))
    coords = []
    for i, beta in enumerate(matrix_betas(c, target.letters)[0], start=1):
        if i in q_positions:
            coords.append(0)
            continue
        n = root_pairing(c, xi, beta)
        if n < 0:
            raise NegativeCoordinate(f"coefficient {n} at position {i}")
        xi = tuple(x - n * b for x, b in zip(xi, root_to_weight(c, beta)))
        coords.append(n)
    return DeltaVector(target, tuple(coords))


def matrix_rightmost_subword(v, word):
    """The rightmost representative with matrix right descents: take index
    t, in increasing order, when i_t is a right descent of the remaining
    element, which is then multiplied by s_{i_t} on the right."""
    y = v
    positions = []
    for t in range(1, len(word) + 1):
        if y.is_identity():
            break
        i = word.color(t)
        if y.is_right_descent(i):
            positions.append(t)
            y = y.rmul(i)
    if not y.is_identity():
        raise NotLessOrEqual("element is not below the word in the Bruhat order")
    return SubwordEmbedding(word, tuple(positions))


def all_pairs_gamma(word):
    """The initial quiver from every pair k < j: horizontal arrows k -> k+,
    and j -> k with multiplicity -a_{i_j, i_k} when the colors are
    adjacent and j+ >= k+ > j."""
    c = word.cartan
    L = len(word)
    q = Quiver(Vertex(k, word.color(k), k) for k in range(1, L + 1))
    for k in range(1, L + 1):
        if word.succ(k) <= L:
            q._add(k, word.succ(k), 1)
    for j in range(2, L + 1):
        for k in range(1, j):
            ij, ik = word.color(j), word.color(k)
            if ij != ik and c.adjacent(ij, ik) and word.succ(j) >= word.succ(k) > j:
                q._add(j, k, -c.a(ij, ik))
    return q


def bicolor(q, c1, c2):
    """The (c1, c2)-bicolor subquiver as a copy, built from the arrow view:
    the vertices of both colors, the arrows between two c1-vertices and
    the arrows joining the two colors in either direction, but not the
    arrows between two c2-vertices.  Not symmetric in c1 and c2."""
    vs = q.vertices
    kept = ({c1}, {c1, c2})
    return Quiver(
        [v for v in vs.values() if v.color in (c1, c2)],
        {(s, t): m for (s, t), m in q.arrows.items() if {vs[s].color, vs[t].color} in kept},
    )


# frozen copies of richseed.quiver.classify_sawteeth and classify_config;
# they read every row of both colors and rebuild k's neighbours per color


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
