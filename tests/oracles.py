"""Matrix, root-sequence and all-pairs paths kept as oracles of the weight
walks in ``richseed.rootsys``, ``richseed.words`` and ``richseed.deltavec``
and of the one-pass ``richseed.quiver.build_gamma``; the lane walk up a
completed word of w0, frozen as it was before it read w alone; a bicolor
copy, and frozen copies of the saw-teeth and configuration classifiers as
they were before they read only the line's rows and k's row once, as
oracles of those two."""

from operator import mul
from typing import Collection, NamedTuple, Optional

from richseed.deltavec import LANE_BIAS, W, DeltaVector
from richseed.errors import NegativeCoordinate, NotLessOrEqual, Unclassifiable
from richseed.quiver import ConfigLabel, Quiver, SawTeethReport, Tooth
from richseed.rootsys import (
    CartanData,
    Vec,
    element_of_word,
    number_of_positive_roots,
    positive_roots,
)
from richseed.words import SubwordEmbedding, leftmost_subword

# ---------------------------------------------------------------------------
# root and weight arithmetic through the Cartan matrix


def fundamental_weight(c: CartanData, i: int) -> Vec:
    return tuple(1 if j == i - 1 else 0 for j in range(c.rank))


def root_pairing(c: CartanData, lam: Vec, beta: Vec) -> int:
    """Pairing <lam, beta^vee> of a weight with the coroot of a root."""
    return sum(map(mul, lam, beta))


def root_to_weight(c: CartanData, beta: Vec) -> Vec:
    """Weight coordinates of a root vector (multiply by the Cartan matrix)."""
    return tuple(sum(map(mul, row, beta)) for row in c.matrix)


def reflect_weight(c: CartanData, lam: Vec, beta: Vec) -> Vec:
    """Reflection s_beta of a weight in the hyperplane of the root beta."""
    n = root_pairing(c, lam, beta)
    beta_w = root_to_weight(c, beta)
    return tuple(lam[j] - n * beta_w[j] for j in range(c.rank))


def is_negative(v: Vec) -> bool:
    return all(x <= 0 for x in v) and any(x < 0 for x in v)


# ---------------------------------------------------------------------------
# Weyl group elements as integer matrices on the root lattice


class MatrixElement(NamedTuple):
    """A Weyl group element as an integer matrix on the simple-root basis,
    the reference for ``richseed.rootsys.WeylElement``.

    Column j of the matrix holds the root coordinates of the image of
    the j-th simple root.  Products with a simple reflection touch one
    row (``lmul``) or the columns of one vertex and its neighbors
    (``rmul``); the length is the number of inversions.
    """

    cartan: CartanData
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, v: Vec) -> Vec:
        n = self.cartan.rank
        return tuple(sum(self.matrix[i][j] * v[j] for j in range(n)) for i in range(n))

    def image_of_simple(self, i: int) -> Vec:
        """w(alpha_i), i.e. column i."""
        return tuple(row[i - 1] for row in self.matrix)

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        n = self.cartan.rank
        a, b = self.matrix, other.matrix
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )
        return MatrixElement(self.cartan, prod)

    def lmul(self, i: int) -> "MatrixElement":
        """s_i * w: row i becomes minus itself plus the rows of the neighbors of i."""
        m = self.matrix
        row = [-x for x in m[i - 1]]
        for j in self.cartan.neighbors(i):
            row = [x + y for x, y in zip(row, m[j - 1])]
        return MatrixElement(self.cartan, m[: i - 1] + (tuple(row),) + m[i:])

    def rmul(self, i: int) -> "MatrixElement":
        """w * s_i: column i is negated and added to the column of each neighbor."""
        nbrs = self.cartan.neighbors(i)
        rows = []
        for row in self.matrix:
            x = row[i - 1]
            if x:
                out = list(row)
                out[i - 1] = -x
                for j in nbrs:
                    out[j - 1] += x
                row = tuple(out)
            rows.append(row)
        return MatrixElement(self.cartan, tuple(rows))

    def rho_image(self) -> Vec:
        """Weight coordinates of w(rho), with 2 rho the sum of the positive roots."""
        c = self.cartan
        two_rho = tuple(map(sum, zip(*positive_roots(c))))
        return tuple(x // 2 for x in root_to_weight(c, self.apply(two_rho)))

    def inverse_rho_image(self) -> Vec:
        """Weight coordinates of w^{-1}(rho): coordinate j is
        <rho, w(alpha_j)^vee> = ht(w(alpha_j)), the sum of column j."""
        return tuple(map(sum, zip(*self.matrix)))

    def word(self) -> tuple[int, ...]:
        """A reduced word (d_1, ..., d_l) in application order: w s_{d_1}
        ... s_{d_l} is the identity, peeling the smallest right descent."""
        w, letters = self, []
        while descents := w.right_descents():
            letters.append(descents[0])
            w = w.rmul(descents[0])
        return tuple(letters)

    def inverse(self) -> "MatrixElement":
        return matrix_of_word(self.cartan, reversed(self.word()))

    def is_identity(self) -> bool:
        return self == matrix_identity(self.cartan)

    @property
    def length(self) -> int:
        return sum(1 for b in positive_roots(self.cartan) if is_negative(self.apply(b)))

    def right_descents(self) -> tuple[int, ...]:
        """Colors i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
        return tuple(i for i in range(1, self.cartan.rank + 1) if self.is_right_descent(i))

    def is_right_descent(self, i: int) -> bool:
        return is_negative(self.image_of_simple(i))


def matrix_identity(c: CartanData) -> MatrixElement:
    return MatrixElement(c, tuple(tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank)))


def matrix_of_word(c: CartanData, letters) -> MatrixElement:
    """Matrix of s_{i_k} ... s_{i_1} for letters (i_1, ..., i_k) in
    application order, one ``lmul`` per letter; the word need not be
    reduced."""
    w = matrix_identity(c)
    for i in letters:
        w = w.lmul(i)
    return w


def matrix_all_elements(c: CartanData) -> list[MatrixElement]:
    """Every element of the Weyl group, by breadth-first length order."""
    e = matrix_identity(c)
    seen, frontier, order = {e}, [e], [e]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, c.rank + 1):
                if w.is_right_descent(i):
                    continue
                ws = w.rmul(i)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        order += nxt
        frontier = nxt
    return order


def matrix_reduced_words(w: MatrixElement) -> list[tuple[int, ...]]:
    """All reduced words of w, letters in application order."""
    if w.is_identity():
        return [()]
    return [(i,) + rest for i in w.right_descents() for rest in matrix_reduced_words(w.rmul(i))]


def matrix_random_reduced_word(c: CartanData, length: int, rng) -> tuple[int, ...]:
    """A random reduced word of the given length (shorter past w0), picking
    among the matrix ascents with the same draws as the package does."""
    w, letters = matrix_identity(c), []
    for _ in range(min(length, number_of_positive_roots(c))):
        i = rng.choice([i for i in range(1, c.rank + 1) if not w.is_right_descent(i)])
        w = w.rmul(i)
        letters.append(i)
    return tuple(reversed(letters))


def matrix_betas(c, letters):
    """The root sequence beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) with a
    matrix product per letter, and the prefix length of the first
    negative root (None for a reduced word)."""
    betas = []
    x = matrix_identity(c)
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


def completion_left_part_lanes(module_word, ks):
    """``richseed.deltavec._left_part_lanes`` as it walked a completed word,
    frozen: ``module_word`` is a reduced word of w0 of length N, and lane k
    holds rho and omega_{i_k} reflected by s_{i_{k+1}}, then s_{i_{k+2}},
    ..., s_{i_N}.  The walk runs p from ks.start + 1 to N and reflects by
    s_{i_p} the lanes with k < p, the low lanes of the mask m."""
    c = module_word.cartan
    n = len(ks)
    g = int.from_bytes(LANE_BIAS.to_bytes(2, "little") * n, "little")
    ys = [g + int.from_bytes(b"\x01\x00" * n, "little")] * c.rank
    es = [g] * c.rank
    for q, k in enumerate(ks):
        es[module_word.color(k) - 1] += 1 << (W * q)
    a = ks.start
    for p, j in enumerate(module_word.letters[a:], start=a + 1):
        j -= 1
        m = (1 << (W * min(p - a, n))) - 1
        gm = g & m
        y_j = (ys[j] & m) - gm
        e_j = (es[j] & m) - gm
        ys[j] -= 2 * y_j
        es[j] -= 2 * e_j
        for t in c.nbrs[j]:
            ys[t - 1] += y_j
            es[t - 1] += e_j
    return ys, es


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
    q = Quiver({k: word.color(k) for k in range(1, L + 1)})
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
        {k: color for k, color in vs.items() if color in (c1, c2)},
        {(s, t): m for (s, t), m in q.arrows.items() if {vs[s], vs[t]} in kept},
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

    def fail(msg: str) -> SawTeethReport:
        return SawTeethReport(c1, c2, False, msg)

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

    isolated = frozenset(j for j in jline if j not in in_j and j not in out_j)

    if not line:
        if in_at or out_at:
            return fail("cross arrows without a line")
        return SawTeethReport(c1, c2, True, isolated=isolated)

    crossed = sorted(set(in_at) | set(out_at))
    if not crossed:
        return SawTeethReport(c1, c2, True, isolated=isolated)

    x0 = crossed[0]
    pos = {k: idx for idx, k in enumerate(line)}

    consumed_out: set[int] = set()
    consumed_in: set[int] = set()
    initial_barb = final_barb = None
    teeth = []
    if x0 in out_at:
        initial_barb = (x0, out_at[x0])
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
            final_barb = (y, anchor)
            break
        interior = line[pos[anchor] + 1 : pos[closer]]
        dirty = [v for v in interior if v in in_at or v in out_at]
        if dirty:
            return fail(f"cross arrows {dirty} inside the tooth {anchor}..{closer}")
        teeth.append(Tooth(anchor, y, closer))
        consumed_out.add(closer)
        anchor = closer

    # every cross arrow must have been used by the structure; in particular
    # nothing may follow a final barb
    leftover_in = set(in_at) - consumed_in
    leftover_out = set(out_at) - consumed_out
    if leftover_in or leftover_out:
        return fail(
            f"ordinary arrows outside the structure (in at {sorted(leftover_in)}, "
            f"out at {sorted(leftover_out)})"
        )
    if initial_barb is not None and final_barb is not None:
        b_t = initial_barb[1]
        d_s = final_barb[0]
        if jline.index(d_s) <= jline.index(b_t):
            return fail("final barb does not start beyond the initial barb target")
    return SawTeethReport(c1, c2, True, None, initial_barb, tuple(teeth), final_barb, isolated)


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
        line = sorted(v for v in inside if vs[v] == vs[k])
    idx = line.index(k)

    near = [(j, x) for j, x in q.b[k].items() if j in inside and vs[j] == other_color]
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
