"""Delta-vectors of seed summands relative to a completed word.

A rigid summand is identified with the integer vector of multiplicities
of its strata relative to a fixed reduced word of w0 (the reference).
The engine below computes these vectors for the initial summands of any
reduced word relative to any reference.  The paper's walk pairs a weight
with the reference's root sequence; conjugated by the reference's
prefixes and run down from its end, it is one pass of simple reflections
of u_k(rho), which marks the positions that record 0, and
u_k(omega_{i_k}), whose coordinates are the other coefficients.  Here u_k
is the left part beyond index k of a completion of the word to w0; it is
-(s_{i_1} ... s_{i_k} lam)* on a weight lam, with * the diagram
involution, so both weights walk the word's own first k letters: no
completion is built, no root sequence and no matrix.  Every summand walks
the same letters, so ``delta_vectors`` walks all of them at once, one
lane per summand.

A vector is stored packed, as one Python int with W = 16 bits per
coordinate, coordinate 1 in the lowest field (the SWAR layout of Lamport,
*Multiple byte processing with full-word instructions*, CACM 1975, and
Warren, *Hacker's Delight*, ch. 2).  The run builds every vector
packed: ``delta_vectors`` and ``basis_delta`` write each coordinate
straight into its field, the exchange's sums and differences of vectors
are big-integer adds of ``bits``, and reads of a coordinate or of a run
of leading coordinates are masks and shifts.  ``DeltaVector`` itself
has no arithmetic.  Let G(n) hold 2^(W-1) in each of n fields.  Two
bounds keep every field inside its W bits:

- every stored coordinate lies in [0, STORED_BOUND) = [0, 2^8);
- the arrow multiplicities on one side of a mutated vertex sum to less
  than SIDE_BOUND = 2^7.

An exchange candidate G - d_k + sum of m * d_s over one side of k then
has, in every field, 2^15 - a_k + sum of m * a_s, which lies in
[2^15 - 255, 2^15 + 127 * 255] and so in [0, 2^16).  Python ints are
exact, so the int computed is the one whose base-2^16 digits are these
field values: no carry or borrow crosses a field.  A field's coefficient
is nonnegative exactly when its bit W-1 is set (a nonnegative one is at
most 127 * 255 < 2^15), so the candidate is nonnegative exactly when
``acc & G == G``, and the vector it stands for is ``acc - G``.  That
vector is stored only if each field is below 2^8, one mask test;
otherwise, as when a side is past its bound, the run raises
:class:`InvariantViolation` rather than wrap.  A coefficient of the walk
is a coordinate of a weight in the orbit of a fundamental weight, at
most 6 in absolute value, so it always fits its field.  A vector built
from a tuple with a coordinate outside [0, 2^8) raises ``ValueError``.
``coords`` decodes the fields into a tuple once, on first read, for
output, error messages and tests.

The walk turns the same layout to run across summands.  For each weight
coordinate c, one int Y[c] holds u_k(rho)_c + 2^14 in its lane q, and
one int E[c] holds u_k(omega_{i_k})_c + 2^14, where k = ks[q]; let G'
hold 2^14 in every lane.  Reflecting the lanes of a mask m by s_j takes
their coordinate j as P = (Y[j] & m) - (G' & m), subtracts 2P from Y[j]
and adds P to the coordinate of each neighbor of j, and the same for E.
Every lane value is a coordinate of a weight in the Weyl-group orbit of
rho or of a fundamental weight.  Coordinate j of x(rho) is the height of
the root x^{-1}(alpha_j), at most 29 in absolute value under
MAX_POSITIVE_ROOTS (29 is E8's), and never 0; a coordinate of
x(omega_i) is an alpha_i-coefficient of a root, at most 6 in absolute
value.  So each lane holds 2^14 plus at most 29 before and after an
update, and the update moves it by at most 2 * 29: every lane stays
within 2^14 +- 2 * 29, inside [0, 2^15), also after the negation by *,
which takes 2^14 + x to 2^14 - x.  Python ints are exact, so the
int after an update is the one whose base-2^16 digits are the new lane
values: the borrows of a negative P cancel.  A lane's value is negative
exactly when its bit 14 is clear, so ``G' & ~Y[j]`` marks the lanes to
reflect, and ``G' & ~E[j]`` the negative coefficients.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from .errors import InvariantViolation, NegativeCoordinate
from .rootsys import diagram_involution, number_of_positive_roots
from .words import ComboNumbers, SubwordEmbedding, Word

W = 16  # bits per coordinate field: two bytes, little-endian
STORED_BOUND = 1 << 8
SIDE_BOUND = 1 << 7
LANE_BIAS = 1 << 14  # a lane of the walk holds LANE_BIAS + its value


@lru_cache(maxsize=128)
def offset(n: int) -> int:
    """G(n): 2^(W-1) in each of n fields."""
    return int.from_bytes(b"\x00\x80" * n, "little")


@lru_cache(maxsize=128)
def _stored_mask(n: int) -> int:
    """The bits a stored vector of n coordinates may set."""
    return int.from_bytes(b"\xff\x00" * n, "little")


@lru_cache(maxsize=128)
def _lanes(value: int, n: int) -> int:
    """``value`` in each of n fields."""
    return int.from_bytes(value.to_bytes(2, "little") * n, "little")


def prefix_mask(n: int) -> int:
    """The fields of coordinates 1..n."""
    return (1 << (W * n)) - 1


def coordinate_mask(j: int) -> int:
    """The field of coordinate j."""
    return ((1 << W) - 1) << (W * (j - 1))


def decode(bits: int, n: int) -> tuple[int, ...]:
    """The n coordinates of a stored vector: the low byte of each field,
    since every stored coordinate is below 2^8."""
    return tuple(bits.to_bytes(2 * n, "little")[::2])


def decode_offset(acc: int, n: int) -> tuple[int, ...]:
    """The n coordinates of a vector stored as ``acc`` = G(n) + vector.

    A field holds 2^(W-1) + c with c in [-2^(W-1), 2^(W-1)); flipping
    bit W-1 leaves c in two's complement."""
    return struct.unpack(f"<{n}h", (acc ^ offset(n)).to_bytes(2 * n, "little"))


class DeltaVector:
    """Multiplicity vector of a summand relative to a reference word.

    ``bits`` holds the coordinates packed as the module docstring lays
    out, each in [0, STORED_BOUND); ``coords`` is the decoded tuple, built
    on first read.  ``DeltaVector(reference, coords)`` packs a tuple and
    raises ``ValueError`` on a coordinate out of range;
    ``DeltaVector.packed`` takes an int and raises
    :class:`InvariantViolation` on a field past the bound.
    """

    __slots__ = ("reference", "bits", "_coords")

    def __init__(self, reference: Word, coords: tuple[int, ...]):
        n = len(reference)
        if len(coords) != n:
            raise ValueError("coordinate length does not match the reference word")
        fields = bytearray(2 * n)
        try:
            fields[::2] = bytes(coords)  # refuses any value outside range(2^8)
        except ValueError:
            raise ValueError(
                f"coordinates must lie in [0, {STORED_BOUND}): {tuple(coords)}"
            ) from None
        self.reference, self.bits, self._coords = reference, int.from_bytes(fields, "little"), None

    @classmethod
    def packed(cls, reference: Word, bits: int) -> "DeltaVector":
        if bits & ~_stored_mask(len(reference)):
            raise InvariantViolation(
                f"a coordinate leaves [0, {STORED_BOUND}): "
                f"{[bits >> (W * i) & ((1 << W) - 1) for i in range(len(reference))]}"
            )
        d = cls.__new__(cls)
        d.reference, d.bits, d._coords = reference, bits, None
        return d

    @property
    def coords(self) -> tuple[int, ...]:
        if self._coords is None:
            self._coords = decode(self.bits, len(self.reference))
        return self._coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaVector):
            return NotImplemented
        return self.bits == other.bits and (
            self.reference is other.reference or self.reference == other.reference
        )

    def __hash__(self) -> int:
        return hash(self.bits)

    def truncated(self, n: int) -> tuple[int, ...]:
        """The first n coordinates."""
        return decode(self.bits & prefix_mask(n), n)

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, a in enumerate(self.coords, start=1) if a)

    def __repr__(self) -> str:  # pragma: no cover
        terms = [f"f{k}" if a == 1 else f"{a}*f{k}" for k, a in enumerate(self.coords, 1) if a]
        return "Delta(" + (" + ".join(terms) if terms else "0") + ")"


def basis_delta(reference: Word, ks) -> DeltaVector:
    return DeltaVector.packed(reference, sum(1 << (W * (k - 1)) for k in ks))


def initial_delta_same(word: Word, k: int) -> DeltaVector:
    """Vector of the k-th initial summand relative to its own word.

    It is the sum of the basis vectors e_j over the indices j <= k of
    the same color as k.
    """
    if not 1 <= k <= len(word):
        raise IndexError(f"index {k} out of range 1..{len(word)}")
    ik = word.color(k)
    return basis_delta(word, [j for j in range(1, k + 1) if word.color(j) == ik])


def _left_part_lanes(word: Word, ks: range) -> tuple[list[int], list[int]]:
    """(Y, E): for each weight coordinate c, Y[c - 1] holds u_k(rho)_c and
    E[c - 1] holds u_k(omega_{i_k})_c in lane q, biased by LANE_BIAS, with
    k = ks[q].

    u_k = s_{i_N} ... s_{i_{k+1}} is the left part beyond index k of any
    reduced word of w0 whose first letters are the word's.  It equals
    w0 s_{i_1} ... s_{i_k}, and w0 sends lam to -lam*, with * the diagram
    involution (``diagram_involution``), so u_k(lam) =
    -(s_{i_1} ... s_{i_k} lam)*: it depends on the first k letters only,
    and no completion of the word is built.  The walk runs p from max(ks)
    down to 1 and reflects by s_{i_p} the lanes with k >= p, the high
    lanes of the mask m; then each list is negated and permuted by *: a
    lane holding LANE_BIAS + x becomes LANE_BIAS - x, which is
    2 * LANE_BIAS - (LANE_BIAS + x) and never borrows.  No matrix is
    built.
    """
    c = word.cartan
    n = len(ks)
    g = _lanes(LANE_BIAS, n)
    full = (1 << (W * n)) - 1
    ys = [g + _lanes(1, n)] * c.rank
    es = [g] * c.rank
    letters = word.letters
    for q, k in enumerate(ks):
        es[letters[k - 1] - 1] += 1 << (W * q)
    nbrs = c.nbrs
    a = ks.start
    for p in range(ks[-1] if ks else 0, 0, -1):
        j = letters[p - 1] - 1
        m = full & -(1 << (W * max(p - a, 0)))
        gm = g & m
        y_j = (ys[j] & m) - gm
        e_j = (es[j] & m) - gm
        ys[j] -= 2 * y_j
        es[j] -= 2 * e_j
        for t in nbrs[j]:
            ys[t - 1] += y_j
            es[t - 1] += e_j
    g2 = 2 * g
    star = diagram_involution(c)
    return [g2 - ys[i - 1] for i in star], [g2 - es[i - 1] for i in star]


def delta_vectors(module_word: Word, target: Word, ks: range) -> list[DeltaVector]:
    """Vectors of the summands k in ``ks`` of a reduced word relative to a
    reduced word of w0 (the target), in the order of ``ks``.

    The module word may be any reduced word, with ks inside
    1..len(module_word): it is the start of some reduced word of w0, and
    summand k's vector depends on its first k letters only (see
    ``_left_part_lanes``).  Let u_k be the left part beyond index k of
    such a completion and Q the positions of its leftmost subword in the
    target.  The paper's walk starts xi at the fundamental
    weight omega of color i_k and, at each target position i outside Q,
    records n = <xi, beta_i^vee> and reflects xi in beta_i; positions in Q
    record 0.

    Let x = s_{j_1} ... s_{j_{i-1}} be the target's prefix before position
    i, so that beta_i = x(alpha_{j_i}), and carry eta = x^{-1}(xi) instead.
    Then n is coordinate j_i of eta.  Reflecting xi in beta_i leaves eta
    unchanged, since (x s_{j_i})^{-1} s_{beta_i} = x^{-1}; at a position in
    Q, xi stays and eta becomes s_{j_i}(eta).  Walked up the target, eta
    ends at u_k(omega); reflections are involutions, so this walk runs down
    from position r with eta = u_k(omega) and y = u_k(rho) instead: i is in
    Q exactly when coordinate j_i of y is negative, and then both are
    reflected by s_{j_i}.

    Every summand walks the same letters, so all of them walk at once, one
    lane each (see the module docstring): at position i, the lanes whose
    coordinate j_i of y has bit 14 clear are reflected, and every other
    lane writes coordinate j_i of eta to column i.  A negative coefficient
    raises :class:`NegativeCoordinate` naming its k and position.
    """
    c = module_word.cartan
    if c != target.cartan:
        raise ValueError("words of different types")
    r = number_of_positive_roots(c)
    if len(target) != r:
        raise ValueError("the target must be a reduced word of w0")
    if ks.step != 1:
        raise ValueError("summand indices must be a range of step 1")
    if ks and not (1 <= ks[0] and ks[-1] <= len(module_word)):
        raise IndexError(
            f"index {ks[0] if ks[0] < 1 else ks[-1]} out of range 1..{len(module_word)}"
        )

    n = len(ks)
    ys, es = _left_part_lanes(module_word, ks)
    g = _lanes(LANE_BIAS, n)  # bit 14 of every lane
    full = (1 << (W * n)) - 1
    nbrs = c.nbrs
    # row q, the vector of summand ks[q], is units q*r .. q*r + r - 1
    rows = bytearray(2 * n * r)
    units = memoryview(rows).cast("H")
    for i, j in zip(range(r, 0, -1), reversed(target.letters)):
        j -= 1
        y, eta = ys[j], es[j]
        in_q = g & ~y  # bit 14 of each lane whose position i is in Q
        keep = full
        if in_q:
            fm = (in_q << 2) - (in_q >> 14)  # those lanes, all 16 bits
            keep ^= fm
            minus_y = in_q - (y & fm)
            eta_j = (eta & fm) - in_q
            ys[j] = y + 2 * minus_y
            es[j] = eta - 2 * eta_j
            for t in nbrs[j]:
                ys[t - 1] -= minus_y
                es[t - 1] += eta_j
        bias = g & keep
        negative = bias & ~eta
        if negative:
            lane = (negative & -negative).bit_length() // W
            coefficient = (eta >> (W * lane) & 0xFFFF) - LANE_BIAS
            raise NegativeCoordinate(
                f"coefficient {coefficient} at position {i} (module index {ks[lane]}); "
                "the reference data is inconsistent"
            )
        units[i - 1 :: r] = memoryview(((eta & keep) - bias).to_bytes(2 * n, "little")).cast("H")
    return [
        DeltaVector.packed(target, int.from_bytes(rows[2 * r * q : 2 * r * (q + 1)], "little"))
        for q in range(n)
    ]


def delta_via_xi(module_word: Word, k: int, target: Word) -> DeltaVector:
    """Vector of the k-th summand of a reduced word relative to a reduced
    word of w0: ``delta_vectors`` on the one lane k."""
    return delta_vectors(module_word, target, range(k, k + 1))[0]


def initial_delta_tilde(word: Word, emb: SubwordEmbedding, k: int) -> tuple[int, ...]:
    """First l(v) reference coordinates of the k-th initial summand.

    Combinatorial closed form: coordinate j is 1 exactly when j is a
    v-index of color i_k with j <= f(k).
    """
    combo = ComboNumbers(word, emb)
    return delta_tilde_from_combo(combo, k)


def delta_tilde_from_combo(combo: ComboNumbers, k: int) -> tuple[int, ...]:
    f_k = combo.f(k)
    out = [0] * len(combo.emb)
    for j in combo.v_indices[combo.word.color(k)]:
        if j <= f_k:
            out[j - 1] = 1
    return tuple(out)


def support_prefixes(combo: ComboNumbers) -> dict[int, list[int]]:
    """Per color of the word, the packed 0/1 indicators of its first 0, 1,
    2, ... v-indices: the indicator of the v-indices js[a:b] of a color is
    the difference of entries b and a."""
    tables = {}
    for i, js in combo.v_indices.items():
        table = tables[i] = [0]
        for j in js:
            table.append(table[-1] | 1 << (W * (j - 1)))
    return tables


def in_Cv(d: DeltaVector, lv: int) -> bool:
    """Membership by vanishing of the first l(v) coordinates."""
    return not d.bits & prefix_mask(lv)


def in_Cw(d: DeltaVector, lw: int) -> bool:
    """Membership by vanishing of the coordinates beyond l(w)."""
    return not d.bits >> (W * lw)
