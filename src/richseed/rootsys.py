"""Simply-laced Weyl-group arithmetic on weights.

Conventions used everywhere in the package:

* weights are integer vectors in the fundamental-weight basis,
* vertices of the Dynkin diagram (colors) are numbered 1..rank.

No root vector is built: the j-th simple root has weight coordinate 2
at j and -1 at each neighbor of j, so a simple reflection s_j subtracts
lam_j times that vector from a weight lam, and coordinate j of
w^{-1}(rho) is the height of the root w(alpha_j).

A type is its Dynkin diagram, a named tuple :class:`CartanData`: every
type is simply laced, so no Cartan matrix is kept.  A Weyl group element
w is a named tuple (cartan, inv_rho) holding the single weight
w^{-1}(rho), which determines w because rho is regular: plain values,
equal, hashable and pickled as their fields; every operation on an
element is a walk of simple reflections on weights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import IllegalType

Vec = tuple[int, ...]

# Types with more positive roots than E8 are refused before anything is
# built: a run completes words to w0, whose length is this number, so
# its cost grows with it (A400 would need words of 80 200 letters).  It
# also bounds the per-type caches below.
MAX_POSITIVE_ROOTS = 120


class CartanData(NamedTuple):
    """A simply-laced Dynkin type as its diagram: ``nbrs`` holds vertex
    i's neighbors at [i-1].  A named tuple, so immutable and equal by
    value; its hash is not cached."""

    family: str
    rank: int
    nbrs: tuple[tuple[int, ...], ...]

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.nbrs[i - 1]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.nbrs[i - 1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"CartanData({self.family}{self.rank})"


def _positive_root_count(family: str, rank: int) -> int:
    """Number of positive roots of a type, which must exist."""
    if family == "A":
        if rank < 1:
            raise IllegalType(f"A{rank} does not exist")
        return rank * (rank + 1) // 2
    if family == "D":
        if rank < 4:
            raise IllegalType(f"D{rank} does not exist (rank >= 4 required)")
        return rank * (rank - 1)
    if family == "E":
        if rank not in (6, 7, 8):
            raise IllegalType(f"E{rank} does not exist")
        return {6: 36, 7: 63, 8: 120}[rank]
    raise IllegalType(f"unknown family {family!r}")


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        chain = [(i, i + 1) for i in range(1, rank - 2)]
        return chain + [(rank - 2, rank - 1), (rank - 2, rank)]
    chain = [(1, 3), (3, 4), (4, 5), (5, 6)]
    chain += [(i, i + 1) for i in range(6, rank)]
    return chain + [(2, 4)]


def cartan(family: str, rank: int) -> CartanData:
    """The diagram of type ``family``+``rank``, vertices numbered 1..rank.

    A_n is the chain 1--2--...--n, D_n branches at n-2, and in E_n the
    vertex 2 hangs off vertex 4 of the chain 1--3--4--5--...--n.  Types
    with more than MAX_POSITIVE_ROOTS positive roots raise IllegalType.
    """
    family = family.upper()
    count = _positive_root_count(family, rank)
    if count > MAX_POSITIVE_ROOTS:
        raise IllegalType(
            f"{family}{rank} has {count} positive roots, above the limit of "
            f"{MAX_POSITIVE_ROOTS} (the number of E8)"
        )
    edges = set(_edges(family, rank))
    vertices = range(1, rank + 1)
    nbrs = tuple(tuple(j for j in vertices if (min(i, j), max(i, j)) in edges) for i in vertices)
    return CartanData(family, rank, nbrs)


def parse_type(spec: str) -> CartanData:
    """Parse a type string such as ``"A5"`` or ``"d4"``: one letter, then
    the rank in ASCII digits, so that "A1_0", "A 3" or "E\u0668" is refused
    rather than read by ``int``."""
    spec = spec.strip()
    rank = spec[1:]
    if not (rank.isascii() and rank.isdigit()) or spec[0].upper() not in "ADE":
        raise IllegalType(f"cannot parse type {spec!r}")
    return _parsed_cartan(spec[0].upper(), int(rank))


# one CartanData per type and process; about 29 types lie under
# MAX_POSITIVE_ROOTS, and an IllegalType is raised again on every call
@lru_cache(maxsize=32)
def _parsed_cartan(family: str, rank: int) -> CartanData:
    return cartan(family, rank)


# ---------------------------------------------------------------------------
# weight arithmetic


def reflect_weight_simple(c: CartanData, i: int, lam: Vec) -> Vec:
    """s_i acting on weight coordinates: subtract n = lam_i times alpha_i,
    whose weight coordinates are 2 at i and -1 at each neighbor."""
    n = lam[i - 1]
    if not n:
        return lam
    out = list(lam)
    out[i - 1] = -n
    for j in c.nbrs[i - 1]:
        out[j - 1] += n
    return tuple(out)


def number_of_positive_roots(c: CartanData) -> int:
    return _positive_root_count(c.family, c.rank)


# ---------------------------------------------------------------------------
# Weyl group elements as the single weight w^{-1}(rho)


class WeylElement(NamedTuple):
    """A Weyl group element w as the weight y = w^{-1}(rho).

    rho is regular, so W acts simply transitively on its orbit and y
    determines w; equality of elements is equality of weights.  Every
    operation reads off y: coordinate i of y is <rho, w(alpha_i)^vee> =
    ht(w(alpha_i)), so s_i is a right descent of w exactly when y_i < 0;
    w s_i has the weight s_i(y); w is the identity exactly when y = rho.
    ``peel_left(y)`` spells a reduced word of w in application order,
    from which the length, the inverse and products are built.  A named
    tuple (cartan, inv_rho), so immutable and hashable; ``*`` is the
    group product, not tuple repetition.
    """

    cartan: CartanData
    inv_rho: Vec

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.cartan != other.cartan:
            raise ValueError("elements of different Weyl groups")
        # other = s_{j_l} ... s_{j_1}, so self * other right-multiplies by
        # s_{j_l} first and s_{j_1} last
        y = self.inv_rho
        for i in reversed(peel_left(self.cartan, other.inv_rho)):
            y = reflect_weight_simple(self.cartan, i, y)
        return WeylElement(self.cartan, y)

    def rmul(self, i: int) -> "WeylElement":
        """w * s_i, whose weight is s_i(w^{-1}(rho))."""
        return WeylElement(self.cartan, reflect_weight_simple(self.cartan, i, self.inv_rho))

    def rho_image(self) -> Vec:
        """Weight coordinates of w(rho): rho walked through a reduced word
        of w in application order."""
        c = self.cartan
        y = (1,) * c.rank
        for i in peel_left(c, self.inv_rho):
            y = reflect_weight_simple(c, i, y)
        return y

    def inverse(self) -> "WeylElement":
        return WeylElement(self.cartan, self.rho_image())

    def is_identity(self) -> bool:
        return self.inv_rho == (1,) * self.cartan.rank

    @property
    def length(self) -> int:
        return len(peel_left(self.cartan, self.inv_rho))

    def right_descents(self) -> tuple[int, ...]:
        """Colors i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
        return tuple(i for i, x in enumerate(self.inv_rho, start=1) if x < 0)

    def is_right_descent(self, i: int) -> bool:
        return self.inv_rho[i - 1] < 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeylElement({self.cartan.family}{self.cartan.rank}, len={self.length})"


def peel_left(c: CartanData, y: Vec) -> list[int]:
    """Letters j_1, ..., j_l with u = s_{j_1} ... s_{j_l} for the element u
    given by the weight y = u(rho), peeling the smallest left descent
    (the smallest negative coordinate) each time.  For y = w^{-1}(rho)
    the letters are a reduced word of w in application order.  One list
    is reflected in place."""
    y = list(y)
    nbrs = c.nbrs
    letters = []
    while True:
        for i, n in enumerate(y):
            if n < 0:
                break
        else:
            return letters
        letters.append(i + 1)
        y[i] = -n
        for j in nbrs[i]:
            y[j - 1] += n


def identity_element(c: CartanData) -> WeylElement:
    return WeylElement(c, (1,) * c.rank)


def element_of_word(c: CartanData, letters) -> WeylElement:
    """Element w = s_{i_k} ... s_{i_1} for letters (i_1, ..., i_k) in
    application order: w^{-1}(rho) = s_{i_1} ... s_{i_k}(rho), so rho is
    reflected by the letters from the last to the first, in place in one
    list.

    The word need not be reduced.
    """
    for i in letters:
        if not 1 <= i <= c.rank:
            raise ValueError(f"letter {i} out of range 1..{c.rank}")
    y = [1] * c.rank
    nbrs = c.nbrs
    for i in reversed(letters):
        i -= 1
        n = y[i]
        y[i] = -n
        for j in nbrs[i]:
            y[j - 1] += n
    return WeylElement(c, tuple(y))


@lru_cache(maxsize=32)
def longest_element_word(c: CartanData) -> tuple[int, ...]:
    """One reduced word for w0, letters in application order (i_1 first):
    ``peel_left`` of w0^{-1}(rho) = -rho, reversed, which spells w0^{-1} =
    w0 again."""
    return tuple(reversed(peel_left(c, (-1,) * c.rank)))


@lru_cache(maxsize=32)
def diagram_involution(c: CartanData) -> tuple[int, ...]:
    """(1*, ..., n*) for the involution * of the diagram with
    w0(omega_i) = -omega_{i*} (Bourbaki, ch. VI, 1.6, and plates I-VII):
    the reversal on A_n, the swap of n-1 and n on odd D_n, 1 <-> 6 and
    3 <-> 5 on E6, the identity elsewhere.  w0 sends lam to -lam*, whose
    coordinate i is -lam_{i*}, so lam = (1, ..., n) walked down a word of
    w0 ends at -(1*, ..., n*)."""
    lam = tuple(range(1, c.rank + 1))
    for i in longest_element_word(c):
        lam = reflect_weight_simple(c, i, lam)
    return tuple(-x for x in lam)
