"""Simply-laced root-system arithmetic.

Conventions used everywhere in the package:

* roots are integer vectors in the simple-root basis,
* weights are integer vectors in the fundamental-weight basis,
* vertices of the Dynkin diagram (colors) are numbered 1..rank.

In a simply-laced type the Cartan matrix is symmetric and every root is
its own coroot, so the pairing of a weight ``lam`` with the coroot of a
root ``beta`` is the plain dot product ``sum(lam[j] * beta[j])`` of
weight coordinates against root coordinates.  The Cartan matrix is the
only change of basis: the j-th simple root has weight coordinates equal
to the j-th column (= row) of the Cartan matrix.  This identification is
relied on silently below.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import IllegalType

Vec = tuple[int, ...]

# Types with more positive roots than E8 are refused before anything is
# built: a run completes words to w0, whose length is this number, so
# its cost grows with it (A400 would need words of 80 200 letters).  It
# also bounds the per-type caches below.
MAX_POSITIVE_ROOTS = 120


_set = object.__setattr__


class _Frozen:
    """A slotted base whose attributes are set once, with ``_set``, in
    ``__init__``: assigning or deleting one raises ``AttributeError``.
    Subclasses rebuild copies and pickles from their constructor
    arguments (``__reduce__``)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class CartanData(_Frozen):
    """A simply-laced Dynkin type with its Cartan matrix and diagram.
    Immutable; equal when family, rank, matrix and adjacency are (``nbrs``,
    vertex i's neighbors at [i-1], is derived).  It keys the per-type
    caches, so its hash is computed once."""

    __slots__ = ("family", "rank", "matrix", "adjacency", "nbrs", "_key", "_hash")

    def __init__(self, family: str, rank: int, matrix: tuple[tuple[int, ...], ...],
                 adjacency: frozenset[tuple[int, int]]):
        vertices = range(1, rank + 1)
        nbrs = tuple(tuple(j for j in vertices if j != i and (min(i, j), max(i, j)) in adjacency)
                     for i in vertices)
        key = (family, rank, matrix, adjacency)
        for name, x in zip(self.__slots__, (*key, nbrs, key, hash(key))):
            _set(self, name, x)

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanData) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CartanData, self._key

    def a(self, i: int, j: int) -> int:
        """Cartan entry a_{ij} for colors 1..rank."""
        return self.matrix[i - 1][j - 1]

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.adjacency

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
    """Cartan data for type ``family``+``rank``, vertices numbered 1..rank.

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
    adj = frozenset((min(i, j), max(i, j)) for i, j in _edges(family, rank))
    rows = []
    for i in range(1, rank + 1):
        row = []
        for j in range(1, rank + 1):
            if i == j:
                row.append(2)
            elif (min(i, j), max(i, j)) in adj:
                row.append(-1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return CartanData(family, rank, tuple(rows), adj)


def parse_type(spec: str) -> CartanData:
    """Parse a type string such as ``"A5"`` or ``"d4"``: one letter, then
    the rank in ASCII digits, so that "A1_0", "A 3" or "E\u0668" is refused
    rather than read by ``int``."""
    spec = spec.strip()
    rank = spec[1:]
    if not (rank.isascii() and rank.isdigit()) or spec[0].upper() not in "ADE":
        raise IllegalType(f"cannot parse type {spec!r}")
    return cartan(spec[0], int(rank))


# ---------------------------------------------------------------------------
# root and weight arithmetic


def simple_root(c: CartanData, i: int) -> Vec:
    return tuple(1 if j == i - 1 else 0 for j in range(c.rank))


def fundamental_weight(c: CartanData, i: int) -> Vec:
    return tuple(1 if j == i - 1 else 0 for j in range(c.rank))


def root_pairing(c: CartanData, lam: Vec, beta: Vec) -> int:
    """Pairing <lam, beta^vee> of a weight with the coroot of a root."""
    return sum(map(mul, lam, beta))


def root_to_weight(c: CartanData, beta: Vec) -> Vec:
    """Weight coordinates of a root vector (multiply by the Cartan matrix)."""
    return tuple(sum(map(mul, row, beta)) for row in c.matrix)


def reflect_root(c: CartanData, i: int, v: Vec) -> Vec:
    """s_i acting on root coordinates."""
    pairing = sum(c.matrix[i - 1][j] * v[j] for j in range(c.rank))
    out = list(v)
    out[i - 1] -= pairing
    return tuple(out)


def reflect_weight_simple(c: CartanData, i: int, lam: Vec) -> Vec:
    """s_i acting on weight coordinates: subtract n = lam_i times alpha_i,
    whose weight coordinates are 2 at i and -1 at each neighbor."""
    n = lam[i - 1]
    if not n:
        return lam
    out = list(lam)
    out[i - 1] = -n
    for j in c.neighbors(i):
        out[j - 1] += n
    return tuple(out)


def reflect_weight(c: CartanData, lam: Vec, beta: Vec) -> Vec:
    """Reflection s_beta of a weight in the hyperplane of the root beta."""
    n = root_pairing(c, lam, beta)
    beta_w = root_to_weight(c, beta)
    return tuple(lam[j] - n * beta_w[j] for j in range(c.rank))


def is_positive(v: Vec) -> bool:
    return all(x >= 0 for x in v) and any(x > 0 for x in v)


def is_negative(v: Vec) -> bool:
    return all(x <= 0 for x in v) and any(x < 0 for x in v)


@lru_cache(maxsize=None)
def positive_roots(c: CartanData) -> tuple[Vec, ...]:
    """All positive roots, sorted by height then lexicographically."""
    roots = {simple_root(c, i) for i in range(1, c.rank + 1)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(1, c.rank + 1):
                img = reflect_root(c, i, v)
                if is_positive(img) and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def number_of_positive_roots(c: CartanData) -> int:
    return _positive_root_count(c.family, c.rank)


@lru_cache(maxsize=None)
def _two_rho(c: CartanData) -> Vec:
    """2 rho in root coordinates: the sum of the positive roots."""
    return tuple(map(sum, zip(*positive_roots(c))))


# ---------------------------------------------------------------------------
# Weyl group elements as integer matrices on the root lattice


class WeylElement(_Frozen):
    """A Weyl group element as an integer matrix on the simple-root basis.

    Column j of the matrix holds the root coordinates of the image of
    the j-th simple root.  Equality of elements is equality of matrices.

    Products with a simple reflection touch one row (``lmul``) or the
    columns of one vertex and its neighbors (``rmul``).  Length, left
    descents and the inverse are read off the weight w(rho): for every
    element, <w(rho), alpha_i^vee> = ht(w^{-1}(alpha_i)), so s_i is a
    left descent of w exactly when coordinate i of w(rho) is negative,
    and w is the identity exactly when w(rho) = rho.  Immutable and
    hashable; equal when the Cartan data and the matrices are.
    """

    __slots__ = ("cartan", "matrix")

    def __init__(self, cartan: CartanData, matrix: tuple[tuple[int, ...], ...]):
        _set(self, "cartan", cartan)
        _set(self, "matrix", matrix)

    def __eq__(self, other) -> bool:
        same_type = isinstance(other, WeylElement)
        return same_type and (self.cartan, self.matrix) == (other.cartan, other.matrix)

    def __hash__(self) -> int:
        return hash((self.cartan, self.matrix))

    def __reduce__(self):
        return WeylElement, (self.cartan, self.matrix)

    def apply(self, v: Vec) -> Vec:
        n = self.cartan.rank
        return tuple(sum(self.matrix[i][j] * v[j] for j in range(n)) for i in range(n))

    def image_of_simple(self, i: int) -> Vec:
        """w(alpha_i), i.e. column i."""
        return tuple(row[i - 1] for row in self.matrix)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.cartan != other.cartan:
            raise ValueError("elements of different Weyl groups")
        n = self.cartan.rank
        a, b = self.matrix, other.matrix
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )
        return WeylElement(self.cartan, prod)

    def lmul(self, i: int) -> "WeylElement":
        """s_i * w: row i becomes minus itself plus the rows of the neighbors of i."""
        m = self.matrix
        row = [-x for x in m[i - 1]]
        for j in self.cartan.neighbors(i):
            row = [x + y for x, y in zip(row, m[j - 1])]
        return WeylElement(self.cartan, m[: i - 1] + (tuple(row),) + m[i:])

    def rmul(self, i: int) -> "WeylElement":
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
        return WeylElement(self.cartan, tuple(rows))

    def rho_image(self) -> Vec:
        """Weight coordinates of w(rho)."""
        c = self.cartan
        return tuple(x // 2 for x in root_to_weight(c, self.apply(_two_rho(c))))

    def inverse_rho_image(self) -> Vec:
        """Weight coordinates of w^{-1}(rho): coordinate j is
        <rho, w(alpha_j)^vee> = ht(w(alpha_j)), the sum of column j."""
        return tuple(map(sum, zip(*self.matrix)))

    def inverse(self) -> "WeylElement":
        # w = s_{j_1} ... s_{j_l}, so w^{-1} = s_{j_l} ... s_{j_1}: the word
        # (j_1, ..., j_l) in application order
        return element_of_word(self.cartan, peel_left(self.cartan, self.rho_image()))

    def is_identity(self) -> bool:
        return self == identity_element(self.cartan)

    @property
    def length(self) -> int:
        return len(peel_left(self.cartan, self.rho_image()))

    def right_descents(self) -> tuple[int, ...]:
        """Colors i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
        return tuple(i for i in range(1, self.cartan.rank + 1) if self.is_right_descent(i))

    def is_right_descent(self, i: int) -> bool:
        return is_negative(self.image_of_simple(i))

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeylElement({self.cartan.family}{self.cartan.rank}, len={self.length})"


def peel_left(c: CartanData, y: Vec) -> list[int]:
    """Letters j_1, ..., j_l with w = s_{j_1} ... s_{j_l} for the element w
    given by the weight y = w(rho), peeling the smallest left descent
    (the smallest negative coordinate) each time."""
    letters = []
    while i := next((j for j, x in enumerate(y, start=1) if x < 0), 0):
        letters.append(i)
        y = reflect_weight_simple(c, i, y)
    return letters


@lru_cache(maxsize=None)
def identity_element(c: CartanData) -> WeylElement:
    m = tuple(tuple(int(i == j) for j in range(c.rank)) for i in range(c.rank))
    return WeylElement(c, m)


@lru_cache(maxsize=None)
def simple_reflection(c: CartanData, i: int) -> WeylElement:
    return identity_element(c).lmul(i)


def element_of_word(c: CartanData, letters) -> WeylElement:
    """Element s_{i_k} ... s_{i_1} for letters (i_1, ..., i_k) in application order.

    The word need not be reduced.
    """
    w = identity_element(c)
    for i in letters:
        if not 1 <= i <= c.rank:
            raise ValueError(f"letter {i} out of range 1..{c.rank}")
        w = w.lmul(i)
    return w


@lru_cache(maxsize=None)
def longest_element(c: CartanData) -> WeylElement:
    w, _ = _build_w0(c)
    return w


@lru_cache(maxsize=None)
def longest_element_word(c: CartanData) -> tuple[int, ...]:
    """One reduced word for w0, letters in application order (i_1 first)."""
    _, letters = _build_w0(c)
    return letters


def _build_w0(c: CartanData) -> tuple[WeylElement, tuple[int, ...]]:
    # Greedy ascent from the identity: keep right-multiplying by the
    # smallest generator that is not a right descent, once per positive
    # root, which is the length of w0.
    w = identity_element(c)
    picked: list[int] = []
    for _ in range(number_of_positive_roots(c)):
        i = next(i for i in range(1, c.rank + 1) if not w.is_right_descent(i))
        w = w.rmul(i)
        picked.append(i)
    # w0 = s_{d_1} s_{d_2} ... s_{d_r}, so in application order the word
    # reads (d_r, ..., d_1).
    return w, tuple(reversed(picked))
