"""Reduced-word combinatorics.

A word ``[i_L, ..., i_1]`` is indexed from the right: index 1 is the
first letter applied, index L the last.  The public API accepts letters
either in that application order or in display order (leftmost letter
written first); internally everything is stored in application order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import NamedTuple

from .errors import NotLessOrEqual, NotReduced
from .rootsys import (
    CartanData,
    Vec,
    WeylElement,
    element_of_word,
    identity_element,
    number_of_positive_roots,
    peel_left,
)


class Word:
    """A reduced word with successor/predecessor bookkeeping.

    ``letters[k-1]`` is the color i_k.  Construction verifies
    reducedness on one weight vector: with x = s_{i_{k-1}} ... s_{i_1},
    the letter i_k is an ascent of x exactly when coordinate i_k of
    x(rho) is positive (it is the height of the root beta_k below, so
    never zero), and (s_{i_k} x)(rho) is x(rho) reflected by s_{i_k}:
    coordinate i_k, n, becomes -n and each neighbor of i_k gains n, in
    place in one list.  The first letter that is not an ascent raises
    :class:`NotReduced` with its prefix length k.  The final weight w(rho)
    is kept (``rho_image``); the represented element (``element``) is
    built on each read, one walk of the letters.

    No root sequence is stored: a walk that would pair a weight xi with
    beta_k = x(alpha_{i_k}), for x the prefix above, carries x^{-1}(xi)
    instead and reads coordinate i_k of it (see ``delta_via_xi``).
    """

    __slots__ = ("cartan", "letters", "_rho", "_succ", "_pred", "_by_color")

    def __init__(self, cartan: CartanData, letters):
        letters = tuple(letters)
        for i in letters:
            if not 1 <= i <= cartan.rank:
                raise ValueError(f"letter {i} out of range 1..{cartan.rank}")
        self.cartan = cartan
        self.letters = letters

        y = [1] * cartan.rank  # x(rho) for the prefix x read so far
        nbrs = cartan.nbrs
        for k, i in enumerate(letters, start=1):
            i -= 1
            n = y[i]
            if n < 0:
                raise NotReduced(k)
            y[i] = -n
            for j in nbrs[i]:
                y[j - 1] += n
        self._rho = tuple(y)

        by_color: dict[int, list[int]] = {}
        for k, i in enumerate(letters, start=1):
            by_color.setdefault(i, []).append(k)
        self._by_color = {i: tuple(ks) for i, ks in by_color.items()}

        L = len(letters)
        succ = [L + 1] * (L + 2)
        pred = [0] * (L + 2)
        for line in self._by_color.values():
            for a, b in zip(line, line[1:]):
                succ[a], pred[b] = b, a
        self._succ = tuple(succ)
        self._pred = tuple(pred)

    @property
    def element(self) -> WeylElement:
        """The represented element s_{i_L} ... s_{i_1}."""
        return element_of_word(self.cartan, self.letters)

    def rho_image(self) -> Vec:
        """Weight coordinates of w(rho) for the represented element w."""
        return self._rho

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.cartan == other.cartan
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.cartan, self.letters))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Word({self.cartan.family}{self.cartan.rank}, {list(self.display)})"

    @property
    def display(self) -> tuple[int, ...]:
        """Letters in display order [i_L, ..., i_1]."""
        return tuple(reversed(self.letters))

    def color(self, k: int) -> int:
        return self.letters[k - 1]

    def succ(self, k: int) -> int:
        """Successor k+ (sentinel L+1)."""
        return self._succ[k] if k <= len(self.letters) else len(self.letters) + 1

    def pred(self, k: int) -> int:
        """Predecessor k- (sentinel 0)."""
        return self._pred[k] if 1 <= k <= len(self.letters) else 0

    def succ_iter(self, k: int, t: int) -> int:
        """t-fold successor; the sentinel L+1 is absorbing."""
        L = len(self.letters)
        if t <= 0:
            return k
        if not 1 <= k <= L:
            return L + 1
        line = self._by_color[self.letters[k - 1]]
        j = bisect_left(line, k) + t
        return line[j] if j < len(line) else L + 1

    def pred_iter(self, k: int, t: int) -> int:
        """t-fold predecessor; the sentinel 0 is absorbing."""
        if t <= 0:
            return k
        if not 1 <= k <= len(self.letters):
            return 0
        line = self._by_color[self.letters[k - 1]]
        j = bisect_left(line, k) - t
        return line[j] if j >= 0 else 0

    def colors_used(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_color))

    def positions_of_color(self, i: int) -> tuple[int, ...]:
        return self._by_color.get(i, ())

    def k_min(self, i: int) -> int:
        """Smallest index of color i (0 when the color is absent)."""
        ks = self._by_color.get(i)
        return ks[0] if ks else 0

    def k_max(self, i: int) -> int:
        """Largest index of color i (0 when the color is absent)."""
        ks = self._by_color.get(i)
        return ks[-1] if ks else 0

    def prefix_element(self, k: int) -> WeylElement:
        """Element of the rightmost k letters s_{i_k} ... s_{i_1}."""
        return element_of_word(self.cartan, self.letters[:k])


def make_word(cartan: CartanData, letters, order: str = "paper") -> Word:
    """Build a reduced :class:`Word` from letters.

    ``order="paper"`` reads the letters as displayed (leftmost first),
    ``order="indexed"`` as (i_1, ..., i_L).
    """
    letters = list(letters)
    if order == "paper":
        letters.reverse()
    elif order != "indexed":
        raise ValueError(f"unknown letter order {order!r}")
    return Word(cartan, letters)


# ---------------------------------------------------------------------------
# completions and subword representatives


def left_complete(word: Word) -> Word:
    """A reduced word of w0 whose rightmost l(w) letters equal the input.

    The missing left factor u = w0 w^{-1} is spelled out by repeatedly
    peeling its smallest right descent, which also proves the factor
    property.  The right descents of u are the left descents of
    u^{-1} = w w0, whose rho-image is -w(rho): the smallest i with a
    negative coordinate is the next letter, and the weight is reflected
    by s_i, so each letter costs O(rank).  Completions are not unique;
    this one is deterministic.
    """
    extra = peel_left(word.cartan, [-x for x in word.rho_image()])
    return Word(word.cartan, word.letters + tuple(extra))


class SubwordEmbedding(NamedTuple):
    """Positions p_1 < ... < p_{l(v)} of the rightmost subword for v: a named
    tuple (parent, positions), so immutable, hashable and equal by value,
    whose ``len`` is l(v), the number of positions."""

    parent: Word
    positions: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def letters(self) -> tuple[int, ...]:
        """Colors (i_{p_1}, ..., i_{p_m}) in application order."""
        return tuple(self.parent.color(p) for p in self.positions)

    def subword(self) -> Word:
        return Word(self.parent.cartan, self.letters)

    def element(self) -> WeylElement:
        return element_of_word(self.parent.cartan, self.letters)


def _descent_scan(y: Vec, word: Word, order: range) -> list[int]:
    """The greedy scan behind both subword representatives.

    Visits the positions t in ``order`` and takes t exactly when
    coordinate i_t of the running weight y is negative, reflecting y by
    s_{i_t} in place in one list; the scan stops once y = rho and raises
    :class:`NotLessOrEqual` if it never gets there.
    """
    nbrs, letters = word.cartan.nbrs, word.letters
    y = list(y)
    rho = [1] * len(y)
    positions = []
    for t in order:
        if y == rho:
            break
        i = letters[t - 1] - 1
        n = y[i]
        if n < 0:
            positions.append(t)
            y[i] = -n
            for j in nbrs[i]:
                y[j - 1] += n
    if y != rho:
        raise NotLessOrEqual("element is not below the word in the Bruhat order")
    return positions


def rightmost_subword(v: WeylElement, word: Word) -> SubwordEmbedding:
    """Rightmost representative of v inside the word (positions pushed right).

    Scans indices in increasing order and takes a letter exactly when it
    is a right descent of the remaining element y, starting from y = v;
    this succeeds iff v <= w in the Bruhat order.  s_i is a right descent
    of y exactly when coordinate i of y^{-1}(rho) is negative, and
    (y s_i)^{-1}(rho) is that weight reflected by s_i, so the scan is the
    ascending twin of ``leftmost_subword``.  It starts from
    v^{-1}(rho), the weight that v is stored as.  A v of another type
    than the word raises ``ValueError``.
    """
    if v.cartan != word.cartan:
        raise ValueError("element and word of different types")
    positions = _descent_scan(v.inv_rho, word, range(1, len(word) + 1))
    return SubwordEmbedding(word, tuple(positions))


def bruhat_le(v: WeylElement, word: Word) -> bool:
    try:
        rightmost_subword(v, word)
        return True
    except NotLessOrEqual:
        return False


def leftmost_subword(u: WeylElement, word: Word) -> tuple[int, ...]:
    """Leftmost representative of u inside the word (positions pushed left).

    Scans indices in decreasing order, taking a letter exactly when it
    is a left descent of the remaining element y, starting from y = u.
    s_i is a left descent of y exactly when coordinate i of y(rho) is
    negative, and (s_i y)(rho) is that weight reflected by s_i, so the
    scan carries one weight vector.  Returns the positions in increasing
    order.  A u of another type than the word raises ``ValueError``.
    """
    if u.cartan != word.cartan:
        raise ValueError("element and word of different types")
    return tuple(reversed(_descent_scan(u.rho_image(), word, range(len(word), 0, -1))))


# ---------------------------------------------------------------------------
# combinatorial numbers attached to a rightmost embedding


class ComboNumbers:
    """The index bookkeeping attached to (w-bar, rightmost v-bar).

    All maps use the 1-based indexation: k ranges over 1..l(w) and m
    over 1..l(v).  Values follow the conventions

    * ``f_min(k)``   smallest v-index of color i_k, sentinel l(v)+1 when
      the color does not occur in v-bar,
    * ``f(k)``       largest v-index j with p_j <= k of color i_k, else 0,
    * ``m_oplus(m)`` next v-index of the same color, sentinel l(w)+1,
    * ``alpha(k,m)`` number of v-indices j <= m of color i_k,
    * ``gamma(m)``   alpha(p_m, m),
    * ``beta(m)``    letters of color i_{p_m} right of p_m not used by v-bar,
    * ``xi(k,m)``    w-index of the first v-bar letter of color i_k
      strictly right of index p_m, sentinel l(w)+1 (p_0 = 0).

    Only ``v_indices`` is stored: for each color of the word, its
    v-indices in ascending order.  As p_1 < ... < p_{l(v)}, each map is a
    position in one such list or in the color's line of w-indices
    (``Word.positions_of_color``), read with a bisect or an offset: alpha
    is the number of entries up to m, beta the index of p_m in its line
    less the gamma_m - 1 v-bar letters before it.
    """

    def __init__(self, word: Word, emb: SubwordEmbedding):
        if emb.parent != word:
            raise ValueError("embedding does not belong to this word")
        self.word = word
        self.emb = emb
        self.v_indices: dict[int, list[int]] = {i: [] for i in word.colors_used()}
        for m, q in enumerate(emb.positions, start=1):
            self.v_indices[word.color(q)].append(m)
        self._deleted: list[frozenset[int]] = [frozenset()]

    @property
    def positions(self) -> tuple[int, ...]:
        return self.emb.positions

    def _js(self, k: int) -> list[int]:
        """The v-indices of color i_k."""
        return self.v_indices[self.word.letters[k - 1]]

    def f_min(self, k: int) -> int:
        js = self._js(k)
        return js[0] if js else len(self.emb) + 1

    def f(self, k: int) -> int:
        """f of a w-index; the sentinel L+1 maps to l(v)."""
        if k > len(self.word.letters):
            return len(self.emb.positions)
        js = self._js(k)
        a = bisect_right(js, bisect_right(self.emb.positions, k))
        return js[a - 1] if a else 0

    def m_oplus(self, m: int) -> int:
        js = self._js(self.emb.positions[m - 1])
        a = bisect_right(js, m)
        return js[a] if a < len(js) else len(self.word) + 1

    def alpha(self, k: int, m: int) -> int:
        return bisect_right(self._js(k), m)

    def support_slice(self, k: int, m: int) -> tuple[int, int]:
        """(a, b) such that the v-indices js[a:b] of color i_k are those in
        [f_min(k) advanced alpha(k,m) times, f(k advanced alpha(k,m) times)]:
        the predicted support of summand k after step m."""
        js = self._js(k)
        a = bisect_right(js, m)  # alpha(k, m)
        return a, max(a, bisect_right(js, self.f(self.word.succ_iter(k, a))))

    def gamma(self, m: int) -> int:
        return self.alpha(self.emb.positions[m - 1], m)

    def beta(self, m: int) -> int:
        pm = self.emb.positions[m - 1]
        line = self.word.positions_of_color(self.word.color(pm))
        return bisect_left(line, pm) - self.gamma(m) + 1

    def xi(self, k: int, m: int) -> int:
        """First v-bar position of color i_k strictly right of p_m (p_0 = 0)."""
        js = self._js(k)
        a = bisect_right(js, m)
        return self.emb.positions[js[a] - 1] if a < len(js) else len(self.word) + 1

    def v_index_of(self, k: int) -> int | None:
        """The v-index m with p_m = k, if any."""
        try:
            return self.emb.positions.index(k) + 1
        except ValueError:
            return None

    def deleted(self, m: int) -> frozenset[int]:
        """The indices k beyond (k_max)^{alpha(k,m)-}: the last alpha(., m)
        indices of every color line, for m in 0..l(v).  Step m adds one
        index, the gamma(m)-th from the end of p_m's line; each step's set
        is built once."""
        sets = self._deleted
        while len(sets) <= m:
            pm = self.emb.positions[len(sets) - 1]
            line = self.word.positions_of_color(self.word.color(pm))
            sets.append(sets[-1] | {line[-self.gamma(len(sets))]})
        return sets[m]

    def table_row(self, k: int) -> dict:
        """One row of the notations table (None for the grayed cells)."""
        m = self.v_index_of(k)
        row = {
            "k": k,
            "m": m,
            "i_k": self.word.color(k),
            "f_min": self.f_min(k),
            "f": self.f(k),
            "m_oplus": self.m_oplus(m) if m else None,
            "beta": self.beta(m) if m else None,
            "gamma": self.gamma(m) if m else None,
        }
        return row


def combo_numbers(word: Word, emb: SubwordEmbedding) -> ComboNumbers:
    return ComboNumbers(word, emb)


# ---------------------------------------------------------------------------
# enumeration helpers (small ranks; used by verifiers and tests)


@lru_cache(maxsize=32)
def all_elements(c: CartanData) -> tuple[WeylElement, ...]:
    """Every element of the Weyl group, by breadth-first length order."""
    e = identity_element(c)
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
                    order.append(ws)
        frontier = nxt
    return tuple(order)


def reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """All reduced words of w, letters in application order."""
    if w.is_identity():
        return [()]
    return [(i,) + rest for i in w.right_descents() for rest in reduced_words(w.rmul(i))]


def random_reduced_word(c: CartanData, length: int, rng) -> tuple[int, ...]:
    """A random reduced word of the given length (shorter if w0 is hit)."""
    w = identity_element(c)
    letters: list[int] = []
    r = number_of_positive_roots(c)
    for _ in range(min(length, r)):
        i = rng.choice([i for i in range(1, c.rank + 1) if not w.is_right_descent(i)])
        # each right multiplication pushes the new letter to index 1,
        # so the picks read off the word from the left
        w = w.rmul(i)
        letters.append(i)
    return tuple(reversed(letters))
