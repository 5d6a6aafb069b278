"""Delta-vectors of seed summands relative to a completed word.

A rigid summand is identified with the integer vector of multiplicities
of its strata relative to a fixed reduced word of w0 (the reference).
The engine below computes these vectors for the initial summands of any
word relative to any reference, walking a weight sequence down the
reference's root sequence; coefficients are read off as pairings, never
by division.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import NegativeCoordinate
from .rootsys import (
    Vec,
    fundamental_weight,
    longest_element,
    number_of_positive_roots,
    root_pairing,
)
from .words import ComboNumbers, SubwordEmbedding, Word, leftmost_subword_of_rho


@dataclass(frozen=True)
class DeltaVector:
    """Multiplicity vector of a summand relative to a reference word."""

    reference: Word
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.reference):
            raise ValueError("coordinate length does not match the reference word")

    def __add__(self, other: "DeltaVector") -> "DeltaVector":
        self._same(other)
        return DeltaVector(self.reference, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DeltaVector") -> "DeltaVector":
        self._same(other)
        return DeltaVector(self.reference, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def _same(self, other: "DeltaVector") -> None:
        if self.reference is not other.reference and self.reference != other.reference:
            raise ValueError("mixed reference words")

    def scaled(self, n: int) -> "DeltaVector":
        return DeltaVector(self.reference, tuple(n * a for a in self.coords))

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def truncated(self, n: int) -> tuple[int, ...]:
        """The first n coordinates."""
        return self.coords[:n]

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, a in enumerate(self.coords, start=1) if a)

    def __repr__(self) -> str:  # pragma: no cover
        terms = [f"f{k}" if a == 1 else f"{a}*f{k}" for k, a in enumerate(self.coords, 1) if a]
        return "Delta(" + (" + ".join(terms) if terms else "0") + ")"


def zero_delta(reference: Word) -> DeltaVector:
    return DeltaVector(reference, (0,) * len(reference))


def basis_delta(reference: Word, ks) -> DeltaVector:
    coords = [0] * len(reference)
    for k in ks:
        coords[k - 1] += 1
    return DeltaVector(reference, tuple(coords))


def initial_delta_same(word: Word, k: int) -> DeltaVector:
    """Vector of the k-th initial summand relative to its own word.

    It is the sum of the basis vectors e_j over the indices j <= k of
    the same color as k.
    """
    if not 1 <= k <= len(word):
        raise IndexError(f"index {k} out of range 1..{len(word)}")
    ik = word.color(k)
    return basis_delta(word, [j for j in range(1, k + 1) if word.color(j) == ik])


def left_part_rhos(module_word: Word) -> Iterator[Vec]:
    """u_k(rho) in weight coordinates for k = 1, 2, ..., len(module_word).

    u_k = w0 (s_{i_k} ... s_{i_1})^{-1} is the left part of the module
    word (a reduced word of w0) beyond index k.  Since u_k = u_{k-1} s_{i_k},
    u_k(rho) = u_{k-1}(rho) - u_{k-1}(alpha_{i_k}), and u_{k-1}(alpha_{i_k})
    is w0(beta_k) for the module word's root sequence; u_0 = w0 sends rho
    to -rho.  With w0(alpha_i) = -alpha_sigma(i), also w0(varpi_i) =
    -varpi_sigma(i): coordinate j of w0(beta_k) is minus coordinate
    sigma(j) of beta_k, both in weight coordinates.
    """
    c = module_word.cartan
    w0 = longest_element(c)
    sigma = [w0.image_of_simple(i).index(-1) for i in range(1, c.rank + 1)]
    y = (-1,) * c.rank
    for k in range(1, len(module_word) + 1):
        beta = module_word.beta_weight(k)
        y = tuple(a + beta[j] for a, j in zip(y, sigma))
        yield y


def delta_via_xi(module_word: Word, k: int, target: Word, start: Vec | None = None) -> DeltaVector:
    """Vector of the k-th summand of one completed word relative to another.

    Both words must be reduced words of w0.  The left part u_k of the
    module word beyond index k is located as the leftmost subword of the
    target; at every other position the running weight (started at the
    fundamental weight of color i_k) is reflected in the target's root
    sequence, and the reflection coefficients are the coordinates.
    ``start`` is u_k(rho), for callers that walk k with ``left_part_rhos``.
    """
    c = module_word.cartan
    r = number_of_positive_roots(c)
    if len(module_word) != r or len(target) != r:
        raise ValueError("both words must be reduced words of w0")
    if not 1 <= k <= r:
        raise IndexError(f"index {k} out of range 1..{r}")
    if module_word.cartan != target.cartan:
        raise ValueError("words of different types")

    if start is None:
        start = next(islice(left_part_rhos(module_word), k - 1, None))
    q_positions = set(leftmost_subword_of_rho(start, target))

    xi = fundamental_weight(c, module_word.color(k))
    coords = []
    for i, beta in enumerate(target.betas, start=1):
        if i in q_positions:
            coords.append(0)
            continue
        n = root_pairing(c, xi, beta)
        if n < 0:
            raise NegativeCoordinate(
                f"coefficient {n} at position {i} (module index {k}); "
                "the reference data is inconsistent"
            )
        if n:
            xi = tuple(x - n * b for x, b in zip(xi, target.beta_weight(i)))
        coords.append(n)
    return DeltaVector(target, tuple(coords))


def initial_delta_tilde(word: Word, emb: SubwordEmbedding, k: int) -> tuple[int, ...]:
    """First l(v) reference coordinates of the k-th initial summand.

    Combinatorial closed form: coordinate j is 1 exactly when j is a
    v-index of color i_k with j <= f(k).
    """
    combo = ComboNumbers(word, emb)
    return delta_tilde_from_combo(combo, k)


def delta_tilde_from_combo(combo: ComboNumbers, k: int) -> tuple[int, ...]:
    word, emb = combo.word, combo.emb
    ik = word.color(k)
    f_k = combo.f(k)
    out = []
    for j in range(1, len(emb) + 1):
        out.append(1 if j <= f_k and word.color(emb.positions[j - 1]) == ik else 0)
    return tuple(out)


def in_Cv(d: DeltaVector, lv: int) -> bool:
    """Membership by vanishing of the first l(v) coordinates."""
    return not any(d.coords[:lv])


def in_Cw(d: DeltaVector, lw: int) -> bool:
    """Membership by vanishing of the coordinates beyond l(w)."""
    return not any(d.coords[lw:])
