"""Matrix, root-sequence and all-pairs paths kept as oracles of the weight
walks in ``richseed.words`` and ``richseed.deltavec`` and of the one-pass
``richseed.quiver.build_gamma``."""

from richseed.deltavec import DeltaVector
from richseed.errors import NegativeCoordinate, NotLessOrEqual
from richseed.quiver import Quiver, Vertex
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
