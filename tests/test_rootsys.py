import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fundamental_weight,
    is_negative,
    matrix_all_elements,
    matrix_betas,
    matrix_of_word,
    matrix_random_reduced_word,
    matrix_reduced_words,
    reflect_weight,
    root_pairing,
    root_to_weight,
)

from richseed.errors import IllegalType
from richseed.rootsys import (
    MAX_POSITIVE_ROOTS,
    cartan,
    element_of_word,
    identity_element,
    longest_element,
    longest_element_word,
    number_of_positive_roots,
    parse_type,
    peel_left,
    positive_roots,
    simple_reflection,
    simple_root,
)
from richseed.words import Word, all_elements, random_reduced_word, reduced_words


def test_cartan_a3():
    c = cartan("A", 3)
    assert c.a(1, 2) == c.a(2, 3) == -1
    assert c.a(1, 3) == 0
    assert all(c.a(i, i) == 2 for i in (1, 2, 3))


def test_cartan_d4_branch():
    c = cartan("D", 4)
    assert c.neighbors(2) == (1, 3, 4)


def test_cartan_e_vertex_two_hangs_off_four():
    for rank in (6, 7, 8):
        c = cartan("E", rank)
        assert c.adjacent(2, 4)
        assert not c.adjacent(2, 3)
        assert c.adjacent(1, 3) and c.adjacent(3, 4)


def test_cartan_a1():
    assert cartan("A", 1).matrix == ((2,),)


def test_cartan_data_and_elements_are_immutable():
    c = cartan("E", 8)
    w = element_of_word(c, [1, 3, 4])
    for obj, name in ((c, "rank"), (c, "nbrs"), (w, "inv_rho"), (w, "cartan")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(AttributeError):
        del w.inv_rho
    assert c.rank == 8 and w == element_of_word(c, [1, 3, 4])


def test_separately_built_cartan_data_and_elements_are_equal_and_hash_alike():
    c, d = cartan("D", 5), cartan("D", 5)
    assert c is not d
    assert c == d and hash(c) == hash(d)
    assert c != cartan("D", 6) and c != cartan("A", 5)
    x, y = element_of_word(c, [1, 3, 2, 5]), element_of_word(d, [1, 3, 2, 5])
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert x != element_of_word(c, [1, 3, 2])
    assert len({c, d}) == 1 and len({x, y}) == 1


def test_cartan_data_and_elements_survive_copies_and_pickles():
    c = cartan("E", 8)
    w = element_of_word(c, [8, 7, 6, 5, 4, 2])
    for obj in (c, w):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and hash(twin) == hash(obj)
    assert copy.deepcopy(w).cartan.neighbors(4) == (2, 3, 5)


def test_elements_of_the_same_letters_in_different_types_differ():
    letters = [1, 2, 3, 1]
    assert element_of_word(cartan("A", 3), letters) != element_of_word(cartan("A", 4), letters)


@pytest.mark.parametrize("family,rank", [("D", 3), ("E", 9), ("E", 5), ("A", 0)])
def test_illegal_types(family, rank):
    with pytest.raises(IllegalType):
        cartan(family, rank)


def test_parse_type():
    assert parse_type("d4").rank == 4
    with pytest.raises(IllegalType):
        parse_type("F4")


def test_positive_root_counts():
    assert number_of_positive_roots(cartan("A", 2)) == 3
    assert number_of_positive_roots(cartan("A", 3)) == 6
    assert number_of_positive_roots(cartan("D", 5)) == 20
    assert number_of_positive_roots(cartan("E", 6)) == 36


def test_positive_roots_a2_explicit():
    c = cartan("A", 2)
    assert set(positive_roots(c)) == {(1, 0), (0, 1), (1, 1)}


def test_element_of_empty_word_is_identity():
    c = cartan("A", 2)
    assert element_of_word(c, []) == identity_element(c)


def test_braid_relation():
    c = cartan("A", 2)
    assert element_of_word(c, [1, 2, 1]) == element_of_word(c, [2, 1, 2])


def test_full_length_word_is_longest_element():
    c = cartan("A", 3)
    w = element_of_word(c, [1, 2, 3, 2, 1, 2])  # display [2,1,2,3,2,1]
    assert w.length == 6 == number_of_positive_roots(c)
    assert w == longest_element(c)


def test_w0_sends_positives_to_negatives():
    for spec in ("A3", "D4"):
        c = parse_type(spec)
        w0 = longest_element(c)
        word = longest_element_word(c)
        m0 = matrix_of_word(c, word)
        assert all(is_negative(m0.apply(b)) for b in positive_roots(c))
        assert m0.inverse_rho_image() == w0.inv_rho
        assert Word(c, word).element == w0


def test_beta_sequence_a3_worked_example():
    c = cartan("A", 3)
    w = Word(c, (1, 2, 3, 2, 1, 2))  # display [2,1,2,3,2,1]
    assert matrix_betas(c, w.letters)[0] == (
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (0, 0, 1),
        (0, 1, 1),
        (0, 1, 0),
    )


def test_beta_sequence_single_letter():
    c = cartan("D", 4)
    assert matrix_betas(c, (3,))[0] == (simple_root(c, 3),)


def test_beta_sequence_full_word_hits_every_positive_root():
    c = cartan("A", 4)
    rng = random.Random(0)
    for _ in range(5):
        letters = random_reduced_word(c, 10, rng)
        assert len(letters) == 10
        assert set(matrix_betas(c, letters)[0]) == set(positive_roots(c))


def test_beta_bijection_all_reduced_words_small_rank():
    for spec in ("A2", "A3"):
        c = parse_type(spec)
        pos = set(positive_roots(c))
        for rw in reduced_words(longest_element(c)):
            assert set(matrix_betas(c, rw)[0]) == pos


def test_reflect_weight_paper_values():
    c = cartan("A", 3)
    w2 = fundamental_weight(c, 2)
    assert reflect_weight(c, w2, (1, 0, 0)) == w2
    a12 = (1, 1, 0)
    expected = tuple(x - y for x, y in zip(w2, root_to_weight(c, a12)))
    assert reflect_weight(c, w2, a12) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reflect_weight_involution_and_pairing(data):
    c = cartan("D", 4)
    lam = tuple(data.draw(st.integers(-4, 4)) for _ in range(c.rank))
    beta = data.draw(st.sampled_from(positive_roots(c)))
    once = reflect_weight(c, lam, beta)
    assert reflect_weight(c, once, beta) == lam
    assert root_pairing(c, once, beta) == -root_pairing(c, lam, beta)


def test_elements_permute_root_set_and_are_unimodular():
    c = cartan("A", 3)
    roots = set(positive_roots(c)) | {tuple(-x for x in b) for b in positive_roots(c)}
    rng = random.Random(3)
    for _ in range(10):
        letters = random_reduced_word(c, rng.randint(1, 6), rng)
        w = element_of_word(c, letters)
        assert {matrix_of_word(c, letters).apply(b) for b in roots} == roots
        assert (w * w.inverse()).is_identity()


def test_length_is_inversion_count():
    c = cartan("A", 3)
    for el in all_elements(c):
        m = matrix_of_word(c, peel_left(c, el.inv_rho))
        assert m.inverse_rho_image() == el.inv_rho
        inv = sum(1 for b in positive_roots(c) if is_negative(m.apply(b)))
        assert el.length == inv


def test_length_of_word_at_most_letter_count():
    c = cartan("A", 2)
    assert element_of_word(c, [1, 1]).length == 0
    assert element_of_word(c, [1, 2, 1, 2]).length == 2


def test_simple_reflection_involution():
    c = cartan("E", 6)
    for i in range(1, 7):
        s = simple_reflection(c, i)
        assert (s * s).is_identity()


# ---------------------------------------------------------------------------
# the one-weight elements against the matrix form they replace


def _pairs_under_test():
    """(element, matrix) pairs: all of A4 and D4 in the enumeration order
    of both forms, and 40 seeded reduced words of E6, E7 and E8, each
    drawn by both forms from the same seed, each with an unreduced word."""
    pairs = []
    for spec in ("A4", "D4"):
        c = parse_type(spec)
        pairs += zip(all_elements(c), matrix_all_elements(c))
    rng = random.Random(8)
    for t in range(40):
        c = parse_type(f"E{6 + t % 3}")
        n = rng.randint(0, number_of_positive_roots(c))
        letters = random_reduced_word(c, n, random.Random(t))
        pairs.append((element_of_word(c, letters),
                      matrix_of_word(c, matrix_random_reduced_word(c, n, random.Random(t)))))
        unreduced = [rng.randint(1, c.rank) for _ in range(t % 7)] + list(letters)
        pairs.append((element_of_word(c, unreduced), matrix_of_word(c, unreduced)))
    return pairs


PAIRS = _pairs_under_test()


def test_weight_elements_match_the_matrix_form():
    for (y, m), (z, n) in zip(PAIRS, PAIRS[1:] + PAIRS[:1]):
        c = y.cartan
        assert y.inv_rho == m.inverse_rho_image()
        assert y.rho_image() == m.rho_image()
        assert y.right_descents() == m.right_descents()
        assert y.length == m.length
        assert y.is_identity() == m.is_identity()
        assert y.inverse().inv_rho == m.inverse().inverse_rho_image()
        for i in range(1, c.rank + 1):
            assert y.is_right_descent(i) == m.is_right_descent(i)
            assert y.rmul(i).inv_rho == m.rmul(i).inverse_rho_image()
        if z.cartan == c:
            assert (y * z).inv_rho == (m * n).inverse_rho_image()


@pytest.mark.parametrize("spec", ["A4", "D4"])
def test_enumerations_match_the_matrix_driven_ones(spec):
    c = parse_type(spec)
    elements, matrices = all_elements(c), matrix_all_elements(c)
    assert [y.inv_rho for y in elements] == [m.inverse_rho_image() for m in matrices]
    assert len(set(elements)) == len(elements)
    for y, m in zip(elements, matrices):
        assert reduced_words(y) == matrix_reduced_words(m)
    for seed in range(20):
        n = seed % (number_of_positive_roots(c) + 2)
        assert random_reduced_word(c, n, random.Random(seed)) == matrix_random_reduced_word(
            c, n, random.Random(seed)
        )


def test_rho_descent_test_matches_inversion_count():
    for y, m in PAIRS:
        c = y.cartan
        rho_y = y.rho_image()
        length = m.length
        assert y.length == length
        assert (rho_y == (1,) * c.rank) == y.is_identity()
        for i in range(1, c.rank + 1):
            shorter = m.lmul(i).length < length
            assert (rho_y[i - 1] < 0) == shorter


def test_simple_products_match_dense_products():
    for y, m in PAIRS:
        c = y.cartan
        for i in range(1, c.rank + 1):
            s = matrix_of_word(c, [i])
            assert m.lmul(i) == s * m
            assert m.rmul(i) == m * s
            assert (simple_reflection(c, i) * y).inv_rho == (s * m).inverse_rho_image()
            assert y.rmul(i) == y * simple_reflection(c, i)


def test_word_inverse_is_two_sided():
    for y, _ in PAIRS:
        inv = y.inverse()
        assert (y * inv).is_identity()
        assert (inv * y).is_identity()
        assert inv.length == y.length


def test_longest_element_word_is_reduced_of_full_length():
    for spec in ("A5", "D6", "E8"):
        c = parse_type(spec)
        word = longest_element_word(c)
        assert len(word) == number_of_positive_roots(c)
        assert Word(c, word).element == longest_element(c)
        assert longest_element(c).right_descents() == tuple(range(1, c.rank + 1))


def test_positive_root_count_closed_form():
    for spec in ("A1", "A7", "A15", "D4", "D7", "D11", "E6", "E7", "E8"):
        c = parse_type(spec)
        assert number_of_positive_roots(c) == len(positive_roots(c))


def test_size_limit_admits_e8_and_rejects_larger_types():
    assert MAX_POSITIVE_ROOTS == 120
    for spec in ("A15", "D11", "E8"):
        parse_type(spec)
    for spec in ("A16", "D12", "A400", "D100000000"):
        with pytest.raises(IllegalType, match="above the limit"):
            parse_type(spec)
