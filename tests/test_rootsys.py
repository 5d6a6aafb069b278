import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matrix_betas

from richseed.errors import IllegalType
from richseed.rootsys import (
    MAX_POSITIVE_ROOTS,
    cartan,
    element_of_word,
    fundamental_weight,
    identity_element,
    is_negative,
    longest_element,
    longest_element_word,
    number_of_positive_roots,
    parse_type,
    positive_roots,
    reflect_weight,
    root_pairing,
    root_to_weight,
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
    for obj, name in ((c, "rank"), (c, "nbrs"), (w, "matrix"), (w, "cartan")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        c.extra = 1
    with pytest.raises(AttributeError):
        del w.matrix
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
        assert all(is_negative(w0.apply(b)) for b in positive_roots(c))
        word = longest_element_word(c)
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
        w = element_of_word(c, random_reduced_word(c, rng.randint(1, 6), rng))
        assert {w.apply(b) for b in roots} == roots
        assert (w * w.inverse()).is_identity()


def test_length_is_inversion_count():
    c = cartan("A", 3)
    for el in all_elements(c):
        inv = sum(1 for b in positive_roots(c) if is_negative(el.apply(b)))
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
# the O(rank) primitives against the dense arithmetic they replace


def _inversions(w):
    """Length as the number of positive roots sent to negative ones."""
    return sum(1 for b in positive_roots(w.cartan) if is_negative(w.apply(b)))


def _elements_under_test():
    """All of A3 and D4, and a seeded sample of E8."""
    out = list(all_elements(cartan("A", 3))) + list(all_elements(cartan("D", 4)))
    e8 = cartan("E", 8)
    rng = random.Random(8)
    for _ in range(40):
        out.append(element_of_word(e8, random_reduced_word(e8, rng.randint(0, 120), rng)))
    return out


ELEMENTS = _elements_under_test()


def test_rho_descent_test_matches_inversion_count():
    for y in ELEMENTS:
        c = y.cartan
        rho_y = y.rho_image()
        assert y.length == _inversions(y)
        assert (rho_y == (1,) * c.rank) == y.is_identity()
        for i in range(1, c.rank + 1):
            shorter = _inversions(simple_reflection(c, i) * y) < _inversions(y)
            assert (rho_y[i - 1] < 0) == shorter


def test_simple_products_match_dense_products():
    for y in ELEMENTS:
        c = y.cartan
        for i in range(1, c.rank + 1):
            assert y.lmul(i) == simple_reflection(c, i) * y
            assert y.rmul(i) == y * simple_reflection(c, i)


def test_word_inverse_is_two_sided():
    for y in ELEMENTS:
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
