import itertools
import random

import pytest
from oracles import (
    matrix_betas,
    matrix_of_word,
    matrix_rightmost_subword,
    pred_iter,
    succ_iter,
    support_slice,
    xi,
)

from richseed.errors import NotLessOrEqual, NotReduced
from richseed.rootsys import (
    WeylElement,
    cartan,
    element_of_word,
    identity_element,
    longest_element_word,
    number_of_positive_roots,
)
from richseed.words import (
    ComboNumbers,
    Word,
    all_elements,
    bruhat_le,
    combo_numbers,
    left_complete,
    leftmost_subword,
    make_word,
    random_reduced_word,
    reduced_words,
    rightmost_subword,
)

A5 = cartan("A", 5)


def test_an_unknown_letter_order_is_refused():
    with pytest.raises(ValueError, match="^unknown letter order 'x'$"):
        make_word(A5, [1, 2], order="x")


def test_combo_numbers_refuse_an_embedding_of_another_word():
    w, other = make_word(A5, [1, 2, 1]), make_word(A5, [2, 1, 2])
    emb = rightmost_subword(element_of_word(A5, [1]), other)
    with pytest.raises(ValueError, match="^embedding does not belong to this word$"):
        ComboNumbers(w, emb)


SUC_WORD = make_word(A5, [2, 1, 3, 4, 2, 1, 3, 5, 2, 4, 3, 2, 1])
APP_WORD = make_word(A5, [1, 3, 2, 4, 3, 2, 4, 5, 4, 3, 2, 1, 2])


def test_make_word_orders_agree():
    display = [2, 1, 2, 3, 2, 1]
    c = cartan("A", 3)
    assert make_word(c, display, "paper") == make_word(c, list(reversed(display)), "indexed")


def test_make_word_colors_of_example():
    assert SUC_WORD.color(5) == 2
    assert SUC_WORD.color(10) == 4


def test_not_reduced_prefix_length():
    c = cartan("A", 2)
    with pytest.raises(NotReduced) as exc:
        make_word(c, [1, 1])
    assert exc.value.prefix_len == 2
    with pytest.raises(NotReduced) as exc:
        make_word(c, [2, 1, 1, 2])
    assert exc.value.prefix_len == 3


def test_a_letter_out_of_range_wins_over_a_non_reduced_prefix():
    # the range check reads every letter before the reducedness walk starts
    c = cartan("A", 2)
    for letters in ([1, 1, 3], [2, 1, 1, 2, 0]):
        with pytest.raises(ValueError, match=r"^letter (3|0) out of range 1\.\.2$"):
            Word(c, letters)


def test_successor_structure_examples():
    assert SUC_WORD.succ(7) == 11 and SUC_WORD.pred(7) == 3
    assert SUC_WORD.succ(8) == 12 and SUC_WORD.pred(8) == 1
    assert SUC_WORD.succ(6) == 14 and SUC_WORD.pred(6) == 0
    one = make_word(cartan("A", 1), [1])
    assert (one.succ(1), one.pred(1), one.positions_of_color(1)[0], one.k_max(1)) == (2, 0, 1, 1)


def test_successor_structure_is_total_with_sentinels():
    for k in range(1, 14):
        i = SUC_WORD.color(k)
        kp, km = SUC_WORD.succ(k), SUC_WORD.pred(k)
        kmin, kmax = SUC_WORD.positions_of_color(i)[0], SUC_WORD.k_max(i)
        assert kp == 14 or SUC_WORD.color(kp) == SUC_WORD.color(k)
        assert km == 0 or SUC_WORD.color(km) == SUC_WORD.color(k)
        assert kmin <= k <= kmax


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_successors_and_predecessors_up_to_and_beyond_the_sentinels(family, rank):
    # every k in 0..L+1, and one value beyond each end: off the positions
    # 1..L, succ reads the sentinel L+1 and pred the sentinel 0
    c = cartan(family, rank)
    for letters in (random_reduced_word(c, 12, random.Random(rank)), longest_element_word(c)):
        w = Word(c, letters)
        L = len(w)
        for k in range(-1, L + 3):
            if 1 <= k <= L:
                line = w.positions_of_color(w.color(k))
                want = (min((q for q in line if q > k), default=L + 1),
                        max((q for q in line if q < k), default=0))
            else:
                want = (L + 1, 0)
            assert (w.succ(k), w.pred(k)) == want, (letters, k)


def test_left_complete_of_w0_word_is_itself():
    c = cartan("A", 3)
    w = make_word(c, [2, 1, 2, 3, 2, 1])
    assert left_complete(w) == w


def test_left_complete_appendix_word():
    dot = left_complete(APP_WORD)
    assert len(dot) == number_of_positive_roots(A5) == 15
    assert dot.letters[:13] == APP_WORD.letters
    assert dot.element == WeylElement(A5, (-1,) * A5.rank)


def test_left_complete_random_words():
    rng = random.Random(5)
    c = cartan("D", 4)
    r = number_of_positive_roots(c)
    for _ in range(10):
        w = Word(c, random_reduced_word(c, rng.randint(1, 9), rng))
        dot = left_complete(w)
        assert len(dot) == r
        assert dot.letters[: len(w)] == w.letters


# -- the matrix path, kept as the oracle of the weight-vector path -----------


def _matrix_left_complete(word):
    """Completion by peeling the smallest right descent of w0 w^{-1} off a
    matrix, listing every right descent at each letter."""
    u = matrix_of_word(word.cartan, longest_element_word(word.cartan))
    for i in word.letters:
        u = u.rmul(i)
    extra = []
    while descents := u.right_descents():
        extra.append(descents[0])
        u = u.rmul(descents[0])
    return word.letters + tuple(extra)


@pytest.mark.parametrize("spec", ["A3", "A4", "D4"])
def test_left_complete_matches_the_matrix_path_on_every_reduced_word(spec):
    c = cartan(spec[0], int(spec[1:]))
    n = 0
    for el in all_elements(c):
        for rw in reduced_words(el):
            word = Word(c, rw)
            assert left_complete(word).letters == _matrix_left_complete(word), rw
            n += 1
    assert n > len(all_elements(c))


def test_left_complete_matches_the_matrix_path_on_sampled_words():
    rng = random.Random(11)
    n = full = 0
    for spec in ("D5", "E6", "E7", "E8"):
        c = cartan(spec[0], int(spec[1:]))
        r = number_of_positive_roots(c)
        for t in range(160):
            length = r if t % 8 == 0 else rng.randint(0, r)
            word = Word(c, random_reduced_word(c, length, rng))
            assert left_complete(word).letters == _matrix_left_complete(word), word.letters
            n += 1
            full += len(word) == r
    assert n >= 600 and full >= 80


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_not_reduced_prefix_matches_the_matrix_check(spec):
    c = cartan(spec[0], int(spec[1:]))
    rng = random.Random(13)
    reduced = rejected = 0
    for _ in range(400):
        letters = [rng.randint(1, c.rank) for _ in range(rng.randint(1, 12))]
        _, expected = matrix_betas(c, letters)
        try:
            Word(c, letters)
            got = None
        except NotReduced as exc:
            got = exc.prefix_len
        assert got == expected, letters
        reduced += got is None
        rejected += got is not None
    assert reduced and rejected


def test_word_element_is_the_element_of_its_letters():
    rng = random.Random(17)
    for spec in ("A4", "D5", "E6", "E8"):
        c = cartan(spec[0], int(spec[1:]))
        r = number_of_positive_roots(c)
        for _ in range(25):
            letters = random_reduced_word(c, rng.randint(0, r), rng)
            word = Word(c, letters)
            element = element_of_word(c, letters)
            assert word.rho_image() == element.rho_image() == matrix_of_word(c, letters).rho_image()
            assert word.element == element


def test_rightmost_subword_appendix():
    v = element_of_word(A5, [2, 1, 3, 5, 4, 2])
    emb = rightmost_subword(v, APP_WORD)
    assert emb.positions == (1, 2, 4, 6, 7, 8)
    assert emb.element() == v


def test_subword_embeddings_are_immutable_and_equal_by_value():
    v = element_of_word(A5, [2, 4, 5, 3, 1, 2])
    emb = rightmost_subword(v, APP_WORD)
    for name in ("positions", "parent"):
        with pytest.raises(AttributeError):
            setattr(emb, name, ())
    again = rightmost_subword(v, APP_WORD)
    assert emb == again and hash(emb) == hash(again)
    assert len(emb) == 6 and emb.positions == again.positions


def test_rightmost_subword_identity_and_failure():
    assert rightmost_subword(identity_element(A5), APP_WORD).positions == ()
    c = cartan("A", 2)
    w = make_word(c, [1, 2])
    with pytest.raises(NotLessOrEqual):
        rightmost_subword(WeylElement(c, (-1,) * c.rank), w)


def test_rightmost_subword_d5_underlined():
    c = cartan("D", 5)
    w = make_word(c, [2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1])
    expected = (2, 4, 7, 8, 11, 12, 13, 14, 15, 16)
    v = element_of_word(c, [w.color(p) for p in expected])
    assert rightmost_subword(v, w).positions == expected


def test_leftmost_subword_examples():
    c = cartan("A", 3)
    w0dot = make_word(c, [1, 2, 3, 1, 2, 1])
    u = element_of_word(c, [1, 2])  # s_2 s_1
    assert leftmost_subword(u, w0dot) == (3, 5)
    assert leftmost_subword(identity_element(c), w0dot) == ()
    assert leftmost_subword(w0dot.element, w0dot) == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("element_type, word_type", [(("A", 3), ("D", 4)), (("D", 4), ("A", 3))])
def test_leftmost_subword_refuses_an_element_of_another_type(element_type, word_type):
    # unchecked, an A3 element in a D4 word indexes past its weight and a D4
    # element in an A3 word reads as not below the word
    word = Word(cartan(*word_type), longest_element_word(cartan(*word_type)))
    u = element_of_word(cartan(*element_type), [1, 2, 3])
    with pytest.raises(ValueError, match="different types"):
        leftmost_subword(u, word)


def _brute_rightmost(v_el, word):
    best = None
    for combo in itertools.combinations(range(1, len(word) + 1), v_el.length):
        if element_of_word(word.cartan, [word.color(p) for p in combo]) == v_el:
            best = combo if best is None else min(best, combo)
    return best


def _brute_leftmost(u_el, word):
    best = None
    for combo in itertools.combinations(range(1, len(word) + 1), u_el.length):
        if element_of_word(word.cartan, [word.color(p) for p in combo]) == u_el:
            if best is None or tuple(reversed(combo)) > tuple(reversed(best)):
                best = combo
    return best


def test_greedy_scans_match_brute_force():
    c = cartan("A", 3)
    rng = random.Random(11)
    for _ in range(25):
        word = Word(c, random_reduced_word(c, rng.randint(2, 6), rng))
        for v_el in all_elements(c):
            if v_el.length == 0 or not bruhat_le(v_el, word):
                continue
            assert rightmost_subword(v_el, word).positions == _brute_rightmost(v_el, word)
            assert leftmost_subword(v_el, word) == _brute_leftmost(v_el, word)


@pytest.mark.parametrize("spec", ["A1", "A2", "A5", "D4", "D6", "E6", "E7", "E8"])
def test_rightmost_subword_matches_the_matrix_descent_scan(spec):
    # v is spelled by a random subset of a word's letters, so it is below
    # that word and, often, not below an independent one
    c = cartan(spec[0], int(spec[1:]))
    r = number_of_positive_roots(c)
    rng = random.Random(19)
    below = above = 0
    for _ in range(40):
        word = Word(c, random_reduced_word(c, rng.randint(0, r), rng))
        other = Word(c, random_reduced_word(c, rng.randint(0, r), rng))
        v_letters = [i for i in other.letters if rng.random() < 0.5]
        v = element_of_word(c, v_letters)
        for w in (word, other):
            try:
                want = matrix_rightmost_subword(matrix_of_word(c, v_letters), w).positions
            except NotLessOrEqual:
                with pytest.raises(NotLessOrEqual):
                    rightmost_subword(v, w)
                above += 1
                continue
            assert rightmost_subword(v, w).positions == want, (w.letters, v)
            below += 1
    assert below and (above or r == 1)


def test_rightmost_subword_refuses_an_element_of_another_type():
    word = Word(cartan("A", 3), (1, 2, 3))
    for v in (element_of_word(cartan("A", 2), [1]), element_of_word(cartan("D", 4), [])):
        with pytest.raises(ValueError, match="different types"):
            rightmost_subword(v, word)


def test_left_right_duality_under_reversal():
    c = cartan("A", 3)
    rng = random.Random(13)
    for _ in range(25):
        word = Word(c, random_reduced_word(c, rng.randint(2, 6), rng))
        rev = Word(c, tuple(reversed(word.letters)))
        L = len(word)
        for v_el in all_elements(c):
            if v_el.length == 0 or not bruhat_le(v_el, word):
                continue
            p = rightmost_subword(v_el, word).positions
            assert leftmost_subword(v_el.inverse(), rev) == tuple(sorted(L + 1 - q for q in p))


# -- combinatorial numbers ---------------------------------------------------


def _d5_table_setup():
    c = cartan("D", 5)
    w = make_word(c, [2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1])
    pos = (2, 4, 7, 8, 11, 12, 13, 14, 15, 16)
    v = element_of_word(c, [w.color(p) for p in pos])
    emb = rightmost_subword(v, w)
    return w, combo_numbers(w, emb)


def test_combo_numbers_d5_select_rows():
    _, combo = _d5_table_setup()
    assert (combo.f_min(8), combo.f(8), combo.m_oplus(4), combo.beta(4), combo.gamma(4)) == (
        2, 4, 6, 0, 2,
    )
    assert (combo.f_min(14), combo.f(14), combo.m_oplus(8), combo.beta(8), combo.gamma(8)) == (
        8, 8, 18, 4, 1,
    )
    assert combo.f_min(1) == 8 and combo.f(1) == 0
    assert combo.f(17) == 7


def test_combo_numbers_a5_beta_gamma():
    v = element_of_word(A5, [2, 1, 3, 5, 4, 2])
    emb = rightmost_subword(v, APP_WORD)
    combo = combo_numbers(APP_WORD, emb)
    assert tuple(combo.beta(m) for m in range(1, 7)) == (0, 0, 0, 0, 1, 1)
    assert tuple(combo.gamma(m) for m in range(1, 7)) == (1, 1, 1, 1, 1, 2)
    assert combo.alpha(1, 0) == 0


def test_f_and_f_min_relation():
    rng = random.Random(17)
    c = cartan("A", 4)
    for _ in range(20):
        word = Word(c, random_reduced_word(c, rng.randint(2, 10), rng))
        pos = sorted(rng.sample(range(1, len(word) + 1), rng.randint(1, len(word))))
        v = element_of_word(c, [word.color(p) for p in pos])
        if v.length == 0:
            continue
        emb = rightmost_subword(v, word)
        combo = combo_numbers(word, emb)
        for k in range(1, len(word) + 1):
            ik = word.color(k)
            seen = [m for m in range(1, len(emb) + 1)
                    if emb.positions[m - 1] <= k and word.color(emb.positions[m - 1]) == ik]
            assert (combo.f(k) < combo.f_min(k)) == (not seen)
            if seen:
                assert combo.f(k) == seen[-1]
            # gamma_m + beta_m counts all same-color letters up to p_m
            mm = combo.v_index_of(k)
            if mm is not None:
                total = sum(1 for j in range(1, k + 1) if word.color(j) == ik)
                assert combo.beta(mm) + combo.gamma(mm) == total


def test_d6_leftmost_representative_of_left_part():
    """High-rank worked case: the left part of the completed word beyond
    index 10, located leftmost inside the other completion."""
    c = cartan("D", 6)
    wbar = make_word(c, [5, 3, 4, 2, 3, 6, 4, 2, 1, 5, 2, 3, 2, 4, 3, 6, 4, 5, 3, 4, 1, 3])
    wdot = make_word(
        c, [2, 3, 4, 6, 1, 2, 3, 4, 5, 3, 4, 2, 3, 6, 4, 2, 1, 5, 2, 3, 2, 4, 3, 6, 4, 5, 3, 4, 1, 3]
    )
    assert len(wdot) == 30 and wdot.letters[:22] == wbar.letters

    positions = (1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 22)
    v = element_of_word(c, [wbar.color(p) for p in positions])
    emb = rightmost_subword(v, wbar)
    assert emb.positions == positions
    vdot = make_word(
        c, [4, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6, 5, 4, 2, 3, 2, 5, 4, 1, 5, 2, 3, 2, 4, 3, 6, 4, 5, 4, 3]
    )
    assert vdot.letters[:14] == emb.subword().letters
    u10 = wdot.element * element_of_word(c, wdot.letters[:10]).inverse()
    assert leftmost_subword(u10, vdot) == (
        9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
    )

    # a nearby case whose leftmost representative clears the subword zone
    positions2 = (1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15)
    v2 = element_of_word(c, [wbar.color(p) for p in positions2])
    assert rightmost_subword(v2, wbar).positions == positions2
    vbar3 = make_word(c, [4, 1, 2, 3, 2, 4, 3, 6, 4, 5, 4, 3])
    vdot3 = make_word(
        c, [4, 6, 2, 3, 4, 5, 1, 2, 3, 4, 6, 2, 3, 4, 5, 4, 3, 2, 4, 1, 2, 3, 2, 4, 3, 6, 4, 5, 4, 3]
    )
    assert vdot3.letters[:12] == vbar3.letters
    u16 = wdot.element * element_of_word(c, wdot.letters[:16]).inverse()
    q = leftmost_subword(u16, vdot3)
    assert q[0] == 14 > 12


def test_relation_between_representative_indices():
    """q_1 beyond l(v) exactly when the whole subword sits inside the prefix,
    and when q_1 = l(v) - t the smallest selected indices are consecutive."""
    rng = random.Random(19)
    c = cartan("A", 3)
    for _ in range(15):
        word = Word(c, random_reduced_word(c, rng.randint(2, 6), rng))
        pos = sorted(rng.sample(range(1, len(word) + 1), rng.randint(1, len(word))))
        v = element_of_word(c, [word.color(p) for p in pos])
        if v.length == 0:
            continue
        emb = rightmost_subword(v, word)
        vdot = left_complete(emb.subword())
        wdot = left_complete(word)
        lv = len(emb)
        p = emb.positions
        for k in range(1, len(word) + 1):
            u_k = wdot.element * element_of_word(c, wdot.letters[:k]).inverse()
            q = leftmost_subword(u_k, vdot)
            if not q:
                continue
            q1 = q[0]
            assert (q1 > lv) == (p[lv - 1] < k + 1)
            if q1 <= lv:
                t = lv - q1
                assert q[: t + 1] == tuple(range(lv - t, lv + 1))


def test_deleted_indices_lie_beyond_the_pulled_back_line_maximum():
    # k is deleted after batch m when k > (k_max)^{alpha(k,m)-}
    rng = random.Random(83)
    for c in (cartan("A", 4), cartan("D", 5)):
        for _ in range(10):
            w = Word(c, random_reduced_word(c, rng.randint(2, 14), rng))
            pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
            combo = combo_numbers(w, rightmost_subword(element_of_word(c, [w.color(p) for p in pos]), w))
            for m in range(len(combo.emb.positions) + 1):
                bounds = {
                    k: pred_iter(w, w.k_max(w.color(k)), combo.alpha(k, m)) for k in range(1, len(w) + 1)
                }
                assert combo.deleted(m) == {k for k, b in bounds.items() if k > b}


def test_deleted_sets_equal_their_rebuild_in_any_order():
    # deleted(m) grows the set of step m - 1 by one index and keeps it;
    # asked in a shuffled order, every step still gets the set rebuilt
    # from every color's alpha(., m)
    rng = random.Random(29)
    for c in (cartan("A", 4), cartan("D", 5), cartan("E", 6)):
        r = number_of_positive_roots(c)
        for _ in range(8):
            w = Word(c, random_reduced_word(c, rng.randint(1, r), rng))
            pos = [p for p in range(1, len(w) + 1) if rng.random() < 0.5]
            combo = combo_numbers(w, rightmost_subword(element_of_word(c, [w.color(p) for p in pos]), w))
            steps = list(range(len(combo.emb.positions) + 1)) * 2
            rng.shuffle(steps)
            for m in steps:
                rebuilt = set()
                for i, js in combo.v_indices.items():
                    line = w.positions_of_color(i)
                    rebuilt.update(line[len(line) - sum(1 for j in js if j <= m):])
                assert combo.deleted(m) == rebuilt and isinstance(combo.deleted(m), frozenset)


def _combo_oracle_pairs():
    """Drawn (word, embedding) pairs over A, D and E, full-length words and
    the empty v among them."""
    rng = random.Random(101)
    for c in (cartan("A", 4), cartan("D", 5), cartan("E", 6)):
        r = number_of_positive_roots(c)
        for n in range(8):
            w = Word(c, random_reduced_word(c, r if n % 3 == 0 else rng.randint(1, r), rng))
            pos = [p for p in range(1, len(w) + 1) if n and rng.random() < 0.5]
            yield w, rightmost_subword(element_of_word(c, [w.color(p) for p in pos]), w)


def test_combo_numbers_against_their_definitions():
    # every map read straight off the definitions in the ComboNumbers
    # docstring, by scanning all indices
    for w, emb in _combo_oracle_pairs():
        combo = combo_numbers(w, emb)
        L, lv, p = len(w), len(emb), (0,) + emb.positions
        pset = set(emb.positions)
        vcolor = [None] + [w.color(q) for q in emb.positions]

        def alpha(k, m):
            return sum(1 for j in range(1, m + 1) if vcolor[j] == w.color(k))

        assert combo.v_indices == {
            i: [m for m in range(1, lv + 1) if vcolor[m] == i] for i in w.colors_used()
        }
        assert combo.f(L + 1) == lv
        for k in range(1, L + 1):
            same = [m for m in range(1, lv + 1) if vcolor[m] == w.color(k)]
            assert combo.f_min(k) == min(same, default=lv + 1)
            assert combo.f(k) == max((m for m in same if p[m] <= k), default=0)
            assert combo.v_index_of(k) == (p.index(k) if k in pset else None)
            for m in range(lv + 1):
                assert combo.alpha(k, m) == alpha(k, m)
                assert xi(combo, k, m) == min(
                    (p[j] for j in same if p[j] > p[m]), default=L + 1)
        for m in range(1, lv + 1):
            assert combo.m_oplus(m) == min(
                (j for j in range(m + 1, lv + 1) if vcolor[j] == vcolor[m]), default=L + 1)
            assert combo.gamma(m) == alpha(p[m], m)
            assert combo.beta(m) == sum(
                1 for j in range(1, p[m]) if w.color(j) == vcolor[m] and j not in pset)
        for m in range(lv + 1):
            # k is deleted when at most alpha(k, m) letters of its color
            # lie at k or beyond
            assert combo.deleted(m) == {
                k for k in range(1, L + 1)
                if sum(1 for q in range(k, L + 1) if w.color(q) == w.color(k)) <= alpha(k, m)
            }


def test_support_slices_against_their_definition():
    # js[a:b] are the v-indices of color i_k from f_min(k) advanced
    # alpha(k, m) times up to f(k advanced alpha(k, m) times), with f of
    # the sentinel l(v)
    for w, emb in _combo_oracle_pairs():
        combo = combo_numbers(w, emb)
        L, lv, p = len(w), len(emb), (0,) + emb.positions
        for k in range(1, L + 1):
            same = [m for m in range(1, lv + 1) if w.color(p[m]) == w.color(k)]
            for m in range(lv + 1):
                a = sum(1 for j in same if j <= m)
                kp = succ_iter(w, k, a)
                top = lv if kp > L else max((j for j in same if p[j] <= kp), default=0)
                support = [j for j in same[a:] if j <= top]
                lo, hi = support_slice(combo, k, m)
                assert (lo, same[lo:hi]) == (a, support), (w.letters, emb.positions, k, m)


def test_t_fold_successors_repeat_the_successor():
    for w, _ in _combo_oracle_pairs():
        L = len(w)
        for k in range(1, L + 1):
            line = w.positions_of_color(w.color(k))
            assert w.succ(k) == min((q for q in line if q > k), default=L + 1)
            assert w.pred(k) == max((q for q in line if q < k), default=0)
        for k in range(L + 2):
            s = q = k
            for t in range(L + 2):
                assert (succ_iter(w, k, t), pred_iter(w, k, t)) == (s, q)
                s, q = w.succ(s), w.pred(q)
