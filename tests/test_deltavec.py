import random
from functools import reduce

import pytest
from oracles import (
    completion_left_part_lanes,
    fundamental_weight,
    matrix_betas,
    matrix_of_word,
    root_sequence_delta_via_xi,
    root_to_weight,
)

import richseed.deltavec
from richseed.deltavec import (
    LANE_BIAS,
    W,
    DeltaVector,
    _left_part_lanes,
    delta_vectors,
    delta_via_xi,
    in_Cv,
    in_Cw,
    initial_delta_same,
    initial_delta_tilde,
)
from richseed.errors import NegativeCoordinate
from richseed.rootsys import (
    cartan,
    diagram_involution,
    element_of_word,
    longest_element_word,
    number_of_positive_roots,
    parse_type,
    reflect_weight_simple,
)
from richseed.words import (
    Word,
    left_complete,
    make_word,
    random_reduced_word,
    rightmost_subword,
)

A3 = cartan("A", 3)
WDOT = make_word(A3, [2, 1, 2, 3, 2, 1])
W0DOT = make_word(A3, [1, 2, 3, 1, 2, 1])


def test_initial_delta_same_examples():
    assert initial_delta_same(WDOT, 6).support() == (2, 4, 6)
    assert initial_delta_same(WDOT, 1).support() == (1,)
    assert initial_delta_same(W0DOT, 5).support() == (2, 5)
    with pytest.raises(IndexError):
        initial_delta_same(WDOT, 7)


def test_delta_via_xi_worked_example():
    assert delta_via_xi(W0DOT, 5, WDOT).coords == (0, 1, 0, 1, 0, 1)
    assert delta_via_xi(W0DOT, 3, WDOT).support() == (1, 6)


def test_delta_via_xi_cross_table():
    # the four-column table of values for the two completions
    expected_cross_w = {1: (1,), 2: (2,), 3: (4,), 4: (2, 6), 5: (1, 3, 6), 6: (2, 5)}
    expected_cross_w0 = {1: (1,), 2: (2,), 3: (1, 6), 4: (3,), 5: (2, 4, 6), 6: (1, 5)}
    for k in range(1, 7):
        assert delta_via_xi(WDOT, k, W0DOT).support() == expected_cross_w[k]
        assert delta_via_xi(W0DOT, k, WDOT).support() == expected_cross_w0[k]


def test_delta_via_xi_same_target_equals_direct_form():
    rng = random.Random(23)
    for spec_rank in (3, 4):
        c = cartan("A", spec_rank)
        r = number_of_positive_roots(c)
        for _ in range(4):
            dot = left_complete(Word(c, random_reduced_word(c, rng.randint(1, r), rng)))
            for k in range(1, r + 1):
                assert delta_via_xi(dot, k, dot) == initial_delta_same(dot, k)


def test_delta_via_xi_coords_are_zero_or_one_for_initial_summands():
    rng = random.Random(29)
    c = cartan("D", 4)
    for _ in range(6):
        w = Word(c, random_reduced_word(c, rng.randint(2, 12), rng))
        wdot = left_complete(w)
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
        v = element_of_word(c, [w.color(p) for p in pos])
        vdot = left_complete(rightmost_subword(v, w).subword())
        for k in range(1, len(w) + 1):
            d = delta_via_xi(wdot, k, vdot)
            assert all(a in (0, 1) for a in d.coords)


def _sample_pair(c, rng, max_len):
    w = Word(c, random_reduced_word(c, rng.randint(2, max_len), rng))
    pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
    v = element_of_word(c, [w.color(p) for p in pos])
    return w, v


def test_initial_delta_tilde_against_xi_engine():
    rng = random.Random(31)
    for spec in ("A3", "A4", "D4"):
        c = cartan(spec[0], int(spec[1]))
        r = number_of_positive_roots(c)
        for _ in range(8):
            w, v = _sample_pair(c, rng, r)
            if v.length == 0:
                continue
            emb = rightmost_subword(v, w)
            wdot, vdot = left_complete(w), left_complete(emb.subword())
            for k in range(1, len(w) + 1):
                assert initial_delta_tilde(w, emb, k) == delta_via_xi(wdot, k, vdot).truncated(len(emb))


def test_initial_delta_tilde_appendix_values():
    c5 = cartan("A", 5)
    w = make_word(c5, [1, 3, 2, 4, 3, 2, 4, 5, 4, 3, 2, 1, 2])
    v = element_of_word(c5, [2, 1, 3, 5, 4, 2])
    emb = rightmost_subword(v, w)
    assert initial_delta_tilde(w, emb, 10) == (0, 0, 0, 0, 1, 0)
    assert initial_delta_tilde(w, emb, 5) == (0, 0, 0, 0, 0, 0)  # evicted at the start


def test_initial_delta_tilde_zero_when_no_letter_below():
    c = cartan("D", 5)
    w = make_word(c, [2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1])
    pos = (2, 4, 7, 8, 11, 12, 13, 14, 15, 16)
    v = element_of_word(c, [w.color(p) for p in pos])
    emb = rightmost_subword(v, w)
    # f(1) = 0 < f_min(1) = 8: the first summand is already inside
    assert initial_delta_tilde(w, emb, 1) == (0,) * 10


def test_coordinate_correspondence_between_references():
    """The m-th reference coordinate of a summand equals its own-word
    coordinate at position p_m."""
    rng = random.Random(37)
    for spec in ("A3", "D4"):
        c = cartan(spec[0], int(spec[1]))
        r = number_of_positive_roots(c)
        for _ in range(6):
            w, v = _sample_pair(c, rng, r)
            if v.length == 0:
                continue
            emb = rightmost_subword(v, w)
            wdot, vdot = left_complete(w), left_complete(emb.subword())
            for k in range(1, len(w) + 1):
                dv = delta_via_xi(wdot, k, vdot)
                dw = initial_delta_same(wdot, k)
                for m, p in enumerate(emb.positions, start=1):
                    assert dv.coords[m - 1] == dw.coords[p - 1]


def test_first_coordinates_track_colors_before_q1():
    from richseed.words import leftmost_subword

    rng = random.Random(41)
    c = cartan("A", 3)
    for _ in range(10):
        w, v = _sample_pair(c, rng, 6)
        if v.length == 0:
            continue
        emb = rightmost_subword(v, w)
        wdot, vdot = left_complete(w), left_complete(emb.subword())
        for k in range(1, len(w) + 1):
            u_k = wdot.element * wdot.prefix_element(k).inverse()
            q = leftmost_subword(u_k, vdot)
            q1 = q[0] if q else len(vdot) + 1
            d = delta_via_xi(wdot, k, vdot)
            for m in range(1, q1):
                assert d.coords[m - 1] == (1 if vdot.color(m) == wdot.color(k) else 0)


def test_membership_tests():
    z = DeltaVector(WDOT, (0,) * 6)
    assert in_Cv(z, 3) and in_Cw(z, 3)
    d = DeltaVector(WDOT, (0, 0, 0, 0, 1, 0))
    assert in_Cv(d, 4)
    assert not in_Cv(d, 5)
    assert in_Cw(d, 5)
    e1 = DeltaVector(WDOT, (1, 0, 0, 0, 0, 0))
    assert not in_Cv(e1, 6)
    assert in_Cw(e1, 1)


def test_delta_vector_packs_coordinate_1_into_the_lowest_field():
    d = DeltaVector(WDOT, (255, 0, 3, 0, 0, 1))
    assert d.bits == 255 + (3 << 32) + (1 << 80)
    assert d == DeltaVector.packed(WDOT, d.bits) and DeltaVector.packed(WDOT, d.bits).coords == d.coords


@pytest.mark.parametrize("bad", [-1, 256])
def test_delta_vector_refuses_coordinates_outside_the_packed_field(bad):
    with pytest.raises(ValueError, match=r"coordinates must lie in \[0, 256\)"):
        DeltaVector(WDOT, (0, 1, 0, bad, 0, 1))


def _left_parts(wdot, ks):
    """(u_k(rho), u_k(omega_{i_k})) for k in ks, decoded from the lanes."""
    ys, es = _left_part_lanes(wdot, ks)

    def lane(x, q):
        return (x >> (W * q) & 0xFFFF) - LANE_BIAS

    return [(tuple(lane(y, q) for y in ys), tuple(lane(e, q) for e in es)) for q in range(len(ks))]


def test_incremental_left_parts_match_dense_products():
    # u_k = w0 (s_{i_k} ... s_{i_1})^{-1} for every k of full-length words;
    # the weight u_k(rho) determines u_k, and u_k(omega_{i_k}) is omega_{i_k}
    # walked by simple reflections through i_{k+1}, ..., i_L
    rng = random.Random(5)
    for spec in ("D5", "E6", "E8"):
        c = parse_type(spec)
        w0 = matrix_of_word(c, longest_element_word(c))
        words = [Word(c, longest_element_word(c)),
                 Word(c, random_reduced_word(c, number_of_positive_roots(c), rng))]
        for wdot in words:
            parts = _left_parts(wdot, range(1, len(wdot) + 1))
            assert len(parts) == len(wdot)
            for k, (rho_k, omega_k) in enumerate(parts, start=1):
                u_k = w0 * matrix_of_word(c, reversed(wdot.letters[:k]))
                assert rho_k == u_k.rho_image()
                assert omega_k == reduce(
                    lambda lam, i: reflect_weight_simple(c, i, lam),
                    wdot.letters[k:],
                    fundamental_weight(c, wdot.color(k)),
                )
            assert parts[-1][0] == (1,) * c.rank  # u_r is the identity



def _matrix_left_part_rhos(wdot):
    """u_k(rho), with w0(beta_k) taken through the w0 matrix and the Cartan matrix."""
    c = wdot.cartan
    w0, y = matrix_of_word(c, longest_element_word(c)), (-1,) * c.rank
    for beta in matrix_betas(c, wdot.letters)[0]:
        y = tuple(a - b for a, b in zip(y, root_to_weight(c, w0.apply(beta))))
        yield y


def test_left_parts_match_the_w0_matrix_path_on_every_type():
    # the walk permutes beta_k's weight coordinates by the diagram
    # automorphism of -w0 (a reversal in A, a swap of the two short arms
    # in odd D, 1 <-> 6 and 3 <-> 5 in E6, the identity elsewhere)
    specs = [f"A{n}" for n in range(1, 16)] + [f"D{n}" for n in range(4, 12)]
    rng = random.Random(41)
    for spec in specs + ["E6", "E7", "E8"]:
        c = parse_type(spec)
        r = number_of_positive_roots(c)
        wdot = left_complete(Word(c, random_reduced_word(c, rng.randint(1, r), rng)))
        parts = _left_parts(wdot, range(1, r + 1))
        assert [rho_k for rho_k, _ in parts] == list(_matrix_left_part_rhos(wdot)), spec


def test_delta_via_xi_matches_the_root_sequence_walk_on_every_type():
    # the walk of x^{-1}(xi) by simple reflections against the walk of xi
    # by reflections in the target's root sequence, for every summand of
    # random pairs of completions: all lanes at once, the lanes of a
    # random partial range, and one lane at a time
    specs = [f"A{n}" for n in range(1, 16)] + [f"D{n}" for n in range(4, 12)]
    rng = random.Random(43)
    for spec in specs + ["E6", "E7", "E8"]:
        c = parse_type(spec)
        r = number_of_positive_roots(c)
        wdot, vdot = (
            left_complete(Word(c, random_reduced_word(c, rng.randint(1, r), rng))) for _ in range(2)
        )
        want = [root_sequence_delta_via_xi(wdot, k, vdot) for k in range(1, r + 1)]
        assert delta_vectors(wdot, vdot, range(1, r + 1)) == want, spec
        a = rng.randint(1, r)
        b = rng.randint(a, r + 1)
        assert delta_vectors(wdot, vdot, range(a, b)) == want[a - 1 : b - 1], (spec, a, b)
        for k in range(1, r + 1):
            assert delta_via_xi(wdot, k, vdot) == want[k - 1], (spec, k)


def test_delta_vectors_on_any_range_equal_the_one_lane_calls():
    rng = random.Random(9)
    c = cartan("D", 5)
    r = number_of_positive_roots(c)
    wdot = Word(c, random_reduced_word(c, r, rng))
    vdot = left_complete(Word(c, random_reduced_word(c, 7, rng)))
    one_lane = [delta_via_xi(wdot, k, vdot) for k in range(1, r + 1)]
    for a in range(1, r + 2):
        for b in range(a, r + 2):
            assert delta_vectors(wdot, vdot, range(a, b)) == one_lane[a - 1 : b - 1], (a, b)


def test_delta_vectors_refuses_indices_outside_the_word():
    for ks, bad in ((range(0, 3), 0), (range(4, 8), 7), (range(7, 8), 7)):
        with pytest.raises(IndexError, match=f"index {bad} out of range 1..6"):
            delta_vectors(W0DOT, WDOT, ks)
    with pytest.raises(ValueError, match="step 1"):
        delta_vectors(W0DOT, WDOT, range(1, 7, 2))


def test_delta_vectors_of_a_short_module_word():
    # a module word need not be a word of w0: ks lie in 1..len(module_word),
    # and its vectors are those of any completion's first summands
    w = Word(A3, W0DOT.letters[:2])
    assert delta_vectors(w, WDOT, range(1, 3)) == delta_vectors(W0DOT, WDOT, range(1, 3))
    for ks, bad in ((range(0, 2), 0), (range(1, 4), 3), (range(3, 4), 3)):
        with pytest.raises(IndexError, match=rf"^index {bad} out of range 1\.\.2$"):
            delta_vectors(w, WDOT, ks)
    with pytest.raises(ValueError, match="^the target must be a reduced word of w0$"):
        delta_vectors(W0DOT, w, range(1, 3))


SPECS = [f"A{n}" for n in range(2, 16)] + [f"D{n}" for n in range(4, 12)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("spec", SPECS)
def test_lanes_of_w_equal_the_walk_up_its_completion(monkeypatch, spec):
    # every length 0..r, one seeded word each: the lanes, and every
    # coordinate of the vectors (the delta-oracle compares only the first
    # l(v)), against the frozen walk up left_complete(w)
    c = parse_type(spec)
    r = number_of_positive_roots(c)
    rng = random.Random(f"lanes/{spec}")
    target = left_complete(Word(c, random_reduced_word(c, rng.randint(0, r), rng)))
    words = [Word(c, random_reduced_word(c, length, rng)) for length in range(r + 1)]
    want = []
    for w in words:
        ks = range(1, len(w) + 1)
        assert _left_part_lanes(w, ks) == completion_left_part_lanes(left_complete(w), ks), w
        want.append(delta_vectors(w, target, ks))
    monkeypatch.setattr(
        richseed.deltavec,
        "_left_part_lanes",
        lambda module_word, ks: completion_left_part_lanes(left_complete(module_word), ks),
    )
    for w, vectors in zip(words, want):
        assert vectors == delta_vectors(w, target, range(1, len(w) + 1)), w


def _another_completion(w, rng):
    """w completed by a reduced word of w0 w^{-1} that peels a random left
    descent of -w(rho) each time, where ``left_complete`` peels the smallest."""
    c = w.cartan
    y, extra = tuple(-x for x in w.rho_image()), []
    while descents := [i for i, x in enumerate(y, start=1) if x < 0]:
        extra.append(rng.choice(descents))
        y = reflect_weight_simple(c, extra[-1], y)
    return Word(c, w.letters + tuple(extra))


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_two_completions_of_w_give_its_vectors(spec):
    # the walk up either completion, and the root-sequence walk along
    # either, give the vectors of w's own walk for every k <= l(w)
    c = parse_type(spec)
    r = number_of_positive_roots(c)
    rng = random.Random(f"completions/{spec}")
    compared = 0
    for _ in range(8):
        w = Word(c, random_reduced_word(c, rng.randint(1, r - 3), rng))
        first = left_complete(w)
        # w0 w^{-1} may have one reduced word only; then w is passed over
        others = (_another_completion(w, rng) for _ in range(20))
        second = next((x for x in others if x.letters != first.letters), None)
        if second is None:
            continue
        compared += 1
        assert second.letters[: len(w)] == first.letters[: len(w)] == w.letters
        ks = range(1, len(w) + 1)
        lanes = _left_part_lanes(w, ks)
        assert completion_left_part_lanes(first, ks) == lanes
        assert completion_left_part_lanes(second, ks) == lanes
        target = left_complete(Word(c, random_reduced_word(c, rng.randint(0, r), rng)))
        vectors = delta_vectors(w, target, ks)
        for k in ks:
            assert root_sequence_delta_via_xi(first, k, target) == vectors[k - 1], (w, k)
            assert root_sequence_delta_via_xi(second, k, target) == vectors[k - 1], (w, k)
    assert compared >= 6, compared


@pytest.mark.parametrize("spec", ["A1"] + SPECS)
def test_diagram_involution_matches_the_plates(spec):
    # -w0 permutes the fundamental weights: the reversal on A_n, the swap
    # of n-1 and n on odd D_n, 1 <-> 6 and 3 <-> 5 on E6 (Bourbaki, ch. VI,
    # plates I, IV and V); the identity on even D_n, E7 and E8
    c = parse_type(spec)
    n = c.rank
    star = list(range(1, n + 1))
    if c.family == "A":
        star.reverse()
    elif c.family == "D" and n % 2:
        star[n - 2], star[n - 1] = n, n - 1
    elif spec == "E6":
        star = [6, 2, 5, 4, 3, 1]
    assert diagram_involution(c) == tuple(star)


@pytest.mark.parametrize("lane", [0, 4, 11])
def test_a_negative_lane_raises_naming_its_summand(monkeypatch, lane):
    # E's lane for k = 3 + lane negated in every coordinate: that summand
    # records a negative coefficient, and no other summand does
    c = parse_type("D5")
    wdot = Word(c, longest_element_word(c))
    vdot = left_complete(Word(c, random_reduced_word(c, 5, random.Random(3))))

    def negated(module_word, ks):
        ys, es = _left_part_lanes(module_word, ks)
        field = W * lane
        return ys, [e - (2 * ((e >> field & 0xFFFF) - LANE_BIAS) << field) for e in es]

    monkeypatch.setattr(richseed.deltavec, "_left_part_lanes", negated)
    with pytest.raises(NegativeCoordinate, match=rf"\(module index {3 + lane}\)"):
        delta_vectors(wdot, vdot, range(3, 18))
