import random
from itertools import takewhile

import pytest
from oracles import all_pairs_gamma, bicolor
from oracles import classify_sawteeth as frozen_sawteeth

from richseed import golden
from richseed.errors import FrozenVertex, Unclassifiable
from richseed.mutalg import framed_quiver
from richseed.quiver import (
    ConfigLabel,
    Quiver,
    build_gamma,
    classify_config,
    classify_configs,
    classify_sawteeth,
    quiver_has_sawteeth,
    to_dot,
)
from richseed.rootsys import cartan, element_of_word, number_of_positive_roots, parse_type
from richseed.words import (
    Word,
    all_elements,
    make_word,
    random_reduced_word,
    reduced_words,
    rightmost_subword,
    combo_numbers,
)

A4 = cartan("A", 4)
A4_WORD = make_word(A4, list(golden.A4_WORD))


def test_build_gamma_a4_matches_figure():
    q = build_gamma(A4_WORD)
    assert set(q.arrows) == golden.A4_ARROWS
    assert all(m == 1 for m in q.arrows.values())
    assert q.b[5].get(2, 0) > 0
    assert q.b[6].get(1, 0) <= 0
    assert q.b[2].get(1, 0) <= 0


def test_build_gamma_layout():
    q = build_gamma(A4_WORD)
    assert q.vertices == {k: A4_WORD.color(k) for k in range(1, len(A4_WORD) + 1)}
    assert q.frozen == frozenset()


def test_build_gamma_d5_matches_figure():
    c = cartan("D", 5)
    w = make_word(c, list(golden.D5_WORD))
    q = build_gamma(w)
    assert len(q.vertices) == 17
    assert set(q.arrows) == golden.D5_ARROWS


ACCEPTED_TYPES = (
    [("A", n) for n in range(1, 16)] + [("D", n) for n in range(4, 12)] + [("E", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("family,rank", ACCEPTED_TYPES, ids=[f"{f}{n}" for f, n in ACCEPTED_TYPES])
def test_build_gamma_matches_the_all_pairs_scan(family, rank):
    # the one-pass quiver against every pair k < j, on random words of
    # every accepted type, the full length included; rows are compared
    # entry by entry in order, since the scan order is the insertion order
    c = cartan(family, rank)
    r = number_of_positive_roots(c)
    rng = random.Random(f"{family}{rank}")
    for length in (r, r, rng.randint(1, r), rng.randint(1, r)):
        w = Word(c, random_reduced_word(c, length, rng))
        q, want = build_gamma(w), all_pairs_gamma(w)
        assert q.vertices == want.vertices
        for k in want.b:
            assert list(q.b[k].items()) == list(want.b[k].items()), (w.letters, k)


def test_mutation_involution_small():
    q = Quiver({1: 1, 2: 2}, {(1, 2): 1})
    m = q.mutate(1)
    assert set(m.arrows) == {(2, 1)}
    assert m.mutate(1) == q


def test_opposite_arrows_given_to_the_constructor_cancel():
    # a 2-cycle is not representable in the exchange matrix
    verts = {1: 1, 2: 2}
    q = Quiver(verts, {(1, 2): 3, (2, 1): 1})
    assert q.arrows == {(1, 2): 2} and q.b == {1: {2: 2}, 2: {1: -2}}
    q = Quiver(verts, {(1, 2): 1, (2, 1): 1})
    assert q.arrows == {} and q.b == {1: {}, 2: {}}
    assert q == Quiver(verts)


# the random tests seed one rng per example, 0, 1, 2, ...: a seed drawn
# by hypothesis repeats, so that most examples reran an earlier one


def test_mutation_involution_on_word_quivers():
    for seed in range(40):
        rng = random.Random(seed)
        w = Word(A4, random_reduced_word(A4, rng.randint(2, 10), rng))
        q = build_gamma(w)
        k = rng.choice(sorted(q.vertices))
        assert q.mutate(k).mutate(k) == q, seed


def test_mutation_preserves_skew_symmetry():
    for seed in range(40):
        rng = random.Random(seed)
        w = Word(A4, random_reduced_word(A4, rng.randint(2, 10), rng))
        q = build_gamma(w)
        for _ in range(3):
            q = q.mutate(rng.choice(sorted(q.vertices)))
        _assert_rows_are_skew(q)


def _assert_rows_are_skew(q):
    """Every stored entry is nonzero, has its negation in the row of the
    other end, and does not join two frozen vertices."""
    assert q.b.keys() == q.vertices.keys()
    for i, row in q.b.items():
        for j, bij in row.items():
            assert bij != 0 and q.b[j][i] == -bij, (i, j)
            assert not (i in q.frozen and j in q.frozen), (i, j)


def _skew_matrix(q):
    """Signed arrow counts b[(i, j)] = #(i->j) - #(j->i), from the arrow view."""
    out = {}
    for (s, t), m in q.arrows.items():
        out[(s, t)] = out.get((s, t), 0) + m
        out[(t, s)] = out.get((t, s), 0) - m
    return out


def _skew_rule(b, ids, k):
    """b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik) [b_ik b_kj]_+."""
    out = {}
    for i in ids:
        for j in ids:
            if i == j:
                continue
            bij, bik, bkj = b.get((i, j), 0), b.get((i, k), 0), b.get((k, j), 0)
            if k in (i, j):
                out[(i, j)] = -bij
            else:
                sign = (bik > 0) - (bik < 0)
                out[(i, j)] = bij + sign * max(bik * bkj, 0)
    return out


def test_mutate_in_place_follows_the_skew_matrix_rule():
    for seed in range(60):
        rng = random.Random(seed)
        spec = rng.choice([A4, cartan("D", 4)])
        w = Word(spec, random_reduced_word(spec, rng.randint(2, 12), rng))
        q = build_gamma(w)
        if rng.random() < 0.5:
            q = framed_quiver(q)
        ids = sorted(q.vertices)
        mutable = [k for k in ids if k not in q.frozen]
        for _ in range(rng.randint(1, 6)):
            k = rng.choice(mutable)
            expected = _skew_rule(_skew_matrix(q), ids, k)
            assert q.mutate_in_place(k) is None
            b = _skew_matrix(q)
            for (i, j), bij in expected.items():
                if not (i in q.frozen and j in q.frozen):
                    assert b.get((i, j), 0) == bij, (seed, k, i, j)
            _assert_rows_are_skew(q)
            # the arrow view rebuilds the quiver
            assert Quiver(q.vertices, q.arrows, q.frozen) == q, seed


def test_mutate_in_place_grows_and_shrinks_multiplicities():
    q = Quiver({k: k for k in (1, 2, 3, 4)}, {(1, 2): 1, (2, 3): 1, (1, 3): 1, (4, 2): 1, (3, 4): 2})
    q.mutate_in_place(2)
    # 1 -> 3 grows to 2 and 3 -> 4 shrinks to 1; the arrows at 2 reverse
    assert q.arrows == {(2, 1): 1, (3, 2): 1, (1, 3): 2, (2, 4): 1, (3, 4): 1}


def test_mutate_leaves_the_original_unchanged():
    q = build_gamma(A4_WORD)
    before = q.copy()
    m = q.mutate(2)
    assert q == before and m != q
    assert m == before.mutate(2)


def test_a_loop_arrow_is_refused():
    with pytest.raises(ValueError, match="^loops are not allowed$"):
        Quiver({1: 1, 2: 2}, {(1, 2): 1, (2, 2): 1})


def test_mutate_frozen_raises():
    q = Quiver({1: 1, 2: 2}, {(1, 2): 1}, frozen={1})
    with pytest.raises(FrozenVertex):
        q.mutate(1)
    with pytest.raises(FrozenVertex):
        q.mutate_in_place(1)


def test_frozen_frozen_arrows_not_stored():
    q = Quiver({1: 1, 2: 2, 3: 1}, {(1, 2): 1, (2, 3): 1}, frozen={1, 2})
    assert q.b[1] == {}
    assert q.b[2].get(3, 0) > 0
    # mutating 3 would make 2 -> 1 of the path 2 -> 3 -> 1: both ends are frozen
    q._add(3, 1, 1)
    q.mutate_in_place(3)
    assert q.b[1] == {3: 1} and q.b[2] == {3: -1}
    _assert_rows_are_skew(q)


def test_a_quiver_copies_its_colors_and_freezes_exactly_the_given_ids():
    colors = {k: A4_WORD.color(k) for k in range(1, len(A4_WORD) + 1)}
    g = build_gamma(A4_WORD)
    f = Quiver(colors, g.arrows, frozen=[2, 5, 7, 5])
    assert f.vertices == colors and f.vertices is not colors
    assert f.frozen == frozenset({2, 5, 7})
    colors[1] = 4
    assert f.vertices[1] == A4_WORD.color(1) and not g.frozen
    assert f.copy() == f != g and f.restricted({1, 2, 3}).frozen == {2}
    with pytest.raises(KeyError, match="frozen vertex 12 is not a vertex"):
        Quiver({1: 1, 2: 2}, frozen={2, 12, 14})
    with pytest.raises(KeyError, match="arrow 1->3 uses an unknown vertex"):
        Quiver({1: 1, 2: 2}, {(1, 3): 1})


@pytest.mark.parametrize("k", [0, 11])
def test_mutation_and_labels_refuse_an_unknown_vertex(k):
    q = build_gamma(A4_WORD)
    with pytest.raises(KeyError, match=f"^'no vertex {k}'$"):
        q.mutate_in_place(k)
    with pytest.raises(KeyError, match=f"^'no vertex {k}'$"):
        classify_configs(q, k, (1, 3), q.vertices, q.ids_of_color(2), ([], []))
    with pytest.raises(KeyError, match=f"^'no vertex {k}'$"):
        q.split(k)
    assert q == build_gamma(A4_WORD)


def test_frozen_set_and_teeth_are_immutable():
    # a run's FinalSeed.frozen is its quiver's frozen set, the same object
    q = build_gamma(make_word(cartan("D", 5), list(golden.D5_WORD)))
    frozen = Quiver(q.vertices, q.arrows, frozen={1, 2}).frozen
    rep = classify_sawteeth(q, 3, 2)
    tooth = rep.teeth[0]
    assert isinstance(frozen, frozenset) and frozen == {1, 2}
    for obj, name in ((tooth, "summit"), (rep, "valid")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert tooth == (3, 4, 9) and rep.valid
    twin = classify_sawteeth(q.copy(), 3, 2)
    assert twin is not rep and twin == rep and hash(twin) == hash(rep)


def test_a5_first_mutation_matches_figure():
    c5 = cartan("A", 5)
    w = make_word(c5, list(golden.A5_WORD))
    q = build_gamma(w).mutate(1)
    assert q.b[3].get(1, 0) > 0 and q.b[1].get(2, 0) > 0 and q.b[2].get(3, 0) > 0
    assert q.b[2].get(1, 0) <= 0 and q.b[1].get(3, 0) <= 0


def test_bicolor_is_asymmetric():
    q = build_gamma(A4_WORD)
    b23 = bicolor(q, 2, 3)
    b32 = bicolor(q, 3, 2)
    assert set(b23.arrows) == {(3, 6), (6, 5), (8, 6), (5, 3)}
    assert set(b32.arrows) == {(5, 8), (6, 5), (8, 6), (5, 3)}
    assert set(b23.arrows) != set(b32.arrows)
    assert classify_sawteeth(b23, 2, 3) == classify_sawteeth(q, 2, 3)
    assert classify_sawteeth(b32, 3, 2) == classify_sawteeth(q, 3, 2)


def test_bicolor_without_second_color_is_bare_line():
    c = cartan("A", 3)
    w = make_word(c, [1, 2, 1])
    q = build_gamma(w)
    b = bicolor(q, 1, 3)  # no color-3 vertices
    assert sorted(b.vertices) == [1, 3]
    assert set(b.arrows) == {(1, 3)}
    rep = classify_sawteeth(b, 1, 3)
    assert rep.valid and rep.pure and not rep.teeth
    assert classify_sawteeth(q, 1, 3) == rep


def test_the_rows_classify_as_the_bicolor_copy():
    # the classifier reads the rows of the whole quiver; a c2 -> c2 arrow
    # and an arrow to a third color are outside the (c1, c2)-subquiver,
    # so planting one changes neither path's report.  The bicolor copies
    # are classified by the frozen classifier of tests/oracles.py
    planted = 0
    for seed in range(40):
        rng = random.Random(seed)
        c = parse_type(rng.choice(["A4", "A6", "D4", "D5", "E6", "E7"]))
        r = number_of_positive_roots(c)
        q = build_gamma(Word(c, random_reduced_word(c, rng.randint(2, r), rng)))
        for c1 in range(1, c.rank + 1):
            for c2 in range(1, c.rank + 1):
                if c1 == c2:
                    continue
                rep = classify_sawteeth(q, c1, c2)
                assert rep == frozen_sawteeth(bicolor(q, c1, c2), c1, c2), (seed, c1, c2)
                summits = q.ids_of_color(c2)
                both = [k for k, x in q.vertices.items() if x in (c1, c2)]
                third = [k for k, x in q.vertices.items() if x not in (c1, c2)]
                arrows = [rng.sample(summits, 2)] if len(summits) > 1 else []
                if both and third:
                    arrows.append([rng.choice(both), rng.choice(third)])
                for ends in arrows:
                    rng.shuffle(ends)
                    p = q.copy()
                    p._add(*ends)
                    assert classify_sawteeth(p, c1, c2) == rep, (seed, c1, c2, ends)
                    assert frozen_sawteeth(bicolor(p, c1, c2), c1, c2) == rep, (seed, ends)
                    planted += 1
    assert planted > 1000


def test_arrows_planted_inside_the_subquiver_classify_as_the_frozen_copy():
    # one to three arrows of multiplicity 1 or 2, or a removed arrow,
    # between two vertices of the (c1, c2)-subquiver, over all vertices or
    # over a tail of each line as in a cut; and an arrow between a tooth's
    # inner line vertex and an isolated summit.  Reports and the first
    # violation's text must be those of the frozen classifier, which reads
    # every row of both colors in id order
    kinds: dict[str, int] = {}

    def agree(q, c1, c2, lines=None):
        rep = classify_sawteeth(q, c1, c2, lines)
        assert rep == frozen_sawteeth(q, c1, c2, lines), (seed, rep.violation)
        # the violation's leading words, up to its first number or list
        kind = " ".join(list(takewhile(str.isalpha, (rep.violation or "valid").split()))[:4])
        kinds[kind] = kinds.get(kind, 0) + 1
        return rep

    for seed in range(300):
        rng = random.Random(seed)
        c = parse_type(rng.choice(["A4", "A6", "D4", "D5", "E6", "E7"]))
        r = number_of_positive_roots(c)
        q = build_gamma(Word(c, random_reduced_word(c, rng.randint(2, r), rng)))
        c1, c2 = rng.sample(range(1, c.rank + 1), 2)
        rep = agree(q, c1, c2)
        # a tooth's first inner line vertex follows its right end on the line
        line = q.ids_of_color(c1)
        after = [line[line.index(t.right_end) + 1] for t in rep.teeth]
        inner = [x for t, x in zip(rep.teeth, after) if x != t.left_end]
        for ends in [(x, min(rep.isolated)) for x in inner[:1] if rep.isolated]:
            for s, t in (ends, ends[::-1]):
                p = q.copy()
                p._add(s, t, 1)
                agree(p, c1, c2)
        both = [k for k, x in q.vertices.items() if x in (c1, c2)]
        if len(both) < 2:
            continue
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(both, 2)
            q._add(s, t, rng.choice([1, 1, 2, -1]))
        lines = None
        if rng.random() < 0.5:
            lines = {color: q.ids_of_color(color) for color in (c1, c2)}
            lines = {color: ids[rng.randint(0, len(ids)) :] for color, ids in lines.items()}
        agree(q, c1, c2, lines)
    # every violation of the inventory and of the tooth walk
    assert kinds.keys() == {
        "valid", "arrow", "vertex with two incoming", "vertex with two outgoing",
        "line arrows broken", "cross arrows", "ordinary arrows outside the", "final barb does not",
    }, kinds


def test_d5_bicolor_32_structure():
    c = cartan("D", 5)
    q = build_gamma(make_word(c, list(golden.D5_WORD)))
    rep = classify_sawteeth(q, 3, 2)
    assert rep.valid
    assert [(t.right_end, t.summit, t.left_end) for t in rep.teeth] == [
        (3, 4, 9), (9, 10, 13), (13, 14, 16),
    ]
    assert rep.initial_barb == (3, 1)
    assert rep.final_barb is None
    assert not rep.pure


def _counterexample_quiver() -> Quiver:
    verts = {k: color for color, ks in ((1, (3, 6, 9)), (2, (1, 2, 4, 7, 8, 11, 12)), (3, (5, 10)))
             for k in ks}
    arrows = {
        (9, 7): 1, (6, 9): 1, (6, 4): 1, (3, 6): 1, (11, 9): 1, (11, 10): 1,
        (11, 12): 1, (8, 11): 1, (8, 6): 1, (7, 8): 1, (7, 5): 1, (4, 7): 1,
        (4, 3): 1, (2, 4): 1, (1, 2): 1, (10, 8): 1, (5, 2): 1, (5, 10): 1,
    }
    return Quiver(verts, arrows)


def test_counterexample_quiver_fails_classification():
    q = _counterexample_quiver()
    assert not classify_sawteeth(q, 1, 2).valid
    assert not classify_sawteeth(q, 2, 3).valid
    assert not classify_sawteeth(q, 2, 1).valid


def test_every_gamma_has_sawteeth_exhaustive_a3():
    c = cartan("A", 3)
    for el in all_elements(c):
        if el.length == 0:
            continue
        for rw in reduced_words(el):
            assert quiver_has_sawteeth(build_gamma(Word(c, rw)), c)


def test_sawteeth_survive_removal_of_first_line_vertex():
    c = cartan("A", 4)
    rng = random.Random(43)
    checked = 0
    for _ in range(12):
        w = Word(A4, random_reduced_word(A4, rng.randint(3, 10), rng))
        q = build_gamma(w)
        for c1 in q.colors():
            for c2 in q.colors():
                if c1 == c2 or not c.adjacent(c1, c2):
                    continue
                rep = classify_sawteeth(q, c1, c2)
                assert rep.valid
                for col in (c1, c2):
                    ids = q.ids_of_color(col)
                    if not ids:
                        continue
                    smaller = q.restricted(set(q.vertices) - {ids[0]})
                    assert classify_sawteeth(smaller, c1, c2).valid
                    checked += 1
    assert checked > 0


def test_restricted_line_of_first_v_letter_is_pure():
    rng = random.Random(47)
    c = cartan("D", 4)
    checked = 0
    for _ in range(20):
        w = Word(c, random_reduced_word(c, rng.randint(3, 12), rng))
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
        v = element_of_word(c, [w.color(p) for p in pos])
        if v.length == 0:
            continue
        emb = rightmost_subword(v, w)
        combo = combo_numbers(w, emb)
        keep = {k for k in range(1, len(w) + 1) if combo.f(k) >= combo.f_min(k)}
        sub = build_gamma(w).restricted(keep)
        line = w.color(emb.positions[0])
        for oc in c.neighbors(line):
            if not sub.ids_of_color(oc) or not sub.ids_of_color(line):
                continue
            rep = classify_sawteeth(sub, line, oc)
            assert rep.valid and rep.pure
            checked += 1
    assert checked > 0


# -- local configurations -----------------------------------------------------


def _initial_config_quiver() -> Quiver:
    # line color 2 with vertices 1..4, one adjacent line (color 1, ids 11, 12)
    # and another (color 3, id 21)
    verts = {1: 2, 2: 2, 3: 2, 4: 2, 11: 1, 12: 1, 21: 3}
    arrows = {(1, 2): 1, (2, 3): 1, (3, 4): 1,
              (12, 2): 1, (11, 1): 1, (4, 12): 1, (2, 11): 1,
              (3, 21): 1, (21, 1): 1}
    return Quiver(verts, arrows)


def test_classify_config_initial_figures():
    q = _initial_config_quiver()
    assert classify_config(q, 1, 1) is ConfigLabel.ALPHA2
    assert classify_config(q, 1, 3) is ConfigLabel.ALPHA1


def _general_config_quiver() -> Quiver:
    verts = {0: 2, 1: 2, 2: 2, 3: 2, 4: 2, 11: 1, 12: 1, 21: 3}
    arrows = {(1, 0): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1,
              (12, 2): 1, (11, 1): 1, (2, 11): 1, (3, 12): 1, (0, 11): 1,
              (4, 21): 1, (21, 1): 1}
    return Quiver(verts, arrows)


def test_classify_config_general_figures():
    q = _general_config_quiver()
    assert classify_config(q, 1, 1) is ConfigLabel.BETA4
    assert classify_config(q, 1, 3) is ConfigLabel.BETA1


def test_classify_config_bare_first_vertex():
    q = Quiver({1: 1, 2: 1, 9: 2}, {(1, 2): 1})
    assert classify_config(q, 1, 2) is ConfigLabel.ALPHA0


def test_classify_config_rejects_outgoing_ordinary_arrow():
    q = Quiver({1: 1, 2: 1, 9: 2}, {(1, 2): 1, (1, 9): 1})
    with pytest.raises(Unclassifiable):
        classify_config(q, 1, 2)


def test_labels_raise_for_the_first_color_that_does_not_classify():
    # vertex 1 of color 2 has two in-arrows from color 1 and, first in its
    # row, an out-arrow toward color 3: the error names the first failing
    # color of the order given, not the first offending entry of the row
    q = Quiver({1: 2, 2: 1, 3: 1, 4: 3, 5: 2}, {(1, 4): 1, (2, 1): 1, (3, 1): 1, (1, 5): 1})
    assert list(q.b[1]) == [4, 2, 3, 5]
    cases = [((1, 3), r"several incoming ordinary arrows \[2, 3\]"),
             ((3, 1), r"an outgoing ordinary arrow toward \[4\]")]
    for colors, text in cases:
        with pytest.raises(Unclassifiable, match=rf"^vertex 1 has {text}$"):
            classify_configs(q, 1, colors, q.vertices, [1, 5], q.split(1))


# -- DOT ----------------------------------------------------------------------


def test_dot_output_shape():
    g = build_gamma(A4_WORD)
    q = Quiver(g.vertices, g.arrows, frozen={1})
    dot = to_dot(q)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")
    node_lines = [l for l in dot.splitlines() if "label=" in l]
    assert len(node_lines) == len(q.vertices)
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(edge_lines) == sum(q.arrows.values())
    assert "shape=box" in dot  # the frozen vertex
