import random
from fractions import Fraction

import pytest
from oracles import bicolor
from oracles import classify_config as frozen_config
from oracles import classify_sawteeth as frozen_sawteeth

from richseed import golden
from richseed.deltavec import (
    DeltaVector,
    decode_offset,
    delta_tilde_from_combo,
    delta_vectors,
)
from richseed.errors import FrozenVertex, InvariantViolation, StructuralFailure, Unclassifiable
from richseed.mutalg import (
    MutationRecord,
    check_induction,
    cut_view,
    framed_quiver,
    green_report,
    index_set_A,
    initial_state,
    mutate_delta,
    run,
    schedule_tilde,
    step_hat,
    verify_equivalence,
)
from richseed.quiver import Quiver, SawTeethReport, build_gamma, classify_config, classify_sawteeth
from richseed.rootsys import (
    cartan,
    element_of_word,
    identity_element,
    number_of_positive_roots,
    parse_type,
)
from richseed.words import (
    ComboNumbers,
    Word,
    all_elements,
    bruhat_le,
    left_complete,
    make_word,
    random_reduced_word,
    reduced_words,
    rightmost_subword,
)

A5 = cartan("A", 5)
WORD = make_word(A5, list(golden.A5_WORD))
V = element_of_word(A5, list(reversed(golden.A5_V_WORD)))
VDOT = make_word(A5, list(golden.A5_VDOT))


@pytest.fixture(scope="module")
def a5_seed():
    return run(A5, WORD, V, completion=VDOT)


def test_schedule_tilde_appendix():
    emb = rightmost_subword(V, WORD)
    assert schedule_tilde(WORD, emb) == [[1, 3, 8], [2], [4, 9], [], [7], [3]]


def test_schedule_tilde_identity_subword():
    emb = rightmost_subword(identity_element(A5), WORD)
    assert schedule_tilde(WORD, emb) == []


def test_schedule_with_zero_beta_starts_at_line_minimum():
    rng = random.Random(53)
    c = cartan("A", 3)
    seen = 0
    for _ in range(30):
        w = Word(c, random_reduced_word(c, rng.randint(2, 6), rng))
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
        v = element_of_word(c, [w.color(p) for p in pos])
        if v.length == 0:
            continue
        emb = rightmost_subword(v, w)
        from richseed.words import combo_numbers

        combo = combo_numbers(w, emb)
        batches = schedule_tilde(w, emb)
        for m, batch in enumerate(batches, start=1):
            if combo.beta(m) == 0 and batch:
                assert batch[0] == w.k_min(w.color(emb.positions[m - 1]))
                seen += 1
    assert seen > 0


def test_first_batch_exchange_values():
    state = initial_state(A5, WORD, V, completion=VDOT)
    chosen, acc_in, acc_out, branch = mutate_delta(state, 1)
    # one candidate is the valid f_11, the other is f_2 - f_1
    assert chosen.support() == (11,)
    assert branch == "out"
    invalid = decode_offset(acc_in if branch == "out" else acc_out, len(state.reference))
    assert invalid[0] == -1 and invalid[1] == 1


def test_step_hat_batches_match_appedix(a5_seed):
    assert [list(b) for b in a5_seed.schedule] == [[1, 3, 8], [2], [4, 9], [], [7], [3]]


def test_step_hat_tables(a5_seed):
    state = initial_state(A5, WORD, V, completion=VDOT)
    for k, want in golden.A5_DELTAS[0].items():
        assert state.deltas[k].support() == want
    for m in range(1, 7):
        state = step_hat(state)
        if m in golden.A5_DELTAS:
            for k, want in golden.A5_DELTAS[m].items():
                assert state.deltas[k].support() == want
    # the vector-driven index sets of the worked example
    assert state.batches[0] == [1, 3, 8]
    assert state.batches[3] == []
    assert state.batches[5] == [3]


def test_run_full_a5(a5_seed):
    assert sorted(a5_seed.deleted) == list(golden.A5_DELETED)
    assert sorted(a5_seed.summands) == list(golden.A5_SURVIVORS)
    assert sorted(a5_seed.frozen) == list(golden.A5_FROZEN)
    assert a5_seed.frozen is a5_seed.quiver.frozen
    assert a5_seed.quiver.vertices == {k: WORD.color(k) for k in golden.A5_SURVIVORS}
    assert a5_seed.size == 13 - 6
    assert set(a5_seed.quiver.arrows) == golden.A5_FINAL_ARROWS
    for k, d in a5_seed.summands.items():
        assert not any(d.truncated(6))
    # vertex 2 is isolated in the final quiver and frozen
    assert not a5_seed.quiver.neighbors(2)
    assert 2 in a5_seed.frozen


def test_run_is_deterministic():
    one = run(A5, WORD, V, completion=VDOT)
    two = run(A5, WORD, V, completion=VDOT)
    assert [r.to_json() for r in one.trace] == [r.to_json() for r in two.trace]
    assert one.quiver == two.quiver and one.frozen == two.frozen


def test_run_with_default_completion_has_same_shape():
    seed = run(A5, WORD, V)
    assert sorted(seed.deleted) == list(golden.A5_DELETED)
    assert sorted(seed.frozen) == list(golden.A5_FROZEN)
    assert [list(b) for b in seed.schedule] == [[1, 3, 8], [2], [4, 9], [], [7], [3]]


def test_run_outcome_is_completion_independent():
    """Several completions of the same subword: the schedule, the quiver,
    the deleted/frozen sets and the truncations never change (only
    coordinates beyond l(v) may)."""
    from richseed.rootsys import longest_element, simple_reflection
    from richseed.words import reduced_words

    emb = rightmost_subword(V, WORD)
    vbar = emb.subword()
    u = longest_element(A5) * vbar.element.inverse()
    rng = random.Random(79)
    tails = reduced_words(u)
    rng.shuffle(tails)
    baselines = None
    for tail in tails[:4] + [None]:
        if tail is None:
            seed = run(A5, WORD, V)
        else:
            seed = run(A5, WORD, V, completion=Word(A5, vbar.letters + tail))
        outcome = (
            [list(b) for b in seed.schedule],
            sorted(seed.deleted),
            sorted(seed.frozen),
            set(seed.quiver.arrows),
            {k: d.truncated(6) for k, d in seed.summands.items()},
        )
        if baselines is None:
            baselines = outcome
        else:
            assert outcome == baselines


def test_run_identity_v():
    c = cartan("A", 3)
    w = make_word(c, [2, 1, 2, 3, 2, 1])
    seed = run(c, w, identity_element(c))
    assert seed.size == 6
    assert not seed.deleted
    assert seed.schedule == []
    # original quiver survives up to coefficient-coefficient arrows
    gamma = build_gamma(w)
    mutable = {k for k in seed.quiver.vertices if k not in seed.frozen}
    for (s, t), m in gamma.arrows.items():
        if s in mutable or t in mutable:
            assert seed.quiver.mult(s, t) == m
    # line tails are the frozen coefficients
    assert seed.frozen == {w.k_max(i) for i in w.colors_used()}


def test_run_v_equals_w():
    # every summand is deleted; the survivor condition is vacuous
    c = cartan("A", 2)
    w = make_word(c, [1, 2, 1])
    seed = run(c, w, w.element)
    assert seed.size == 0
    assert seed.deleted == {1, 2, 3}
    assert not seed.summands and not seed.frozen


def test_run_v_equals_w_a3():
    c = cartan("A", 3)
    w = make_word(c, [2, 1, 2, 3, 2, 1])
    seed = run(c, w, w.element)
    assert seed.size == 0 and len(seed.deleted) == 6


def test_run_refuses_an_element_of_another_type():
    a2, a3 = cartan("A", 2), cartan("A", 3)
    with pytest.raises(ValueError, match="different types"):
        run(a3, Word(a3, (1, 2, 3)), element_of_word(a2, [1]))


def test_run_refuses_cartan_data_of_another_type_than_the_word():
    a2, a3 = cartan("A", 2), cartan("A", 3)
    word = Word(a3, (1, 2, 3))
    for c in (a2, cartan("D", 4)):
        with pytest.raises(ValueError, match="different types"):
            run(c, word, element_of_word(a3, [2]))


@pytest.mark.parametrize("spec,other", [("E6", "A8"), ("E8", "A15")])
def test_run_refuses_a_completion_of_another_type(spec, other):
    # both types have the same number of positive roots, and the completion
    # begins with the subword for v, so only its type is wrong
    c, d = parse_type(spec), parse_type(other)
    word = Word(c, (1, 2, 3))
    completion = left_complete(Word(d, (1,)))
    assert len(completion) == number_of_positive_roots(c)
    with pytest.raises(ValueError, match="^completion and word of different types$"):
        run(c, word, element_of_word(c, [1]), completion=completion)
    wdot = left_complete(word)
    for module_word, target in ((wdot, completion), (completion, wdot)):
        with pytest.raises(ValueError, match="^words of different types$"):
            delta_vectors(module_word, target, range(1, 4))


def test_cut_view_initial_eviction(a5_seed):
    state = initial_state(A5, WORD, V, completion=VDOT)
    view = cut_view(state)
    assert view.evicted == {5}
    assert not view.deleted
    assert view.members == set(range(1, 14)) - {5}


def test_cut_view_final_is_empty():
    state = initial_state(A5, WORD, V, completion=VDOT)
    for _ in range(6):
        state = step_hat(state)
    view = cut_view(state)
    assert not view.members
    assert view.deleted == set(golden.A5_DELETED)


def test_cut_view_identity_v():
    # with nothing to clear, every summand is already inside and the cut
    # seed is empty from the start; nothing is deleted
    c = cartan("A", 3)
    w = make_word(c, [2, 1, 2, 3, 2, 1])
    state = initial_state(c, w, identity_element(c))
    view = cut_view(state)
    assert view.evicted == set(range(1, 7))
    assert not view.members and not view.deleted


def test_verify_equivalence_appendix():
    emb = rightmost_subword(V, WORD)
    ok, report = verify_equivalence(WORD, emb)
    assert ok and report == []


def test_verify_equivalence_identity():
    emb = rightmost_subword(identity_element(A5), WORD)
    ok, report = verify_equivalence(WORD, emb)
    assert ok and report == []


def test_green_report_trivial_and_a5(a5_seed):
    # every vertex of the framed initial quiver is green
    assert all(green_report(WORD, [k])[0]["green"] for k in range(1, 14))
    labels = green_report(WORD, [r.vertex for r in a5_seed.trace])
    assert [l["green"] for l in labels] == [True] * len(a5_seed.trace)


def test_green_report_lists_the_arrows_that_appear_and_vanish():
    # against the set difference of the arrow views of the unframed
    # initial quiver stepped by Quiver.mutate; one rng per example, seeded
    # 0, 1, 2, ..., since a seed drawn by hypothesis repeats
    for seed in range(60):
        rng = random.Random(seed)
        c = parse_type(rng.choice(["A4", "D4", "D5", "E6"]))
        w = Word(c, random_reduced_word(c, rng.randint(2, number_of_positive_roots(c)), rng))
        ks = [rng.randint(1, len(w)) for _ in range(rng.randint(1, 12))]
        q = build_gamma(w)
        for k, rec in zip(ks, green_report(w, ks), strict=True):
            new = q.mutate(k)
            assert rec["arrows_added"] == sorted(set(new.arrows) - set(q.arrows)), seed
            assert rec["arrows_removed"] == sorted(set(q.arrows) - set(new.arrows)), seed
            q = new


def test_green_report_pins_a_replay_whose_multiplicity_grows_and_shrinks():
    w = Word(cartan("D", 4), (2, 4, 3, 1, 2))
    # mutation 3 takes 5 -> 1 from 1 to 2 arrows and mutation 4 back to 1:
    # changed, so in neither list; mutation 4 is red
    assert green_report(w, [4, 2, 3, 2]) == [
        {"n": 1, "vertex": 4, "green": True,
         "arrows_added": [(1, 4), (4, 5)], "arrows_removed": [(1, 5), (4, 1), (5, 4)]},
        {"n": 2, "vertex": 2, "green": True,
         "arrows_added": [(1, 2), (2, 5), (5, 1)], "arrows_removed": [(2, 1), (5, 2)]},
        {"n": 3, "vertex": 3, "green": True,
         "arrows_added": [(1, 3), (3, 5)], "arrows_removed": [(3, 1), (5, 3)]},
        {"n": 4, "vertex": 2, "green": False,
         "arrows_added": [(2, 1), (5, 2)], "arrows_removed": [(1, 2), (2, 5)]},
    ]
    q = build_gamma(w)
    for k in (4, 2, 3):
        q = q.mutate(k)
    assert q.arrows[(5, 1)] == 2 and q.mutate(2).arrows[(5, 1)] == 1


def test_c_vectors_of_the_green_replay_are_sign_coherent(monkeypatch):
    # before each mutation at k on green_report's framed quiver, row k's
    # frame entries, its c-vector, are nonzero and all of one sign, and no
    # entry joins two frames (Derksen-Weyman-Zelevinsky, JAMS 2010): so the
    # frames never need entries between themselves
    specs = ("A4", "D4", "D5", "E6", "E7", "E8")
    seeds = [run(c, w, v, check=False) for c, w, v in _sampled_pairs(specs, 25, 41)]
    seeds += [run(c, w, v, check=False) for spec in specs for c, w, v in _w0_pairs(spec, 43)]
    mutate_in_place, checked = Quiver.mutate_in_place, []

    def coherent_then_mutate(fq, k):
        signs = {x > 0 for j, x in fq.b[k].items() if j < 0}
        assert len(signs) == 1, (k, fq.b[k])
        assert not [(i, j) for i, row in fq.b.items() if i < 0 for j in row if j < 0], k
        checked.append(k)
        mutate_in_place(fq, k)

    monkeypatch.setattr(Quiver, "mutate_in_place", coherent_then_mutate)
    for seed in seeds:
        green_report(seed.word, [rec.vertex for rec in seed.trace])
    assert len(checked) == sum(len(seed.trace) for seed in seeds) > 2500
    # the frames are frozen: the replay refuses to mutate one
    monkeypatch.undo()
    with pytest.raises(FrozenVertex, match="vertex -1 is frozen"):
        green_report(seeds[0].word, [-1])


@pytest.mark.parametrize("k", [0, 9])
def test_green_report_refuses_an_unknown_vertex_as_the_rule_does(k):
    w = Word(cartan("A", 3), (1, 2, 1))
    with pytest.raises(KeyError, match=f"no vertex {k}"):
        green_report(w, [k])


def test_corrupted_state_raises_invariant_violation():
    state = initial_state(A5, WORD, V, completion=VDOT)
    # sabotage one vector: the next batch must notice a broken exchange
    coords = list(state.deltas[3].coords)
    coords[0] += 1
    state.deltas[3] = DeltaVector(state.reference, tuple(coords))
    with pytest.raises(InvariantViolation):
        step_hat(state)


def test_step_hat_changes_its_state_and_clone_keeps_a_copy():
    state = initial_state(A5, WORD, V, completion=VDOT)
    state = step_hat(state)
    kept = state.clone()
    quiver, deltas, trace = kept.quiver.copy(), dict(kept.deltas), list(kept.trace)
    assert step_hat(state) is state and state.step == 2
    assert (kept.step, kept.quiver, kept.deltas, kept.trace) == (1, quiver, deltas, trace)
    # the copy runs on by itself to the same seed
    assert step_hat(kept).quiver == state.quiver and kept.trace == state.trace


def test_mid_run_member_coordinates_vanish(a5_seed):
    state = initial_state(A5, WORD, V, completion=VDOT)
    for m in range(1, 7):
        state = step_hat(state)
        view = cut_view(state)
        for k in view.members:
            assert not any(state.deltas[k].coords[: m])


def test_checked_runs_on_random_pairs():
    rng = random.Random(59)
    for spec in ("A3", "D4"):
        c = cartan(spec[0], int(spec[1]))
        done = 0
        while done < 15:
            w = Word(c, random_reduced_word(c, rng.randint(2, 10), rng))
            if len(w) < 2:
                continue
            pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
            v = element_of_word(c, [w.color(p) for p in pos])
            run(c, w, v, check=True)
            done += 1


def test_exhaustive_a2_runs():
    c = cartan("A", 2)
    for el in all_elements(c):
        if el.length == 0:
            continue
        for rw in reduced_words(el):
            w = Word(c, rw)
            for v_el in all_elements(c):
                if not bruhat_le(v_el, w):
                    continue
                seed = run(c, w, v_el, check=True)
                assert seed.size == len(w) - v_el.length


def test_index_set_respects_bound():
    state = initial_state(A5, WORD, V, completion=VDOT)
    # vertex 11 has a nonzero first coordinate but exceeds the bound 8
    assert state.deltas[11].coords[0] == 1
    assert index_set_A(state, 1) == [1, 3, 8]


def test_eviction_matches_first_letter_distance():
    """A non-deleted summand has vanished leading coordinates exactly when
    its alpha-step successor falls short of the next matching subword
    letter."""
    rng = random.Random(67)
    c = cartan("A", 4)
    checked = 0
    done = 0
    while done < 20:
        w = Word(c, random_reduced_word(c, rng.randint(3, 10), rng))
        if len(w) < 3:
            continue
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
        v = element_of_word(c, [w.color(p) for p in pos])
        if v.length == 0:
            continue
        state = initial_state(c, w, v, check=False)
        for m in range(state.lv + 1):
            if m > 0:
                state = step_hat(state)
            view = cut_view(state)
            for k in range(1, state.lw + 1):
                if k in view.deleted:
                    continue
                a = state.combo.alpha(k, m)
                evicted = not any(state.deltas[k].truncated(state.lv))
                assert evicted == (w.succ_iter(k, a) < state.combo.xi(k, m))
                checked += 1
        done += 1
    assert checked > 200


def test_nested_truncation_supports_along_a_line():
    from richseed.deltavec import initial_delta_tilde

    rng = random.Random(71)
    c = cartan("D", 4)
    for _ in range(15):
        w = Word(c, random_reduced_word(c, rng.randint(3, 12), rng))
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, len(w))))
        v = element_of_word(c, [w.color(p) for p in pos])
        if v.length == 0:
            continue
        emb = rightmost_subword(v, w)
        for k in range(1, len(w) + 1):
            kp = w.succ(k)
            if kp > len(w):
                continue
            below = initial_delta_tilde(w, emb, k)
            above = initial_delta_tilde(w, emb, kp)
            assert all(a <= b for a, b in zip(below, above))


def test_run_on_long_d6_word():
    c = cartan("D", 6)
    w = make_word(c, [5, 3, 4, 2, 3, 6, 4, 2, 1, 5, 2, 3, 2, 4, 3, 6, 4, 5, 3, 4, 1, 3])
    v = element_of_word(c, list(reversed([4, 1, 2, 3, 2, 4, 3, 6, 4, 5, 4, 3])))
    seed = run(c, w, v, check=True)
    assert seed.size == 22 - 12
    assert all(l["green"] for l in green_report(w, [rec.vertex for rec in seed.trace]))


def test_run_e6_smoke():
    c = cartan("E", 6)
    rng = random.Random(73)
    w = Word(c, random_reduced_word(c, 14, rng))
    pos = sorted(rng.sample(range(1, len(w) + 1), 5))
    v = element_of_word(c, [w.color(p) for p in pos])
    seed = run(c, w, v, check=True)
    assert seed.size == len(w) - v.length


def test_teeth_shift_checker_exercised():
    # eviction-free passes occur in the corpus, so the shift comparison
    # actually runs and not merely short-circuits
    rng = random.Random(61)
    c = cartan("A", 4)
    fired = 0
    done = 0
    while done < 40:
        w = Word(c, random_reduced_word(c, rng.randint(4, 10), rng))
        if len(w) < 4:
            continue
        pos = sorted(rng.sample(range(1, len(w) + 1), rng.randint(1, max(1, len(w) // 2))))
        v = element_of_word(c, [w.color(p) for p in pos])
        if v.length == 0:
            continue
        seed = run(c, w, v, check=True)
        fired += seed.stats.get("teeth_shift_checks", 0)
        done += 1
    assert fired > 0


def _full_length_pairs(spec, count, seed):
    """Full-length reduced words w and v spelled by a random subset of
    w's letters, as `richseed verify` samples v."""
    c = parse_type(spec)
    r = number_of_positive_roots(c)
    rng = random.Random(seed)
    for _ in range(count):
        w = Word(c, random_reduced_word(c, r, rng))
        pos = sorted(rng.sample(range(1, r + 1), rng.randint(10, 40)))
        yield c, w, element_of_word(c, [w.color(p) for p in pos])


@pytest.mark.parametrize("spec", ["E7", "E8"])
def test_checked_runs_full_length_e7_e8(spec):
    for c, w, v in _full_length_pairs(spec, 3, 7):
        seed = run(c, w, v, check=True)
        assert seed.size == len(w) - v.length
        assert all(l["green"] for l in green_report(w, [rec.vertex for rec in seed.trace]))


@pytest.mark.parametrize("spec", ["E7", "E8"])
def test_delta_oracle_full_length_e7_e8(spec):
    # closed combinatorial form of the leading coordinates against the
    # weight walk, for every summand
    for c, w, v in _full_length_pairs(spec, 3, 11):
        emb = rightmost_subword(v, w)
        wdot, vdot = left_complete(w), left_complete(emb.subword())
        combo = ComboNumbers(w, emb)
        ks = range(1, len(w) + 1)
        for k, d in zip(ks, delta_vectors(wdot, vdot, ks)):
            assert d.truncated(len(emb)) == delta_tilde_from_combo(combo, k)


def _w0_pairs(spec, seed):
    """Full-length words w, which are w0, and random reduced v of a
    quarter, a half and three quarters of that length."""
    c = parse_type(spec)
    r = number_of_positive_roots(c)
    rng = random.Random(seed)
    for lv in (r // 4, r // 2, 3 * r // 4):
        w = Word(c, random_reduced_word(c, r, rng))
        yield c, w, element_of_word(c, random_reduced_word(c, lv, rng))


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_reverse_replay_recovers_the_initial_seed(spec):
    for c, w, v in _w0_pairs(spec, 17):
        state = initial_state(c, w, v, check=True)
        initial = {k: d.coords for k, d in state.deltas.items()}
        # a copy of the initial quiver mutated on its own, batch by batch,
        # against the run's quiver; and a framed one, which the undo reads
        plain, fq, diffs = build_gamma(w), framed_quiver(build_gamma(w)), []
        for _ in range(state.lv):
            done = len(state.trace)
            state = step_hat(state)
            for rec in state.trace[done:]:
                new = plain.mutate(rec.vertex)
                diffs.append((sorted(set(new.arrows) - set(plain.arrows)),
                              sorted(set(plain.arrows) - set(new.arrows))))
                plain = new
                fq.mutate_in_place(rec.vertex)
            assert state.quiver == plain
        assert fq.restricted(state.deltas.keys()) == state.quiver
        replay = green_report(w, [rec.vertex for rec in state.trace])
        assert [(r["arrows_added"], r["arrows_removed"]) for r in replay] == diffs

        # mutation is an involution: undo the trace from its end, on the
        # framed quiver, whose frames must come back to the identity; the
        # undone exchange takes the arrows on the side the run chose
        coords = {k: d.coords for k, d in state.deltas.items()}
        for rec in reversed(state.trace):
            k = rec.vertex
            assert coords[k] == rec.after
            fq.mutate_in_place(k)
            sign = -1 if rec.chosen == "in" else 1  # the side's sign in row k
            total = [-a for a in coords[k]]
            for s, x in fq.b[k].items():
                m = sign * x
                if m > 0 and s > 0:
                    total = [a + m * b for a, b in zip(total, coords[s])]
            coords[k] = tuple(total)
            assert coords[k] == rec.before
        assert fq == framed_quiver(build_gamma(w))
        assert coords == initial


def _tuple_exchange(coords, row, k):
    """The exchange at k on coordinate tuples, as it was computed before the
    vectors were packed: minus the vector at k plus m times the vector at s
    per other end s of the m arrows into k ("in") or out of k ("out")."""
    sides = {}
    for name, sign in (("in", -1), ("out", 1)):
        acc = [-a for a in coords[k]]
        for s, e in row.items():
            if sign * e > 0:
                acc = [a + sign * e * x for a, x in zip(acc, coords[s])]
        sides[name] = tuple(acc)
    return sides


def _oracle_pairs(spec):
    if spec != "E8":
        yield from _w0_pairs(spec, 17)
        return
    # one pair the size of the benchmark's long-v E8 runs
    c, rng = parse_type("E8"), random.Random(23)
    w = Word(c, random_reduced_word(c, 120, rng))
    yield c, w, element_of_word(c, random_reduced_word(c, 95, rng))


@pytest.mark.parametrize("spec", ["A4", "D5", "E6", "E8"])
def test_packed_exchange_agrees_with_the_tuple_formula(spec):
    # every checked mutation replayed on tuples and a copy of the quiver:
    # both candidates, the branch (the one nonnegative candidate) and the
    # decoded vectors before and after
    negative = 0
    for c, w, v in _oracle_pairs(spec):
        state = initial_state(c, w, v, check=True)
        coords = {k: d.coords for k, d in state.deltas.items()}
        q = state.quiver.copy()
        for _ in range(state.lv):
            done = len(state.trace)
            state = step_hat(state)
            for rec in state.trace[done:]:
                k = rec.vertex
                cands = _tuple_exchange(coords, q.b[k], k)
                assert (rec.candidate_in, rec.candidate_out) == (cands["in"], cands["out"])
                valid = [name for name, t in cands.items() if all(a >= 0 for a in t)]
                assert valid == [rec.chosen] or cands["in"] == cands["out"] == rec.after
                negative += min(cands["in"] + cands["out"]) < 0
                assert rec.before == coords[k]
                coords[k] = cands[rec.chosen]
                assert rec.after == coords[k]
                q.mutate_in_place(k)
            assert coords == {k: d.coords for k, d in state.deltas.items()}
    assert negative > 0


def _planted_exchange(mult, high, side="out"):
    """The A5 golden initial state with every vector 0 except at a vertex k,
    which holds e_1, and at a neighbour s, which holds e_1 + high * e_2
    behind mult arrows k -> s (side "out") or s -> k (side "in").  The
    candidate of that side, the valid one, is (mult - 1) e_1 + mult * high
    * e_2; the other is -e_1."""
    state = initial_state(A5, WORD, V, completion=VDOT, check=False)
    k, s = next((k, s) for k, row in state.quiver.b.items() for s, e in row.items() if e > 0)

    def vec(*lead):
        return DeltaVector(state.reference, lead + (0,) * (len(state.reference) - len(lead)))

    state.deltas = {j: vec() for j in state.deltas}
    state.deltas[k], state.deltas[s] = vec(1), vec(1, high)
    state.quiver._set(k, s, mult if side == "out" else -mult)
    return state, k


@pytest.mark.parametrize("side", ["in", "out"])
def test_a_record_decodes_the_candidate_of_either_branch(side):
    # the runs of the tests above choose "out" only; a record keeps the
    # rejected candidate and reads the chosen one off the vector after
    state, k = _planted_exchange(2, 3, side)
    chosen, acc_in, acc_out, branch = mutate_delta(state, k)
    rejected = acc_out if branch == "in" else acc_in
    n = len(state.reference)
    rec = MutationRecord(1, k, branch, False, (rejected, state.deltas[k].bits, chosen.bits), n)
    valid, invalid = (1, 6) + (0,) * (n - 2), (-1,) + (0,) * (n - 1)
    assert branch == side and rec.after == chosen.coords == valid
    assert (rec.candidate_in, rec.candidate_out) == (decode_offset(acc_in, n), decode_offset(acc_out, n))
    assert {rec.candidate_in, rec.candidate_out} == {valid, invalid}


def test_a_stored_coordinate_at_the_packed_bound_is_refused():
    state, k = _planted_exchange(2, 127)
    chosen, _, _, branch = mutate_delta(state, k)
    assert branch == "out" and chosen.coords[:3] == (1, 254, 0)
    state, k = _planted_exchange(2, 128)  # 256 in coordinate 2
    with pytest.raises(InvariantViolation, match=r"leaves \[0, 256\)"):
        mutate_delta(state, k)


def test_a_side_past_the_multiplicity_bound_is_refused():
    state, k = _planted_exchange(127, 0)
    chosen, _, _, branch = mutate_delta(state, k)
    assert branch == "out" and chosen.coords[:2] == (126, 0)
    state, k = _planted_exchange(128, 0)  # 128 arrows out of k
    with pytest.raises(InvariantViolation, match="128 arrows on one side"):
        mutate_delta(state, k)


def _rank(rows):
    """Rank over Q of a list of integer rows, by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _extended_exchange_matrix(seed):
    """B~ of a final seed: one row per survivor, one column per mutable survivor."""
    q = seed.quiver
    ids = sorted(q.vertices)
    cols = [j for j in ids if j not in q.frozen]
    return [[q.mult(i, j) - q.mult(j, i) for j in cols] for i in ids]


def _sampled_pairs(specs, draws, seed):
    """w of length 2..12 and v spelled by a random subset of w's letters,
    as `richseed verify` samples them."""
    rng = random.Random(seed)
    for spec in specs:
        c = parse_type(spec)
        for _ in range(draws):
            n = rng.randint(2, min(12, number_of_positive_roots(c)))
            w = Word(c, random_reduced_word(c, n, rng))
            pos = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            yield c, w, element_of_word(c, [w.color(p) for p in pos])


def test_final_exchange_matrix_has_full_column_rank(a5_seed):
    # mutation preserves the rank of B~ (Berenstein-Fomin-Zelevinsky,
    # Cluster algebras III, Lemma 3.2), and the initial seed's B~ has full
    # rank, so every final B~ must too; a run whose mutable columns
    # became dependent would fail here, as the planted copy shows
    seeds = [a5_seed]
    for spec in ("A4", "D5", "E6"):
        seeds += [run(c, w, v, check=False) for c, w, v in _w0_pairs(spec, 17)]
    sampled = ("A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8")
    seeds += [run(c, w, v, check=False) for c, w, v in _sampled_pairs(sampled, 40, 2024)]
    checked = planted = 0
    for seed in seeds:
        b = _extended_exchange_matrix(seed)
        n = len(b[0]) if b else 0
        if not n:
            continue
        assert _rank(b) == n, (seed.word.display, seed.embedding.positions)
        checked += 1
        if n >= 2:
            copied = [row[:1] + row[:1] + row[2:] for row in b]
            assert _rank(copied) == n - 1
            planted += 1
    assert checked >= 100 and planted


def test_checks_only_observe_the_run():
    # a checked and an unchecked run reach the same seed by the same
    # mutations; only the checked records carry configuration labels
    cases = [(A5, WORD, V, VDOT)]
    for spec in ("A4", "D5", "E6"):
        cases += [(c, w, v, None) for c, w, v in _w0_pairs(spec, 17)]
    sampled = ("A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8")
    cases += [(c, w, v, None) for c, w, v in _sampled_pairs(sampled, 8, 31)]
    fields = ("step", "vertex", "chosen", "evicted", "packed", "length")

    def rows(trace):
        return [tuple(getattr(rec, f) for f in fields) for rec in trace]

    labelled = 0
    for c, w, v, vdot in cases:
        checked, plain = (run(c, w, v, completion=vdot, check=ch) for ch in (True, False))
        for name in ("summands", "quiver", "frozen", "deleted", "schedule"):
            assert getattr(checked, name) == getattr(plain, name), name
        assert rows(checked.trace) == rows(plain.trace)
        assert not any(rec.configs for rec in plain.trace)
        labelled += sum(bool(rec.configs) for rec in checked.trace)
    assert labelled


def test_records_are_equal_by_value():
    first, again = (run(A5, WORD, V, completion=VDOT) for _ in range(2))
    assert first.trace == again.trace and first.trace[0] is not again.trace[0]
    rec = first.trace[0]
    fields = (rec.step, rec.vertex, rec.chosen, rec.evicted, rec.packed, rec.length)
    twin = MutationRecord(*fields, dict(rec.configs))
    assert twin.after == rec.after and twin == rec
    assert MutationRecord(*fields) == MutationRecord(*fields, {})
    assert MutationRecord(*fields) != MutationRecord(*fields, {1: "initial"})
    assert MutationRecord(rec.step + 1, *fields[1:]) != MutationRecord(*fields)


def test_records_share_no_default_and_are_unhashable():
    fields = (1, 2, "in", False, (0, 0, 0), 3)
    one, two = MutationRecord(*fields), MutationRecord(*fields)
    try:  # the default labels may refuse the write, but must not pass it on
        one.configs[1] = "alpha0"
    except TypeError:
        pass
    assert two.configs == {} and MutationRecord(*fields).configs == {}
    for rec in (two, MutationRecord(*fields, {1: "alpha0"})):
        with pytest.raises(TypeError):
            hash(rec)


def _agreement_pairs(spec):
    """The pairs of _w0_pairs, or only the last one for E7: a full-length
    word of 63 letters and a v of 47."""
    pairs = list(_w0_pairs(spec, 17))
    return pairs[-1:] if spec == "E7" else pairs


@pytest.mark.parametrize("spec", ["A4", "D5", "E6", "E7"])
def test_checks_agree_with_restricted_copies(spec):
    # the checks read the quiver through the cut's members; build the cut
    # quiver as a copy, as the checks once did, and compare with the
    # frozen classifiers of tests/oracles.py
    for c, w, v in _agreement_pairs(spec):
        state = initial_state(c, w, v, check=True)
        for m in range(state.lv + 1):
            view = state.cut
            assert view.members == cut_view(state).members
            cut = state.quiver.restricted(view.members)
            cols = cut.colors()
            pairs = {(a, b) for a in cols for b in cols if a != b and c.adjacent(a, b)}
            assert pairs <= view.reports.keys()
            for (c1, c2), rep in view.reports.items():
                assert rep == frozen_sawteeth(bicolor(cut, c1, c2), c1, c2)
            if m == state.lv:
                break

            # replay the batch on a copy: every recorded label is the one
            # of the cut quiver just before its mutation
            members, fq, done = set(view.members), state.quiver.copy(), len(state.trace)
            state = step_hat(state)
            for rec in state.trace[done:]:
                k = rec.vertex
                cut = fq.restricted(members)
                colors = [oc for oc in c.neighbors(w.color(k)) if oc in cut.colors()]
                assert rec.configs == {oc: frozen_config(cut, k, oc) for oc in colors}
                for oc in colors:
                    assert classify_config(cut, k, oc) is frozen_config(cut, k, oc)
                fq.mutate_in_place(k)
                if k not in view.deleted:
                    (members.discard if rec.evicted else members.add)(k)


def _quiet_members(state):
    """Members of the cut after the next batch that the batch leaves
    alone: none is mutated or next to a vertex while that one mutates,
    so an arrow between two of them reaches the end-of-batch checks as
    it is."""
    ahead = step_hat(state.clone())
    fq, touched = state.quiver.copy(), set()
    for k in ahead.batches[-1]:
        touched |= fq.neighbors(k) | {k}
        fq.mutate_in_place(k)
    return sorted(cut_view(ahead).members - touched)


def _stray_pair(state, quiet):
    word = state.word
    for s in quiet:
        for t in quiet:
            cs, ct = word.color(s), word.color(t)
            if cs != ct and not word.cartan.adjacent(cs, ct):
                return s, t
    return None


def _stray_arrow(state, quiet):
    pair = _stray_pair(state, quiet)
    return pair and (lambda fq: fq._add(pair[0], pair[1], 1))


def _reversed_stray_arrow(state, quiet):
    # the journal keeps an entry once, as (smaller id, larger id): one of
    # the two stray arrows is journalled as a negative entry
    pair = _stray_pair(state, quiet)
    return pair and (lambda fq: fq._add(pair[1], pair[0], 1))


def _deleted_line_arrow(state, quiet):
    for k in quiet:
        kp = state.word.succ(k)
        if kp in quiet and state.quiver.has_arrow(k, kp):
            return lambda fq: fq._set(k, kp, 0)
    return None


def _double_cross_arrow(state, quiet):
    word = state.word
    for (s, t), mult in sorted(state.quiver.arrows.items()):
        if s in quiet and t in quiet and word.color(s) != word.color(t) and mult == 1:
            return lambda fq: fq._set(s, t, 2)
    return None


def test_faults_injected_between_batches_are_caught():
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = initial_state(c, w, v, check=True)
    caught = dict.fromkeys(
        (_stray_arrow, _reversed_stray_arrow, _deleted_line_arrow, _double_cross_arrow), 0
    )
    for _ in range(state.lv):
        quiet = _quiet_members(state)
        for fault in caught:
            inject = fault(state, quiet)
            if inject is None:
                continue
            broken = state.clone()
            inject(broken.quiver)
            with pytest.raises(InvariantViolation):
                step_hat(broken)
            caught[fault] += 1
        state = step_hat(state)
    assert all(caught.values()), caught



def _pairs_agree(state):
    """Classify every ordered pair of adjacent colors off the quiver's
    rows over the cut's member lines, and with the frozen classifier both
    so and on a bicolor copy over the cut's members; return the reports,
    which must be equal."""
    c, q, cut = state.word.cartan, state.quiver, state.cut
    reports = []
    for c1 in range(1, c.rank + 1):
        for c2 in c.neighbors(c1):
            rows = classify_sawteeth(q, c1, c2, cut.lines)
            copy = bicolor(q.restricted(cut.members), c1, c2)
            assert rows == frozen_sawteeth(q, c1, c2, cut.lines), (c1, c2)
            assert rows == frozen_sawteeth(copy, c1, c2), (c1, c2)
            reports.append(rows)
    return reports


@pytest.mark.parametrize("spec", ["A4", "D5", "E6", "E7"])
def test_reports_read_off_the_rows_agree_with_bicolor_copies(spec):
    # after every batch, and on the quiver of each planted fault, so that
    # violations and their texts are compared too
    faults = (_stray_arrow, _reversed_stray_arrow, _deleted_line_arrow, _double_cross_arrow)
    violations = 0
    for c, w, v in _agreement_pairs(spec):
        state = initial_state(c, w, v, check=True)
        for _ in range(state.lv):
            assert all(rep.valid for rep in _pairs_agree(state))
            quiet = _quiet_members(state)
            for inject in filter(None, (fault(state, quiet) for fault in faults)):
                broken = state.clone()
                inject(broken.quiver)
                violations += sum(not rep.valid for rep in _pairs_agree(broken))
            state = step_hat(state)
        _pairs_agree(state)
    assert violations


def _step_outcome(state):
    try:
        step_hat(state)
    except StructuralFailure as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_the_cut_from_replaced_vectors_agrees_with_a_cut_from_scratch(spec):
    # between two batches one vector is replaced: an evicted vertex gets a
    # nonzero leading coordinate, a member loses all of them, a deleted
    # vertex changes; the next batch must leave the cut that cut_view
    # finds, or fail as the same batch does with no journal, which reads
    # the cut from scratch
    tried = dict.fromkeys(("evicted", "member", "deleted"), 0)
    for c, w, v in _w0_pairs(spec, 17):
        state = initial_state(c, w, v, check=True)
        lv = state.lv
        for _ in range(lv):
            cut = state.cut
            targets = {
                "evicted": sorted(cut.evicted),
                "member": sorted(cut.members),
                "deleted": sorted(state.combo.deleted(state.step + 1)),
            }
            for kind, ks in targets.items():
                for k in {*ks[:1], *ks[-1:]}:
                    coords = list(state.deltas[k].coords)
                    if kind == "evicted":
                        coords[lv - 1] = 1
                    elif kind == "member":
                        coords[:lv] = [0] * lv
                    else:
                        coords[0] += 1
                    outcomes = []
                    for journal in (True, False):
                        broken = state.clone()
                        if not journal:
                            broken.quiver.journal = None
                        broken.deltas[k] = DeltaVector(state.reference, tuple(coords))
                        outcomes.append(_step_outcome(broken))
                        if journal and outcomes[0] is None:
                            scratch = cut_view(broken)
                            assert broken.cut.members == scratch.members
                            assert broken.cut.evicted == scratch.evicted
                    assert outcomes[0] == outcomes[1], (kind, k)
                    tried[kind] += 1
            state = step_hat(state)
    assert all(tried.values()), tried


def test_report_and_shift_counts_are_pinned():
    # the counts of the A5 golden run and of the E6 runs above as they were
    # when every check rescanned the cut: reading it from the replaced
    # vectors, and the reports from the rows, leaves them unchanged
    keys = ("reports_classified", "reports_reused", "teeth_shift_checks")
    seeds = [run(A5, WORD, V, completion=VDOT)] + [run(c, w, v) for c, w, v in _w0_pairs("E6", 17)]
    counts = [[seed.stats.get(key, 0) for key in keys] for seed in seeds]
    assert counts == [[16, 12, 0], [30, 24, 3], [58, 76, 12], [97, 148, 16]]


def test_every_saw_teeth_classification_is_counted(monkeypatch):
    # the end-of-batch checks count theirs as reports_classified; the
    # tooth shift classifies a line against a color with no members, of
    # which the checks made no report, and counts it as
    # shift_reports_classified
    from richseed import mutalg

    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return classify_sawteeth(*args)

    monkeypatch.setattr(mutalg, "classify_sawteeth", counted)
    cases = [(A5, WORD, V, VDOT)] + [(*pair, None) for pair in _w0_pairs("E6", 17)]
    cases.append((*next(_w0_pairs("E8", 17)), None))
    shifts = []
    for c, w, v, vdot in cases:
        calls.clear()
        stats = run(c, w, v, completion=vdot).stats
        shifts.append(stats.get("shift_reports_classified", 0))
        assert stats["reports_classified"] + shifts[-1] == len(calls)
    assert shifts[1:3] == [1, 1], shifts


def test_replaced_vectors_of_quiet_members_are_rechecked():
    # the support check skips a member whose vector it verified at the last
    # step, unless the member is on the batch's line; a replaced vector of
    # a member off that line must still be checked in full
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = initial_state(c, w, v, check=True)
    caught = {"coordinate m+1": 0, "support": 0}
    for _ in range(state.lv):
        m = state.step + 1  # the next batch
        line = w.color(state.embedding.positions[m - 1])
        for k in _quiet_members(state):
            if w.color(k) == line:
                continue
            coords = state.deltas[k].coords
            # a coordinate that must vanish after the batch, and one that may not
            for fault, j in (("coordinate m+1", m), ("support", state.lv)):
                broken = state.clone()
                bad = list(coords)
                bad[j - 1] += 1
                broken.deltas[k] = DeltaVector(state.reference, tuple(bad))
                if index_set_A(broken, m) != index_set_A(state, m):
                    continue  # the batch itself would change
                with pytest.raises(InvariantViolation, match=f"member {k} "):
                    step_hat(broken)
                caught[fault] += 1
        state = step_hat(state)
    assert all(caught.values()), caught


def _corrupt_one(monkeypatch, k, change):
    """Make the initial walk hand back summand k's vector with its
    coordinate list passed through ``change``."""
    from richseed import mutalg

    walk = mutalg.delta_vectors

    def corrupted(module_word, target, ks):
        out = list(walk(module_word, target, ks))
        out[k - ks.start] = DeltaVector(target, tuple(change(list(out[k - ks.start].coords))))
        return out

    monkeypatch.setattr(mutalg, "delta_vectors", corrupted)


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_a_corrupted_initial_vector_is_caught_naming_its_summand(monkeypatch, spec):
    # the checks of the initial seed are check_induction at step 0, whose
    # support check covers every summand: a member whose leading
    # coordinates are cleared leaves the cut, so a check of the members
    # alone would not see it
    rng = random.Random(89)
    caught = dict.fromkeys(("member cleared", "member raised", "non-member raised"), 0)
    for c, w, v in _w0_pairs(spec, 17):
        clean = initial_state(c, w, v, check=False)
        lv, members = clean.lv, sorted(cut_view(clean).members)
        others = sorted(clean.deltas.keys() - set(members))
        j = rng.randrange(lv)

        def cleared(coords):
            return [0] * lv + coords[lv:]

        def raised(coords):
            coords[j] += 1
            return coords

        k_member = rng.choice(members)
        faults = [("member cleared", k_member, cleared), ("member raised", k_member, raised)]
        if others:
            faults.append(("non-member raised", rng.choice(others), raised))
        for fault, k, change in faults:
            with monkeypatch.context() as mp:
                _corrupt_one(mp, k, change)
                assert initial_state(c, w, v, check=False).deltas[k] != clean.deltas[k]
                with pytest.raises(InvariantViolation, match=f"^summand {k} .* at step 0$"):
                    initial_state(c, w, v, check=True)
            caught[fault] += 1
    assert all(caught.values()), caught


def test_an_outgoing_arrow_at_a_vertex_about_to_mutate_is_unclassifiable():
    # before(k) labels k against every adjacent color from one walk of row
    # k; an arrow from k to a member of such a color fits no configuration
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = initial_state(c, w, v, check=True)
    caught = 0
    for _ in range(state.lv):
        for k in index_set_A(state, state.step + 1)[:1]:
            for j in sorted(state.cut.members):
                if c.adjacent(w.color(j), w.color(k)) and state.quiver.b[k].get(j, 0) <= 0:
                    broken = state.clone()
                    broken.quiver._set(k, j, 1)
                    match = rf"^vertex {k} has an outgoing ordinary arrow toward \[{j}\]$"
                    with pytest.raises(Unclassifiable, match=match):
                        step_hat(broken)
                    caught += 1
        state = step_hat(state)
    assert caught


def test_a_second_incoming_arrow_at_a_vertex_about_to_mutate_is_unclassifiable():
    # a vertex of a configuration has at most one arrow from each adjacent
    # color; a second one from another member of that color fits none
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = initial_state(c, w, v, check=True)
    caught = 0
    for _ in range(state.lv):
        for k in index_set_A(state, state.step + 1)[:1]:
            row, members = state.quiver.b[k], sorted(state.cut.members)
            for j1 in [j for j, e in row.items() if e < 0 and j in state.cut.members]:
                if w.color(j1) == w.color(k):
                    continue
                for j2 in [j for j in members if w.color(j) == w.color(j1) and j not in row]:
                    broken = state.clone()
                    broken.quiver._set(j2, k, 1)
                    match = rf"^vertex {k} has several incoming ordinary arrows \[{j1}, {j2}\]$"
                    with pytest.raises(Unclassifiable, match=match):
                        step_hat(broken)
                    caught += 1
        state = step_hat(state)
    assert caught


def test_a_forbidden_configuration_transition_is_caught(monkeypatch):
    # a classifier that labels every vertex alpha1: the first vertex of a
    # batch passes, but after a vertex that stayed in the cut alpha1 may
    # only be followed by beta3 or beta4
    from richseed import mutalg
    from richseed.quiver import ConfigLabel

    c, w, v = list(_w0_pairs("D5", 17))[1]
    trace = run(c, w, v).trace
    rec = next(r for p, r in zip(trace, trace[1:])
               if p.step == r.step and r.configs and not p.evicted)
    oc = next(iter(rec.configs))
    monkeypatch.setattr(mutalg, "classify_configs",
                        lambda q, k, colors, *_: dict.fromkeys(colors, ConfigLabel.ALPHA1))
    message = (f"configuration alpha1 may not be followed by alpha1 "
               f"(vertex {rec.vertex}, color {oc}, eviction=False)")
    with pytest.raises(InvariantViolation) as exc:
        run(c, w, v)
    assert str(exc.value) == message


def _states_before_a_tooth_shift(c, w, v):
    """The states of a checked run whose next batch compares the teeth
    before and after it: an eviction-free pass over a line with members."""
    state = initial_state(c, w, v, check=True)
    for _ in range(state.lv):
        shifts = state.stats.get("teeth_shift_checks", 0)
        if step_hat(state.clone()).stats.get("teeth_shift_checks", 0) > shifts:
            yield state
        state = step_hat(state)


def test_a_broken_saw_teeth_report_around_a_tooth_shift_is_caught(monkeypatch):
    # the shift reads the line's report of the cut before the batch and of
    # the cut after it; an impure one before and an invalid one after are
    # each caught, against every adjacent color
    from richseed import mutalg

    c, w, v = list(_w0_pairs("D5", 17))[1]
    check = mutalg.check_induction
    caught = 0
    for state in _states_before_a_tooth_shift(c, w, v):
        line = w.color(state.embedding.positions[state.step])
        for oc in c.neighbors(line):
            with monkeypatch.context() as mp:
                impure = SawTeethReport(line, oc, True, initial_barb=(1, 2))
                mp.setitem(state.cut.reports, (line, oc), impure)
                with pytest.raises(InvariantViolation) as exc:
                    step_hat(state.clone())
            assert str(exc.value) == f"line {line} was not pure before its pass (color {oc})"

            def planted(s, oc=oc):
                check(s)
                s.cut.reports[(line, oc)] = SawTeethReport(line, oc, False, violation="planted")

            with monkeypatch.context() as mp:
                mp.setattr(mutalg, "check_induction", planted)
                with pytest.raises(InvariantViolation) as exc:
                    step_hat(state.clone())
            assert str(exc.value) == (
                f"line {line} lost the tooth structure after its pass (color {oc}): planted")
            caught += 1
    assert caught >= 5, caught


def test_a_fault_is_journalled_across_a_clone():
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = step_hat(initial_state(c, w, v, check=True))
    inject = _double_cross_arrow(state, _quiet_members(state))
    assert state.quiver.journal == set()  # drained by the last check
    # into the clone's quiver, and into the original before it is cloned
    broken = state.clone()
    inject(broken.quiver)
    assert broken.quiver.journal and not state.quiver.journal
    with pytest.raises(InvariantViolation, match="bicolor"):
        step_hat(broken)
    inject(state.quiver)
    broken = state.clone()
    assert broken.quiver.journal == state.quiver.journal
    with pytest.raises(InvariantViolation, match="bicolor"):
        step_hat(broken)


def test_a_report_replaced_in_a_clone_leaves_the_original_alone():
    # the clone's cut view is its own: a broken report planted in it is
    # not reused by the original's next check
    c, w, v = list(_w0_pairs("A4", 17))[1]
    state = initial_state(c, w, v, check=True)
    for _ in range(state.lv):
        reports = state.clone().cut.reports
        assert reports
        for c1, c2 in reports:
            reports[(c1, c2)] = SawTeethReport(c1, c2, False, "planted")
        state = step_hat(state)


def test_a_doubled_line_arrow_is_caught_between_batches():
    # the line-arrow check reads the multiplicity of every line arrow
    # written since the last view, also on a line with no member of an
    # adjacent color, where no saw-teeth report sees it
    c, w, v = list(_w0_pairs("D5", 17))[1]
    state = initial_state(c, w, v, check=True)
    caught = 0
    for _ in range(state.lv):
        quiet = _quiet_members(state)
        for k in quiet:
            kp = w.succ(k)
            if kp in quiet and state.quiver.mult(k, kp) == 1:
                broken = state.clone()
                broken.quiver._set(k, kp, 2)
                with pytest.raises(InvariantViolation, match="multiplicity 2"):
                    step_hat(broken)
                caught += 1
        state = step_hat(state)
    assert caught


@pytest.mark.parametrize("spec", ["A4", "D5", "E6"])
def test_incremental_checks_agree_with_a_check_from_scratch(spec):
    for c, w, v in _w0_pairs(spec, 17):
        state = initial_state(c, w, v, check=True)
        while True:
            fresh = state.clone()
            fresh.cut = None  # no view, so no reports or vectors to reuse
            check_induction(fresh)
            assert fresh.cut.members == state.cut.members
            assert fresh.cut.reports == state.cut.reports
            assert fresh.cut.verified == state.cut.verified
            if state.step == state.lv:
                break
            state = step_hat(state)


def test_report_counts_sum_to_the_pairs_examined():
    for c, w, v in _w0_pairs("E6", 17):
        state = initial_state(c, w, v, check=True)
        examined = len(state.cut.reports)
        for _ in range(state.lv):
            state = step_hat(state)
            examined += len(state.cut.reports)
        counts = [state.stats["reports_classified"], state.stats["reports_reused"]]
        assert sum(counts) == examined and all(counts)
        seed = run(c, w, v)
        assert [seed.stats["reports_classified"], seed.stats["reports_reused"]] == counts


def _outcome(state):
    try:
        step_hat(state)
    except Exception as exc:  # a fault can break the batch itself, not only a check
        return type(exc).__name__
    return state.cut.members, state.cut.reports


def test_incremental_and_full_checks_agree_on_random_faults():
    # one fault between two batches, then the next batch checked twice:
    # as the run does, and with no journal, which examines everything.
    # One rng per example, seeded 0, 1, 2, ..., picks the type, the
    # length (full half of the time, so that E6 and full-length words are
    # drawn as often as the others) and each fault
    for seed in range(40):
        rng = random.Random(seed)
        c = parse_type(rng.choice(["A4", "D4", "D5", "E6"]))
        r = number_of_positive_roots(c)
        w = Word(c, random_reduced_word(c, r if rng.random() < 0.5 else rng.randint(4, r), rng))
        v = element_of_word(c, [i for i in w.letters if rng.random() < 0.5])
        state = initial_state(c, w, v)
        for _ in range(state.lv):
            s, t = rng.sample(range(1, len(w) + 1), 2)
            mult = rng.choice([0, 1, 2])
            fault = rng.choice(["set", "mutate", "delta"])
            runs = []
            for journal in (True, False):
                broken = state.clone()
                if not journal:
                    broken.quiver.journal = None
                if fault == "set":
                    broken.quiver._set(s, t, mult)
                elif fault == "mutate":
                    broken.quiver.mutate_in_place(s)
                else:
                    coords = list(broken.deltas[s].coords)
                    coords[t % state.lv] += 1  # among the leading coordinates
                    broken.deltas[s] = DeltaVector(state.reference, tuple(coords))
                runs.append(_outcome(broken))
            assert runs[0] == runs[1], (seed, fault)
            state = step_hat(state)


# ---------------------------------------------------------------------------
# commutation moves: the initial quiver, and so the seed, depends only on
# the commutation class of w (Geiss-Leclerc-Schroer 2011, Leclerc 2016)


def _commutation_cases():
    """(c, w, v, p): a seeded reduced word w of A4-E7 whose letters at
    positions p and p+1 commute, and v spelled by a random subset of w's
    letters, so v <= w."""
    rng = random.Random(23)
    for spec in ("A4", "A5", "D4", "D5", "D6", "E6", "E7"):
        c = parse_type(spec)
        r = number_of_positive_roots(c)
        for _ in range(12):
            letters = random_reduced_word(c, rng.randint(3, min(r, 30)), rng)
            moves = [p for p in range(1, len(letters))
                     if letters[p - 1] != letters[p] and not c.adjacent(letters[p - 1], letters[p])]
            if moves:
                v = element_of_word(c, [i for i in letters if rng.random() < 0.5])
                yield c, Word(c, letters), v, rng.choice(moves)


def _seed_under(seed, swap_ids, swap_coords):
    """The seed's embedding, quiver, frozen and deleted ids and vectors,
    with ids and vector coordinates exchanged by the two dicts (an
    absent key is left as it is)."""

    def ids(k):
        return swap_ids.get(k, k)

    n = len(seed.reference)
    return (
        sorted(map(ids, seed.embedding.positions)),
        {(ids(s), ids(t)): x for (s, t), x in seed.quiver.arrows.items()},
        {ids(k) for k in seed.frozen},
        {ids(k) for k in seed.deleted},
        {ids(k): tuple(d.coords[swap_coords.get(m, m) - 1] for m in range(1, n + 1))
         for k, d in seed.summands.items()},
    )


def test_a_commutation_move_relabels_the_seed():
    # swapping the commuting letters at p and p+1 swaps the ids p and p+1;
    # when v uses both, they are its letters m and m+1, and the reference
    # completion swaps them too, so each vector swaps coordinates m, m+1
    cases = differ = 0
    for c, w, v, p in _commutation_cases():
        letters = list(w.letters)
        letters[p - 1], letters[p] = letters[p], letters[p - 1]
        seed = run(c, w, v, check=False)
        moved = _seed_under(run(c, Word(c, letters), v, check=False), {}, {})
        pos = seed.embedding.positions
        m = pos.index(p) + 1 if p in pos and p + 1 in pos else 0
        coords = {m: m + 1, m + 1: m} if m else {}
        assert _seed_under(seed, {p: p + 1, p + 1: p}, coords) == moved, (w.letters, p)
        cases += 1
        differ += _seed_under(seed, {}, {}) != moved
    assert cases >= 70 and differ >= cases // 2
