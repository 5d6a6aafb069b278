"""The ``examples`` and ``verify`` subcommands, and the ``argparse``
parser of all three.

``cli.main`` imports this module only for a command line that its own
reader of the canonical ``compute`` form refuses, so a well-formed
``compute`` compiles none of it and loads no ``argparse``.  This module
does not import ``cli``: under ``python -m richseed.cli`` that would
load a second copy of it, so ``build_parser`` takes the ``compute``
function as an argument.
"""

from __future__ import annotations

import argparse
import os
import random
from functools import lru_cache
from typing import Iterator, Optional

from .deltavec import delta_tilde_from_combo, delta_via_xi, initial_delta_same
from .errors import StructuralFailure
from .mutalg import green_report, initial_state, initial_vectors, run, step_hat, verify_equivalence
from .quiver import build_gamma, classify_sawteeth, quiver_has_sawteeth
from .rootsys import CartanData, element_of_word, number_of_positive_roots, parse_type
from .words import (
    Word,
    all_elements,
    bruhat_le,
    combo_numbers,
    make_word,
    random_reduced_word,
    reduced_words,
    rightmost_subword,
)

# the most sampled pairs per verify check; `verify --type E8 --checks all`
# takes about 50 s per 1000 at the default --max-len (2-vCPU Xeon)
MAX_SAMPLES = 10000


def integer(text: str) -> int:
    """An optional "-" followed by ASCII digits, so that "1_0", " 7 " or
    "\u0663" is refused rather than read by ``int``; argparse names this
    function in its message."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# examples


def _diff(name: str, got, want, failures: list[str]) -> None:
    if got != want:
        failures.append(f"{name}: got {got!r}, expected {want!r}")


def example_a3_tables() -> list[str]:
    from . import golden
    failures: list[str] = []
    c = parse_type("A3")
    wdot = make_word(c, golden.A3_WDOT)
    w0dot = make_word(c, golden.A3_W0DOT)
    for k in range(1, 7):
        own_w, own_w0, cross_w, cross_w0 = golden.A3_TABLE[k]
        _diff(f"own wdot k={k}", initial_delta_same(wdot, k).support(), own_w, failures)
        _diff(f"own w0dot k={k}", initial_delta_same(w0dot, k).support(), own_w0, failures)
        _diff(f"wdot in w0dot k={k}", delta_via_xi(wdot, k, w0dot).support(), cross_w, failures)
        _diff(f"w0dot in wdot k={k}", delta_via_xi(w0dot, k, wdot).support(), cross_w0, failures)
    return failures


def example_a5_run() -> list[str]:
    from . import golden
    failures: list[str] = []
    c = parse_type("A5")
    word = make_word(c, golden.A5_WORD)
    v = element_of_word(c, list(reversed(golden.A5_V_WORD)))
    emb = rightmost_subword(v, word)
    _diff("positions", emb.positions, golden.A5_POSITIONS, failures)
    combo = combo_numbers(word, emb)
    _diff("beta", tuple(combo.beta(m) for m in range(1, 7)), golden.A5_BETA, failures)
    _diff("gamma", tuple(combo.gamma(m) for m in range(1, 7)), golden.A5_GAMMA, failures)

    vdot = make_word(c, golden.A5_VDOT)
    seed = run(c, word, v, completion=vdot)
    _diff("schedule", tuple(tuple(b) for b in seed.schedule), golden.A5_SCHEDULE, failures)
    _diff("deleted", tuple(sorted(seed.deleted)), golden.A5_DELETED, failures)
    _diff("survivors", tuple(sorted(seed.summands)), golden.A5_SURVIVORS, failures)
    _diff("frozen", tuple(sorted(seed.frozen)), golden.A5_FROZEN, failures)
    _diff("final arrows", set(seed.quiver.arrows), golden.A5_FINAL_ARROWS, failures)

    # replay the per-batch tables
    state = initial_state(c, word, v, completion=vdot)
    for k, want in golden.A5_DELTAS[0].items():
        _diff(f"initial delta k={k}", state.deltas[k].support(), want, failures)
    for m in range(1, 7):
        state = step_hat(state)
        if m in golden.A5_DELTAS:
            for k, want in golden.A5_DELTAS[m].items():
                _diff(f"delta after batch {m}, k={k}", state.deltas[k].support(), want, failures)
        if m in golden.A5_QUIVERS:
            _diff(f"quiver after batch {m}", set(state.quiver.arrows), golden.A5_QUIVERS[m], failures)
    for rec in seed.trace:
        if rec.step == 1 and rec.vertex in golden.A5_FIRST_BATCH_CHOICES:
            branch, support = golden.A5_FIRST_BATCH_CHOICES[rec.vertex]
            _diff(f"branch at {rec.vertex}", rec.chosen, branch, failures)
            got = tuple(i + 1 for i, a in enumerate(rec.after) if a)
            _diff(f"exchange value at {rec.vertex}", got, support, failures)
    labels = green_report(word, [rec.vertex for rec in seed.trace])
    _diff("greenness", all(lab["green"] for lab in labels), True, failures)
    return failures


def example_d5_quiver() -> list[str]:
    from . import golden
    failures: list[str] = []
    c = parse_type("D5")
    word = make_word(c, golden.D5_WORD)
    q = build_gamma(word)
    _diff("vertex count", len(q.vertices), 17, failures)
    _diff("arrows", set(q.arrows), golden.D5_ARROWS, failures)
    rep = classify_sawteeth(q, 3, 2)
    _diff("(3,2) valid", rep.valid, True, failures)
    _diff("(3,2) pure", rep.pure, golden.D5_BICOLOR_32["pure"], failures)
    _diff(
        "(3,2) teeth",
        tuple((t.right_end, t.summit, t.left_end) for t in rep.teeth),
        golden.D5_BICOLOR_32["teeth"],
        failures,
    )
    _diff("(3,2) initial barb", rep.initial_barb, golden.D5_BICOLOR_32["initial_barb"], failures)
    _diff("(3,2) final barb", rep.final_barb, golden.D5_BICOLOR_32["final_barb"], failures)
    _diff("(3,2) isolated", tuple(sorted(rep.isolated)), golden.D5_BICOLOR_32["isolated"], failures)
    # of every ordered pair of adjacent colors, the summits that no arrow
    # of the frozen table joins to the line are the isolated ones
    for c1 in range(1, c.rank + 1):
        line = set(q.ids_of_color(c1))
        joined = {s if t in line else t for s, t in golden.D5_ARROWS if (s in line) != (t in line)}
        for c2 in c.neighbors(c1):
            want = tuple(k for k in q.ids_of_color(c2) if k not in joined)
            got = tuple(sorted(classify_sawteeth(q, c1, c2).isolated))
            _diff(f"({c1},{c2}) isolated", got, want, failures)
    return failures


def example_d5_notations() -> list[str]:
    from . import golden
    failures: list[str] = []
    c = parse_type("D5")
    word = make_word(c, golden.D5_NOTATIONS_WORD)
    v = element_of_word(
        c, [word.color(p) for p in golden.D5_NOTATIONS_POSITIONS]
    )
    emb = rightmost_subword(v, word)
    _diff("positions", emb.positions, golden.D5_NOTATIONS_POSITIONS, failures)
    combo = combo_numbers(word, emb)
    for k in range(1, 18):
        r = combo.table_row(k)
        got = (r["m"], r["i_k"], r["f_min"], r["f"], r["m_oplus"], r["beta"], r["gamma"])
        _diff(f"row k={k}", got, golden.D5_NOTATIONS_ROWS[k], failures)
    return failures


EXAMPLES = {
    "a3-tables": example_a3_tables,
    "a5-run": example_a5_run,
    "d5-quiver": example_d5_quiver,
    "d5-notations": example_d5_notations,
}


def cmd_examples(args: argparse.Namespace) -> int:
    which = list(EXAMPLES) if args.which == "all" else [args.which]
    bad = 0
    for name in which:
        failures = EXAMPLES[name]()
        if failures:
            bad += 1
            print(f"{name}: FAIL")
            for f in failures:
                print(f"  {f}")
        else:
            print(f"{name}: ok")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# verify


def _sample_pairs(c: CartanData, samples: int, max_len: int, rng) -> Iterator[tuple[Word, list[int]]]:
    """``samples`` random (w, letters of v) pairs, drawn one at a time.

    A check that stops early still advances ``rng`` past every draw, so
    the next check sees the same pairs whatever this one did.
    """
    cap = min(max_len, number_of_positive_roots(c))
    left = samples
    try:
        while left:
            left -= 1
            yield _draw_pair(c, cap, rng)
    finally:
        for _ in range(left):
            _draw_pair(c, cap, rng)


def _draw_pair(c: CartanData, cap: int, rng) -> tuple[Word, list[int]]:
    word = Word(c, random_reduced_word(c, rng.randint(2, cap), rng))
    pos = sorted(rng.sample(range(1, len(word) + 1), rng.randint(1, len(word))))
    return word, [word.color(p) for p in pos]


def _words(c: CartanData, samples: int, max_len: int, rng,
           limit: int) -> tuple[bool, Iterator[tuple[Word, Optional[list[int]]]]]:
    """(exhaustive, pairs): when c has at most ``limit`` positive roots,
    every reduced word of each w with 1 <= l(w) <= ``max_len``, as
    (word, None); above it, the sampled (word, letters of v) pairs."""
    if number_of_positive_roots(c) > limit:
        return False, _sample_pairs(c, samples, max_len, rng)
    return True, ((Word(c, rw), None) for w in all_elements(c) if 1 <= w.length <= max_len
                  for rw in reduced_words(w))


def check_sawteeth(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    exhaustive, words = _words(c, samples, max_len, rng, 12)
    n = 0
    for word, _ in words:
        if not quiver_has_sawteeth(build_gamma(word), c):
            return False, f"word {word.display}"
        n += 1
    return True, f"{n} words ({'exhaustive' if exhaustive else 'sampled'})"


def check_equivalence(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    exhaustive, words = _words(c, samples, max_len, rng, 6)
    n = 0
    for word, v_letters in words:
        vs = all_elements(c) if v_letters is None else (element_of_word(c, v_letters),)
        for v_el in vs:
            if v_el.is_identity() or not bruhat_le(v_el, word):
                continue
            ok, rep = verify_equivalence(word, rightmost_subword(v_el, word))
            if not ok:
                return False, f"word {word.display}: {rep}"
            n += 1
    return True, f"{n} pairs ({'exhaustive' if exhaustive else 'sampled'})"


def check_induction(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    n = 0
    for word, v_letters in _sample_pairs(c, samples, max_len, rng):
        v_el = element_of_word(c, v_letters)
        try:
            run(c, word, v_el, check=True)
        except StructuralFailure as exc:
            return False, f"word {tuple(word.display)}, v {tuple(reversed(v_letters))}: {exc}"
        n += 1
    return True, f"{n} checked runs"


def check_delta_oracle(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    n = 0
    for word, v_letters in _sample_pairs(c, samples, max_len, rng):
        v_el = element_of_word(c, v_letters)
        emb, combo, _, deltas = initial_vectors(c, word, v_el)
        for k, d in deltas.items():
            direct = delta_tilde_from_combo(combo, k)
            via_xi = d.truncated(len(emb))
            if direct != via_xi:
                return False, f"word {tuple(word.display)}, k={k}: {direct} != {via_xi}"
        n += 1
    return True, f"{n} words, all summands"


def check_green(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    n = 0
    red = 0
    for word, v_letters in _sample_pairs(c, samples, max_len, rng):
        v_el = element_of_word(c, v_letters)
        seed = run(c, word, v_el, check=False)
        labels = green_report(word, [rec.vertex for rec in seed.trace])
        for lab in labels:
            n += 1
            if not lab["green"]:
                red += 1
                print(
                    f"  red mutation logged: word {tuple(word.display)}, "
                    f"v {tuple(reversed(v_letters))}, mutation #{lab['n']} at {lab['vertex']}"
                )
    return True, f"{n} mutations, {red} red (logged, not failed)"


CHECKS = {
    "sawteeth": check_sawteeth,
    "induction": check_induction,
    "equivalence": check_equivalence,
    "delta-oracle": check_delta_oracle,
    "green": check_green,
}


def cmd_verify(args: argparse.Namespace) -> int:
    c = parse_type(args.type)
    # the suites sample words of length 2 up to min(--max-len, roots)
    if args.max_len < 2:
        raise ValueError(f"--max-len must be at least 2, got {args.max_len}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    if number_of_positive_roots(c) < 2:
        raise ValueError(f"verify needs at least 2 positive roots; {c.family}{c.rank} has 1")
    # each suite once, in the order of its first mention
    names = list(CHECKS) if args.checks == "all" else [n.strip() for n in args.checks.split(",")]
    names = list(dict.fromkeys(names))
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown --checks name {unknown[0]!r}; valid: {', '.join(CHECKS)}")
    seed_env = os.environ.get("RSEED_SEED", "20260810")
    try:
        rng = random.Random(integer(seed_env))
    except ValueError:
        raise ValueError(f"RSEED_SEED must be an integer, got {seed_env!r}") from None
    failed = 0
    for name in names:
        ok, info = CHECKS[name](c, args.samples, args.max_len, rng)
        print(f"{name}: {'pass' if ok else 'FAIL'} ({info})")
        if not ok:
            failed += 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser(compute) -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so repeated ``main`` calls share it.  ``compute`` is the
    function the ``compute`` subcommand runs, ``cli.cmd_compute``."""
    parser = argparse.ArgumentParser(
        prog="richseed",
        description="Initial seeds for cluster structures on open Richardson varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one seed")
    p.add_argument("--type", required=True, help="Dynkin type, e.g. A5 or D4")
    p.add_argument("--w", required=True, help="comma-separated word for w")
    p.add_argument("--v", required=True, help="comma-separated word for v (any representative)")
    p.add_argument("--order", choices=["paper", "indexed"], default="paper",
                   help="letter order of the inputs (default: as displayed)")
    p.add_argument("--vdot", default=None,
                   help="optional full completion to use as the vector reference")
    p.add_argument("--out", default=None, help="write the seed JSON here (default stdout)")
    p.add_argument("--dot", default=None, help="also write Graphviz DOT here")
    p.add_argument("--trace", action="store_true", help="include the mutation trace")
    p.add_argument("--no-check", action="store_true", help="skip structural checks")
    p.set_defaults(func=compute)

    p = sub.add_parser("examples", help="regenerate the worked examples and diff")
    p.add_argument("which", choices=sorted(EXAMPLES) + ["all"], nargs="?", default="all")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("verify", help="run the structural check suites")
    p.add_argument("--type", required=True)
    p.add_argument("--max-len", type=integer, default=12)
    p.add_argument("--samples", type=integer, default=50)
    p.add_argument("--checks", default="all", help=f"comma list among {','.join(CHECKS)}")
    p.set_defaults(func=cmd_verify)
    return parser
