"""Command line interface.

Three subcommands:

* ``compute``   run the algorithm for one (type, w, v) instance and write
  the resulting seed as JSON (optionally DOT and the mutation trace),
* ``examples``  regenerate the built-in worked examples and diff them
  against the frozen tables,
* ``verify``    run the structural check suites (exhaustive at small
  rank, sampled otherwise).

Exit codes: 0 success, 1 diff/check failure, 2 invalid input (type
unknown or above the size limit, word not reduced, malformed letters),
3 v not below w, 4 a structural guarantee failed mid-run, 5 output
could not be written (quietly when the reader closed stdout early).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from typing import Iterator

from .deltavec import delta_tilde_from_combo, delta_via_xi, initial_delta_same
from .errors import NotLessOrEqual, StructuralFailure
from .mutalg import (
    FinalSeed,
    green_report,
    initial_state,
    initial_vectors,
    run,
    step_hat,
    verify_equivalence,
)
from .quiver import build_gamma, classify_sawteeth, quiver_has_sawteeth, to_dot
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

SCHEMA_VERSION = 1

# the most sampled pairs per verify check; `verify --type E8 --checks all`
# takes about 50 s per 1000 at the default --max-len (2-vCPU Xeon)
MAX_SAMPLES = 10000


def _parse_letters(text: str, option: str) -> list[int]:
    """Comma-separated letters; blanks around a letter and empty tokens
    are ignored, and every other token must be ASCII digits, so that
    "1 2" or "1_0" is refused rather than read as one letter."""
    tokens = [tok.strip() for tok in text.split(",")]
    for tok in tokens:
        if tok and not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"{option}: {tok!r} is not a letter; letters are comma-separated digits")
    return [int(tok) for tok in tokens if tok]


def integer(text: str) -> int:
    """An optional "-" followed by ASCII digits, so that "1_0", " 7 " or
    "\u0663" is refused rather than read by ``int``; argparse names this
    function in its message."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def seed_document(seed: FinalSeed, with_trace: bool = False) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "metadata": {
            "type": f"{seed.cartan.family}{seed.cartan.rank}",
            "w": list(seed.word.display),
            "v": list(reversed(seed.embedding.letters)),
            "positions": list(seed.embedding.positions),
            "completion": list(seed.reference.display),
            "l_w": len(seed.word),
            "l_v": len(seed.embedding),
            "deleted": sorted(seed.deleted),
            "schedule": [list(b) for b in seed.schedule],
        },
        "vertices": [
            {
                "id": k,
                "color": seed.word.color(k),
                "line": seed.word.color(k),
                "column": k,
                "delta": list(seed.summands[k].coords),
                "frozen": k in seed.frozen,
            }
            for k in sorted(seed.summands)
        ],
        "arrows": [
            {"src": s, "dst": t, "mult": m} for (s, t), m in sorted(seed.quiver.arrows.items())
        ],
    }
    if with_trace:
        labels = green_report(seed.word, [rec.vertex for rec in seed.trace])
        doc["trace"] = [rec.to_json(lab) for rec, lab in zip(seed.trace, labels)]
    return doc


# seed_document's layout as json.dumps(doc, indent=2) writes it; with an
# indent, json runs its pure-Python encoder, which took about three times
# as long as these templates
_META = """{
  "schema": %d,
  "metadata": {
    "type": "%s",
    "w": %s,
    "v": %s,
    "positions": %s,
    "completion": %s,
    "l_w": %d,
    "l_v": %d,
    "deleted": %s,
    "schedule": %s
  },
  "vertices": %s,
  "arrows": %s"""
_VERTEX = """{
      "id": %d,
      "color": %d,
      "line": %d,
      "column": %d,
      "delta": %s,
      "frozen": %s
    }"""
_ARROW = '{\n      "src": %d,\n      "dst": %d,\n      "mult": %d\n    }'


def _list(items, pad: str) -> str:
    """A list whose items (ints or JSON texts) sit at the indent ``pad``."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(map(str, items)) + "\n" + pad[:-2] + "]"


def document_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` of a ``seed_document``, byte for byte."""
    meta, p4, p6, p8 = doc["metadata"], " " * 4, " " * 6, " " * 8
    vertices = [
        _VERTEX % (v["id"], v["color"], v["line"], v["column"], _list(v["delta"], p8),
                   "true" if v["frozen"] else "false")
        for v in doc["vertices"]
    ]
    arrows = [_ARROW % (a["src"], a["dst"], a["mult"]) for a in doc["arrows"]]
    text = _META % (
        doc["schema"], meta["type"], _list(meta["w"], p6), _list(meta["v"], p6),
        _list(meta["positions"], p6), _list(meta["completion"], p6), meta["l_w"], meta["l_v"],
        _list(meta["deleted"], p6), _list([_list(b, p8) for b in meta["schedule"]], p6),
        _list(vertices, p4), _list(arrows, p4),
    )
    if "trace" in doc:
        text += ',\n  "trace": ' + json.dumps(doc["trace"], indent=2).replace("\n", "\n  ")
    return text + "\n}"


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args: argparse.Namespace) -> int:
    c = parse_type(args.type)
    word = make_word(c, _parse_letters(args.w, "--w"), order=args.order)
    v_letters = _parse_letters(args.v, "--v")
    if args.order == "paper":
        v_letters = list(reversed(v_letters))
    v = element_of_word(c, v_letters)
    completion = None
    if args.vdot is not None:
        completion = make_word(c, _parse_letters(args.vdot, "--vdot"), order=args.order)
    seed = run(c, word, v, completion=completion, check=not args.no_check)
    payload = document_json(seed_document(seed, with_trace=args.trace))
    # the DOT file first and stdout last: a DOT file that cannot be written
    # leaves no seed behind, on stdout or in --out
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(seed.quiver) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


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


def check_sawteeth(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    r = number_of_positive_roots(c)
    exhaustive = r <= 12
    n = 0
    if exhaustive:
        for el in all_elements(c):
            if el.length == 0 or el.length > max_len:
                continue
            for rw in reduced_words(el):
                if not quiver_has_sawteeth(build_gamma(Word(c, rw)), c):
                    return False, f"word {tuple(reversed(rw))}"
                n += 1
        return True, f"{n} words (exhaustive)"
    for word, _ in _sample_pairs(c, samples, max_len, rng):
        if not quiver_has_sawteeth(build_gamma(word), c):
            return False, f"word {tuple(word.display)}"
        n += 1
    return True, f"{n} words (sampled)"


def check_equivalence(c: CartanData, samples: int, max_len: int, rng) -> tuple[bool, str]:
    r = number_of_positive_roots(c)
    n = 0
    if r <= 6:
        for el in all_elements(c):
            if el.is_identity() or el.length > max_len:
                continue
            for rw in reduced_words(el):
                word = Word(c, rw)
                for v_el in all_elements(c):
                    if v_el.is_identity() or not bruhat_le(v_el, word):
                        continue
                    ok, rep = verify_equivalence(word, rightmost_subword(v_el, word))
                    if not ok:
                        return False, f"word {tuple(word.display)}: {rep}"
                    n += 1
        return True, f"{n} pairs (exhaustive)"
    for word, v_letters in _sample_pairs(c, samples, max_len, rng):
        v_el = element_of_word(c, v_letters)
        if v_el.is_identity():
            continue
        ok, rep = verify_equivalence(word, rightmost_subword(v_el, word))
        if not ok:
            return False, f"word {tuple(word.display)}: {rep}"
        n += 1
    return True, f"{n} pairs (sampled)"


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
    names = list(CHECKS) if args.checks == "all" else [n.strip() for n in args.checks.split(",")]
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
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so repeated ``main`` calls share it."""
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
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("examples", help="regenerate the worked examples and diff")
    p.add_argument("which", choices=sorted(EXAMPLES) + ["all"], nargs="?", default="all")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("verify", help="run the structural check suites")
    p.add_argument("--type", required=True)
    p.add_argument("--max-len", type=integer, default=12)
    p.add_argument("--samples", type=integer, default=50)
    p.add_argument("--checks", default="all",
                   help="comma list among sawteeth,induction,equivalence,delta-oracle,green")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): stop without a message,
        # and point stdout at /dev/null so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5
    except OSError as exc:  # --out or --dot not writable
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NotLessOrEqual as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StructuralFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # IllegalType, NotReduced, malformed letters
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
