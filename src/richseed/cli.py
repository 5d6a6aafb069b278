"""Command line interface.

Three subcommands; this module holds ``compute``, and ``commands`` the
other two and the ``argparse`` parser:

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

import errno
import json
import os
import stat
import sys
from types import SimpleNamespace

from .errors import NotLessOrEqual, StructuralFailure
from .mutalg import FinalSeed, green_report, run
from .quiver import to_dot
from .rootsys import element_of_word, parse_type
from .words import make_word

SCHEMA_VERSION = 1


def _parse_letters(text: str, option: str) -> list[int]:
    """Comma-separated letters; blanks around a letter and empty tokens
    are ignored, and every other token must be ASCII digits, so that
    "1 2" or "1_0" is refused rather than read as one letter."""
    tokens = [tok.strip() for tok in text.split(",")]
    for tok in tokens:
        if tok and not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"{option}: {tok!r} is not a letter; letters are comma-separated digits")
    return [int(tok) for tok in tokens if tok]


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


def cmd_compute(args) -> int:
    # one regular file for both outputs would keep only the last one
    # written; a device such as /dev/null or a pipe takes both
    if args.dot and args.out and _one_file(args.dot, args.out):
        raise ValueError(f"--dot and --out name the same file: {os.path.realpath(args.dot)}")
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
    # the files first and stdout last: an output that cannot be written
    # leaves nothing behind, on stdout or in a file
    files = {}
    if args.dot is not None:
        files[args.dot] = to_dot(seed.quiver) + "\n"
    if args.out is not None:
        files[args.out] = payload + "\n"
    write_all(files)
    if args.out is None:
        print(payload)
    return 0


def _one_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one regular file (through links,
    symbolic or hard) or one path that does not exist yet."""
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(sa.st_mode) and os.path.samestat(sa, sb)


def write_all(files: dict[str, str]) -> None:
    """Write each text to its path, or none of them.  A path that exists
    (a file, a link, a device, a pipe) is opened first and written through
    last, so it keeps its kind, mode and owner; a directory is refused by
    that open.  A new path gets a temporary file beside its target, and
    only once every open and every write has succeeded are these renamed
    onto their targets.  On a failure the temporary files, and the new
    files already renamed, are removed.  An error names the path asked
    for, not the temporary file.  The empty path is refused before
    anything is opened: ``realpath("")`` is the working directory."""
    if "" in files:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
    staged: list[tuple[str, str, str]] = []  # (temporary file, target, path)
    through = []  # (open file, text, path) for the paths that exist
    done: list[str] = []
    try:
        for n, (path, text) in enumerate(files.items()):
            try:
                through.append((open(os.open(path, os.O_WRONLY), "w"), text, path))
                continue
            except FileNotFoundError:
                pass
            # a dangling link is followed, as open(path, "w") would
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
            try:
                fh = open(tmp, "x")
                staged.append((tmp, target, path))
                with fh:
                    fh.write(text)
            except OSError as exc:
                raise _naming(exc, path) from None
        for tmp, target, path in staged:
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise _naming(exc, path) from None
            done.append(target)
        for fh, text, path in through:
            # a device or a full disk may refuse the text only at the flush
            # on close, so the whole write is inside the try
            try:
                with fh:
                    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                        fh.truncate(0)
                    fh.write(text)
            except OSError as exc:
                raise _naming(exc, path) from None
    except BaseException:
        for fh, _, _ in through:
            fh.close()
        for name in [tmp for tmp, _, _ in staged] + done:
            try:
                os.remove(name)
            except FileNotFoundError:  # renamed already, or never written
                pass
        raise


def _naming(exc: OSError, path: str) -> OSError:
    """``exc`` again, naming ``path`` alone."""
    return type(exc)(exc.errno, exc.strerror, path)


# ---------------------------------------------------------------------------
# the canonical compute form, read without argparse

_VALUED = ("--type", "--w", "--v", "--order", "--vdot", "--out", "--dot")
_FLAGS = ("--trace", "--no-check")


def read_compute(argv) -> SimpleNamespace | None:
    """The namespace that the parser of ``commands.build_parser`` gives
    for a canonical ``compute`` list, or None for any other list.

    Canonical: ``compute`` first, then each option of ``_VALUED`` at most
    once with a value that does not start with "-", each flag at most
    once, ``--type``, ``--w`` and ``--v`` all given, and ``--order`` one
    of its two choices.  Abbreviations, ``--option=value``, ``-h``, a
    repeat or a missing value are left to argparse, which stays the only
    source of help texts, error messages and exit codes."""
    if not argv or argv[0] != "compute":
        return None
    got = {}
    i, n = 1, len(argv)
    while i < n:
        opt = argv[i]
        if opt in got:
            return None
        if opt in _FLAGS:
            got[opt] = True
            i += 1
        elif opt in _VALUED and i + 1 < n and not argv[i + 1].startswith("-"):
            got[opt] = argv[i + 1]
            i += 2
        else:
            return None
    if not ("--type" in got and "--w" in got and "--v" in got):
        return None
    order = got.get("--order", "paper")
    if order not in ("paper", "indexed"):
        return None
    return SimpleNamespace(
        command="compute", type=got["--type"], w=got["--w"], v=got["--v"], order=order,
        vdot=got.get("--vdot"), out=got.get("--out"), dot=got.get("--dot"),
        trace="--trace" in got, no_check="--no-check" in got, func=cmd_compute,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_compute(argv)
    if args is None:
        from .commands import build_parser

        args = build_parser(cmd_compute).parse_args(argv)
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
