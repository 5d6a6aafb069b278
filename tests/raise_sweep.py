"""Neutralise each check of a run in turn and report the ones that the
tier-1 suite misses.

A site is a statement of ``mutalg.py`` or ``quiver.py`` that raises a
``StructuralFailure`` (the run, not its input, is at fault) or returns an
invalid ``SawTeethReport``.  For each site the sweep replaces that one
statement by ``pass`` in a copy of ``src/`` (see ``planted_faults.py``)
and runs the tier-1 suite against the copy once, with ``-x``.  It prints
``CAUGHT`` or ``MISSED`` per site.  A missed site is an error unless
``ALLOWED`` names it with the reason that no run reaches it.  The sites
run one after another, each a full pytest process, so a sweep takes
minutes: it is a manual tool, not a CI step.

Usage, from anywhere::

    python tests/raise_sweep.py

It exits 1 on a missed site that ``ALLOWED`` does not name, or on an
entry of ``ALLOWED`` that names no site.
"""

import ast
import sys
import time

from planted_faults import ROOT, run_patched

FILES = ("src/richseed/mutalg.py", "src/richseed/quiver.py")

# (file, a text of the statement) -> why no run reaches the site
ALLOWED = {
    ("src/richseed/mutalg.py", "cut seed still has members"):
        "from the last v-index of its color on, the support check expects an empty "
        "truncation for every member, so a member left at step l(v) has raised already",
    ("src/richseed/mutalg.py", "summands survive, expected"):
        "deleted_at holds l(v) distinct indices, so exactly l(w) - l(v) summands survive",
}


def _structural_failures() -> set[str]:
    """``StructuralFailure`` and the names of its subclasses in ``errors.py``,
    which defines each class after its bases."""
    names = {"StructuralFailure"}
    for node in ast.parse((ROOT / "src/richseed/errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in names
                                                  for b in node.bases):
            names.add(node.name)
    return names


def _is_site(node: ast.AST, failures: set[str]) -> bool:
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", None) in failures
    return (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "SawTeethReport"
            and len(node.value.args) > 2 and getattr(node.value.args[2], "value", None) is False)


def sites(file: str) -> list[tuple[int, str, str]]:
    """(line, statement, the file's text with the statement replaced by
    ``pass``) for each site of ``file``, in the order of the lines."""
    text, failures = (ROOT / file).read_text(), _structural_failures()
    lines = text.splitlines(keepends=True)
    out = []
    for node in ast.walk(ast.parse(text)):
        if _is_site(node, failures):
            first = lines[node.lineno - 1]
            indent = first[: len(first) - len(first.lstrip())]
            neutral = [*lines[: node.lineno - 1], f"{indent}pass\n", *lines[node.end_lineno :]]
            out.append((node.lineno, ast.get_source_segment(text, node), "".join(neutral)))
    return sorted(out)


def main() -> int:
    ok, used = True, set()
    for file in FILES:
        for line, statement, text in sites(file):
            start = time.perf_counter()
            caught, summary = run_patched(file, text, ["-x", str(ROOT / "tests")])
            reasons = [key for key in ALLOWED if key[0] == file and key[1] in statement]
            used.update(reasons)
            ok &= caught or bool(reasons)
            status = "CAUGHT" if caught else "MISSED"
            why = f" [allowed: {ALLOWED[reasons[0]]}]" if reasons and not caught else ""
            seconds = time.perf_counter() - start
            print(f"{status} {file}:{line} {' '.join(statement.split())[:88]}: "
                  f"{summary} ({seconds:.1f} s){why}", flush=True)
    for file, text in ALLOWED.keys() - used:
        ok = False
        print(f"STALE allowed site {text!r} of {file} is not a site", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
