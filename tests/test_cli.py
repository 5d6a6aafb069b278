import json
import random
import subprocess
import sys

import pytest

from richseed.cli import (
    EXAMPLES,
    main,
    seed_document,
)
from richseed.mutalg import run
from richseed.rootsys import cartan, element_of_word, parse_type
from richseed.words import make_word, random_reduced_word


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "richseed.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_examples_all_pass():
    for name, fn in EXAMPLES.items():
        assert fn() == [], f"example {name} diverged"


def test_compute_a5_document(tmp_path):
    out = tmp_path / "seed.json"
    dot = tmp_path / "seed.dot"
    rc = main([
        "compute", "--type", "A5",
        "--w", "1,3,2,4,3,2,4,5,4,3,2,1,2",
        "--v", "2,4,5,3,1,2",
        "--out", str(out), "--dot", str(dot), "--trace",
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["metadata"]["deleted"] == [6, 8, 10, 11, 12, 13]
    assert len(doc["vertices"]) == 7
    assert all(len(v["delta"]) == 15 for v in doc["vertices"])
    assert {v["id"] for v in doc["vertices"] if v["frozen"]} == {2, 3, 5, 7, 9}
    assert "trace" in doc and len(doc["trace"]) == 8
    text = dot.read_text()
    assert text.count("->") == len(doc["arrows"])


def test_compute_empty_v():
    proc = _cli("compute", "--type", "A3", "--w", "2,1,2,3,2,1", "--v", "")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["vertices"]) == 6
    assert doc["metadata"]["schedule"] == []


def test_compute_v_equals_w():
    proc = _cli("compute", "--type", "A3", "--w", "2,1,2,3,2,1", "--v", "2,1,2,3,2,1")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["vertices"]) == 0


@pytest.mark.parametrize("w,v,token", [
    ("1 2", "12", "'1 2'"),
    ("1,2", "1_0", "'1_0'"),
    ("1,2", "+2", "'+2'"),
    ("1,2", "1,\uff12", "'\uff12'"),
])
def test_letters_joined_by_a_space_or_underscore_are_refused(capsys, w, v, token):
    # before, "1 2" was read as the letter 12 and "1_0" as 10
    argv = ["compute", "--type", "A15", "--w", w, "--v", v, "--no-check"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert token in captured.err


@pytest.mark.parametrize("spec", ["A1_0", "A 3", "A+3", "E\u0668", "D\uff15", "A3.0"])
def test_a_rank_that_is_not_ascii_digits_is_refused(capsys, spec):
    # before, the rank was read by int(), so "A1_0" ran as A10 and "E\u0668" as E8
    argv = ["compute", "--type", spec, "--w", "1", "--v", "", "--no-check"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot parse type {spec!r}\n"
    assert captured.out == ""


def test_letters_may_have_blanks_around_commas(capsys):
    assert main(["compute", "--type", "A3", "--w", " 1, 2 ,,3 ", "--v", "", "--no-check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["w"] == [1, 2, 3] and doc["metadata"]["v"] == []


@pytest.mark.parametrize("vdot", ["", ","])
def test_an_empty_completion_is_refused(capsys, vdot):
    # an empty --vdot names the empty word, not the default completion
    argv = ["compute", "--type", "A3", "--w", "2,1,2,3,2,1", "--v", "", "--vdot", vdot]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: completion must be a reduced word of w0\n"
    assert captured.out == ""


def test_exit_code_not_reduced():
    proc = _cli("compute", "--type", "A3", "--w", "1,1", "--v", "")
    assert proc.returncode == 2


def test_exit_code_not_less_or_equal():
    proc = _cli("compute", "--type", "A2", "--w", "1,2", "--v", "2,1,2")
    assert proc.returncode == 3


def test_json_roundtrip():
    c = cartan("A", 3)
    w = make_word(c, [2, 1, 2, 3, 2, 1])
    v = element_of_word(c, [1, 2])
    seed = run(c, w, v)
    doc = seed_document(seed, with_trace=True)
    assert json.loads(json.dumps(doc)) == doc
    ids = [vert["id"] for vert in doc["vertices"]]
    assert len(ids) == len(set(ids))


def test_verify_subcommand_passes():
    proc = _cli("verify", "--type", "A3", "--checks", "equivalence,sawteeth")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "equivalence: pass" in proc.stdout
    assert "sawteeth: pass" in proc.stdout


def test_verify_deterministic_under_seed(monkeypatch):
    import io
    from contextlib import redirect_stdout

    monkeypatch.setenv("RSEED_SEED", "777")
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["verify", "--type", "A3", "--samples", "10",
                       "--checks", "induction,delta-oracle"])
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_examples_subcommand():
    proc = _cli("examples", "a5-run")
    assert proc.returncode == 0
    assert "a5-run: ok" in proc.stdout


A5_ARGS = ["compute", "--type", "A5", "--w", "1,3,2,4,3,2,4,5,4,3,2,1,2", "--v", "2,4,5,3,1,2"]


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


def test_unclassifiable_mid_run_exits_4(monkeypatch, capsys):
    import richseed.mutalg
    from richseed.errors import Unclassifiable

    monkeypatch.setattr(richseed.mutalg, "classify_config", _raise(Unclassifiable("no pattern")))
    assert main(A5_ARGS) == 4
    assert capsys.readouterr().err == "error: no pattern\n"


def test_frozen_vertex_mid_run_exits_4(monkeypatch, capsys):
    from richseed.errors import FrozenVertex
    from richseed.quiver import Quiver

    monkeypatch.setattr(Quiver, "mutate_in_place", _raise(FrozenVertex("vertex 3 is frozen")))
    assert main(A5_ARGS + ["--no-check"]) == 4
    assert capsys.readouterr().err == "error: vertex 3 is frozen\n"


@pytest.mark.parametrize("target,exc_name", [
    ("classify_config", "Unclassifiable"),
    ("delta_vectors", "NegativeCoordinate"),
])
def test_verify_induction_reports_run_failures(monkeypatch, target, exc_name):
    import random

    import richseed.errors
    import richseed.mutalg
    from richseed.cli import check_induction

    exc = getattr(richseed.errors, exc_name)("broken on purpose")
    monkeypatch.setattr(richseed.mutalg, target, _raise(exc))
    ok, info = check_induction(cartan("A", 3), 3, 6, random.Random(1))
    assert not ok
    assert info.endswith("broken on purpose")


def test_out_into_missing_directory_exits_5(tmp_path):
    proc = _cli(*A5_ARGS, "--out", str(tmp_path / "missing" / "seed.json"))
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = _cli(*A5_ARGS, "--dot", str(tmp_path / "missing" / "seed.dot"))
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # the reader is gone before the seed is written, as with `| head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "richseed.cli", *A5_ARGS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 5
    assert err == b""


def test_type_above_size_limit_is_rejected_at_once():
    import time

    # in a child process, so that a regression fails on the timeout
    # instead of hanging the suite
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "richseed.cli", "compute", "--type", "A400", "--w", "1,2", "--v", "1"],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: A400 has 80200 positive roots")
    assert proc.stderr.count("\n") == 1


# sha256 of `richseed compute --trace` output, recorded before the run
# loop moved to one quiver mutated in place and before the green labels
# and then the arrow changes moved from the run to the replay of
# green_report; the trace carries arrows_added, arrows_removed and green,
# which no other test pins
TRACE_DIGESTS = [
    (["--type", "A5", "--w", "1,3,2,4,3,2,4,5,4,3,2,1,2", "--v", "2,4,5,3,1,2",
      "--vdot", "2,3,4,5,4,1,2,3,1,2,4,5,3,1,2"],
     "8365db28f689ad57c669d507440b217c04bbe8cebeb8a35b836f069ff877f56e"),
    (["--type", "D5", "--w", "1,2,4,5,1,3,4,5,3,2,3,5,4,1,2,3,5,2,4,3",
      "--v", "5,1,4,3,2,5,3,5,4,3"],
     "d0ef69c492ff4d8191085cf5d56557ca141a44d8308aa16fa4c43a0ca2e83ba4"),
    (["--type", "E6", "--w",
      "6,2,4,1,3,4,1,2,4,3,4,5,6,4,5,2,3,4,2,5,3,1,6,4,3,4,5,4,2,4,3,1,6,5,4,3",
      "--v", "5,4,6,3,2,5,4,3,1,5,6,3,5,2,4,2,5,6"],
     "92d80e06c9e8a1b335a9da737cb4b784f32ca4c0b522ba764f17376b77a4d7b1"),
    # a full-length E8 w with l(v) = 40, recorded before the vectors were
    # packed into one integer: 475 mutations whose rejected candidates hold
    # negative coordinates, all decoded from the packed form
    (["--type", "E8", "--w",
      "3,5,1,8,3,2,7,8,4,5,2,3,4,2,6,7,5,1,4,6,5,8,2,3,4,7,2,5,4,3,4,8,1,3,4,"
      "2,6,7,8,5,6,7,8,4,3,2,5,1,6,7,4,5,6,2,7,8,4,5,3,1,4,3,2,4,5,6,4,5,2,7,"
      "8,6,7,4,3,1,4,3,5,6,7,4,5,3,2,4,5,6,3,4,7,5,6,1,3,8,2,4,3,5,4,2,7,4,1,"
      "3,1,6,5,4,7,8,6,2,5,3,4,5,7,6",
      "--v", "8,1,6,3,2,4,7,1,8,2,6,7,5,6,7,4,8,5,3,6,1,7,4,5,6,7,8,2,3,4,2,3,5,1,4,2,3,1,6,7"],
     "fca5efa1261baa474c1e33488c819a429c0eed1d1f07d9f52740f8a983f49809"),
]


@pytest.mark.parametrize("args,digest", TRACE_DIGESTS, ids=["A5", "D5", "E6", "E8"])
def test_compute_trace_output_pinned(tmp_path, args, digest):
    import hashlib

    out = tmp_path / "seed.json"
    assert main(["compute", *args, "--trace", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["--type", "A1", "--checks", "induction"],
     "error: verify needs at least 2 positive roots; A1 has 1\n"),
    (["--type", "A3", "--max-len", "1", "--checks", "induction"],
     "error: --max-len must be at least 2, got 1\n"),
])
def test_verify_rejects_arguments_without_words_to_sample(capsys, argv, message):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(capsys, samples):
    assert main(["verify", "--type", "A3", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
    assert captured.out == ""


def test_verify_rejects_a_seed_that_is_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("RSEED_SEED", "abc")
    assert main(["verify", "--type", "A3", "--checks", "induction"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: RSEED_SEED must be an integer, got 'abc'\n"
    assert captured.out == ""


def test_verify_rejects_an_unknown_check_before_running_any(capsys):
    assert main(["verify", "--type", "A3", "--checks", "induction,nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: unknown --checks name 'nope'; valid: "
        "sawteeth, induction, equivalence, delta-oracle, green\n"
    )
    assert captured.out == ""


def test_verify_rejects_samples_above_the_limit_at_once():
    import time

    # in a child process, so that a regression fails on the timeout
    # instead of drawing a billion pairs in the suite
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "richseed.cli", "verify", "--type", "A3",
         "--samples", "1000000000", "--checks", "induction"],
        capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 2
    assert proc.stderr == "error: --samples must be at most 10000, got 1000000000\n"
    assert proc.stdout == ""


# CLI fuzz: small types and short words only, so that every example is
# quick; one rng per example, seeded 0, 1, 2, ..., draws its arguments,
# since a seed drawn by hypothesis repeats
_SMALL = ("A1", "A2", "A3", "A4", "A5", "D4")
_TYPES = _SMALL + ("A0", "D3", "E9", "A16", "A1_0", "x", "")
_ODD_LETTERS = ("", "x", "1.5", " ", "+2")
_CHECK_NAMES = ("sawteeth", "induction", "equivalence", "delta-oracle", "green", "nope", "")


def _letters(rng):
    return ",".join(
        str(rng.randint(-1, 7)) if rng.random() < 0.5 else rng.choice(_ODD_LETTERS)
        for _ in range(rng.randint(0, 8))
    )


def _count(rng):
    return str(rng.randint(-1, 6)) if rng.random() < 0.5 else rng.choice(["x", ""])


def _argv(rng):
    if rng.random() < 0.5:
        spec, w, v = rng.choice(_TYPES), _letters(rng), _letters(rng)
        if spec in _SMALL and rng.random() < 0.5:  # a reduced w, maybe v below it
            letters = random_reduced_word(parse_type(spec), rng.randint(1, 8), rng)
            w = ",".join(map(str, letters))
            if rng.random() < 0.5:
                v = ",".join(str(i) for i in letters if rng.random() < 0.5)
        argv = ["compute", "--type", spec, "--w", w, "--v", v]
        if rng.random() < 0.5:
            argv += ["--order", rng.choice(["paper", "indexed", "x"])]
        if rng.random() < 0.5:
            argv += ["--vdot", _letters(rng)]
        argv += rng.choices(["--trace", "--no-check"], k=rng.randint(0, 2))
    else:
        samples = "1000000000" if rng.random() < 0.5 else _count(rng)
        checks = ",".join(rng.choices(_CHECK_NAMES, k=rng.randint(1, 3)))
        argv = ["verify", "--type", rng.choice(_TYPES), "--samples", samples,
                "--max-len", _count(rng), "--checks", checks]
    if rng.random() < 0.5:  # a token lost or repeated
        i = rng.randrange(len(argv))
        argv = argv[:i] + argv[i + 1 :] if rng.random() < 0.5 else argv[: i + 1] + argv[i:]
    return argv


def test_cli_fuzz_exits_with_a_documented_code():
    import io
    from contextlib import redirect_stderr, redirect_stdout

    for seed in range(80):
        argv = _argv(random.Random(seed))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                assert exc.code == 2, (argv, err.getvalue())
                continue
        assert rc in (0, 1, 2, 3, 4), (argv, rc, err.getvalue())
        if rc >= 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        else:
            assert err.getvalue() == "", argv
