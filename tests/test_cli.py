"""Command-line front end: outputs, exit codes, machine format, fixtures."""

import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rcworm
from conftest import DEFAULT_RECURSION_LIMIT, large_pairs, ordinals, rand_delta0, rc_formulas, worms
from rcworm.cli import CODE_BIT_CAP, main, run_fixture_file
from rcworm import rc
from rcworm.ordinal import godel_code
from rcworm.syntax import MAX_NESTING, parse_formula, parse_ordinal, parse_worm, render
from rcworm.truthcore import TRUTH_CAP, parse_truth_formula, render_formula

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures" / "known-values.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


# ---------------------------------------------------------------- commands


def test_ord_compare(capsys):
    code, out = run(capsys, "ord", "compare", "w", "w+1")
    assert code == 0 and out == "<"
    code, out = run(capsys, "ord", "compare", "eps0", "phi(1,0)")
    assert code == 0 and out == "="
    code, out = run(capsys, "ord", "compare", "w*2", "w+3")
    assert code == 0 and out == ">"


def test_ord_add_phi_cnf_code(capsys):
    assert run(capsys, "ord", "add", "3", "w") == (0, "w")
    assert run(capsys, "ord", "add", "w", "3") == (0, "w+3")
    assert run(capsys, "ord", "phi", "1", "0") == (0, "eps0")
    assert run(capsys, "ord", "phi", "0", "1", "--paper") == (0, "w^2")
    assert run(capsys, "ord", "phi", "0", "1") == (0, "w")
    code, out = run(capsys, "ord", "cnf", "w^2+w*2+3")
    assert code == 0 and out == "2, 1, 1, 0, 0, 0"
    assert run(capsys, "ord", "code", "0") == (0, "0")
    assert run(capsys, "ord", "code", "w") == (0, "4")


def test_worm_commands(capsys):
    assert run(capsys, "worm", "o", "[w]") == (0, "eps0")
    assert run(capsys, "worm", "o", "[]") == (0, "0")
    assert run(capsys, "worm", "o-at", "1", "[2,2]") == (0, "w^2")
    assert run(capsys, "worm", "cmp-at", "1", "[2,2]", "[2]") == (0, ">")
    assert run(capsys, "worm", "lift", "w", "[1,0]") == (0, "[w+1,w]")
    assert run(capsys, "worm", "lower", "w", "[w+1,w]") == (0, "[1,0]")


def test_rc_commands(capsys):
    assert run(capsys, "rc", "derives", "<2>p & <1>q", "<2>(p & <1>q)") == (0, "true")
    assert run(capsys, "rc", "derives", "T", "<0>T") == (0, "false")
    code, out = run(capsys, "rc", "derives", "<1><1>p", "<1>p", "--certificate")
    assert code == 0
    assert out.splitlines()[0] == "true"
    assert any("|-" in line for line in out.splitlines()[1:])
    code, out = run(capsys, "rc", "normalize", "q & p & q")
    assert code == 0 and out == "p & q"
    code, out = run(capsys, "rc", "q", "1", "2", "p")
    assert code == 0 and out == "<1>(p & <1>(p & p))"
    assert run(capsys, "rc", "wnf", "<1>T & <0>T") == (0, "[1,0]")


def test_rc_q_past_the_text_budget_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "rc", "q", "1", "1000000000", "p")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "error: rc q text passes 1000000 characters (Q_CHARS)")


def test_rc_q_rejects_negative_k(capsys):
    for k in ("-3", "x"):
        with pytest.raises(SystemExit) as e:
            main(["rc", "q", "1", k, "p"])
        assert e.value.code == 2
        assert "expected a natural number" in capsys.readouterr().err


def test_fgh_rejects_a_negative_argument(capsys):
    for x in ("-1", "x"):
        with pytest.raises(SystemExit) as e:
            main(["fgh", "w", x])
        assert e.value.code == 2
        assert "expected a natural number" in capsys.readouterr().err


# The README's certificate.  cli-batch pins its first and last lines; the
# extractor's step shapes (an added conjunct last in its and-intro, ax-pair
# keeping the old conjunct, cut(ax-proj, d) for each conjunct of the goal)
# are the ones that print it.
_README_CERTIFICATE = """true
0: ax-proj - ; <1>q & <2>p |- <1>q
1: ax-proj - ; <1>q & <2>p |- <2>p
2: ax-proj - ; <1>q & <2>p |- <2>p
3: ax-proj - ; <1>q & <2>p |- <1>q
4: and-intro 2,3 ; <1>q & <2>p |- <2>p & <1>q
5: ax-pair - ; <2>p & <1>q |- <2>(p & <1>q)
6: cut 4,5 ; <1>q & <2>p |- <2>(p & <1>q)
7: and-intro 0,1,6 ; <1>q & <2>p |- <1>q & <2>p & <2>(p & <1>q)
8: ax-proj - ; <1>q & <2>p & <2>(p & <1>q) |- <2>(p & <1>q)
9: ax-refl - ; <2>(p & <1>q) |- <2>(p & <1>q)
10: cut 8,9 ; <1>q & <2>p & <2>(p & <1>q) |- <2>(p & <1>q)
11: cut 7,10 ; <1>q & <2>p |- <2>(p & <1>q)"""


def test_readme_certificate(capsys):
    code, out = run(capsys, "rc", "derives", "<2>p & <1>q", "<2>(p & <1>q)", "--certificate")
    assert (code, out) == (0, _README_CERTIFICATE)


def readme_examples():
    """(command line, lines shown under it) for each `$ rcworm` line of the
    README's sh blocks."""
    examples, in_sh = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("$ "):
            examples.append((line[2:], []))
        elif in_sh and examples:
            examples[-1][1].append(line)
    return examples


def shows(want, out):
    """Whether out reads as the lines want, where a `...` line stands for any
    run of lines."""
    pattern = "\n".join(".*?" if line == "..." else re.escape(line) for line in want)
    return re.fullmatch(pattern, out, re.S) is not None


def test_readme_examples(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the fixture example names a path from the root
    examples = readme_examples()
    assert len(examples) == (ROOT / "README.md").read_text().count("\n$ rcworm ")
    for command, want in examples:
        if not want:
            continue  # shows no output
        argv = shlex.split(command, comments=True)
        assert argv[0] == "rcworm", command
        code, out = run(capsys, *argv[1:])
        assert code == 0 and shows(want, out), (command, out)


def test_certificate_for_a_sequent_the_bounded_search_missed(capsys):
    # self-strengthening doubled the left side at every step, and the search
    # gave up here; the certificate is read off the closure instead
    start = time.perf_counter()
    code, out = run(capsys, "rc", "derives", "--certificate", "<eps0>r", "<0><1>r")
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out.splitlines()[-1].endswith(" ; <eps0>r |- <0><1>r")
    d = rc.proof_search(parse_formula("<eps0>r"), parse_formula("<0><1>r"))
    assert rc.check_derivation(d) and d.to_lines() == out.splitlines()[1:]


def test_certificates_stop_at_the_text_budget(capsys):
    # certificate text grows as lines times formula length: past the cap, a
    # <1> run of 200 prints 42 MB and this derive-large pair 53 MB
    lhs, rhs, _ = next(p for p in large_pairs(2040) if p[2])
    for args in (["<1>" * 400 + "p", "<1>p"], [lhs, rhs]):
        start = time.perf_counter()
        code, out = run(capsys, "rc", "derives", "--certificate", *args)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out.startswith("error: certificate") and "CERTIFICATE_CHARS" in out
        assert run(capsys, "rc", "derives", *args) == (0, "true")
    code, out = run(capsys, "rc", "derives", "--certificate", "<1>" * 30 + "p", "<1>p")
    assert code == 0 and len(out.splitlines()) > 500 and len(out) < rc.CERTIFICATE_CHARS


def test_rc_derives_large_finite_index(capsys):
    for lhs in ("<28>T & <1>T", "<1000>T & <1>T"):
        assert run(capsys, "rc", "derives", lhs, "<1>T") == (0, "true")


def test_rc_derives_on_a_long_run_of_diamonds(capsys):
    # neither the model's seeding nor its check recurses per diamond, and
    # equal runs are one interned object, so the seeding's sibling check
    # does not walk them
    run_ = "<1>" * 1000 + "T"
    cases = ((run_, "<1>T", "true"), ("<1>T", run_, "false"), (run_ + " & " + run_, "<1>T", "true"))
    for lhs, rhs, want in cases:
        start = time.perf_counter()
        assert run(capsys, "rc", "derives", lhs, rhs) == (0, want)
        assert time.perf_counter() - start < 5.0


def test_rc_normalize_computes_no_godel_code(capsys):
    # siblings sort by index in ordinal order; the Godel code of a finite
    # index doubles its bit length per unit
    cases = (
        (("rc", "normalize", "<26>p"), "<26>p"),
        (("rc", "normalize", "<1000>p & <2>p"), "<2>p & <1000>p"),
        (("rc", "derives", "--certificate", "<26>p", "<1>p"), "true\n0: ax-lower - ; <26>p |- <1>p"),
    )
    for argv, want in cases:
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and out.startswith(want)


def test_rc_normalize_on_deep_input(capsys):
    # one post-order pass from an explicit stack, nothing recursing per level
    worm = "[%s]" % ",".join(["1,0"] * 1500)
    for text, want in ((worm, "<1><0>" * 1500 + "T"), ("<1>" * 3000 + "p", "<1>" * 3000 + "p")):
        start = time.perf_counter()
        assert run(capsys, "rc", "normalize", text) == (0, want)
        assert time.perf_counter() - start < 5.0


def test_spectrum_and_analysis(capsys):
    code, out = run(capsys, "spectrum", "pa-t", "--levels", "0,1,2,w,w+1")
    assert code == 0
    assert out.splitlines() == [
        "0 -> eps(eps0)",
        "1 -> eps(eps0)",
        "2 -> eps(eps0)",
        "w -> eps0",
        "w+1 -> eps0",
    ]
    # levels containing commas inside phi(...) still split correctly
    code, out = run(capsys, "spectrum", "pi01-ca0:eps0", "--levels", "0,phi(1,0)")
    assert code == 0 and out.splitlines() == [
        "0 -> phi(eps0+1,0)",
        "eps0 -> phi(eps0+1,0)",
    ]
    code, out = run(capsys, "ord-analysis", "pi01-ca0:1")
    assert code == 0 and "phi(2,0)" in out


@pytest.mark.parametrize(
    "theory",
    ["pi01-ca0:1", "pi01-ca:w", "pi01-ca0-lim:w", "pi01-ca-lim:w^w", "pa-t",
     "aca", "ea-ct-isigma-n:2"],
)
def test_ord_analysis_on_every_preset(capsys, theory):
    code, out = run(capsys, "ord-analysis", theory)
    assert code == 0
    heads = [line.split(":")[0].split(" ->")[0] for line in out.splitlines()]
    assert heads == [
        "theory", "well-ordering bound", "function class",
        "level 0", "level 1", "level w",
    ]


@pytest.mark.parametrize(
    "theory", ["pi01-ca0", "pi01-ca0-lim", "ea-ct-isigma-n", "pa-t:1", "aca:w",
               "pi01-ca0-lim:5", "pi01-ca-lim:w+1"],
)
def test_ord_analysis_refuses_a_bad_parameter(capsys, theory):
    code, out = run(capsys, "ord-analysis", theory)
    assert code == 1 and out.startswith("error:")


def test_fgh_command(capsys):
    assert run(capsys, "fgh", "0", "2") == (0, "17")
    code, out = run(capsys, "fgh", "1", "2")
    assert code == 1 and out.startswith("error")


def test_truth_commands(tmp_path, capsys):
    sfile = tmp_path / "m.json"
    sfile.write_text(json.dumps({"P": [0, 3]}))
    code, out = run(capsys, "truth", "eval", "P(3)", "--structure", str(sfile))
    assert code == 0 and out == "true"
    code, out = run(capsys, "truth", "eval", "P(1)", "--structure", str(sfile))
    assert code == 0 and out == "false"
    code, out = run(capsys, "truth", "eval", "all x <= 2 . x <= 2")
    assert code == 0 and out == "true"
    code, out = run(capsys, "truth", "build-ef", "0 = 0")
    assert code == 0 and "0 = 0" in out
    assert run(capsys, "truth", "classify", "all x . P(x)") == (0, "pi 1")
    assert run(capsys, "truth", "classify", "0 = 0") == (0, "delta0")


def test_ord_code_too_long_to_print(capsys):
    tower = "w^w^w^w^w^w^w^w^w"  # a 94,179-bit code
    code, out = run(capsys, "ord", "code", tower)
    assert code == 1 and out.startswith("error:") and str(CODE_BIT_CAP) in out
    code, payload = run_json(capsys, "ord", "code", tower)
    assert code == 1
    assert payload["command"] == "ord code" and payload["ok"] is False
    assert str(CODE_BIT_CAP) in payload["error"]
    code, out = run(capsys, "ord", "code", "w^w^w^w^w^w^w")  # 5,888 bits
    assert code == 0 and len(out) == 1773


def test_ord_code_cap_holds_for_a_cached_code(capsys):
    tower = "w^w^w^w^w^w^w^w^w"
    a = parse_ordinal(tower)  # alive, so each parse below returns a itself
    assert godel_code(a).bit_length() == 94179  # cached on a, uncapped
    for _ in range(2):
        code, out = run(capsys, "ord", "code", tower)
        assert code == 1 and str(CODE_BIT_CAP) in out


def test_worm_o_on_a_long_worm(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "worm", "o", "[%s]" % ",".join(["1,0"] * 1500))
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, "w*1500")


def test_worm_o_refuses_a_deep_worm_at_once(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "worm", "o", "[%s]" % ",".join(map(str, range(1, 1001))))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out.startswith("error:")


def test_deeply_nested_outputs_render(capsys):
    worm = "[%s]" % ",".join("w*%d+1" % k for k in range(1, 301))
    start = time.perf_counter()
    code, out = run(capsys, "worm", "o", worm)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out.startswith("eps(w^(eps(w^(") and out.count("(") == out.count(")")
    start = time.perf_counter()
    code, out = run(capsys, "rc", "q", "1", "3000", "p")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, "<1>(p & " * 3000 + "p" + ")" * 3000)


def test_rc_wnf_on_long_worm_literals(capsys):
    # 3000 letters: neither the formula walk nor the merge recurses per letter
    worm = "[%s]" % ",".join(["1,0"] * 1500)
    for text in (worm, "<1>T & " + worm):
        start = time.perf_counter()
        code, out = run(capsys, "rc", "wnf", text)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, worm)  # [1] & W is W when W starts with 1


def test_rc_wnf_on_a_long_run_of_diamonds(capsys):
    # the parser builds a run of diamonds inside out, without recursing
    start = time.perf_counter()
    code, out = run(capsys, "rc", "wnf", "<1>" * 3000 + "T")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (0, "[%s]" % ",".join(["1"] * 3000))


def test_rc_wnf_large_finite_index_is_fast(capsys):
    start = time.perf_counter()
    assert run(capsys, "rc", "wnf", "<26>T") == (0, "[26]")
    assert time.perf_counter() - start < 1.0


def test_rc_wnf_where_merging_is_wrong(capsys):
    # merge_words gives a word that is not equivalent, and a 2000-node
    # search over words used to run out here after 2.3 s
    text = ("<w^w><1><3><eps0>T & <w^w>(<0><2><w^2+3>T & <2>(<1><eps0>T & "
            "<0><3><eps0>T & <0>(<1><3><eps0>T & <1><3><eps0>T)))")
    code, out = run(capsys, "rc", "wnf", text)
    assert code == 0
    f, w = parse_formula(text), rc.worm_formula(parse_worm(out))
    assert rc.derives(f, w) and rc.derives(w, f)


def test_ord_code_refused_before_the_whole_code_exists(capsys):
    # the whole code of 27 has about 10^8 bits; its partial codes pass the
    # cap after 14 summands
    for a in ("27", "1000000", "w^w^w^w^w^w^w^w^w^w^w^w^w^w"):
        start = time.perf_counter()
        code, out = run(capsys, "ord", "code", a)
        assert time.perf_counter() - start < 1.0, a
        assert code == 1 and out.startswith("error:") and str(CODE_BIT_CAP) in out


def test_huge_natural_literals_refused(capsys):
    for a in ("999999999999", "99999999999999999999", "w*99999999999", "+".join(["999999"] * 20)):
        start = time.perf_counter()
        code, out = run(capsys, "ord", "compare", a, "1")
        assert time.perf_counter() - start < 1.0, a
        assert code == 1 and out.startswith("error:"), (a, out)
    start = time.perf_counter()
    code, out = run(capsys, "ord", "compare", "+".join(["1"] * 20000), "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, ">")


def test_truth_budget_refuses_at_once(capsys):
    for text in (
        "exp(exp(exp(exp(5)))) = 0",
        "all x <= 100000 . all y <= 100000 . x = y",
        "%d = 0" % (TRUTH_CAP + 1),
    ):
        for command in ("eval", "build-ef"):
            start = time.perf_counter()
            code, out = run(capsys, "truth", command, text)
            assert time.perf_counter() - start < 1.0, (command, text)
            assert code == 1 and out.startswith("error:"), (command, text, out)


def test_truth_deep_numerals_answer(capsys):
    for bound in (500, 5000):
        start = time.perf_counter()
        code, out = run(capsys, "truth", "eval", "all x <= %d . x <= %d" % (bound, bound))
        assert time.perf_counter() - start < 1.0, bound
        assert (code, out) == (0, "true")


# Commands of every family that builds no tree model, each with exit 0.
_NO_MODEL_ARGVS = [
    ["ord", "compare", "w", "w+1"],
    ["ord", "add", "w", "3"],
    ["ord", "phi", "1", "0"],
    ["ord", "cnf", "w^2+3"],
    ["ord", "code", "w"],
    ["worm", "o", "[w]"],
    ["worm", "o-at", "1", "[2,2]"],
    ["worm", "cmp-at", "1", "[2,2]", "[2]"],
    ["worm", "lift", "w", "[1,0]"],
    ["worm", "lower", "w", "[w+1,w]"],
    ["rc", "normalize", "q & p & q"],
    ["rc", "q", "1", "2", "p"],
    ["rc", "wnf", "<1>(T & <1>T)"],
    ["spectrum", "pa-t", "--levels", "0,1,w"],
    ["ord-analysis", "pi01-ca0:1"],
    ["fgh", "0", "2"],
    ["truth", "eval", "all x <= 2 . x <= 2"],
    ["truth", "build-ef", "ex x <= 2 . x = S(0)"],
    ["truth", "classify", "all x . P(x)"],
]

_NO_NUMPY = """
import contextlib, io, json, sys
import rcworm, rcworm.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rcworm.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


def _subprocess_env():
    src = str(Path(rcworm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_no_command_loads_numpy():
    # rcworm has no runtime dependency: deciding a consequence, reading a
    # certificate and running the fixture corpus load no numpy either
    argvs = _NO_MODEL_ARGVS + [
        ["rc", "derives", "[1,0]", "[1]"],
        ["rc", "derives", "<2>p & <1>q", "<2>(p & <1>q)", "--certificate"],
        ["fixtures", "run", str(CORPUS)],
    ]
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, json.dumps(argvs)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rc_derives_on_a_3001_letter_worm_is_fast():
    # the 3,001-node chain is checked by two passes over it per goal
    # diamond; nothing grows with the square of its length
    worm = "[%s]" % ",".join(["1", "0"] * 1500 + ["1"])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from rcworm.cli import main; sys.exit(main(sys.argv[1:]))",
         "rc", "derives", worm, "[1]"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (0, "true\n"), proc.stderr


# -------------------------------------------------------------- exit codes


def test_parse_error_exits_2(capsys):
    code, out = run(capsys, "ord", "compare", "w", "w+")
    assert code == 2 and "parse error" in out


def test_levels_out_of_order_are_a_parse_error(capsys):
    code, out = run(capsys, "spectrum", "pa-t", "--levels", "1,0")
    assert code == 2 and out == "parse error: levels must be strictly increasing"


@pytest.mark.parametrize("content", [b"not json", b"[0, 1]", b"null", b'{"P": 5}', b'{"P": [0.5]}',
                                     b'\xff{"P": [0]}', b'{"P": "12"}', b'{"P": ["a"]}', b'{"P": [-1]}',
                                     b'{"P": [[1, "x"]]}', b'{"P": [true]}', b'{"P": [[]]}',
                                     b'{"P": [[1, false]]}'])
def test_malformed_structure_file_is_a_parse_error(tmp_path, capsys, content):
    sfile = tmp_path / "m.json"
    sfile.write_bytes(content)
    for sentence in ("P(0)", "P(1)"):  # true is no member, so P(1) may not hold
        code, out = run(capsys, "truth", "eval", sentence, "--structure", str(sfile))
        assert code == 2 and out.startswith("parse error:")


def test_structure_members_of_mixed_arity_load(tmp_path, capsys):
    sfile = tmp_path / "m.json"
    sfile.write_text('{"P": [1, [2, 3]]}')
    assert run(capsys, "truth", "eval", "P(1) & P(2, 3) & ~P(2)", "--structure", str(sfile)) == (0, "true")
    path = tmp_path / "checks.txt"
    path.write_text('truth-eval ; P(1) ; {"P": [1, [2, 3]]} ; true\ntruth-eval ; P(1) ; {"P": [true]} ; true\n')
    passed, failures = run_fixture_file(str(path))
    assert passed == 1 and [why.split(":")[0] for _, _, why in failures] == ["ParseError"]


def test_overlong_literals_are_refused(capsys):
    digits = "9" * 5000  # too long for int() to convert
    for argv in (["ord", "compare", digits, "1"], ["ord", "compare", "w*" + digits, "1"],
                 ["truth", "eval", digits + " = 0"]):
        code, out = run(capsys, *argv)
        assert code == 1 and out.startswith("error:"), argv


def test_an_internal_fault_is_not_reported_as_a_parse_error(capsys, monkeypatch):
    def fault(f):
        raise ValueError("internal fault")

    monkeypatch.setattr(rc, "normalize", fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(["rc", "normalize", "p"])
    assert "parse error" not in capsys.readouterr().out


def test_domain_error_exits_1(capsys):
    code, out = run(capsys, "worm", "lower", "1", "[1,0]")
    assert code == 1 and "error" in out
    code, _ = run(capsys, "spectrum", "pa-t", "--levels", "w*2")
    assert code == 1
    # a theory with no second-order clause still reports, marked uncataloged
    code, out = run(capsys, "ord-analysis", "pa-t")
    assert code == 0 and "not cataloged" in out


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["ord", "compare", "w"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------- json output


def test_json_schema_success(capsys):
    code, payload = run_json(capsys, "worm", "o", "[w]")
    assert code == 0
    assert payload == {"command": "worm o", "ok": True, "result": "eps0"}


def test_json_schema_error(capsys):
    code, payload = run_json(capsys, "ord", "compare", "w", "w+")
    assert code == 2
    assert payload["command"] == "ord compare"
    assert payload["ok"] is False
    assert "error" in payload


def test_json_spectrum_payload(capsys):
    code, payload = run_json(capsys, "spectrum", "pa-t", "--levels", "0,w")
    assert code == 0
    assert payload["result"] == {
        "theory": "pa-t",
        "levels": ["0", "w"],
        "ordinals": ["eps(eps0)", "eps0"],
    }


def test_json_rc_certificate(capsys):
    code, payload = run_json(
        capsys, "rc", "derives", "<1><1>p", "<1>p", "--certificate"
    )
    assert code == 0
    assert payload["result"]["derives"] is True
    assert isinstance(payload["result"]["certificate"], list)



def test_json_rc_certificate_of_an_underivable_sequent(capsys):
    assert run(capsys, "rc", "derives", "<0>p", "<1>p", "--certificate") == (0, "false")
    code, payload = run_json(capsys, "rc", "derives", "<0>p", "<1>p", "--certificate")
    assert code == 0 and payload["ok"] is True
    assert payload["result"] == {"derives": False, "certificate": None}


@pytest.mark.parametrize("argv, why", [
    (["truth", "eval", "all x . x = x"], "unbounded quantifier in a bounded-only context"),
    (["truth", "build-ef", "ex y . y = 0"], "unbounded quantifier in a bounded-only context"),
    (["truth", "eval", "x = 0"], "free variables: x"),
])
def test_truth_commands_refuse_what_is_no_delta0_sentence(capsys, argv, why):
    assert run(capsys, *argv) == (1, "error: " + why)
    code, payload = run_json(capsys, *argv)
    assert code == 1 and payload["ok"] is False and payload["error"] == why


# ---------------------------------------------------------------- fixtures


def test_fixture_runner_on_seed_corpus(capsys):
    code, out = run(capsys, "fixtures", "run", str(CORPUS))
    assert (code, out) == (0, "101 passed, 0 failed")


def test_fixture_runner_reports_failures(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "# comment line\n"
        "ord-compare ; w ; w+1 ; <\n"
        "ord-compare ; w ; w+1 ; >\n"
        "worm-o ; [w] ; eps0\n"
        "nonsense-kind ; x ; y\n"
    )
    passed, failures = run_fixture_file(str(bad))
    assert passed == 2
    assert len(failures) == 2
    code, out = run(capsys, "fixtures", "run", str(bad))
    assert code == 1
    assert "2 passed" in out and "2 failed" in out


# One check per kind that passes, and the same check with a wrong answer.
_EVERY_KIND = [
    ("ord-compare ; w ; eps0", "<", ">"),
    ("ord-add ; w+1 ; w", "w*2", "w*2+1"),
    ("ord-phi ; 1 ; 0", "eps0", "w"),
    ("ord-paper-phi ; 0 ; 1", "w^2", "w"),
    ("ord-code ; w", "4", "3"),
    ("worm-o ; [0,1]", "w+1", "w"),
    ("worm-o-at ; w ; [w*2]", "eps0", "eps(eps0)"),
    ("worm-cmp-at ; 0 ; [1] ; [1,0]", "=", "<"),
    ("rc-derives ; <w>p ; <3>p", "true", "false"),
    ("rc-normalize ; T & p", "p", "T & p"),
    ("wnf ; <1><0>T & <1><1>T", "[1,1,0]", "[1,1]"),
    ("ord-at ; pa-t ; w", "eps0", "w"),
    ("spectrum ; pa-t ; 0,w", "eps(eps0),eps0", "eps0,eps0"),
    ("pi11 ; aca", "eps(eps0)", "eps0"),
    ("fgh-class ; pa-t", "eps(eps0)", "eps0"),
    ("fgh ; 0 ; 2", "17", "16"),
    ('truth-eval ; P(0) ; {"P": [0]}', "true", "false"),
    ("classify ; ex x . all y . y <= x", "sigma 2", "pi 2"),
]


def test_fixture_runner_runs_every_kind_through_its_command(tmp_path):
    lines = []
    for check, good, bad in _EVERY_KIND:
        lines += ["%s ; %s" % (check, good), "%s ; %s" % (check, bad)]
    path = tmp_path / "kinds.txt"
    path.write_text("\n".join(lines) + "\n")
    passed, failures = run_fixture_file(str(path))
    assert passed == len(_EVERY_KIND) == 18
    assert [lineno for lineno, _, _ in failures] == list(range(2, 37, 2))
    assert [why for _, _, why in failures] == ["got " + good for _, good, _ in _EVERY_KIND]


def test_fixture_runner_compares_printed_text(tmp_path):
    # the expected field is what the command prints, in canonical form
    path = tmp_path / "one.txt"
    path.write_text("worm-o ; [w] ; phi(1,0)\n")
    assert run_fixture_file(str(path)) == (0, [(1, "worm-o ; [w] ; phi(1,0)", "got eps0")])


def test_fixture_runner_goes_on_past_malformed_lines(tmp_path, capsys):
    path = tmp_path / "malformed.txt"
    path.write_text(
        "worm-o ; [w]\n"  # no expected field
        "fgh ; w ; x ; 1\n"  # x is not a natural: argparse refuses it
        'truth-eval ; P(0) ; {"P": [0] ; true\n'  # not JSON
        "worm-o ; [w] ; eps0\n"
    )
    passed, failures = run_fixture_file(str(path))
    assert passed == 1
    assert [why.split(":")[0] for _, _, why in failures] == [
        "ParseError", "ParseError", "JSONDecodeError"]
    assert "worm-o takes 2 fields, got 1" in failures[0][2]
    assert "expected a natural number" in failures[1][2]
    assert capsys.readouterr().err == ""


def test_fixture_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# caf\u00e9\nworm-o ; [w] ; eps0\n".encode("latin-1"))
    code, out = run(capsys, "fixtures", "run", str(path))
    assert code == 2 and out.startswith("parse error:")


def test_paths_with_a_nul_are_parse_errors(capsys):
    for argv in (["fixtures", "run", "a\0b"], ["truth", "eval", "P(0)", "--structure", "a\0b"]):
        code, out = run(capsys, *argv)
        assert code == 2 and out.startswith("parse error:"), argv


# ---------------------------------------------------------- nesting bound


def _nested(opener, inner, closer, n):
    return opener * n + inner + closer * n


def _chain(op, operand, links):
    return op.join([operand] * (links + 1))


# Family -> the command line of a text nested n levels deep in it.
_NESTING = {
    "rc parentheses": lambda n: ["rc", "derives", _nested("(", "p", ")", n), "p"],
    "rc q shape": lambda n: ["rc", "normalize", _nested("<1>(p & ", "p", ")", n)],
    "w^(": lambda n: ["ord", "cnf", _nested("w^(", "1", ")", n)],
    "w^w^": lambda n: ["ord", "cnf", "w^" * n + "1"],
    "phi(1,": lambda n: ["ord", "cnf", _nested("phi(1,", "0", ")", n)],
    "worm letter": lambda n: ["worm", "o", "[%s]" % _nested("w^(", "1", ")", n)],
    "truth parentheses": lambda n: ["truth", "eval", _nested("(", "0 = 0", ")", n)],
    "&": lambda n: ["truth", "eval", _chain(" & ", "0 = 0", n)],
    "|": lambda n: ["truth", "build-ef", _chain(" | ", "0 = 0", n)],
    "+": lambda n: ["truth", "eval", _chain(" + ", "0", n) + " = 0"],
    "*": lambda n: ["truth", "eval", _chain(" * ", "1", n) + " = 1"],
    "S(": lambda n: ["truth", "eval", _nested("S(", "0", ")", n) + " = %d" % n],
    "exp(": lambda n: ["truth", "classify", _nested("exp(", "0", ")", n) + " = 0"],
    "quantifier": lambda n: ["truth", "eval", "all x <= 0 . " * n + "x = 0"],
    "neg": lambda n: ["truth", "eval", "neg " + _nested("(", "0 = 1", ")", n - 1)],
}


@pytest.mark.parametrize("family", list(_NESTING))
def test_nesting_at_the_bound_answers_and_one_level_more_is_refused(capsys, family):
    # at the recursion limit a command-line process gets (conftest checks it)
    code, out = run(capsys, *_NESTING[family](MAX_NESTING))
    assert code == 0, out[:200]
    code, out = run(capsys, *_NESTING[family](MAX_NESTING + 1))
    assert code == 1 and "nested more than %d levels" % MAX_NESTING in out, out[:200]


def test_nesting_counts_a_chain_above_its_first_operand(capsys):
    # "(A) & B & ..." nests A's levels under every link of the chain
    text = "0 = 0"
    for _ in range(2):
        text = "(%s)%s" % (text, " & 0 = 0" * 99)
    assert run(capsys, "truth", "eval", text) == (0, "true")
    code, out = run(capsys, "truth", "eval", "(%s) & 0 = 0" % text)
    assert code == 1 and str(MAX_NESTING) in out


def test_right_nested_chains_render_in_linear_time(capsys):
    # each level is a link and a "(", so 100 levels of each are the bound
    for op in ("&", "|"):
        text = _nested("0 = 0 %s (" % op, "0 = 0", ")", MAX_NESTING // 2)
        start = time.perf_counter()
        code, out = run(capsys, "truth", "build-ef", text)
        assert time.perf_counter() - start < 5.0
        want = "%s : 1" % render_formula(parse_truth_formula(text))
        assert code == 0 and want in out.splitlines() and out.endswith("locally correct: yes")


def test_build_ef_renders_numerals_in_linear_time(capsys):
    # a numeral prints the value it cached when built, not by walking its
    # 5,000 successors once per line; the text is what the chain walk printed
    start = time.perf_counter()
    code, out = run(capsys, "truth", "build-ef", "all x <= 5000 . x <= 5000")
    assert time.perf_counter() - start < 1.0
    numerals = sorted(str(n) for n in range(5001))
    want = (["%s = %s" % (t, t) for t in numerals] + ["%s <= 5000 : 1" % t for t in numerals]
            + ["all x <= 5000 . x <= 5000 : 1", "locally correct: yes"])
    assert (code, out) == (0, "\n".join(want))


def test_deep_nearly_equal_siblings_normalize(capsys):
    # sibling order walks a run of equal diamonds in a loop
    for n in (1000, 5000):
        start = time.perf_counter()
        code, out = run(capsys, "rc", "normalize", "<1>" * n + "p & " + "<1>" * n + "q")
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (0, "<1>" * n + "p & " + "<1>" * n + "q")


_ONCE_CRASHED = [
    ["truth", "eval", _nested("(", "0 = 0", ")", 400)],
    ["truth", "eval", _chain(" & ", "0 = 0", 999)],
    ["truth", "eval", _chain(" + ", "0", 999) + " = 0"],
    ["truth", "build-ef", _chain(" | ", "0 = 0", 499)],
    ["ord", "cnf", _nested("w^(", "1", ")", 500)],
    ["ord", "cnf", _nested("phi(1,", "0", ")", 400)],
    ["rc", "derives", _nested("(", "p", ")", 400), "p"],
    ["rc", "wnf", _nested("(", "p", ")", 3000)],
    ["rc", "normalize", "<1>" * 1000 + "p & " + "<1>" * 1000 + "q"],
]


@pytest.mark.parametrize("argv", _ONCE_CRASHED, ids=lambda argv: " ".join(argv[:2]))
def test_inputs_that_once_crashed_end_in_time(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code in (0, 1, 2), out[:200]


# ---------------------------------------------------------------- fuzzing

_TOKENS = ["w", "phi", "eps", "eps0", "T", "p", "q", "0", "1", "2", "12", "(", ")", "[",
           "]", ",", "<", ">", "&", "+", "*", "^", "-", "all", "ex", "x", "y", "<=", "=",
           ".", "S", "exp", "P", "|", "neg", "ω", "ε₀", "⟨", "∧", ":", " "]

_soup = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                  st.text(max_size=12))
_ordinal = st.one_of(_soup, ordinals().map(render))
_worm = st.one_of(_soup, worms().map(render))
_formula = st.one_of(_soup, rc_formulas(indices=ordinals(max_leaves=3), max_leaves=6).map(render))
_natural = st.one_of(_soup, st.integers(min_value=0, max_value=40).map(str))
_theory = st.one_of(_soup, st.tuples(
    st.sampled_from(["pi01-ca0", "pi01-ca", "pi01-ca0-lim", "pi01-ca-lim", "pa-t", "aca",
                     "ea-ct-isigma-n"]),
    st.one_of(st.just(""), ordinals(max_leaves=3).map(lambda a: ":" + render(a))),
).map("".join))
_levels = st.one_of(_soup, st.lists(ordinals(max_leaves=3).map(render), max_size=4).map(",".join))
_sentence = st.one_of(_soup, st.integers(0, 10**6).map(
    lambda seed: render_formula(rand_delta0(random.Random(seed), 3))))

_COMMANDS = st.one_of(
    st.tuples(st.just(["ord"]), st.sampled_from(["compare", "add", "phi"]).map(lambda c: [c]),
              _ordinal, _ordinal, st.sampled_from([[], ["--paper"]])),
    st.tuples(st.just(["ord"]), st.sampled_from(["cnf", "code"]).map(lambda c: [c]), _ordinal),
    st.tuples(st.just(["worm", "o"]), _worm),
    st.tuples(st.sampled_from(["o-at", "lift", "lower"]).map(lambda c: ["worm", c]),
              _ordinal, _worm),
    st.tuples(st.just(["worm", "cmp-at"]), _ordinal, _worm, _worm),
    st.tuples(st.just(["rc", "derives"]), _formula, _formula,
              st.sampled_from([[], ["--certificate"]])),
    st.tuples(st.sampled_from(["normalize", "wnf"]).map(lambda c: ["rc", c]), _formula),
    st.tuples(st.just(["rc", "q"]), _ordinal, _natural, _formula),
    st.tuples(st.just(["spectrum"]), _theory, st.just("--levels"), _levels),
    st.tuples(st.just(["ord-analysis"]), _theory),
    st.tuples(st.just(["fgh"]), _ordinal, _natural),
    st.tuples(st.sampled_from(["eval", "build-ef", "classify"]).map(lambda c: ["truth", c]),
              _sentence),
    st.tuples(st.just(["fixtures", "run"]), st.one_of(_soup, st.just(str(CORPUS)))),
)


def _flatten(parts):
    argv = []
    for part in parts:
        argv += part if isinstance(part, list) else [part]
    return argv


# The families of _NESTING, and runs of diamonds (which open no level), at
# depths 10-5,000; a <1> run stays at 1,000 for derives, whose closure grows
# cubically with the model.
_DEEP = st.one_of(
    st.tuples(st.sampled_from(list(_NESTING)), st.integers(10, 5000)).map(
        lambda fd: _NESTING[fd[0]](fd[1])),
    st.tuples(st.sampled_from(["normalize", "wnf"]), st.integers(10, 5000)).map(
        lambda cd: ["rc", cd[0], "<1>" * cd[1] + "T"]),
    st.integers(10, 1000).map(lambda d: ["rc", "derives", "<1>" * d + "T", "<1>T"]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_COMMANDS.map(_flatten), st.booleans())
def test_main_fuzz_exits_0_1_or_2_in_time(argv, as_json):
    _assert_exits_0_1_or_2_in_time(argv, as_json)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_DEEP, st.booleans())
def test_main_fuzz_on_deep_nesting(argv, as_json):
    _assert_exits_0_1_or_2_in_time(argv, as_json)


def _assert_exits_0_1_or_2_in_time(argv, as_json):
    if as_json:
        # before any "--" the argument soup holds, after which "--json" is a positional
        argv.insert(argv.index("--") if "--" in argv else len(argv), "--json")
    out = io.StringIO()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)  # hypothesis raises it during a test
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage error
            code = e.code
        finally:
            sys.setrecursionlimit(limit)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2), argv
    if as_json and out.getvalue():
        payload = json.loads(out.getvalue())
        assert set(payload) - {"error"} == {"command", "ok", "result"}, argv
        assert payload["ok"] is (code == 0)
