"""Command lines for the cli-batch workload and the output each must print.

Most cases are the checks of the repository's fixture corpus,
fixtures/known-values.txt, turned into command lines: COMMANDS maps each
check kind to the argv it becomes and the output the check's fields demand.
The rest are written out below: README examples the corpus does not cover,
`worm lift`/`worm lower`/`rc q` values worked out from their definitions,
error exits, and `fixtures run` on the corpus itself.  Every command family
appears at least once.

A case is (argv, expect, exit code).  expect is one of
  ("out", text)          stdout, stripped, equals text
  ("lines", {i: text})   stdout line i equals text (negative i from the end)
  ("json", obj)          stdout parses as JSON equal to obj
  ("prefix", text)       stdout starts with text
"""

import json
import os

CORPUS = os.path.join("fixtures", "known-values.txt")


def _split_top(text):
    """Split on commas outside brackets, as `--levels` lists are split."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch in "([<") - (ch in ")]>")
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    return parts + [cur]


def _out(argv, text, code=0):
    return (argv, ("out", text), code)


def _spectrum(theory, levels, want):
    pairs = zip(_split_top(levels), _split_top(want))
    return _out(["spectrum", theory, "--levels", levels],
                "\n".join("%s -> %s" % pair for pair in pairs))


# Check kind -> (fields -> case).  truth-eval is handled in cases(): a
# non-empty structure has to be written to a file for `--structure`.
COMMANDS = {
    "ord-compare": lambda a, b, r: _out(["ord", "compare", a, b], r),
    "ord-add": lambda a, b, s: _out(["ord", "add", a, b], s),
    "ord-phi": lambda a, b, v: _out(["ord", "phi", a, b], v),
    "ord-paper-phi": lambda a, b, v: _out(["ord", "phi", a, b, "--paper"], v),
    "ord-code": lambda a, n: _out(["ord", "code", a], n),
    "worm-o": lambda w, o: _out(["worm", "o", w], o),
    "worm-o-at": lambda level, w, o: _out(["worm", "o-at", level, w], o),
    "worm-cmp-at": lambda level, w1, w2, r: _out(["worm", "cmp-at", level, w1, w2], r),
    "rc-derives": lambda f, g, b: _out(["rc", "derives", f, g], b),
    "rc-normalize": lambda f, nf: _out(["rc", "normalize", f], nf),
    "wnf": lambda f, w: _out(["rc", "wnf", f], w),
    "ord-at": lambda t, level, o: _out(["spectrum", t, "--levels", level],
                                       "%s -> %s" % (level, o)),
    "spectrum": _spectrum,
    "pi11": lambda t, o: (["ord-analysis", t], ("lines", {1: "well-ordering bound: " + o}), 0),
    "fgh-class": lambda t, o: (["ord-analysis", t], ("lines", {2: "function class: " + o}), 0),
    "fgh": lambda a, x, v: _out(["fgh", a, x], v),
    "classify": lambda f, c: _out(["truth", "classify", f], c),
}

HAND_WRITTEN = [
    _out(["ord", "cnf", "w^2*2+3"], "2, 2, 0, 0, 0"),
    (["ord", "compare", "w^w", "eps0", "--json"],
     ("json", {"command": "ord compare", "ok": True, "result": "<"}), 0),
    (["ord", "compare", "w^", "1"], ("prefix", "parse error:"), 2),
    _out(["worm", "lift", "1", "[0,1]"], "[1,2]"),
    _out(["worm", "lower", "1", "[1,2]"], "[0,1]"),
    _out(["rc", "derives", "[1,0]", "[1]"], "true"),
    (["rc", "derives", "<2>p & <1>q", "<2>(p & <1>q)", "--certificate"],
     ("lines", {0: "true",
                1: "0: ax-proj - ; <1>q & <2>p |- <1>q",
                -1: "11: cut 7,10 ; <1>q & <2>p |- <2>(p & <1>q)"}), 0),
    _out(["rc", "normalize", "q & p & q"], "p & q"),
    _out(["rc", "q", "1", "2", "p"], "<1>(p & <1>(p & p))"),
    _out(["rc", "wnf", "<1>(T & <1>T)"], "[1,1]"),
    _out(["spectrum", "pa-t", "--levels", "0,1,w"],
         "0 -> eps(eps0)\n1 -> eps(eps0)\nw -> eps0"),
    (["spectrum", "pa-t", "--levels", "w*2"], ("prefix", "error:"), 1),
    _out(["ord-analysis", "pi01-ca0:1"],
         "theory: pi01-ca0:1\nwell-ordering bound: phi(2,0)\nfunction class: phi(2,0)\n"
         "level 0 -> phi(2,0)\nlevel 1 -> phi(2,0)\nlevel w -> phi(2,0)"),
    (["fgh", "2", "3"], ("prefix", "error:"), 1),
    _out(["truth", "eval", "all x <= 3 . P(x) | x <= 3"], "true"),
    _out(["truth", "classify", "all x . ex y . x <= y"], "pi 2"),
    (["truth", "build-ef", "ex x <= 2 . x = S(0)"],
     ("lines", {-2: "ex x <= 2 . x = 1 : 1", -1: "locally correct: yes"}), 0),
]


def cases(root, scratch):
    """Every case, the corpus's checks first.  Structures for truth-eval
    checks are written as JSON files under `scratch`."""
    corpus = os.path.join(root, CORPUS)
    out = []
    with open(corpus) as fh:
        lines = [line.strip() for line in fh]
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        kind, *fields = [p.strip() for p in line.split(";")]
        if kind != "truth-eval":
            out.append(COMMANDS[kind](*fields))
            continue
        formula, structure, want = fields
        argv = ["truth", "eval", formula]
        if json.loads(structure):
            path = os.path.join(scratch, "structure-line%d.json" % lineno)
            with open(path, "w") as sf:
                sf.write(structure)
            argv += ["--structure", path]
        out.append(_out(argv, want))
    out.append(_out(["fixtures", "run", corpus], "%d passed, 0 failed" % len(out)))
    return out + HAND_WRITTEN


def check(case, code, stdout):
    """None when the process printed what the case expects, else a reason."""
    _, (kind, want), want_code = case
    if code != want_code:
        return "exit %d, expected %d: %r" % (code, want_code, stdout[-200:])
    text = stdout.strip()
    if kind == "out":
        ok = text == want
    elif kind == "prefix":
        ok = text.startswith(want)
    elif kind == "json":
        try:
            ok = json.loads(text) == want
        except ValueError:
            ok = False
    else:
        lines = text.splitlines()
        ok = all(-len(lines) <= i < len(lines) and lines[i] == line
                 for i, line in want.items())
    return None if ok else "unexpected output %r" % text[-300:]
