"""Command-line front end.

Every subcommand is a thin shell over one library call: parse the inputs,
call, render the output.  --json switches to a stable machine format
{"command", "ok", "result", "error"}.  Exit codes: 0 success, 1 domain error
(undefined operation, out-of-catalog theory, exhausted budget), 2 parse or
usage error.
"""

import argparse
import contextlib
import functools
import io
import json
import sys

from . import rc, spectra, truthcore, worm as worm_mod
from .errors import DomainError
from .ordinal import ZERO, ONE, OMEGA, add, cnf_exponents, compare, godel_code, paper_phi, phi
from .syntax import ParseError, parse_formula, parse_ordinal, parse_ordinals, parse_worm, render


def _natural(text):
    """argparse type of a count: a natural number in decimal."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a natural number, got %r" % text)
    return int(text)


def _sym(c):
    return "<" if c < 0 else ("=" if c == 0 else ">")


# ------------------------------------------------------------------ handlers


def _cmd_ord_compare(args):
    c = compare(parse_ordinal(args.a), parse_ordinal(args.b))
    return _sym(c), _sym(c)


def _cmd_ord_add(args):
    s = render(add(parse_ordinal(args.a), parse_ordinal(args.b)))
    return s, s


def _cmd_ord_phi(args):
    fn = paper_phi if args.paper else phi
    s = render(fn(parse_ordinal(args.a), parse_ordinal(args.b)))
    return s, s


def _cmd_ord_cnf(args):
    exps = [render(e) for e in cnf_exponents(parse_ordinal(args.a))]
    return ", ".join(exps) if exps else "(empty sum)", exps


# Longest Godel code `ord code` prints: 14000 bits is at most 4215 decimal
# digits, inside Python's default limit of 4300 on int-to-str conversion.
CODE_BIT_CAP = 14000


def _cmd_ord_code(args):
    n = godel_code(parse_ordinal(args.a), max_bits=CODE_BIT_CAP)
    return str(n), n


def _cmd_worm_o(args):
    s = render(worm_mod.order_type(parse_worm(args.w)))
    return s, s


def _cmd_worm_o_at(args):
    s = render(worm_mod.order_type_at(parse_ordinal(args.alpha), parse_worm(args.w)))
    return s, s


def _cmd_worm_cmp_at(args):
    c = worm_mod.compare_at(
        parse_ordinal(args.alpha), parse_worm(args.w1), parse_worm(args.w2)
    )
    return _sym(c), _sym(c)


def _cmd_worm_lift(args):
    s = render(worm_mod.lift(parse_ordinal(args.alpha), parse_worm(args.w)))
    return s, s


def _cmd_worm_lower(args):
    s = render(worm_mod.lower(parse_ordinal(args.alpha), parse_worm(args.w)))
    return s, s


def _cmd_rc_derives(args):
    f, g = parse_formula(args.f), parse_formula(args.g)
    if not args.certificate:
        ok = rc.derives(f, g)
        return ("true" if ok else "false"), ok
    d = rc.proof_search(f, g)
    if d is None:
        return "false", {"derives": False, "certificate": None}
    rc.check_derivation(d)
    lines = d.to_lines()
    return "true\n" + "\n".join(lines), {"derives": True, "certificate": lines}


def _cmd_rc_normalize(args):
    s = render(rc.normalize(parse_formula(args.f)))
    return s, s


def _cmd_rc_q(args):
    s = render(rc.build_q(parse_ordinal(args.beta), args.k, parse_formula(args.f)))
    return s, s


def _cmd_rc_wnf(args):
    s = render(rc.word_normal_form(parse_formula(args.f)))
    return s, s


def _cmd_spectrum(args):
    t = spectra.parse_theory(args.theory)
    spect = spectra.spectrum(t, parse_ordinals(args.levels))
    human = "\n".join(
        "%s -> %s" % (render(l), render(o)) for l, o in spect
    )
    payload = {
        "theory": t.name,
        "levels": [render(l) for l in spect.levels()],
        "ordinals": [render(o) for o in spect.ordinals()],
    }
    return human or "(empty)", payload


def _cmd_ord_analysis(args):
    t = spectra.parse_theory(args.theory)
    try:
        p11 = render(spectra.pi11_ordinal(t))
    except DomainError:
        p11 = None
    try:
        fcl = render(spectra.fgh_class_label(t))
    except DomainError:
        fcl = None
    levels = [ZERO, ONE]
    if t.bound is None or compare(OMEGA, t.bound) < 0:
        levels.append(OMEGA)
    spect = spectra.spectrum(t, levels)
    lines = ["theory: %s" % t.name]
    lines.append("well-ordering bound: %s" % (p11 or "not cataloged"))
    lines.append("function class: %s" % (fcl or "not cataloged"))
    for l, o in spect:
        lines.append("level %s -> %s" % (render(l), render(o)))
    payload = {
        "theory": t.name,
        "pi11": p11,
        "fghClass": fcl,
        "levels": [render(l) for l in spect.levels()],
        "ordinals": [render(o) for o in spect.ordinals()],
    }
    return "\n".join(lines), payload


def _cmd_fgh(args):
    n = spectra.fgh_eval(parse_ordinal(args.alpha), args.x)
    return str(n), n


def _structure_from(args):
    if args.structure is None:
        return truthcore.FiniteStructure({})
    return truthcore.load_structure(args.structure)


def _cmd_truth_eval(args):
    f = truthcore.parse_truth_formula(args.formula)
    got = truthcore.tr_eval(f, _structure_from(args))
    return ("true" if got else "false"), got


def _cmd_truth_build_ef(args):
    f = truthcore.parse_truth_formula(args.formula)
    structure = _structure_from(args)
    s = truthcore.build_evaluation(f, structure)
    ok = truthcore.is_evaluation(s, structure)
    terms = sorted(
        (truthcore.render_term(t), v) for t, v in s.term_map.items()
    )
    sents = sorted(
        (truthcore.render_formula(g), v) for g, v in s.sent_map.items()
    )
    lines = ["%s = %d" % (k, v) for k, v in terms]
    lines += ["%s : %d" % (k, v) for k, v in sents]
    lines.append("locally correct: %s" % ("yes" if ok else "NO (%r)" % (ok,)))
    payload = {
        "terms": {k: v for k, v in terms},
        "sentences": {k: v for k, v in sents},
        "valid": bool(ok),
    }
    return "\n".join(lines), payload


def _cmd_truth_classify(args):
    kind, n = truthcore.classify(truthcore.parse_truth_formula(args.formula))
    human = "delta0" if kind == "delta0" else "%s %d" % (kind, n)
    return human, {"kind": kind, "n": n}


def _cmd_fixtures_run(args):
    passed, failures = run_fixture_file(args.path)
    lines = ["%d passed, %d failed" % (passed, len(failures))]
    for lineno, text, why in failures:
        lines.append("line %d: %s" % (lineno, text))
        lines.append("    %s" % why)
    payload = {
        "passed": passed,
        "failed": len(failures),
        "failures": [
            {"line": lineno, "check": text, "reason": why}
            for lineno, text, why in failures
        ],
    }
    if failures:
        raise _FixtureFailure("\n".join(lines), payload)
    return "\n".join(lines), payload


class _FixtureFailure(DomainError):
    def __init__(self, human, payload):
        super().__init__(human)
        self.payload = payload


# ------------------------------------------------------------ fixture runner

# Check kind -> (argv, part).  An int in argv stands for that field of the
# check, whose last field is the expected text.  The text compared is what
# the command prints, or with a part, that key of its --json result (a list
# joined by ",").  truth-eval's structure field is inline JSON.
_CHECKS = {
    "ord-compare": (["ord", "compare", 0, 1], None),
    "ord-add": (["ord", "add", 0, 1], None),
    "ord-phi": (["ord", "phi", 0, 1], None),
    "ord-paper-phi": (["ord", "phi", 0, 1, "--paper"], None),
    "ord-code": (["ord", "code", 0], None),
    "worm-o": (["worm", "o", 0], None),
    "worm-o-at": (["worm", "o-at", 0, 1], None),
    "worm-cmp-at": (["worm", "cmp-at", 0, 1, 2], None),
    "rc-derives": (["rc", "derives", 0, 1], None),
    "rc-normalize": (["rc", "normalize", 0], None),
    "wnf": (["rc", "wnf", 0], None),
    "ord-at": (["spectrum", 0, "--levels", 1], "ordinals"),
    "spectrum": (["spectrum", 0, "--levels", 1], "ordinals"),
    "pi11": (["ord-analysis", 0], "pi11"),
    "fgh-class": (["ord-analysis", 0], "fghClass"),
    "fgh": (["fgh", 0, 1], None),
    "truth-eval": (["truth", "eval", 0, "--structure", 1], None),
    "classify": (["truth", "classify", 0], None),
}


def _run_check(kind, fields):
    """The text a fixture check's command gives, run through its handler."""
    if kind not in _CHECKS:
        raise ParseError("unknown kind %r" % kind)
    template, part = _CHECKS[kind]
    arity = 2 + max(x for x in template if isinstance(x, int))
    if len(fields) != arity:
        raise ParseError("%s takes %d fields, got %d" % (kind, arity, len(fields)))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = _parser().parse_args(
                [fields[x] if isinstance(x, int) else x for x in template]
            )
    except SystemExit:
        raise ParseError(err.getvalue().strip().rpartition("\n")[2] or "usage error") from None
    if kind == "truth-eval":
        args.structure = json.loads(args.structure)
    human, payload = args.fn(args)
    if part is None:
        return human
    got = payload[part]
    return ",".join(got) if isinstance(got, list) else str(got)


def run_fixture_file(path):
    """Run each check of a fixture file; returns (passed count, failure list)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except ValueError as e:  # not UTF-8, or a NUL in the path
        raise ParseError("fixture file %s: %s" % (path, e)) from None
    passed = 0
    failures = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = [p.strip() for p in line.split(";")]
        try:
            got = _run_check(kind, fields)
        except Exception as e:
            failures.append((lineno, line, "%s: %s" % (type(e).__name__, e)))
            continue
        if got == fields[-1]:
            passed += 1
        else:
            failures.append((lineno, line, "got %s" % got))
    return passed, failures


# -------------------------------------------------------------------- wiring


_FLAG = {"action": "store_true"}
_COUNT = {"type": _natural}
_STRUCTURE = ("--structure", {})

# Command -> its handler and arguments, each a name or (name, argparse
# keywords).  A two-word command is a subcommand of its group.
_COMMANDS = {
    "ord compare": (_cmd_ord_compare, "a", "b"),
    "ord add": (_cmd_ord_add, "a", "b"),
    "ord phi": (_cmd_ord_phi, "a", "b", ("--paper", dict(_FLAG, help="offset first level"))),
    "ord cnf": (_cmd_ord_cnf, "a"),
    "ord code": (_cmd_ord_code, "a"),
    "worm o": (_cmd_worm_o, "w"),
    "worm o-at": (_cmd_worm_o_at, "alpha", "w"),
    "worm cmp-at": (_cmd_worm_cmp_at, "alpha", "w1", "w2"),
    "worm lift": (_cmd_worm_lift, "alpha", "w"),
    "worm lower": (_cmd_worm_lower, "alpha", "w"),
    "rc derives": (_cmd_rc_derives, "f", "g", ("--certificate", _FLAG)),
    "rc normalize": (_cmd_rc_normalize, "f"),
    "rc q": (_cmd_rc_q, "beta", ("k", _COUNT), "f"),
    "rc wnf": (_cmd_rc_wnf, "f"),
    "spectrum": (_cmd_spectrum, "theory", ("--levels", {"required": True})),
    "ord-analysis": (_cmd_ord_analysis, "theory"),
    "fgh": (_cmd_fgh, "alpha", ("x", _COUNT)),
    "truth eval": (_cmd_truth_eval, "formula", _STRUCTURE),
    "truth build-ef": (_cmd_truth_build_ef, "formula", _STRUCTURE),
    "truth classify": (_cmd_truth_classify, "formula"),
    "fixtures run": (_cmd_fixtures_run, "path"),
}

_GROUPS = {
    "ord": "ordinal notation arithmetic",
    "worm": "words over ordinal letters",
    "rc": "derivability and normal forms",
    "truth": "bounded sentences over structures",
    "fixtures": "regression corpus",
}


@functools.cache
def _parser():
    top = argparse.ArgumentParser(prog="rcworm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for label, (fn, *arguments) in _COMMANDS.items():
        group, _, name = label.rpartition(" ")
        if group and group not in groups:
            p = sub.add_parser(group, help=_GROUPS[group])
            groups[group] = p.add_subparsers(dest="sub", required=True)
        p = groups[group].add_parser(name) if group else sub.add_parser(name)
        p.add_argument("--json", action="store_true", help="machine output")
        for arg in arguments:
            dest, keywords = arg if isinstance(arg, tuple) else (arg, {})
            p.add_argument(dest, **keywords)
        p.set_defaults(fn=fn, label=label)
    return top


def _emit(args, ok, human, result=None, error=None):
    if args.json:
        payload = {"command": args.label, "ok": ok, "result": result}
        if error is not None:
            payload["error"] = error
        print(json.dumps(payload))
    else:
        print(human)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        human, payload = args.fn(args)
    except _FixtureFailure as e:
        _emit(args, False, str(e), result=e.payload, error="fixture failures")
        return 1
    except ParseError as e:
        _emit(args, False, "parse error: %s" % e, error=str(e))
        return 2
    except (DomainError, OSError) as e:
        _emit(args, False, "error: %s" % e, error=str(e))
        return 1
    _emit(args, True, human, result=payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
