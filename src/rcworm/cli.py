"""Command-line front end.

Every subcommand is a thin shell over one library call: parse the inputs,
call, render the output.  --json switches to a stable machine format
{"command", "ok", "result", "error"}.  Exit codes: 0 success, 1 domain error
(undefined operation, out-of-catalog theory, exhausted budget), 2 parse or
usage error.
"""

import argparse
import json
import sys

from . import rc, spectra, truthcore, worm as worm_mod
from .errors import DomainError, SearchExhaustedError
from .ordinal import ZERO, ONE, OMEGA, cnf_exponents, compare, godel_code
from .syntax import ParseError, parse_formula, parse_ordinal, parse_worm, render


def _natural(text):
    """argparse type of a count: a natural number in decimal."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a natural number, got %r" % text)
    return int(text)


def _sym(c):
    return "<" if c < 0 else ("=" if c == 0 else ">")


def _split_top(text, sep=","):
    """Split on sep at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([<":
            depth += 1
        elif ch in ")]>":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# ------------------------------------------------------------------ handlers


def _cmd_ord_compare(args):
    c = compare(parse_ordinal(args.a), parse_ordinal(args.b))
    return _sym(c), _sym(c)


def _cmd_ord_add(args):
    from .ordinal import add

    s = render(add(parse_ordinal(args.a), parse_ordinal(args.b)))
    return s, s


def _cmd_ord_phi(args):
    from .ordinal import paper_phi, phi

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
    ok = rc.derives(f, g)
    if not args.certificate:
        return ("true" if ok else "false"), ok
    if not ok:
        return "false", {"derives": False, "certificate": None}
    d = rc.proof_search(f, g)
    if d is None:
        raise SearchExhaustedError("derivable, but no certificate within the depth bound")
    rc.check_derivation(d)
    lines = d.to_lines()
    return "true\n" + "\n".join(lines), {"derives": True, "certificate": lines}


def _cmd_rc_normalize(args):
    s = render(rc.normalize(parse_formula(args.f)))
    return s, s


def _cmd_rc_q(args):
    f = rc.build_q(parse_ordinal(args.beta), args.k, parse_formula(args.f))
    return render(f), render(f)


def _cmd_rc_wnf(args):
    w = rc.word_normal_form(parse_formula(args.f))
    return render(w), render(w)


def _cmd_spectrum(args):
    t = spectra.parse_theory(args.theory)
    levels = [parse_ordinal(x) for x in _split_top(args.levels)]
    spect = spectra.spectrum(t, levels)
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
    n = spectra.fgh_eval(parse_ordinal(args.alpha), args.x, guard=args.guard)
    return str(n), n


def _structure_from(args):
    if args.structure is None:
        return truthcore.FiniteStructure()
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


def _fx_ord_compare(a, b, want):
    got = _sym(compare(parse_ordinal(a), parse_ordinal(b)))
    return got == want, got


def _fx_ord_add(a, b, want):
    from .ordinal import add

    got = add(parse_ordinal(a), parse_ordinal(b))
    return got == parse_ordinal(want), render(got)


def _fx_ord_phi(a, b, want):
    from .ordinal import phi

    got = phi(parse_ordinal(a), parse_ordinal(b))
    return got == parse_ordinal(want), render(got)


def _fx_ord_paper_phi(a, b, want):
    from .ordinal import paper_phi

    got = paper_phi(parse_ordinal(a), parse_ordinal(b))
    return got == parse_ordinal(want), render(got)


def _fx_ord_code(a, want):
    got = godel_code(parse_ordinal(a))
    return got == int(want), str(got)


def _fx_worm_o(w, want):
    got = worm_mod.order_type(parse_worm(w))
    return got == parse_ordinal(want), render(got)


def _fx_worm_o_at(alpha, w, want):
    got = worm_mod.order_type_at(parse_ordinal(alpha), parse_worm(w))
    return got == parse_ordinal(want), render(got)


def _fx_worm_cmp_at(alpha, w1, w2, want):
    got = _sym(
        worm_mod.compare_at(parse_ordinal(alpha), parse_worm(w1), parse_worm(w2))
    )
    return got == want, got


def _fx_rc_derives(f, g, want):
    got = rc.derives(parse_formula(f), parse_formula(g))
    return got == (want == "true"), ("true" if got else "false")


def _fx_rc_normalize(f, want):
    got = rc.normalize(parse_formula(f))
    return got == rc.normalize(parse_formula(want)), render(got)


def _fx_wnf(f, want):
    got = rc.word_normal_form(parse_formula(f))
    return got == parse_worm(want), render(got)


def _fx_ord_at(theory, beta, want):
    got = spectra.ord_at(spectra.parse_theory(theory), parse_ordinal(beta))
    return got == parse_ordinal(want), render(got)


def _fx_spectrum(theory, levels, want):
    t = spectra.parse_theory(theory)
    spect = spectra.spectrum(t, [parse_ordinal(x) for x in _split_top(levels)])
    wanted = [parse_ordinal(x) for x in _split_top(want)]
    got = spect.ordinals()
    return got == wanted, ",".join(render(o) for o in got)


def _fx_pi11(theory, want):
    got = spectra.pi11_ordinal(spectra.parse_theory(theory))
    return got == parse_ordinal(want), render(got)


def _fx_fgh_class(theory, want):
    got = spectra.fgh_class_label(spectra.parse_theory(theory))
    return got == parse_ordinal(want), render(got)


def _fx_fgh(alpha, x, want):
    got = spectra.fgh_eval(parse_ordinal(alpha), int(x))
    return got == int(want), str(got)


def _fx_truth_eval(formula, structure, want):
    m = truthcore.load_structure(json.loads(structure))
    got = truthcore.tr_eval(truthcore.parse_truth_formula(formula), m)
    return got == (want == "true"), ("true" if got else "false")


def _fx_classify(formula, want):
    kind, n = truthcore.classify(truthcore.parse_truth_formula(formula))
    got = "delta0" if kind == "delta0" else "%s %d" % (kind, n)
    return got == want, got


_FIXTURE_KINDS = {
    "ord-compare": _fx_ord_compare,
    "ord-add": _fx_ord_add,
    "ord-phi": _fx_ord_phi,
    "ord-paper-phi": _fx_ord_paper_phi,
    "ord-code": _fx_ord_code,
    "worm-o": _fx_worm_o,
    "worm-o-at": _fx_worm_o_at,
    "worm-cmp-at": _fx_worm_cmp_at,
    "rc-derives": _fx_rc_derives,
    "rc-normalize": _fx_rc_normalize,
    "wnf": _fx_wnf,
    "ord-at": _fx_ord_at,
    "spectrum": _fx_spectrum,
    "pi11": _fx_pi11,
    "fgh-class": _fx_fgh_class,
    "fgh": _fx_fgh,
    "truth-eval": _fx_truth_eval,
    "classify": _fx_classify,
}


def run_fixture_file(path):
    """Execute one check per line; returns (passed count, failure list)."""
    passed = 0
    failures = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [p.strip() for p in line.split(";")]
            kind, rest = fields[0], fields[1:]
            fn = _FIXTURE_KINDS.get(kind)
            if fn is None:
                failures.append((lineno, line, "unknown kind %r" % kind))
                continue
            try:
                ok, got = fn(*rest)
            except Exception as e:
                failures.append((lineno, line, "%s: %s" % (type(e).__name__, e)))
                continue
            if ok:
                passed += 1
            else:
                failures.append((lineno, line, "got %s" % got))
    return passed, failures


# -------------------------------------------------------------------- wiring


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine output")

    top = argparse.ArgumentParser(prog="rcworm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p_ord = sub.add_parser("ord", help="ordinal notation arithmetic")
    ord_sub = p_ord.add_subparsers(dest="sub", required=True)
    p = ord_sub.add_parser("compare", parents=[shared])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_ord_compare, label="ord compare")
    p = ord_sub.add_parser("add", parents=[shared])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_ord_add, label="ord add")
    p = ord_sub.add_parser("phi", parents=[shared])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--paper", action="store_true", help="offset first level")
    p.set_defaults(fn=_cmd_ord_phi, label="ord phi")
    p = ord_sub.add_parser("cnf", parents=[shared])
    p.add_argument("a")
    p.set_defaults(fn=_cmd_ord_cnf, label="ord cnf")
    p = ord_sub.add_parser("code", parents=[shared])
    p.add_argument("a")
    p.set_defaults(fn=_cmd_ord_code, label="ord code")

    p_worm = sub.add_parser("worm", help="words over ordinal letters")
    worm_sub = p_worm.add_subparsers(dest="sub", required=True)
    p = worm_sub.add_parser("o", parents=[shared])
    p.add_argument("w")
    p.set_defaults(fn=_cmd_worm_o, label="worm o")
    p = worm_sub.add_parser("o-at", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("w")
    p.set_defaults(fn=_cmd_worm_o_at, label="worm o-at")
    p = worm_sub.add_parser("cmp-at", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("w1")
    p.add_argument("w2")
    p.set_defaults(fn=_cmd_worm_cmp_at, label="worm cmp-at")
    p = worm_sub.add_parser("lift", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("w")
    p.set_defaults(fn=_cmd_worm_lift, label="worm lift")
    p = worm_sub.add_parser("lower", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("w")
    p.set_defaults(fn=_cmd_worm_lower, label="worm lower")

    p_rc = sub.add_parser("rc", help="derivability and normal forms")
    rc_sub = p_rc.add_subparsers(dest="sub", required=True)
    p = rc_sub.add_parser("derives", parents=[shared])
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(fn=_cmd_rc_derives, label="rc derives")
    p = rc_sub.add_parser("normalize", parents=[shared])
    p.add_argument("f")
    p.set_defaults(fn=_cmd_rc_normalize, label="rc normalize")
    p = rc_sub.add_parser("q", parents=[shared])
    p.add_argument("beta")
    p.add_argument("k", type=_natural)
    p.add_argument("f")
    p.set_defaults(fn=_cmd_rc_q, label="rc q")
    p = rc_sub.add_parser("wnf", parents=[shared])
    p.add_argument("f")
    p.set_defaults(fn=_cmd_rc_wnf, label="rc wnf")

    p = sub.add_parser("spectrum", parents=[shared])
    p.add_argument("theory")
    p.add_argument("--levels", required=True)
    p.set_defaults(fn=_cmd_spectrum, label="spectrum")

    p = sub.add_parser("ord-analysis", parents=[shared])
    p.add_argument("theory")
    p.set_defaults(fn=_cmd_ord_analysis, label="ord-analysis")

    p = sub.add_parser("fgh", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("x", type=int)
    p.add_argument("--guard", type=int, default=20000)
    p.set_defaults(fn=_cmd_fgh, label="fgh")

    p_truth = sub.add_parser("truth", help="bounded sentences over structures")
    truth_sub = p_truth.add_subparsers(dest="sub", required=True)
    p = truth_sub.add_parser("eval", parents=[shared])
    p.add_argument("formula")
    p.add_argument("--structure")
    p.set_defaults(fn=_cmd_truth_eval, label="truth eval")
    p = truth_sub.add_parser("build-ef", parents=[shared])
    p.add_argument("formula")
    p.add_argument("--structure")
    p.set_defaults(fn=_cmd_truth_build_ef, label="truth build-ef")
    p = truth_sub.add_parser("classify", parents=[shared])
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_truth_classify, label="truth classify")

    p_fix = sub.add_parser("fixtures", help="regression corpus")
    fix_sub = p_fix.add_subparsers(dest="sub", required=True)
    p = fix_sub.add_parser("run", parents=[shared])
    p.add_argument("path")
    p.set_defaults(fn=_cmd_fixtures_run, label="fixtures run")

    return top


def _emit(args, label, ok, result=None, error=None, human=None):
    if getattr(args, "json", False):
        payload = {"command": label, "ok": ok, "result": result}
        if error is not None:
            payload["error"] = error
        print(json.dumps(payload))
    else:
        print(human if human is not None else (error or ""))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    label = getattr(args, "label", args.command)
    try:
        human, payload = args.fn(args)
    except _FixtureFailure as e:
        _emit(args, label, False, result=e.payload, error="fixture failures", human=str(e))
        return 1
    except ParseError as e:
        _emit(args, label, False, error=str(e), human="parse error: %s" % e)
        return 2
    except DomainError as e:
        _emit(args, label, False, error=str(e), human="error: %s" % e)
        return 1
    except ValueError as e:
        _emit(args, label, False, error=str(e), human="parse error: %s" % e)
        return 2
    except OSError as e:
        _emit(args, label, False, error=str(e), human="error: %s" % e)
        return 1
    _emit(args, label, True, result=payload, human=human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
