"""Parsing and rendering for ordinals, sequences and modal formulas."""

import random
from pathlib import Path

import pytest
from hypothesis import given

from conftest import SMALL_ORDINALS, ordinals, rand_formula, rand_ordinal, rand_worm, rc_formulas, worms
from rcworm import rc
from rcworm.errors import OrdinalOverflowError
from rcworm.ordinal import (
    EPS0,
    MAX_SUMMANDS,
    OMEGA,
    ONE,
    ZERO,
    add,
    from_int,
    omega_power,
    phi,
    to_int,
)
from rcworm.syntax import ParseError, parse_formula, parse_ordinal, parse_worm, render
from rcworm.worm import Worm


def test_parse_ordinal_forms():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("17") == from_int(17)
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w + 1") == add(OMEGA, ONE)
    assert parse_ordinal("w*2") == add(OMEGA, OMEGA)
    assert parse_ordinal("w^2 + w*2 + 3") == add(
        omega_power(from_int(2)), add(add(OMEGA, OMEGA), from_int(3))
    )
    assert parse_ordinal("eps0") == EPS0
    assert parse_ordinal("eps(1)") == phi(ONE, ONE)
    assert parse_ordinal("eps(eps0)") == phi(ONE, EPS0)
    assert parse_ordinal("phi(2, 0)") == phi(from_int(2), ZERO)
    assert parse_ordinal("w^(w + 1)") == omega_power(add(OMEGA, ONE))


def test_repetition_is_repeated_sum():
    for base in ("w", "w^w", "w^(w+1)", "eps0", "eps(3)", "phi(2,w)", "phi(0,eps0)"):
        b = parse_ordinal(base)
        total = ZERO
        for n in range(6):
            assert parse_ordinal("%s*%d" % (base, n)) == total
            total = add(total, b)
    assert len(parse_ordinal("w*%d" % MAX_SUMMANDS).terms) == MAX_SUMMANDS
    for text in ("w*%d" % (MAX_SUMMANDS + 1), "%d" % (MAX_SUMMANDS + 1), "w^99999999999"):
        with pytest.raises(OrdinalOverflowError):
            parse_ordinal(text)


def test_parse_ordinal_unicode_aliases():
    assert parse_ordinal("ω") == OMEGA  # omega letter
    assert parse_ordinal("ε0") == EPS0  # epsilon-zero
    assert parse_ordinal("ε₀") == EPS0  # subscript variant
    assert parse_ordinal("φ(1, 0)") == EPS0
    assert parse_ordinal("ω^2 + ω") == add(omega_power(from_int(2)), OMEGA)


def test_parse_worm_forms():
    assert parse_worm("[]") == Worm(())
    assert parse_worm("[0]") == Worm((ZERO,))
    assert parse_worm("[2, 1, 0]") == Worm((from_int(2), ONE, ZERO))
    assert parse_worm("[w, w+1]") == Worm((OMEGA, add(OMEGA, ONE)))


def test_parse_formula_forms():
    assert parse_formula("T") == rc.TOP
    assert parse_formula("p") == rc.Var("p")
    assert parse_formula("<0>p") == rc.Diam(ZERO, rc.Var("p"))
    assert parse_formula("p & <1>T") == rc.conj((rc.Var("p"), rc.Diam(ONE, rc.TOP)))
    assert parse_formula("<w>(p & q)") == rc.Diam(
        OMEGA, rc.conj((rc.Var("p"), rc.Var("q")))
    )
    # a bare sequence literal denotes its formula
    assert parse_formula("[1, 0]") == rc.Diam(ONE, rc.Diam(ZERO, rc.TOP))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_ordinal("w + + 1")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_ordinal("")
    with pytest.raises(ParseError):
        parse_worm("[1, ]")
    with pytest.raises(ParseError):
        parse_formula("<1>")
    with pytest.raises(ParseError):
        parse_formula("p & ")
    with pytest.raises(ParseError):
        parse_ordinal("w + 1 junk")


def test_render_spot_values():
    assert render(ZERO) == "0"
    assert render(from_int(12)) == "12"
    assert render(add(OMEGA, OMEGA)) == "w*2"
    assert render(add(omega_power(from_int(2)), ONE)) == "w^2+1"
    assert render(EPS0) == "eps0"
    assert render(phi(ONE, ONE)) == "eps(1)"
    assert render(phi(from_int(2), ZERO)) == "phi(2,0)"
    assert render(Worm((ONE, ZERO))) == "[1,0]"
    assert render(rc.Diam(OMEGA, rc.conj((rc.Var("p"), rc.Var("q"))))) == "<w>(p & q)"


# ------------------------------------------------- recursive reference renderer


def _reference_render(x):
    """render as a recursion over the syntax tree, one call per nesting level."""
    if isinstance(x, Worm):
        return "[%s]" % ",".join(_ref_ordinal(a) for a in x.letters)
    if isinstance(x, rc.RcFormula):
        return _ref_formula(x)
    return _ref_ordinal(x)


def _ref_ordinal(a):
    if a.is_zero():
        return "0"
    groups = []
    for t in a.terms:
        if groups and groups[-1][0] == t:
            groups[-1][1] += 1
        else:
            groups.append([t, 1])
    parts = []
    for t, n in groups:
        if t == ONE.terms[0]:
            parts.append(str(n))
            continue
        base = _ref_term(t)
        parts.append(base if n == 1 else "%s*%d" % (base, n))
    return "+".join(parts)


def _ref_term(t):
    if t.index.is_zero():
        if t.argument == ONE:
            return "w"
        return "w^" + _ref_exponent(t.argument)
    if t.index == ONE:
        if t.argument.is_zero():
            return "eps0"
        return "eps(%s)" % _ref_ordinal(t.argument)
    return "phi(%s,%s)" % (_ref_ordinal(t.index), _ref_ordinal(t.argument))


def _ref_exponent(b):
    n = to_int(b)
    if n is not None:
        return str(n)
    if b == omega_power(ONE):
        return "w"
    return "(%s)" % _ref_ordinal(b)


def _ref_formula(f):
    if f == rc.TOP:
        return "T"
    if isinstance(f, rc.Var):
        return f.name
    if isinstance(f, rc.Diam):
        body = _ref_formula(f.body)
        if isinstance(f.body, rc.And):
            body = "(%s)" % body
        return "<%s>%s" % (_ref_ordinal(f.index), body)
    return " & ".join(
        "(%s)" % _ref_formula(c) if isinstance(c, rc.And) else _ref_formula(c)
        for c in f.conjuncts
    )


_README_VALUES = [
    "w^2*2+3", "w^(w+1)", "eps(eps0)", "phi(2,0)", "[w+1,w]", "[1,2]",
    "<2>p & <1>q", "<2>(p & <1>q)", "<1>(T & <1>T)", "q & p & q",
    "<1>(p & <1>(p & p))",
]


def _parsed(text):
    """Every reading of text as an ordinal, worm or formula."""
    out = []
    for parse in (parse_ordinal, parse_worm, parse_formula):
        try:
            out.append(parse(text))
        except (ParseError, OrdinalOverflowError):
            pass
    return out


def test_render_matches_the_recursive_reference():
    corpus = Path(__file__).resolve().parent.parent / "fixtures" / "known-values.txt"
    texts = list(_README_VALUES)
    for line in corpus.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            texts += [field.strip() for field in line.split(";")[1:]]
    objects = [x for text in texts for x in _parsed(text)]
    assert len(objects) > 150
    rng = random.Random(4217)
    indices = SMALL_ORDINALS + [rand_ordinal(rng, 3) for _ in range(20)]
    for _ in range(1000):
        objects.append(rand_ordinal(rng, 4))
        objects.append(rand_worm(rng, 6, indices))
        objects.append(rand_formula(rng, rng.randrange(1, 25), indices))
    for x in objects:
        assert render(x) == _reference_render(x), x


def test_render_deep_nesting():
    tower = ZERO
    for _ in range(3000):
        tower = omega_power(add(tower, ONE))
    want = "w"
    for _ in range(2999):
        want = "w^(%s+1)" % want
    assert render(tower) == want
    f = rc.TOP
    for _ in range(3000):
        f = rc.Diam(ONE, rc.conj((rc.Var("p"), f)))
    assert render(f) == "<1>(p & " * 2999 + "<1>p" + ")" * 2999


@given(ordinals())
def test_ordinal_round_trip(a):
    assert parse_ordinal(render(a)) == a


@given(worms())
def test_worm_round_trip(v):
    assert parse_worm(render(v)) == v


@given(rc_formulas())
def test_formula_round_trip(f):
    assert parse_formula(render(f)) == f


@given(rc_formulas(indices=ordinals(max_leaves=3), max_leaves=5))
def test_formula_round_trip_transfinite_indices(f):
    assert parse_formula(render(f)) == f
