"""Parsing and rendering for ordinals, sequences and modal formulas."""

import pytest
from hypothesis import given

from conftest import ordinals, rc_formulas, worms
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
