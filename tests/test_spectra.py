"""Theory catalog, level-indexed ordinals, and the micro hierarchy evaluator."""

import pytest
from hypothesis import given, settings

from conftest import ordinals
from rcworm import spectra
from rcworm.errors import (
    BudgetExceededError,
    OutOfApplicabilityError,
    UnsupportedError,
)
from rcworm.ordinal import (
    EPS0,
    OMEGA,
    ONE,
    ZERO,
    add,
    compare,
    from_int,
    godel_code,
    is_limit,
    left_subtract,
    omega_power,
    phi,
    to_int,
)
from rcworm.spectra import (
    Spectrum,
    fgh_class_label,
    fgh_eval,
    make_theory,
    ord_at,
    parse_theory,
    pi11_ordinal,
    spectrum,
    word_theory,
)
from rcworm.syntax import parse_ordinal, parse_worm
from rcworm.worm import order_type_at


def o(text):
    return parse_ordinal(text)


def eps(a):
    return phi(ONE, a)


# ----------------------------------------------------------------- catalog


def test_parse_theory_forms():
    assert parse_theory("pa-t") == make_theory("pa-t")
    assert parse_theory("pi01-ca0:1") == make_theory("pi01-ca0", ONE)
    assert parse_theory("pi01-ca0:w") == make_theory("pi01-ca0", OMEGA)
    assert parse_theory("ea-ct-isigma-n:2") == make_theory("ea-ct-isigma-n", 2)
    with pytest.raises(UnsupportedError):
        parse_theory("no-such-theory")
    with pytest.raises(UnsupportedError):
        parse_theory("pi01-ca0:0")  # exponent below 1
    with pytest.raises(UnsupportedError):
        parse_theory("pi01-ca0-lim:5")  # stage must be a limit


def test_iterated_comprehension_base_clause():
    t = make_theory("pi01-ca0", ONE)
    assert ord_at(t, ZERO) == phi(from_int(2), ZERO)
    # constant across the whole window
    assert ord_at(t, OMEGA) == phi(from_int(2), ZERO)
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t, omega_power(from_int(2)))


def test_iterated_comprehension_with_full_induction():
    t = make_theory("pi01-ca", ONE)
    assert ord_at(t, ZERO) == phi(from_int(2), EPS0)
    assert ord_at(t, add(OMEGA, ONE)) == phi(from_int(2), EPS0)
    # tail window: from w^2 on the value drops to eps0
    assert ord_at(t, omega_power(from_int(2))) == EPS0
    assert ord_at(t, add(omega_power(from_int(2)), from_int(3))) == EPS0
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t, add(omega_power(from_int(2)), OMEGA))


def test_limit_stage_clause():
    t = make_theory("pi01-ca0-lim", OMEGA)
    assert ord_at(t, ZERO) == phi(OMEGA, ZERO)
    assert ord_at(t, from_int(7)) == phi(OMEGA, ZERO)
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t, omega_power(OMEGA))


def test_arithmetic_preset_spectrum():
    t = make_theory("pa-t")
    got = spectrum(t, [ZERO, ONE, from_int(2), OMEGA, add(OMEGA, ONE)])
    assert got.ordinals() == [eps(EPS0), eps(EPS0), eps(EPS0), EPS0, EPS0]
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t, add(OMEGA, OMEGA))


def test_tower_preset_values():
    # finite-axiom fragments: below w the value is eps(tower), at w+j the tower steps down
    t1 = make_theory("ea-ct-isigma-n", 1)
    assert ord_at(t1, ZERO) == eps(o("w^w"))
    assert ord_at(t1, OMEGA) == o("w^w")
    t0 = make_theory("ea-ct-isigma-n", 0)
    assert ord_at(t0, ZERO) == eps(OMEGA)
    assert ord_at(t0, OMEGA) == OMEGA
    t2 = make_theory("ea-ct-isigma-n", 2)
    assert ord_at(t2, add(OMEGA, ONE)) == o("w^w")
    assert ord_at(t2, add(OMEGA, from_int(2))) == OMEGA
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t2, add(OMEGA, from_int(3)))


def test_word_theory_answers_via_word():
    t = word_theory(parse_worm("[2,1]"))
    assert t.bound == add(ONE, ONE)
    assert ord_at(t, ZERO) == o("w^w")
    assert ord_at(t, ONE) == OMEGA
    with pytest.raises(OutOfApplicabilityError):
        ord_at(t, from_int(2))


def test_word_preset_coherence():
    # presets carrying a defining word agree with the word pipeline
    for name, levels in [
        ("pa-t", [ZERO, ONE, OMEGA]),
        ("ea-ct-isigma-n:0", [ZERO, ONE, OMEGA]),
        ("ea-ct-isigma-n:3", [ZERO, ONE, OMEGA]),
    ]:
        t = parse_theory(name)
        assert t.word is not None
        for beta in levels:
            assert ord_at(t, beta) == order_type_at(beta, t.word), (name, beta)


# The catalog answers every question through its defining word.  The closed
# forms below are the catalog as first written, clause by clause; they share
# no code with the word pipeline and serve as its oracle.


def tower(k):
    """The k-th member of 1, w, w^w, w^(w^w), ..."""
    v = ONE
    for _ in range(k):
        v = omega_power(v)
    return v


OMEGA_TWO = add(OMEGA, OMEGA)


def reference_bound(key, a):
    if key == "pi01-ca0":
        return omega_power(add(a, ONE))
    if key == "pi01-ca":
        return add(omega_power(add(a, ONE)), OMEGA)
    if key in ("pi01-ca0-lim", "pi01-ca-lim"):
        return omega_power(a)
    if key in ("pa-t", "aca"):
        return OMEGA_TWO
    return add(OMEGA, from_int(to_int(a) + 1))


def reference_ord_at(key, a, beta):
    if key == "pi01-ca0":
        return phi(add(a, ONE), ZERO)
    if key == "pi01-ca":
        if compare(beta, omega_power(add(a, ONE))) < 0:
            return phi(add(a, ONE), EPS0)
        return EPS0
    if key in ("pi01-ca0-lim", "pi01-ca-lim"):
        return phi(a, ZERO)
    if key in ("pa-t", "aca"):
        return eps(EPS0) if compare(beta, OMEGA) < 0 else EPS0
    # ea-ct-isigma-n: eps(tower) below w, and at w+j the tower steps down j
    n = to_int(a)
    if compare(beta, OMEGA) < 0:
        return eps(tower(n + 1))
    return tower(n + 1 - to_int(left_subtract(OMEGA, beta)))


def reference_pi11(key, a):
    if key == "pi01-ca0":
        return phi(add(a, ONE), ZERO)
    if key == "pi01-ca":
        return phi(add(a, ONE), EPS0)
    if key in ("pi01-ca0-lim", "pi01-ca-lim"):
        return phi(a, ZERO)
    if key == "aca":
        return eps(EPS0)
    return None


def reference_fgh_class(key, a):
    if key == "pi01-ca0":
        return phi(add(a, ONE), ZERO)
    if key == "pi01-ca":
        return phi(add(a, ONE), EPS0)
    if key in ("pi01-ca0-lim", "pi01-ca-lim"):
        return phi(a, ZERO)
    return reference_ord_at(key, a, ONE)


GRID_PARAMETERS = [
    o(x)
    for x in ("1", "2", "3", "w", "w+1", "w*2", "w^2", "w^w", "eps0", "w^w^w")
]
GRID_LEVELS = [
    o(x)
    for x in (
        "0", "1", "2", "3", "w", "w+1", "w+2", "w+3", "w+4", "w+5", "w*2",
        "w^2", "w^2+3", "w^2+w", "w^3", "w^3+w", "w^w", "w^(w+1)", "w^(w*2)",
        "eps0", "w^w^w",
    )
]


def grid_theories():
    """Every (key, parameter) of the grid the catalog accepts."""
    for key in ("pa-t", "aca"):
        yield key, None
    for a in GRID_PARAMETERS:
        yield "pi01-ca0", a
        yield "pi01-ca", a
        if is_limit(a):
            yield "pi01-ca0-lim", a
            yield "pi01-ca-lim", a
    for n in range(5):
        yield "ea-ct-isigma-n", from_int(n)


def test_catalog_matches_closed_forms_on_the_grid():
    answered = 0
    for key, a in grid_theories():
        t = make_theory(key, a)
        bound = reference_bound(key, a)
        for beta in GRID_LEVELS:
            if compare(beta, bound) >= 0:
                with pytest.raises(OutOfApplicabilityError):
                    ord_at(t, beta)
                continue
            assert ord_at(t, beta) is reference_ord_at(key, a, beta), (t.name, beta)
            answered += 1
        assert fgh_class_label(t) is reference_fgh_class(key, a), t.name
        want = reference_pi11(key, a)
        if want is None:
            with pytest.raises(UnsupportedError):
                pi11_ordinal(t)
        else:
            assert pi11_ordinal(t) is want, t.name
    assert answered > 600


def test_every_preset_is_one_letter_equal_to_its_bound():
    for key, a in grid_theories():
        t = make_theory(key, a)
        assert len(t.word) == 1, t.name
        assert t.word.letters[0] is t.bound, t.name
        assert t.bound is reference_bound(key, a), t.name


def test_make_theory_refuses_bad_parameters():
    with pytest.raises(UnsupportedError):
        make_theory("ea-ct-isigma-n", -1)
    with pytest.raises(UnsupportedError):
        make_theory("pi01-ca0", 1)
    with pytest.raises(UnsupportedError):
        make_theory("pi01-ca-lim", 1)
    with pytest.raises(UnsupportedError):
        make_theory("ea-ct-isigma-n", OMEGA)
    with pytest.raises(UnsupportedError):
        make_theory("aca", ONE)
    assert make_theory("ea-ct-isigma-n", 0).name == "ea-ct-isigma-n:0"


def test_spectrum_validates_shape():
    entries = [(ZERO, OMEGA), (ONE, OMEGA), (from_int(2), ONE)]
    s = Spectrum(entries)
    assert s.levels() == [ZERO, ONE, from_int(2)]
    with pytest.raises(ValueError):
        Spectrum([(ZERO, OMEGA), (ZERO, OMEGA)])  # levels must increase
    with pytest.raises(ValueError):
        Spectrum([(ZERO, ONE), (ONE, OMEGA)])  # ordinals may not increase
    assert len(Spectrum([])) == 0


def test_pi11_catalog():
    assert pi11_ordinal(make_theory("pi01-ca0", ONE)) == phi(from_int(2), ZERO)
    assert pi11_ordinal(make_theory("pi01-ca", ONE)) == phi(from_int(2), EPS0)
    assert pi11_ordinal(make_theory("aca")) == eps(EPS0)
    with pytest.raises(UnsupportedError):
        pi11_ordinal(make_theory("pa-t"))
    with pytest.raises(UnsupportedError):
        pi11_ordinal(make_theory("ea-ct-isigma-n", 1))


def test_fgh_class_catalog():
    assert fgh_class_label(make_theory("pi01-ca0", ONE)) == phi(from_int(2), ZERO)
    assert fgh_class_label(make_theory("pi01-ca", ONE)) == phi(from_int(2), EPS0)
    assert fgh_class_label(make_theory("pa-t")) == eps(EPS0)
    assert fgh_class_label(make_theory("ea-ct-isigma-n", 0)) == eps(OMEGA)


def test_closure_boundary_growth():
    # increasing iteration exponents give strictly increasing analyses
    values = [
        ord_at(make_theory("pi01-ca0", a), ZERO)
        for a in [ONE, from_int(2), OMEGA, phi(ONE, ZERO)]
    ]
    for lo, hi in zip(values, values[1:]):
        assert compare(lo, hi) < 0


@settings(max_examples=40, deadline=None)
@given(ordinals(max_leaves=3), ordinals(max_leaves=3))
def test_spectra_antitone(b1, b2):
    if compare(b1, b2) > 0:
        b1, b2 = b2, b1
    for t in [make_theory("pa-t"), make_theory("pi01-ca", ONE)]:
        try:
            v1 = ord_at(t, b1)
            v2 = ord_at(t, b2)
        except OutOfApplicabilityError:
            continue
        assert compare(v1, v2) >= 0


# --------------------------------------------------------------- hierarchy


def test_fgh_micro_values():
    assert fgh_eval(ZERO, 0) == 1
    assert fgh_eval(OMEGA, 0) == 1
    assert fgh_eval(phi(ONE, ZERO), 0) == 1
    assert fgh_eval(ZERO, 1) == 3
    assert fgh_eval(ZERO, 2) == 17
    assert fgh_eval(ONE, 1) == 4
    # for any index above 1 the value at 1 stabilizes
    assert fgh_eval(from_int(2), 1) == 5
    assert fgh_eval(OMEGA, 1) == 5
    assert fgh_eval(EPS0, 1) == 5


def test_fgh_monotone_in_index_at_one():
    # indices comparable below the argument's code bound
    assert fgh_eval(ONE, 1) >= fgh_eval(ZERO, 1)
    assert fgh_eval(OMEGA, 1) >= fgh_eval(ONE, 1)


def test_fgh_budget_exhaustion_is_honest():
    with pytest.raises(BudgetExceededError):
        fgh_eval(ONE, 2)
    with pytest.raises(BudgetExceededError):
        fgh_eval(OMEGA, 2)


def test_fgh_guard_is_respected(monkeypatch):
    assert fgh_eval(ZERO, 2) == 17
    monkeypatch.setattr(spectra, "FGH_STEPS", 1)
    with pytest.raises(BudgetExceededError):
        fgh_eval(ZERO, 2)


@settings(max_examples=20, deadline=None)
@given(ordinals(max_leaves=4))
def test_fgh_at_zero_always_one(a):
    assert fgh_eval(a, 0) == 1
