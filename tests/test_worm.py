"""Order types of letter sequences and the lift/lower maps.

The table in test_order_type_table was worked out by hand from the
splitting rules (split at minimal letters, fold the step-down function
over the head exponents) before running the code.
"""

import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings

from conftest import SMALL_ORDINALS, rand_worm, worms
from rcworm.errors import BudgetExceededError, NotInFragmentError
from rcworm.ordinal import (
    EPS0,
    OMEGA,
    ONE,
    ZERO,
    add,
    cnf_exponents,
    compare,
    from_int,
    left_subtract,
    omega_power,
    paper_phi,
    phi,
)
from rcworm import rc, worm
from rcworm.syntax import parse_ordinal, parse_worm
from rcworm.worm import (
    EMPTY,
    MAX_DISTINCT_LETTERS,
    Worm,
    compare_at,
    in_fragment,
    lift,
    lower,
    order_type,
    order_type_at,
)


def w(text):
    return parse_worm(text)


def o(text):
    return parse_ordinal(text)


def test_order_type_table():
    cases = [
        ("[]", "0"),
        ("[0]", "1"),
        ("[0,0]", "2"),
        ("[1]", "w"),
        ("[1,0]", "w"),  # trailing smaller letter on the left block changes nothing
        ("[0,1]", "w+1"),
        ("[1,1]", "w^2"),
        ("[1,0,1]", "w*2"),
        ("[2]", "w^w"),
        ("[2,1]", "w^w"),  # [2,1] and [2] are mutually derivable,
        ("[1,2]", "w^(w+1)"),
        ("[2,2]", "w^(w^2)"),
        ("[3]", "w^(w^w)"),
        ("[w]", "eps0"),
        ("[w,0]", "eps0"),
        ("[0,w]", "eps0+1"),
        ("[w,w]", "eps(1)"),
    ]
    for text, want in cases:
        got = order_type(w(text))
        assert compare(got, o(want)) == 0, (text, want)


def test_order_type_epsilon_tower():
    # one transfinite letter already reaches the epsilon numbers
    assert order_type(w("[w+1]")) == phi(ONE, OMEGA)
    assert order_type(w("[w,w]")) == phi(ONE, ONE)
    assert order_type(w("[w*2]")) == phi(ONE, EPS0)
    assert order_type(w("[w^2]")) == phi(from_int(2), ZERO)
    assert order_type(w("[w^2+w]")) == phi(from_int(2), EPS0)
    assert order_type(w("[w^3]")) == phi(from_int(3), ZERO)
    assert order_type(w("[w^(w+1)]")) == phi(add(OMEGA, ONE), ZERO)


def test_in_fragment():
    assert in_fragment(ZERO, EMPTY)
    assert in_fragment(ZERO, w("[2,0,1]"))
    assert not in_fragment(ONE, w("[2,0,1]"))
    assert in_fragment(ONE, w("[2,1]"))
    assert in_fragment(OMEGA, w("[w]"))


def test_lift_prepends_to_every_letter():
    assert lift(OMEGA, w("[1,0]")) == w("[w+1,w]")
    assert lift(ZERO, w("[1]")) == w("[1]")
    assert lift(ONE, EMPTY) == EMPTY


def test_lower_requires_fragment_membership():
    assert lower(ONE, w("[2,1]")) == w("[1,0]")
    assert lower(OMEGA, w("[w]")) == w("[0]")
    with pytest.raises(NotInFragmentError):
        lower(ONE, w("[1,0]"))


def test_lift_lower_round_trip():
    for text in ["[]", "[0]", "[1,0]", "[2,1,2]", "[w]"]:
        v = w(text)
        assert lower(OMEGA, lift(OMEGA, v)) == v
        assert lower(ONE, lift(ONE, v)) == v


def test_order_type_at_levels():
    # at level 0 this is the plain order type
    assert order_type_at(ZERO, w("[2,2]")) == o("w^(w^2)")
    # at level 1 the worm [2,2] lowers to [1,1]
    assert order_type_at(ONE, w("[2,2]")) == o("w^2")
    assert order_type_at(from_int(2), w("[2,2]")) == from_int(2)
    with pytest.raises(NotInFragmentError):
        order_type_at(from_int(3), w("[2,2]"))
    # level 0 never fails
    assert order_type_at(ZERO, EMPTY) == ZERO


def test_compare_at():
    assert compare_at(ZERO, w("[0,1]"), w("[1]")) > 0
    assert compare_at(ONE, w("[2,1]"), w("[2]")) == 0  # both lower to length-one tails
    assert compare_at(ONE, w("[2,2]"), w("[2]")) > 0
    assert compare_at(from_int(2), w("[2]"), w("[2,2]")) < 0


@given(worms(max_length=5))
def test_order_type_zero_prefix_is_successor(v):
    # prepending a minimal letter adds exactly one
    grown = Worm((ZERO,) + v.letters)
    assert order_type(grown) == add(order_type(v), ONE)


@given(worms(max_length=5))
def test_order_type_invariant_under_lift(v):
    # lifting by b multiplies position inside the fragment, but the
    # order type at level b equals the original order type at level 0
    lifted = lift(ONE, v)
    assert order_type_at(ONE, lifted) == order_type(v)


@settings(max_examples=80)
@given(worms(max_length=4), worms(max_length=1))
def test_prepending_any_letter_strictly_increases(v, single):
    for letter in single.letters:
        grown = Worm((letter,) + v.letters)
        assert compare(order_type(grown), order_type(v)) > 0


def reference_order_type(v):
    """order_type as first written: split at the first zero and recurse on
    the rest, o(C 0 B) = o(B) + w^(o(C lowered by 1))."""
    letters = v.letters
    if not letters:
        return ZERO
    for i, letter in enumerate(letters):
        if letter.is_zero():
            rest = reference_order_type(Worm(letters[i + 1:]))
            head = reference_order_type(lower(ONE, Worm(letters[:i])))
            return add(rest, omega_power(head))
    m = letters[0]
    for letter in letters[1:]:
        if compare(letter, m) < 0:
            m = letter
    inner = left_subtract(ONE, reference_order_type(lower(m, v)))
    for e in reversed(cnf_exponents(m)):
        inner = paper_phi(e, inner)
    return inner


def test_order_type_matches_recursive_reference():
    rng = random.Random(41)
    letters = SMALL_ORDINALS + [o("w+2"), o("w^w+1"), o("eps0+w"), o("phi(w,1)")]
    for _ in range(3000):
        v = rand_worm(rng, max_len=9, letters=letters)
        assert order_type(v) is reference_order_type(v), v
    for length in (40, 200):
        v = rand_worm(rng, max_len=length, letters=letters[:6])
        assert order_type(v) is reference_order_type(v), v


def test_order_type_at_matches_reference_on_the_lowered_worm():
    rng = random.Random(43)
    letters = SMALL_ORDINALS + [o("w+2"), o("w^w+1"), o("eps0+w"), o("phi(w,1)")]
    levels = letters + [o("w+1"), o("w^w"), o("eps0")]
    for _ in range(2000):
        v = rand_worm(rng, max_len=9, letters=letters)
        least = min(v.letters, key=cmp_to_key(compare), default=ZERO)
        alpha = rng.choice([a for a in levels if compare(a, least) <= 0] + [least])
        assert order_type_at(alpha, v) is reference_order_type(lower(alpha, v)), (alpha, v)


def test_level_order_is_derivability():
    # A precedes B at level a exactly when B |- <a>A (Beklemishev, APAL 128,
    # 2004), for worms in the a fragment.  Each side checks the other:
    # derives computes no order type, and compare_at uses no gap rank, which
    # the model of B asks <a> at whenever B lacks the letter a.
    rng = random.Random(6)
    letters = [ZERO, ONE, from_int(2), OMEGA, add(OMEGA, ONE)]
    answers, gaps = set(), 0
    for _ in range(8000):
        a = rng.choice(letters[:4])
        fragment = [x for x in letters if compare(x, a) >= 0]
        A, B = (Worm(rng.choices(fragment, k=rng.randint(0, 5))) for _ in "AB")
        want = compare_at(a, A, B) < 0
        assert rc.derives(rc.worm_formula(B), rc.Diam(a, rc.worm_formula(A))) is want, (a, A, B)
        answers.add(want)
        gaps += a not in B.letters
    assert answers == {True, False} and gaps > 2000, gaps


def _no_lowering(alpha, v):
    raise AssertionError("order types fold without building a lowered worm")


def test_order_types_build_no_lowered_worm(monkeypatch):
    monkeypatch.setattr(worm, "lower", _no_lowering)
    test_order_type_table()
    test_order_type_epsilon_tower()
    test_order_type_at_levels()
    test_compare_at()
    test_order_type_matches_recursive_reference()
    test_order_type_at_matches_reference_on_the_lowered_worm()
    test_order_type_at_the_letter_cap()


def test_order_type_of_a_long_alternating_worm():
    # one step per zero letter, so length costs no recursion depth
    assert order_type(Worm((ONE, ZERO) * 1500)) == o("w*1500")
    assert order_type(Worm((ZERO, OMEGA) * 1500)) == o("eps0*1500+1")


def test_order_type_at_the_letter_cap():
    increasing = Worm(from_int(i) for i in range(1, MAX_DISTINCT_LETTERS + 1))
    shuffled = [add(OMEGA, from_int(k)) for k in range(MAX_DISTINCT_LETTERS)]
    random.Random(47).shuffle(shuffled)
    for v in (increasing, Worm(shuffled)):
        assert order_type(v) is reference_order_type(v)
    assert order_type_at(OMEGA, Worm(shuffled)) is reference_order_type(lower(OMEGA, Worm(shuffled)))


def test_order_type_past_the_letter_cap_needs_no_deep_stack(monkeypatch):
    # comparison follows a term's argument chain in a loop, so a result
    # nested about 400 levels deep gets its order type at the default
    # recursion limit once the cap is raised
    monkeypatch.setattr(worm, "MAX_DISTINCT_LETTERS", 1000)
    letters = [add(OMEGA, from_int(k)) for k in range(400)]
    random.Random(53).shuffle(letters)
    assert compare(order_type(Worm(letters)), order_type(Worm(letters[1:]))) > 0


def test_order_type_refuses_too_many_distinct_letters():
    # a result nests about one level per distinct letter, and past the cap
    # it prints deeper than the parser reads, so distinct letters are capped
    increasing = Worm(from_int(i) for i in range(1, 301))
    assert MAX_DISTINCT_LETTERS >= 300
    too_many = Worm(from_int(i) for i in range(1, MAX_DISTINCT_LETTERS + 2))
    with pytest.raises(BudgetExceededError):
        order_type(too_many)
    with pytest.raises(BudgetExceededError):
        compare_at(ONE, too_many, increasing)
