"""Ordinal notations: arithmetic, comparison, coding.

Expected values below were computed by hand from the normal-form rules
before the implementation existed, then frozen.
"""

import copy
import gc
import inspect
import operator
import pickle
import random
import sys
from functools import cache, cmp_to_key

import pytest
from hypothesis import given, settings

from conftest import ordinals, rand_ordinal
from rcworm import hashcons, ordinal, rc
from rcworm import truthcore as tc
from rcworm.errors import (
    BudgetExceededError,
    InvalidCodeError,
    OrdinalOverflowError,
    UndefinedError,
)
from rcworm.ordinal import (
    EPS0,
    MAX_SUMMANDS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    VeblenTerm,
    add,
    cnf_exponents,
    compare,
    from_int,
    godel_code,
    godel_decode,
    is_limit,
    is_successor,
    left_subtract,
    omega_power,
    omega_times,
    paper_phi,
    phi,
    predecessor,
    to_int,
)
from rcworm.syntax import parse_formula, parse_ordinal


def test_integer_round_trip():
    for n in range(50):
        assert to_int(from_int(n)) == n


def test_from_int_refuses_above_summand_cap():
    assert len(from_int(MAX_SUMMANDS).terms) == MAX_SUMMANDS
    with pytest.raises(OrdinalOverflowError):
        from_int(MAX_SUMMANDS + 1)
    with pytest.raises(OrdinalOverflowError):
        from_int(10**20)


def test_compare_basics():
    assert compare(ZERO, ONE) < 0
    assert compare(from_int(7), from_int(7)) == 0
    assert compare(OMEGA, from_int(1000)) > 0
    assert compare(add(OMEGA, ONE), OMEGA) > 0
    assert compare(omega_power(OMEGA), EPS0) < 0
    assert compare(phi(ONE, ZERO), EPS0) == 0


def test_addition_absorbs_smaller_left_part():
    # 3 + w = w, but w + 3 > w
    assert compare(add(from_int(3), OMEGA), OMEGA) == 0
    assert compare(add(OMEGA, from_int(3)), OMEGA) > 0
    # (w + 1) + w = w*2
    assert compare(add(add(OMEGA, ONE), OMEGA), omega_times(from_int(2))) == 0


def test_addition_identity_and_associativity_spots():
    a = phi(ONE, ZERO)
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a
    b = add(OMEGA, from_int(2))
    c = omega_power(from_int(2))
    assert add(add(a, b), c) == add(a, add(b, c))


def test_left_subtract():
    # x with w + x = w*2 is w
    assert left_subtract(OMEGA, omega_times(from_int(2))) == OMEGA
    assert left_subtract(ZERO, OMEGA) == OMEGA
    assert left_subtract(OMEGA, OMEGA) == ZERO
    assert left_subtract(ONE, from_int(5)) == from_int(4)
    with pytest.raises(UndefinedError):
        left_subtract(OMEGA, ONE)


def test_omega_power_and_times():
    assert omega_power(ZERO) == ONE
    assert omega_power(ONE) == OMEGA
    assert omega_times(ONE) == OMEGA
    assert compare(omega_times(from_int(3)), add(add(OMEGA, OMEGA), OMEGA)) == 0
    assert omega_times(ZERO) == ZERO
    # w * w = w^2 and w * eps0 = eps0 are the interesting fixed points
    assert omega_times(OMEGA) == omega_power(from_int(2))
    assert omega_times(EPS0) == EPS0


def test_phi_low_levels():
    # level 0 is plain exponentiation
    assert phi(ZERO, from_int(2)) == omega_power(from_int(2))
    # level 1 enumerates the epsilon numbers
    assert phi(ONE, ZERO) == EPS0
    assert compare(phi(ONE, ONE), EPS0) > 0
    # fixed-point collapse: phi(0, eps0) = eps0
    assert phi(ZERO, EPS0) == EPS0
    # a genuinely bigger second argument is kept
    assert compare(phi(ZERO, add(EPS0, ONE)), EPS0) > 0


def test_paper_phi_offset():
    # paper_phi(0, b) = w^(1+b); differs from phi at finite b only
    assert paper_phi(ZERO, ZERO) == OMEGA
    assert paper_phi(ZERO, ONE) == omega_power(from_int(2))
    assert paper_phi(ZERO, OMEGA) == omega_power(OMEGA)
    assert paper_phi(ONE, ZERO) == phi(ONE, ZERO)
    assert paper_phi(from_int(2), OMEGA) == phi(from_int(2), OMEGA)


def test_cnf_exponents():
    assert cnf_exponents(ZERO) == []
    assert cnf_exponents(from_int(3)) == [ZERO, ZERO, ZERO]
    got = cnf_exponents(add(omega_power(from_int(2)), add(OMEGA, ONE)))
    assert got == [from_int(2), ONE, ZERO]
    # eps0 is a single term with exponent eps0
    assert cnf_exponents(EPS0) == [EPS0]


def test_successor_limit_predecessor():
    assert is_successor(ONE)
    assert not is_successor(ZERO)
    assert is_limit(OMEGA)
    assert not is_limit(add(OMEGA, ONE))
    assert predecessor(add(OMEGA, ONE)) == OMEGA
    assert predecessor(from_int(9)) == from_int(8)
    with pytest.raises(UndefinedError):
        predecessor(OMEGA)


# frozen code table: 0 -> 0, 1 -> 1, eps0 -> 2, w -> 4; 6 decodes to nothing
def test_godel_code_small_values():
    assert godel_code(ZERO) == 0
    assert godel_code(ONE) == 1
    assert godel_code(EPS0) == 2
    assert godel_code(OMEGA) == 4


def test_godel_decode_rejects_least_invalid_code():
    with pytest.raises(InvalidCodeError, match=r"^code 6 "):
        godel_decode(6)
    for n in range(6):
        godel_decode(n)  # all smaller codes are valid
    # a bad part deep inside is reported under the code the caller passed
    n = ordinal._pair(ordinal._pair(0, 6), 0) + 1
    with pytest.raises(InvalidCodeError, match=r"^code %d " % n):
        godel_decode(n)


@given(ordinals())
def test_codes_round_trip(a):
    assert godel_decode(godel_code(a)) is a


@given(ordinals())
def test_code_cap_is_exact(a):
    # a cap the code meets returns it unchanged; one bit less refuses it
    n = godel_code(a)
    assert godel_code(a, max_bits=n.bit_length()) == n
    if n:
        with pytest.raises(BudgetExceededError):
            godel_code(a, max_bits=n.bit_length() - 1)


def reference_decode(n):
    """godel_decode from the definitions alone: unpair n into nested tuples,
    check the normal-form conditions on the tuples, and build only what
    passes through phi and add; None where that refuses n."""
    x = unpair_code(n)
    return built(x) if tuple_normal(x) else None


def unpair_code(n):
    """Code n as a tuple of (index, argument) summands, each a tuple again,
    by the pairing of the module docstring, with no notation built."""
    terms = []
    while n:
        u, n = ordinal._unpair(n - 1)
        i, b = ordinal._unpair(u)
        terms.append((unpair_code(i), unpair_code(b)))
    return tuple(terms)


def tuple_cmp(x, y):
    """The Veblen order on tuple notations whose parts are normal forms."""
    for s, t in zip(x, y):
        c = tuple_cmp_term(s, t)
        if c:
            return c
    return (len(x) > len(y)) - (len(x) < len(y))


def tuple_cmp_term(s, t):
    (a1, b1), (a2, b2) = s, t
    c = tuple_cmp(a1, a2)
    if c == 0:
        return tuple_cmp(b1, b2)
    if c < 0:
        return tuple_cmp(b1, (t,))
    return -tuple_cmp(b2, (s,))


def tuple_fixed_point(a, b):
    """Whether b is a fixed point of phi_a: one summand with a larger index."""
    return len(b) == 1 and tuple_cmp(b[0][0], a) > 0


@cache
def tuple_normal(x):
    """Whether every index and argument is a normal form, no argument is a
    fixed point of its phi_index, and the summands do not increase."""
    if not all(tuple_normal(a) and tuple_normal(b) and not tuple_fixed_point(a, b) for a, b in x):
        return False
    return all(tuple_cmp_term(s, t) >= 0 for s, t in zip(x, x[1:]))


def built(x):
    """The notation of an accepted tuple, through phi and add."""
    out = ZERO
    for a, b in x:
        out = add(out, phi(built(a), built(b)))
    return out


def spelled(x):
    """x spelled summand by summand through the constructors."""
    return Ordinal(VeblenTerm(spelled(a), spelled(b)) for a, b in x)


def raw_code(terms):
    """The code of a term list, normal or not, from the module docstring."""
    code = 0
    for t in reversed(terms):
        code = ordinal._pair(ordinal._pair(godel_code(t.index), godel_code(t.argument)), code) + 1
    return code


def decoded(n):
    try:
        return godel_decode(n)
    except InvalidCodeError:
        return None


def rand_normal_form(rng):
    """A sum of up to 9 summands over w, eps and phi(2, _) bases."""
    out = ZERO
    for _ in range(rng.randrange(1, 10)):
        base = rng.choice([ZERO, ONE, from_int(2)])
        out = add(out, phi(base, from_int(rng.randrange(3))))
    return out


def test_decode_matches_reference_on_every_small_code():
    valid = 0
    for n in range(20_000):
        want = reference_decode(n)
        assert decoded(n) is want, n
        valid += want is not None
    assert 0 < valid < 20_000


def test_decode_matches_reference_on_random_normal_forms():
    rng = random.Random(17)
    for _ in range(500):
        a = rand_normal_form(rng)
        n = godel_code(a)
        assert n == raw_code(a.terms)
        assert reference_decode(n) is a and godel_decode(n) is a
        # the summands in increasing order are no normal form unless all tie
        bad = raw_code(a.terms[::-1])
        if a.terms[0] is not a.terms[-1]:
            assert reference_decode(bad) is None and decoded(bad) is None, a


def test_decode_refuses_permuted_summands_as_reference_does():
    rng = random.Random(23)
    refused = 0
    for _ in range(1000):
        terms = list(rand_normal_form(rng).terms)
        rng.shuffle(terms)
        n = raw_code(terms)
        want = reference_decode(n)
        assert decoded(n) is want, terms
        refused += want is None
    assert 0 < refused < 1000


def test_decoding_beside_a_deep_tower_matches_reference():
    # every level of a live 199-level tower is labelled, so each new term is
    # searched in among them
    tower = parse_formula("<%s>T" % ("w^(" * 199 + "w" + ")" * 199))
    for n in range(5000):
        want = reference_decode(n)
        assert decoded(n) is want, n
    check_labels()
    del tower


def test_decoding_onto_a_live_tail_builds_one_notation():
    # eps0*3 + w + 3 over the live tail w + 3: the two partial sums
    # eps0 + w + 3 and eps0*2 + w + 3 are never built
    tail = add(OMEGA, from_int(3))
    godel_code(tail)
    head = EPS0.terms[0]
    n = raw_code((head,) * 3 + tail.terms)
    gc.collect()
    terms, notations, codes, _ = table_sizes()
    a = godel_decode(n)
    assert a.terms == (head,) * 3 + tail.terms
    assert table_sizes()[:3] == (terms, notations + 1, codes + 1)


def test_coding_a_non_normal_notation_does_not_index_it():
    # code 6 spells the increasing sum 1 + eps0: the constructors refuse
    # that spelling, so no notation codes to 6 and 6 decodes to nothing
    x = unpair_code(6)
    assert raw_code([ONE.terms[0], EPS0.terms[0]]) == 6 and not tuple_normal(x)
    with pytest.raises(InvalidCodeError):
        spelled(x)
    assert 6 not in ordinal._BY_CODE
    with pytest.raises(InvalidCodeError):
        godel_decode(6)
    assert 6 not in ordinal._BY_CODE
    assert add(ONE, EPS0) is EPS0 and godel_code(EPS0) != 6


def table_sizes():
    """Interned terms, interned notations, indexed codes, labelled terms."""
    enabled = gc.isenabled()
    gc.disable()  # a collection runs weakref callbacks, which delete entries
    try:
        classes = [key[0] for key in list(hashcons._TABLE)]
    finally:
        if enabled:
            gc.enable()
    return (classes.count(VeblenTerm), classes.count(Ordinal), len(ordinal._BY_CODE),
            len(ordinal._LABELLED))


def test_equal_notations_are_one_object():
    assert parse_ordinal("w^w+eps0*2+3") is add(
        add(omega_power(OMEGA), phi(ONE, ZERO)),
        add(phi(ONE, ZERO), from_int(3)),
    )
    assert parse_ordinal("phi(2,w)") is phi(from_int(2), omega_power(ONE))
    assert Ordinal([VeblenTerm(ZERO, ONE)]) is OMEGA
    assert VeblenTerm(ONE, ZERO) is EPS0.terms[0]
    # copies go back through the constructors, never past the table
    a = parse_ordinal("phi(w,1)+w^2")
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a and ZERO.terms == ()


def test_copies_of_terms_and_formulas_are_the_node_itself():
    # one __reduce__ on the shared hash-consing base sends every copy back
    # through its constructor
    term = tc.Succ(tc.ZERO_T)
    nodes = (term, tc.atom_le(term, tc.Var("x")), parse_formula("<w>(p & <1>T) & q"), rc.TOP)
    for x in nodes:
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


def test_intern_tables_hold_nodes_weakly():
    gc.collect()
    start = table_sizes()
    pool = [a for a in map(decoded, range(400)) if a is not None]
    made = {}  # id -> notation, which keeps every one alive
    for a in pool:
        for b in pool:
            x = add(omega_power(phi(a, b)), a)
            godel_code(x)
            made[id(x)] = x
    assert len(made) >= 10_000
    grown = table_sizes()
    assert all(g >= s + 5_000 for g, s in zip(grown, start)), (start, grown)
    del pool, made, a, b, x
    gc.collect()
    assert all(e <= s + 10 for e, s in zip(table_sizes(), start)), (start, table_sizes())
    assert len(ordinal._LABELLED) == start[-1]


def test_decoding_known_codes_builds_and_checks_nothing(monkeypatch):
    # A code whose notation is alive resolves through the code index: the
    # second pass unpairs nothing and builds no node.
    rng = random.Random(29)
    codes = [godel_code(rand_normal_form(rng)) for _ in range(100)]
    unpaired = []
    unpair = ordinal._unpair
    monkeypatch.setattr(ordinal, "_unpair", lambda z: unpaired.append(z) or unpair(z))
    first = [godel_decode(n) for n in codes]
    assert unpaired
    gc.collect()
    sizes = table_sizes()
    del unpaired[:]
    second = [godel_decode(n) for n in codes]
    assert table_sizes() == sizes and not unpaired
    assert all(x is y for x, y in zip(first, second))


def test_rich_comparisons_refuse_foreign_operands():
    assert OMEGA < EPS0 and OMEGA <= OMEGA and EPS0 > ONE and EPS0 >= EPS0
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for x, y in ((OMEGA, 3), (3, OMEGA), (OMEGA, None)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        sorted([OMEGA, None])


@given(ordinals())
def test_constructors_yield_normal_forms(a):
    x = unpair_code(godel_code(a))
    assert tuple_normal(x) and built(x) is a


@given(ordinals(), ordinals())
def test_compare_antisymmetry_and_equality(a, b):
    x = compare(a, b)
    y = compare(b, a)
    assert x == -y
    assert (x == 0) == (a == b)


def reference_cmp_term(s, t):
    """_cmp_term as first written: the argument on the smaller-index side is
    compared against the other term wrapped in a fresh one-term notation."""
    c = reference_compare(s.index, t.index)
    if c == 0:
        return reference_compare(s.argument, t.argument)
    if c < 0:
        return reference_compare(s.argument, Ordinal((t,)))
    return -reference_compare(t.argument, Ordinal((s,)))


def reference_compare(a, b):
    for s, t in zip(a.terms, b.terms):
        c = reference_cmp_term(s, t)
        if c != 0:
            return c
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def rebuilt(a):
    """a rebuilt node by node; interning hands back a itself."""
    return Ordinal(VeblenTerm(rebuilt(t.index), rebuilt(t.argument)) for t in a.terms)


def lines_run(fn, code):
    """The line numbers of code that ran while fn ran."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        fn()
    finally:
        sys.settrace(old)
    return seen


def test_compare_matches_reference():
    rng = random.Random(5)
    pairs = []
    for _ in range(5000):
        a, b = rand_ordinal(rng, 3), rand_ordinal(rng, 3)
        # omega_power(a + b) against a reaches a one-term comparison whose
        # head summands tie when a is a single epsilon-or-higher term
        pairs += [(a, b), (a, a), (a, rebuilt(a)), (add(a, b), a),
                  (omega_power(add(a, b)), a)]
    # phi(i, x + 1) for a live fixed point x of phi_i is placed by a search
    # that meets x as the head of the new term's argument: that descent ends
    # on a tie, which the extra summand of x + 1 breaks (w^(x+1) lies right
    # above x, so its search probes x itself)
    gc.collect()
    xs = [phi(add(EPS0, from_int(9)), from_int(7)), phi(from_int(5), add(OMEGA, from_int(8))),
          phi(omega_power(from_int(6)), OMEGA)]

    def place():
        for x in xs:
            for i in range(3):
                head = phi(from_int(i), add(x, ONE))
                pairs.extend([(head, x), (add(head, x), head), (add(head, OMEGA), add(head, x))])

    source, start = inspect.getsourcelines(ordinal._cmp_term)
    tie = start + max(i for i, line in enumerate(source) if line.strip() == "return tie")
    assert tie in lines_run(place, ordinal._cmp_term.__code__)
    for a, b in pairs:
        want = reference_compare(a, b)
        assert compare(a, b) == want and compare(b, a) == -want, (a, b)
    check_labels()


@settings(max_examples=60)
@given(ordinals(max_leaves=4), ordinals(max_leaves=4), ordinals(max_leaves=4))
def test_compare_transitivity(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(ordinals(), ordinals())
def test_add_monotone_right(a, b):
    if compare(a, b) < 0:
        c = omega_power(ONE)
        assert compare(add(c, a), add(c, b)) < 0


@given(ordinals(), ordinals())
def test_left_subtract_round_trip(a, b):
    if compare(a, b) <= 0:
        assert add(a, left_subtract(a, b)) == b


@given(ordinals())
def test_omega_power_strictly_inflates_exponent(a):
    assert compare(a, omega_power(add(a, ONE))) < 0


@given(ordinals(max_leaves=4), ordinals(max_leaves=4))
def test_phi_results_are_fixed_points_of_lower_levels(a, b):
    v = phi(add(a, ONE), b)
    assert phi(a, v) == v


@given(ordinals())
def test_cnf_exponents_reconstruct(a):
    out = ZERO
    for e in cnf_exponents(a):
        out = add(out, omega_power(e))
    assert out == a


@given(ordinals(max_leaves=4), ordinals(max_leaves=4))
def test_paper_phi_agrees_at_positive_index(a, b):
    a1 = add(a, ONE)
    assert paper_phi(a1, b) == phi(a1, b)


def check_labels():
    """Every entry of the label list is a live term carrying the entry's
    label, labels strictly increase along the list, and neighbours increase
    in value by the reference comparison."""
    enabled = gc.isenabled()
    gc.disable()  # a collection runs weakref callbacks, which delete entries
    try:
        refs = list(ordinal._LABELLED)
        live = [r() for r in list(hashcons._TABLE.values())]
    finally:
        if enabled:
            gc.enable()
    terms = [r() for r in refs]
    # every live term is in the list, so every one has an int label
    assert len(terms) == sum(type(t) is VeblenTerm for t in live)
    assert all(t is not None and type(t.label) is int and t.label == r.label for r, t in zip(refs, terms))
    assert all(r.label < q.label for r, q in zip(refs, refs[1:]))
    for s, t in zip(terms, terms[1:]):
        assert reference_cmp_term(s, t) < 0, (s, t)


def churn(seed):
    """Build random normal forms and drop them in random order, checking
    the label list after every round of deaths."""
    rng = random.Random(seed)
    gc.collect()
    start = len(ordinal._LABELLED)
    live, sizes = [], []
    for _ in range(30):
        live += [rand_ordinal(rng, 4) for _ in range(rng.randrange(40))]
        sizes.append(len(ordinal._LABELLED))
        rng.shuffle(live)
        del live[:rng.randrange(len(live) + 1)]
        gc.collect()
        sizes.append(len(ordinal._LABELLED))
        check_labels()
    assert max(sizes) > start + 50 and any(y < x for x, y in zip(sizes, sizes[1:]))
    del live
    gc.collect()
    check_labels()
    assert len(ordinal._LABELLED) == start


def test_labels_survive_churn():
    churn(61)


def test_labels_survive_forced_relabelling(monkeypatch):
    # with a gap of 2 nearly every insert between two neighbours relabels
    relabels = []
    relabel = ordinal._relabel
    monkeypatch.setattr(ordinal, "_LABEL_GAP", 2)
    monkeypatch.setattr(ordinal, "_relabel", lambda: relabels.append(1) or relabel())
    churn(67)
    assert len(relabels) > 50


def test_terms_with_non_normal_parts_stay_unlabelled():
    # a summand is built, and labelled, exactly when it is a normal form;
    # one with a non-normal part or a fixed-point argument is refused
    rng = random.Random(71)
    raws = [x for x in map(unpair_code, rng.sample(range(20_000), 600)) if not tuple_normal(x)]
    fixed = ((), unpair_code(godel_code(EPS0)))  # phi(0, eps0) = eps0, spelled with a fixed point
    assert tuple_fixed_point(*fixed) and not tuple_normal((fixed,))
    raws.append((fixed, ((), ())))
    summands = {s for x in raws for s in x}
    assert sum(not tuple_normal((s,)) for s in summands) > 30
    for a, b in summands:
        if tuple_normal(((a, b),)):
            t = VeblenTerm(spelled(a), spelled(b))
            assert type(t.label) is int and Ordinal((t,)) is built(((a, b),))
        else:
            with pytest.raises(InvalidCodeError):
                VeblenTerm(spelled(a), spelled(b))
    notations = [rand_ordinal(rng, 3) for _ in range(300)] + [EPS0, add(EPS0, ONE)]
    for a in notations:
        for b in rng.sample(notations, 40) + [EPS0, add(EPS0, ONE)]:
            assert compare(a, b) == reference_compare(a, b), (a, b)
    check_labels()


def refusal(x):
    """For a tuple notation the reference rejects: a call that builds its
    innermost refused node from parts already built and kept alive."""
    for a, b in x:
        for part in (a, b):
            if not tuple_normal(part):
                return refusal(part)
    parts = [(built(a), built(b)) for a, b in x]
    for (a, b), pair in zip(x, parts):
        if tuple_fixed_point(a, b):
            return lambda: VeblenTerm(*pair)
    terms = [VeblenTerm(*pair) for pair in parts]
    return lambda: Ordinal(terms)


def test_constructors_refuse_every_non_normal_spelling_and_keep_nothing():
    refused = 0
    for n in range(20_000):
        x = unpair_code(n)
        if tuple_normal(x):
            continue
        refused += 1
        with pytest.raises(InvalidCodeError):
            spelled(x)
        build = refusal(x)
        enabled = gc.isenabled()
        gc.disable()  # a collection runs weakref callbacks, which delete entries
        try:
            sizes = len(hashcons._TABLE), len(ordinal._LABELLED), len(ordinal._BY_CODE)
            with pytest.raises(InvalidCodeError) as info:
                build()
            # info's traceback keeps the refused node alive, so were it stored
            # anywhere, its entry would still be there
            assert (len(hashcons._TABLE), len(ordinal._LABELLED), len(ordinal._BY_CODE)) == sizes, n
            del info
        finally:
            if enabled:
                gc.enable()
    assert 0 < refused < 20_000
    check_labels()


def test_sorting_decoded_notations_needs_no_structural_comparison(monkeypatch):
    # criterion 5's notations: once they are decoded every summand is
    # labelled, so the sort and the pairwise sweep compare labels only
    notations = [a for a in map(decoded, range(5001)) if a is not None]
    assert len(notations) == 2069
    calls = []
    cmp_term = ordinal._cmp_term
    monkeypatch.setattr(ordinal, "_cmp_term", lambda *args: calls.append(args) or cmp_term(*args))
    notations.sort(key=cmp_to_key(compare))
    for i, small in enumerate(notations):
        for large in notations[i + 1:]:
            assert compare(small, large) < 0 and compare(large, small) > 0
    assert not calls
