"""Bounded arithmetic truth: terms, evaluations, the thirteen local
correctness clauses, and the prenex classifier."""

import copy
import gc
import importlib.util
import inspect
import pickle
import random
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import rand_delta0, rand_structure
from rcworm import hashcons
from rcworm import truthcore as tc
from rcworm.errors import BudgetExceededError, DomainError, NotInFragmentError
from rcworm.syntax import ParseError


def pf(text):
    return tc.parse_truth_formula(text)


def pt(text):
    return tc.parse_truth_term(text)


EMPTY = tc.FiniteStructure({})


# ------------------------------------------------------------------- terms


def test_eval_term_values():
    assert tc.eval_term(tc.Exp(tc.Succ(tc.Succ(tc.ZERO_T)))) == 4
    assert tc.eval_term(tc.Plus(tc.numeral(2), tc.numeral(3))) == 5
    assert tc.eval_term(tc.Times(tc.ZERO_T, tc.numeral(7))) == 0
    assert tc.eval_term(tc.numeral(9)) == 9


def test_numeral_is_iterated_successor():
    n = tc.numeral(3)
    assert n == tc.Succ(tc.Succ(tc.Succ(tc.ZERO_T)))
    assert tc.numeral(0) == tc.ZERO_T


def test_term_and_free_vars():
    t = pt("x + S(y) * 2")
    assert tc.free_vars(t) == {"x", "y"}
    f = pf("all x <= 3 . x = y")
    assert tc.free_vars(f) == {"y"}
    assert tc.free_vars(pf("all x <= 3 . x = x")) == set()


def test_subst_respects_shadowing():
    # an instance puts the numeral for x only where x is free, and
    # direct_eval's assignment of x yields to a quantifier that binds x again
    f = pf("ex x <= 1 . P(x) & (all x <= 2 . P(x))")
    assert list(tc._instances(f, 1))[1] == pf("P(S(0)) & (all x <= 2 . P(x))")
    m = tc.FiniteStructure({"P": [1]})
    assert tc.direct_eval(f, m) is tc.tr_eval(f, m) is False
    assert tc.direct_eval(f, tc.FiniteStructure({"P": [0, 1, 2]})) is True


# --------------------------------------------------------------- structure


def test_structure_membership_and_support():
    m = tc.FiniteStructure({"P": {(0,), (2,)}})
    assert m.holds("P", (0,))
    assert not m.holds("P", (1,))
    # anything outside the finite support is false, including unknown preds
    assert not m.holds("P", (999,))
    assert not m.holds("Q", (0,))


def test_load_structure_from_dict():
    m = tc.load_structure({"P": [0, 2], "R": [[1, 2], [3, 4]]})
    assert m.holds("P", (2,))
    assert m.holds("R", (1, 2))
    assert not m.holds("R", (2, 1))


def test_structure_round_trips_through_json_shape():
    m = tc.load_structure({"P": [3, 1]})
    again = tc.load_structure(m.to_json())
    assert again.holds("P", (1,)) and again.holds("P", (3,))
    assert not again.holds("P", (2,))


# ------------------------------------------------------------- direct eval


def test_direct_eval_examples():
    assert tc.direct_eval(pf("all x <= S(S(0)) . x <= S(S(0))"), EMPTY)
    assert not tc.direct_eval(pf("ex y <= 0 . S(y) = 0"), EMPTY)
    m = tc.FiniteStructure({"P": {(0,)}})
    assert tc.direct_eval(pf("P(0)"), m)
    assert not tc.direct_eval(pf("P(S(0))"), m)
    assert tc.direct_eval(pf("neg P(S(0))"), m)


def test_direct_eval_connectives():
    m = tc.FiniteStructure({"P": {(1,)}})
    assert tc.direct_eval(pf("P(S(0)) & 0 = 0"), m)
    assert not tc.direct_eval(pf("P(0) & 0 = 0"), m)
    assert tc.direct_eval(pf("P(0) | 0 = 0"), m)
    assert tc.direct_eval(pf("all x <= 2 . ex y <= x . y = x"), EMPTY)


def test_direct_eval_refuses_a_quantifier_over_the_budget_at_once():
    f = pf("all x <= exp(exp(5)) . x = x")  # 2^32 instances
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        tc.direct_eval(f, EMPTY)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(BudgetExceededError):
        tc.tr_eval(f, EMPTY)


# ----------------------------------------------------- the thirteen clauses


def test_empty_evaluation_passes():
    assert tc.is_evaluation(tc.PartialEvaluation(), EMPTY) is True


def test_built_evaluation_passes_and_covers():
    f = pf("all x <= S(0) . x <= S(0)")
    s = tc.build_evaluation(f, EMPTY)
    assert tc.is_evaluation(s, EMPTY) is True
    assert s.sent_map[f] == 1
    # clause 12 requires both instances in the domain
    inst0 = pf("0 <= S(0)")
    inst1 = pf("S(0) <= S(0)")
    assert s.sent_map[inst0] == 1 and s.sent_map[inst1] == 1


def test_clause_1_domain_shape():
    bad = tc.PartialEvaluation(term_map={pt("x"): 0})
    got = tc.is_evaluation(bad, EMPTY)
    assert not got and got.clause == 1
    open_sent = tc.PartialEvaluation(sent_map={pf("x = 0"): 1})
    got = tc.is_evaluation(open_sent, EMPTY)
    assert not got and got.clause == 1
    unbounded = tc.PartialEvaluation(sent_map={pf("all x . x = x"): 1})
    got = tc.is_evaluation(unbounded, EMPTY)
    assert not got and got.clause == 1


def test_clause_2_bit_values():
    bad = tc.PartialEvaluation(sent_map={pf("0 = 0"): 7})
    got = tc.is_evaluation(bad, EMPTY)
    assert not got and got.clause == 2


def test_clause_3_natural_values():
    bad = tc.PartialEvaluation(term_map={tc.ZERO_T: -1})
    got = tc.is_evaluation(bad, EMPTY)
    assert not got and got.clause == 3
    also_bad = tc.PartialEvaluation(term_map={tc.ZERO_T: True})
    got = tc.is_evaluation(also_bad, EMPTY)
    assert not got and got.clause == 3


def test_clause_4_zero():
    bad = tc.PartialEvaluation(term_map={tc.ZERO_T: 5})
    got = tc.is_evaluation(bad, EMPTY)
    assert not got and got.clause == 4


def test_clause_5_successor_needs_subterm():
    s1 = tc.Succ(tc.ZERO_T)
    bad = tc.PartialEvaluation(term_map={s1: 1})  # 0 itself missing
    got = tc.is_evaluation(bad, EMPTY)
    assert not got and got.clause == 5 and got.witness == s1
    wrong = tc.PartialEvaluation(term_map={tc.ZERO_T: 0, s1: 2})
    got = tc.is_evaluation(wrong, EMPTY)
    assert not got and got.clause == 5


def test_clauses_6_7_8_compound_terms():
    z = tc.ZERO_T
    bad_plus = tc.PartialEvaluation(term_map={z: 0, tc.Plus(z, z): 1})
    assert tc.is_evaluation(bad_plus, EMPTY).clause == 6
    bad_times = tc.PartialEvaluation(term_map={z: 0, tc.Times(z, z): 3})
    assert tc.is_evaluation(bad_times, EMPTY).clause == 7
    bad_exp = tc.PartialEvaluation(term_map={z: 0, tc.Exp(z): 0})
    assert tc.is_evaluation(bad_exp, EMPTY).clause == 8
    good = tc.PartialEvaluation(
        term_map={z: 0, tc.Plus(z, z): 0, tc.Times(z, z): 0, tc.Exp(z): 1}
    )
    assert tc.is_evaluation(good, EMPTY) is True


def test_clause_9_atoms():
    f = pf("P(0)")
    missing_arg = tc.PartialEvaluation(sent_map={f: 0})
    assert tc.is_evaluation(missing_arg, EMPTY).clause == 9
    m = tc.FiniteStructure({"P": {(0,)}})
    wrong = tc.PartialEvaluation(term_map={tc.ZERO_T: 0}, sent_map={f: 0})
    assert tc.is_evaluation(wrong, m).clause == 9
    right = tc.PartialEvaluation(term_map={tc.ZERO_T: 0}, sent_map={f: 1})
    assert tc.is_evaluation(right, m) is True
    # negated atom flips the required bit
    neg = tc.PartialEvaluation(
        term_map={tc.ZERO_T: 0}, sent_map={pf("neg P(0)"): 0}
    )
    assert tc.is_evaluation(neg, m) is True


def test_clauses_10_11_connectives():
    a, b = pf("0 = 0"), pf("0 <= 0")
    conjunction = tc.AndF(a, b)
    missing = tc.PartialEvaluation(sent_map={conjunction: 1})
    assert tc.is_evaluation(missing, EMPTY).clause == 10
    s = tc.build_evaluation(conjunction, EMPTY)
    broken = s.copy()
    broken.sent_map[conjunction] = 0
    assert tc.is_evaluation(broken, EMPTY).clause == 10
    disjunction = tc.OrF(a, b)
    s2 = tc.build_evaluation(disjunction, EMPTY)
    broken2 = s2.copy()
    broken2.sent_map[disjunction] = 0
    assert tc.is_evaluation(broken2, EMPTY).clause == 11
    # a disjunct missing from the domain
    for part in (a, b):
        missing2 = s2.copy()
        del missing2.sent_map[part]
        failed = tc.is_evaluation(missing2, EMPTY)
        assert (failed.clause, failed.witness) == (11, disjunction)


def test_clauses_12_13_bounded_quantifiers():
    f = pf("all x <= S(0) . x <= S(0)")
    s = tc.build_evaluation(f, EMPTY)
    # drop one instance from the domain
    missing = s.copy()
    del missing.sent_map[pf("S(0) <= S(0)")]
    assert tc.is_evaluation(missing, EMPTY).clause == 12
    wrong = s.copy()
    wrong.sent_map[f] = 0
    assert tc.is_evaluation(wrong, EMPTY).clause == 12
    g = pf("ex y <= S(0) . y = S(0)")
    s2 = tc.build_evaluation(g, EMPTY)
    wrong2 = s2.copy()
    wrong2.sent_map[g] = 0
    assert tc.is_evaluation(wrong2, EMPTY).clause == 13
    # the bound term missing from the domain: a bound no other term or atom
    # mentions, so no earlier clause sees it go
    for text, clause in (("all x <= 0 + 1 . x <= 1", 12), ("ex y <= 1 * 1 . y = 1", 13)):
        q = pf(text)
        s4 = tc.build_evaluation(q, EMPTY)
        assert tc.is_evaluation(s4, EMPTY) is True
        del s4.term_map[q.bound]
        failed = tc.is_evaluation(s4, EMPTY)
        assert (failed.clause, failed.witness) == (clause, q)
    # nested quantifiers, whose plans were stored while the evaluation was
    # built: a broken inner quantifier is still caught, and named
    h = pf("ex x <= 2 . all y <= x . ex z <= y . P(x + z)")
    m = tc.FiniteStructure({"P": [0, 2, 3]})
    s3 = tc.build_evaluation(h, m)
    assert tc.is_evaluation(s3, m) is True
    inner = [q for q in s3.sent_map if isinstance(q, (tc.BoundedAll, tc.BoundedEx)) and q is not h]
    assert len(inner) == 9 and all(q.plan is not None for q in inner)
    for q in inner:
        clause = 12 if isinstance(q, tc.BoundedAll) else 13
        missing = s3.copy()
        del missing.sent_map[_by_subst(q, s3.term_map[q.bound])[-1]]
        failed = tc.is_evaluation(missing, m)
        assert (failed.clause, failed.witness) == (clause, q)
        flipped = s3.copy()
        flipped.sent_map[q] = 1 - flipped.sent_map[q]
        failed = tc.is_evaluation(flipped, m)
        assert (failed.clause, failed.witness) == (clause, q)


def test_evaluation_term_values_match_oracle():
    f = pf("exp(S(S(0))) = 2 * 2")
    s = tc.build_evaluation(f, EMPTY)
    for t, v in s.term_map.items():
        assert v == tc.eval_term(t)
    assert s.sent_map[f] == 1


# ----------------------------------------------------------------- tr eval


def test_tr_eval_examples():
    assert not tc.tr_eval(pf("0 = S(0)"), EMPTY)
    assert tc.tr_eval(pf("P(3) | neg P(3)"), EMPTY)
    assert tc.tr_eval(pf("P(3) | neg P(3)"), tc.load_structure({"P": [3]}))
    f = pf("all x <= 2 . ex y <= x . y = x")
    assert tc.tr_eval(f, EMPTY) == tc.direct_eval(f, EMPTY) == True


def test_tr_eval_matches_direct_eval_randomized():
    rng = random.Random(20240814)
    for _ in range(300):
        f = rand_delta0(rng, depth=3)
        m = rand_structure(rng)
        assert tc.tr_eval(f, m) == tc.direct_eval(f, m)


def test_random_evaluations_agree_on_overlap():
    rng = random.Random(4711)
    for _ in range(60):
        m = rand_structure(rng)
        s1 = tc.build_evaluation(rand_delta0(rng, depth=3), m)
        s2 = tc.build_evaluation(rand_delta0(rng, depth=3), m)
        for t in set(s1.term_map) & set(s2.term_map):
            assert s1.term_map[t] == s2.term_map[t]
        for f in set(s1.sent_map) & set(s2.sent_map):
            assert s1.sent_map[f] == s2.sent_map[f]


# ------------------------------------------------------- negation, classes


def test_de_morgan_examples():
    assert tc.de_morgan_negate(pf("P(0)")) == pf("neg P(0)")
    f = pf("all x . P(x)")
    assert tc.de_morgan_negate(f) == tc.Ex("x", pf("neg P(x)"))
    g = pf("P(0) & (ex y <= 2 . y = 0)")
    neg = tc.de_morgan_negate(g)
    assert neg == pf("neg P(0) | (all y <= 2 . neg (y = 0))") or neg == tc.OrF(
        pf("neg P(0)"), tc.BoundedAll("y", tc.numeral(2), tc.NegAtom("=", (pt("y"), tc.ZERO_T)))
    )


def test_de_morgan_involution_randomized():
    rng = random.Random(99)
    for _ in range(200):
        f = rand_delta0(rng, depth=3)
        assert tc.de_morgan_negate(tc.de_morgan_negate(f)) == f


def test_classify_examples():
    assert tc.classify(pf("all x . P(x)")) == ("pi", 1)
    assert tc.classify(pf("ex x . all y . y <= x")) == ("sigma", 2)
    assert tc.classify(pf("all x <= 3 . x <= 3")) == ("delta0", 0)
    # same-kind runs collapse into one block
    assert tc.classify(pf("all x . all y . P(x)")) == ("pi", 1)
    assert tc.classify(pf("all x . ex y . all z . P(z)")) == ("pi", 3)


def test_classify_rejects_non_prenex():
    with pytest.raises(NotInFragmentError):
        tc.classify(pf("P(0) & (all x . P(x))"))
    with pytest.raises(NotInFragmentError):
        tc.classify(pf("all x <= 2 . all y . P(y)"))


def test_classify_swaps_under_negation():
    cases = ["all x . P(x)", "ex x . all y . y <= x", "all x <= 3 . P(x)"]
    flip = {"pi": "sigma", "sigma": "pi", "delta0": "delta0"}
    for text in cases:
        f = pf(text)
        kind, n = tc.classify(f)
        kind2, n2 = tc.classify(tc.de_morgan_negate(f))
        assert kind2 == flip[kind] and n2 == n


# ------------------------------------------------------------------ syntax


def test_parse_forms():
    assert pf("0 = 0") == tc.Atom("=", (tc.ZERO_T, tc.ZERO_T))
    assert pf("~ P(1)") == tc.NegAtom("P", (tc.numeral(1),))
    f = pf("P(x) & Q(y) | R(z)")
    assert isinstance(f, tc.OrF) and isinstance(f.left, tc.AndF)
    assert pt("2 + 3 * x") == tc.Plus(tc.numeral(2), tc.Times(tc.numeral(3), tc.Var("x")))
    assert pt("exp(S(0))") == tc.Exp(tc.Succ(tc.ZERO_T))


def test_parse_errors():
    with pytest.raises(ParseError):
        pf("all x <= . P(x)")
    with pytest.raises(ParseError):
        pf("neg (P(0) & Q(0))")  # negation is atoms-only
    with pytest.raises(ParseError):
        pf("P(0) &")
    with pytest.raises(ParseError):
        pt("1 + + 2")


def test_render_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(300):
        f = rand_delta0(rng, depth=3)
        assert pf(tc.render_formula(f)) == f
    for _ in range(300):
        t = tc.render_term(tc.numeral(rng.randrange(10)))
        assert tc.eval_term(pt(t)) < 10


def test_render_compresses_numerals():
    assert tc.render_term(tc.numeral(4)) == "4"
    assert tc.render_term(tc.Succ(tc.Plus(tc.ZERO_T, tc.ZERO_T))) == "S(0+0)"


# --------------------------------------------------------------- interning


def test_parsing_twice_gives_the_same_object():
    text = "all x <= 3 . P(x) & exp(2) = S(3) * x | ex y <= x . y <= 9"
    assert pf(text) is pf(text)
    assert pt("2 + x * exp(1)") is pt("2 + x * exp(1)")
    assert tc.numeral(7) is pt("7") is tc.Succ(tc.numeral(6))


def test_atom_terms_are_interned_as_a_tuple():
    two = tc.numeral(2)
    assert tc.Atom("P", [two]) is tc.Atom("P", (two,))
    assert tc.Atom("P", [two]).terms == (two,)


def test_atom_and_negated_atom_are_distinct():
    a = tc.Atom("P", (tc.ZERO_T,))
    n = tc.NegAtom("P", (tc.ZERO_T,))
    assert a is not n and a != n and len({a, n}) == 2
    assert tc.de_morgan_negate(a) is n and tc.de_morgan_negate(n) is a


def test_intern_table_does_not_grow_across_ops():
    def op():
        f = pf("all x <= 40 . ex y <= x . P(y) | y = exp(3) + x")
        s = tc.build_evaluation(f, EMPTY)
        assert tc.is_evaluation(s, EMPTY) is True
        return len(hashcons._TABLE)

    gc.collect()  # nodes held only by earlier tests' garbage cycles
    before = len(hashcons._TABLE)
    assert op() > before + 40
    assert len(hashcons._TABLE) == before
    op()
    assert len(hashcons._TABLE) == before


def test_stored_plans_form_no_reference_cycle():
    # a plan stored on a quantifier must not keep it, or any node, alive:
    # with the collector off, reference counting alone empties the table
    def op():
        f = pf("all x <= 6 . ex y <= x . all z <= y + 1 . P(x + z) | R(y, z)")
        s = tc.build_evaluation(f, EMPTY)
        assert tc.is_evaluation(s, EMPTY) is True
        assert sum(g.plan is not None for g in s.sent_map if isinstance(g, tc.BoundedAll)) > 20
        return len(hashcons._TABLE)

    gc.collect()
    before = len(hashcons._TABLE)
    gc.disable()
    try:
        assert op() > before + 100
        assert len(hashcons._TABLE) == before
    finally:
        gc.enable()


def test_intern_entry_leaves_with_the_last_reference():
    # reference counting alone removes the entry: no collector runs
    key = (tc.Var, "only_in_this_test")
    gc.disable()
    try:
        node = tc.Var("only_in_this_test")
        assert hashcons._TABLE[key]() is node
        before = len(hashcons._TABLE)
        del node
        assert key not in hashcons._TABLE
        assert len(hashcons._TABLE) == before - 1
    finally:
        gc.enable()


def test_stale_callback_keeps_the_newer_entry():
    key = (tc.Var, "rebuilt_in_this_test")
    node = tc.Var("rebuilt_in_this_test")
    old = hashcons._TABLE[key]
    callback = old.__callback__  # cleared once it has run
    del node
    assert old() is None and key not in hashcons._TABLE
    node = tc.Var("rebuilt_in_this_test")
    new = hashcons._TABLE[key]
    assert new is not old and new() is node
    callback(old)  # the dead node's callback, run again late
    assert hashcons._TABLE[key] is new and new() is node


def test_copies_and_unpickled_nodes_are_interned():
    f = pf("all x <= 3 . R(x, S(x)) | x = exp(1)")
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    data = pickle.dumps(tc.Var("pickled_in_this_test"))
    assert (tc.Var, "pickled_in_this_test") not in hashcons._TABLE
    back = pickle.loads(data)
    assert back is tc.Var("pickled_in_this_test")
    assert hashcons._TABLE[(tc.Var, "pickled_in_this_test")]() is back


def test_deep_numerals_evaluate():
    big = tc.numeral(5000)
    assert tc.eval_term(big) == 5000
    f = tc.BoundedAll("x", big, tc.atom_le(tc.Var("x"), big))
    s = tc.build_evaluation(f, EMPTY)
    assert s.sent_map[f] == 1 and s.term_map[big] == 5000
    assert tc.is_evaluation(s, EMPTY) is True


# The recursive walks that per-node caches replaced, kept as the reference:
# for free_vars on terms and formulas, for the `bounded` flag, and for the
# substitution a plan's instance performs.


def ref_term_vars(t, acc=None):
    if acc is None:
        acc = set()
    if isinstance(t, tc.Var):
        acc.add(t.name)
    elif isinstance(t, (tc.Succ, tc.Exp)):
        ref_term_vars(t.arg, acc)
    elif isinstance(t, (tc.Plus, tc.Times)):
        ref_term_vars(t.left, acc)
        ref_term_vars(t.right, acc)
    return acc


def ref_free_vars(f, acc=None):
    if acc is None:
        acc = set()
    if isinstance(f, (tc.Atom, tc.NegAtom)):
        for t in f.terms:
            ref_term_vars(t, acc)
    elif isinstance(f, (tc.AndF, tc.OrF)):
        ref_free_vars(f.left, acc)
        ref_free_vars(f.right, acc)
    elif isinstance(f, (tc.BoundedAll, tc.BoundedEx)):
        ref_term_vars(f.bound, acc)
        inner = ref_free_vars(f.body, set())
        inner.discard(f.var)
        acc |= inner
    elif isinstance(f, (tc.All, tc.Ex)):
        inner = ref_free_vars(f.body, set())
        inner.discard(f.var)
        acc |= inner
    return acc


def ref_is_delta0(f):
    if isinstance(f, (tc.Atom, tc.NegAtom)):
        return True
    if isinstance(f, (tc.AndF, tc.OrF)):
        return ref_is_delta0(f.left) and ref_is_delta0(f.right)
    if isinstance(f, (tc.BoundedAll, tc.BoundedEx)):
        return ref_is_delta0(f.body)
    return False


def ref_subst_term(t, name, repl):
    if isinstance(t, tc.Var):
        return repl if t.name == name else t
    if isinstance(t, tc.Succ):
        return tc.Succ(ref_subst_term(t.arg, name, repl))
    if isinstance(t, tc.Exp):
        return tc.Exp(ref_subst_term(t.arg, name, repl))
    if isinstance(t, tc.Plus):
        return tc.Plus(ref_subst_term(t.left, name, repl), ref_subst_term(t.right, name, repl))
    if isinstance(t, tc.Times):
        return tc.Times(ref_subst_term(t.left, name, repl), ref_subst_term(t.right, name, repl))
    return t


def ref_subst(f, name, repl):
    if isinstance(f, (tc.Atom, tc.NegAtom)):
        return type(f)(f.pred, tuple(ref_subst_term(t, name, repl) for t in f.terms))
    if isinstance(f, (tc.AndF, tc.OrF)):
        return type(f)(ref_subst(f.left, name, repl), ref_subst(f.right, name, repl))
    if isinstance(f, (tc.BoundedAll, tc.BoundedEx)):
        bound = ref_subst_term(f.bound, name, repl)
        body = f.body if f.var == name else ref_subst(f.body, name, repl)
        return type(f)(f.var, bound, body)
    body = f.body if f.var == name else ref_subst(f.body, name, repl)
    return type(f)(f.var, body)


NAMES = ("x", "y", "z")


def rand_open_term(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return tc.Var(rng.choice(NAMES)) if rng.random() < 0.6 else tc.numeral(rng.randrange(4))
    k = rng.randrange(4)
    if k < 2:
        return (tc.Succ, tc.Exp)[k](rand_open_term(rng, depth - 1))
    return (tc.Plus, tc.Times)[k - 2](rand_open_term(rng, depth - 1), rand_open_term(rng, depth - 1))


def rand_open_formula(rng, depth):
    """Formulas over three names, so quantifiers shadow names free outside
    them and bounds mention the name their own quantifier binds."""
    if depth <= 0 or rng.random() < 0.2:
        pred = rng.choice(("P", "=", "<="))
        arity = rng.randrange(1, 3) if pred == "P" else 2
        terms = tuple(rand_open_term(rng, 2) for _ in range(arity))
        return rng.choice((tc.Atom, tc.NegAtom))(pred, terms)
    k = rng.randrange(4)
    if k == 0:
        return rng.choice((tc.AndF, tc.OrF))(
            rand_open_formula(rng, depth - 1), rand_open_formula(rng, depth - 1)
        )
    var, body = rng.choice(NAMES), rand_open_formula(rng, depth - 1)
    if k == 1:
        return rng.choice((tc.All, tc.Ex))(var, body)
    return rng.choice((tc.BoundedAll, tc.BoundedEx))(var, rand_open_term(rng, 1), body)


def test_cached_vars_and_subst_match_the_recursive_walks():
    # substitution in the library is a plan's instance for formulas, and an
    # assignment read by eval_term for terms
    rng = random.Random(5150)
    changed = shadowed = 0
    for _ in range(500):
        f = rand_open_formula(rng, 4)
        assert tc.free_vars(f) == ref_free_vars(f)
        for name in NAMES:
            n = rng.randrange(6)
            repl = tc.numeral(n)
            got = list(tc._instances(tc.BoundedAll(name, repl, f), n))[n]
            want = ref_subst(f, name, repl)
            assert tc.render_formula(got) == tc.render_formula(want)
            assert got is want
            changed += got is not f
            t = rand_open_term(rng, 3)
            assert tc.free_vars(t) == ref_term_vars(t)
            env = {v: rng.randrange(4) for v in NAMES}
            closed = t
            for v in NAMES:
                closed = ref_subst_term(closed, v, tc.numeral(env[v]))
            assert tc.eval_term(t, env) == tc.eval_term(closed)
        shadowed += any(
            isinstance(g, (tc.BoundedAll, tc.BoundedEx)) and g.var in g.bound.fv
            for g in _subformulas(f)
        )
    # the corpus exercises both the shortcut and the shadowing case
    assert changed > 300 and shadowed > 50


def _subformulas(f):
    yield f
    for part in ("left", "right", "body"):
        if hasattr(f, part):
            yield from _subformulas(getattr(f, part))


def test_bounded_flag_matches_the_recursive_walk():
    rng = random.Random(5151)
    seen = set()
    for _ in range(500):
        for g in _subformulas(rand_open_formula(rng, 4)):
            assert g.bounded is ref_is_delta0(g)
            seen.add(g.bounded)
    for _ in range(100):
        assert rand_delta0(rng, depth=4).bounded is True
    assert seen == {True, False}


def _by_subst(f, top):
    return [ref_subst(f.body, f.var, tc.numeral(n)) for n in range(top + 1)]


def test_instances_match_subst_on_the_random_corpus():
    rng = random.Random(1906)
    quantifiers = 0
    for _ in range(300):
        f = rand_delta0(rng, depth=4)
        for g in _subformulas(f):
            if isinstance(g, (tc.BoundedAll, tc.BoundedEx)):
                quantifiers += 1
                for top in (0, 1, 4, 9):
                    assert list(tc._instances(g, top)) == _by_subst(g, top)
    assert quantifiers > 200


def test_instances_match_subst_on_open_formulas():
    # bodies with unbounded quantifiers, shadowing and names free outside
    rng = random.Random(1907)
    for _ in range(300):
        body = rand_open_formula(rng, 4)
        for name in NAMES:
            for g in (tc.BoundedAll(name, tc.numeral(2), body),
                      tc.BoundedEx(name, tc.Var("z"), body)):
                assert list(tc._instances(g, 3)) == _by_subst(g, 3)


@pytest.mark.parametrize("text", [
    "all x <= 3 . all x <= x . P(x)",  # an inner quantifier shadows x
    "all x <= 3 . (all x <= x . P(x)) & Q(x)",
    "all x <= 3 . ex y <= x + 1 . P(y)",  # x only in an inner bound
    "ex x <= 3 . P(0) | y = 2",  # x not free in the body
    "all x <= 3 . R(x, S(x)) | neg R(0, x)",  # atoms of arity 2
    "all x <= 3 . R(x, x) & (R(x, x) | x = x * exp(x))",  # shared subterms
])
def test_instances_match_subst_on_edge_cases(text):
    f = pf(text)
    for top in (0, 1, 5):
        assert list(tc._instances(f, top)) == _by_subst(f, top)


def test_instances_are_built_one_at_a_time():
    # a budget refusal inside an instance must come before the next one
    # is built, so the instances come from a generator, never a list
    for text in ("all x <= 3 . P(x)", "all x <= 3 . P(0)"):
        f = pf(text)
        assert inspect.isgenerator(tc._instances(f, 3))
        start = time.perf_counter()
        first = next(tc._instances(f, 10**9))
        assert time.perf_counter() - start < 1.0
        assert first is ref_subst(f.body, f.var, tc.ZERO_T)


def _assert_routes_agree(f, m):
    s = tc.build_evaluation(f, m)
    assert (s.sent_map[f] == 1) == tc.tr_eval(f, m) == tc.direct_eval(f, m)
    assert tc.is_evaluation(s, m) is True


def _check_derived_plans(f, top, levels):
    """Check against subst the instances of every bounded quantifier that
    the instances of f build, down to `levels` quantifiers below f; return
    how many of them took their plan from the instance that built them."""
    derived = 0
    seen = set()
    for inst in list(tc._instances(f, top)):
        for q in _subformulas(inst):
            if isinstance(q, (tc.BoundedAll, tc.BoundedEx)) and q not in seen:
                seen.add(q)
                derived += q.plan is not None
                assert list(tc._instances(q, top)) == _by_subst(q, top)
                if levels > 1:
                    derived += _check_derived_plans(q, top, levels - 1)
    return derived


def test_derived_plans_match_subst_on_the_random_corpus():
    rng = random.Random(1908)
    derived = 0
    for _ in range(150):
        f = rand_delta0(rng, depth=5)
        if isinstance(f, (tc.BoundedAll, tc.BoundedEx)):
            derived += _check_derived_plans(f, 3, 3)
    assert derived > 100


def test_derived_plans_match_subst_on_open_formulas():
    # bodies with unbounded quantifiers, re-binding and names free outside
    rng = random.Random(1909)
    derived = 0
    for _ in range(200):
        body = rand_open_formula(rng, 5)
        for name in NAMES:
            derived += _check_derived_plans(tc.BoundedEx(name, tc.Var("z"), body), 2, 2)
    assert derived > 500


@pytest.mark.parametrize("text", [
    # the inner quantifier binds x again
    "all x <= 3 . ex y <= x . all x <= y . (P(x) | R(x, y))",
    # P(x) sits both under and outside the re-binding of x
    "all x <= 3 . (P(x) & ex y <= 2 . (P(x) | all x <= y . P(x)))",
    # the middle quantifier's variable is free in an inner bound only
    "all x <= 3 . ex y <= x . all z <= y + 1 . P(x + z)",
    # more re-bindings, which direct_eval's assignment must follow too
    "all x <= 3 . (all x <= x . P(x)) & Q(x)",
    "ex x <= 2 . all y <= x . ex x <= y + 1 . R(x, y)",
    "all x <= 2 . ex x <= x + 1 . P(x) | Q(x)",  # the inner bound reads the outer x
    "ex x <= 3 . all y <= x . (ex x <= y . R(x, y)) & neg Q(x)",
    "all x <= 2 . ex y <= 2 . all x <= y . R(x, y) | P(x)",
])
def test_derived_plans_match_subst_on_edge_cases(text):
    f = pf(text)
    _check_derived_plans(f, 3, 3)
    rng = random.Random(text)
    for m in [EMPTY, tc.FiniteStructure({"P": [1, 3], "Q": [0, 2], "R": [[0, 1], [2, 2]]})] + [
            rand_structure(rng) for _ in range(20)]:
        _assert_routes_agree(f, m)


def test_interleaved_instances_share_plans_safely():
    f = pf("all x <= 3 . ex y <= x + 2 . (P(x + y) | R(y, exp(x)))")
    one, two = list(tc._instances(f, 2))[1:]
    assert one.plan is not None and one.plan[0] is two.plan[0]  # one template
    for a, b in ((one, one), (one, two)):
        got_a, got_b = [], []
        for x, y in zip(tc._instances(a, 4), tc._instances(b, 4)):
            got_a.append(x)
            got_b.append(y)
        assert got_a == _by_subst(a, 4) and got_b == _by_subst(b, 4)


def _three_levels(rng):
    """A sentence of three nested bounded quantifiers whose inner bounds are
    the outer variables; the innermost binds x again now and then."""
    last = rng.choice(("z", "z", "x"))
    kinds = (tc.BoundedAll, tc.BoundedEx)
    body = rand_delta0(rng, 2, sorted({"x", "y", last}))
    f = rng.choice(kinds)(last, tc.Plus(tc.Var("y"), tc.numeral(rng.randrange(3))), body)
    f = rng.choice(kinds)("y", tc.Var("x"), f)
    return rng.choice(kinds)("x", tc.numeral(rng.randrange(6)), f)


def test_three_level_sentences_agree_with_direct_eval():
    rng = random.Random(1910)
    for _ in range(150):
        _assert_routes_agree(_three_levels(rng), rand_structure(rng))


def _rebind(node):
    """node with each variable v<i> renamed x<i mod 2>: a quantifier binds
    the name of the one two levels above it again, capturing its variable."""
    if isinstance(node, tuple):
        return tuple(_rebind(t) for t in node)
    if not isinstance(node, hashcons.Node):
        return node
    fields = [_rebind(getattr(node, name)) for name in type(node).__slots__]
    if isinstance(node, (tc.Var, tc.BoundedAll, tc.BoundedEx)):
        fields[0] = "x%d" % (int(fields[0][1:]) % 2)
    return type(node)(*fields)


def _quantifiers(f):
    return [g for g in _subformulas(f) if isinstance(g, (tc.BoundedAll, tc.BoundedEx))]


def test_rebinding_random_sentences_agree_with_direct_eval():
    rng = random.Random(1911)
    rebound = 0
    for _ in range(300):
        f = _rebind(rand_delta0(rng, depth=4))
        assert not f.fv
        rebound += any(g.var == q.var for q in _quantifiers(f) for g in _quantifiers(q.body))
        _assert_routes_agree(f, rand_structure(rng))
    assert rebound > 40


def test_plans_are_made_once_per_quantifier_of_the_sentence(monkeypatch):
    walks = []
    plan = tc._plan

    def counted(q, *scope):
        walks.append(q)
        return plan(q, *scope)

    monkeypatch.setattr(tc, "_plan", counted)
    for text in ("ex v0 <= %d . ex v1 <= 3 . all v2 <= 3 . (R(3)) & (neg exp(0) = exp(2))",
                 "ex v0 <= %d . ex v1 <= v0 . all v2 <= 3 . R(v0 + v2) & neg v1 = exp(v2)"):
        for top in (35, 70):
            s = tc.build_evaluation(pf(text % top), EMPTY)
            assert len(walks) <= 3
            del walks[:]
            assert tc.is_evaluation(s, EMPTY) is True
            assert walks == []


# --------------------------------------- tokenizer-based reference parser
#
# The truth parser as it was before it shared the scanner of rcworm.syntax:
# the whole text is tokenized up front, and nothing bounds nesting.

_REF_T_TOKEN = re.compile(r"\s*(<=|\d+|[A-Za-z_][A-Za-z0-9_]*|[()+*,.=&|~])")


def _ref_t_tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _REF_T_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                "unexpected character %r" % stripped[0], len(text) - len(stripped)
            )
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


_REF_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class _RefTruthParser:
    def __init__(self, text):
        self.tokens = _ref_t_tokenize(text)
        self.i = 0
        self.text = text

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError("expected %r" % tok, self.pos())
        self.i += 1

    def done(self):
        if self.peek() is not None:
            raise ParseError("trailing input", self.pos())

    def formula(self):
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = tc.OrF(f, self.conj())
        return f

    def conj(self):
        f = self.unit()
        while self.peek() == "&":
            self.next()
            f = tc.AndF(f, self.unit())
        return f

    def unit(self):
        tok = self.peek()
        if tok in ("all", "ex"):
            self.next()
            var = self.ident()
            bound = None
            if self.peek() == "<=":
                self.next()
                bound = self.term()
            self.expect(".")
            body = self.formula()
            if tok == "all":
                return tc.All(var, body) if bound is None else tc.BoundedAll(var, bound, body)
            return tc.Ex(var, body) if bound is None else tc.BoundedEx(var, bound, body)
        if tok in ("neg", "~"):
            self.next()
            a = self.unit()
            if not isinstance(a, tc.Atom):
                raise ParseError("negation applies to atoms only", self.pos())
            return tc.NegAtom(a.pred, a.terms)
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def ident(self):
        tok = self.next()
        if not re.fullmatch(_REF_NAME, tok) or tok in ("all", "ex", "neg", "S", "exp"):
            raise ParseError("expected a name", self.pos())
        return tok

    def atom(self):
        tok = self.peek()
        if (
            tok is not None
            and re.fullmatch(_REF_NAME, tok)
            and tok not in ("S", "exp", "all", "ex", "neg")
            and self.i + 1 < len(self.tokens)
            and self.tokens[self.i + 1][0] == "("
        ):
            pred = self.next()
            self.expect("(")
            terms = [self.term()]
            while self.peek() == ",":
                self.next()
                terms.append(self.term())
            self.expect(")")
            return tc.Atom(pred, terms)
        left = self.term()
        op = self.next()
        if op not in ("=", "<="):
            raise ParseError("expected '=' or '<='", self.pos())
        return tc.Atom(op, (left, self.term()))

    def term(self):
        t = self.factor()
        while self.peek() == "+":
            self.next()
            t = tc.Plus(t, self.factor())
        return t

    def factor(self):
        t = self.prim()
        while self.peek() == "*":
            self.next()
            t = tc.Times(t, self.prim())
        return t

    def prim(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.isdigit():
            self.next()
            if len(tok.lstrip("0")) > len(str(tc.TRUTH_CAP)):
                raise BudgetExceededError(
                    "numeral %s... is above the truth budget of %d" % (tok[:12], tc.TRUTH_CAP)
                )
            return tc.numeral(int(tok))
        if tok in ("S", "exp"):
            self.next()
            self.expect("(")
            t = self.term()
            self.expect(")")
            return tc.Succ(t) if tok == "S" else tc.Exp(t)
        if tok == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if re.fullmatch(_REF_NAME, tok):
            self.next()
            return tc.Var(tok)
        raise ParseError("expected a term", self.pos())


def _ref_parse(rule, text):
    p = _RefTruthParser(text)
    x = rule(p)
    p.done()
    return x


def _truth_outcome(parse, text):
    """("ok", result), or the refusal's type, message and position."""
    try:
        return "ok", parse(text)
    except ParseError as e:
        return "ParseError", str(e), e.position
    except DomainError as e:
        return type(e).__name__, str(e), None


def _assert_same_truth_parse(text):
    """Both parsers give the same object or the same refusal; the shared
    scanner's "trailing input" also names the token."""
    kinds = []
    for parse, rule in ((pf, _RefTruthParser.formula), (pt, _RefTruthParser.term)):
        got = _truth_outcome(parse, text)
        want = _truth_outcome(lambda s: _ref_parse(rule, s), text)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1] is want[1], text
        elif want[1].startswith("trailing input ("):
            tok = _REF_T_TOKEN.match(text, want[2]).group(1)
            assert got == (want[0], "trailing input %r (at position %d)" % (tok, want[2]), want[2]), text
        else:
            assert got == want, text
        kinds.append(want[0] if want[0] != "ParseError" else re.sub(r" '.*| \(at .*", "", want[1]))
    return kinds


def _gen_module():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_README = Path(__file__).resolve().parent.parent / "README.md"
_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "known-values.txt"
_T_MUTATION_CHARS = "()&|+*,.=<~ 01xSPe$é"


def test_truth_parse_matches_the_tokenizer_reference():
    texts = [shlex.split(line)[4] for line in _README.read_text().splitlines()
             if line.startswith("$ rcworm truth ")]
    texts += [line.split(" ; ")[1] for line in _FIXTURES.read_text().splitlines()
              if line.startswith("truth-eval ; ")]
    assert len(texts) == 11
    rng = random.Random(6113)
    texts += [tc.render_formula(rand_delta0(rng, rng.randrange(5))) for _ in range(400)]
    gen = _gen_module()
    for i in range(400):
        shape = gen.SENTENCE_SHAPES[i % len(gen.SENTENCE_SHAPES)]
        texts.append(gen.sentence_text(gen.rand_sentence(rng, shape)))
    answers = 0
    refusals = set()
    for text in texts:
        answers += _assert_same_truth_parse(text)[0] == "ok"
        for _ in range(3):
            i = rng.randrange(len(text) + 1)
            roll = rng.random()
            if roll < 1 / 3 and i < len(text):
                mutant = text[:i] + text[i + 1:]
            elif roll < 2 / 3 and i < len(text):
                mutant = text[:i] + rng.choice(_T_MUTATION_CHARS) + text[i + 1:]
            else:
                mutant = text[:i] + rng.choice(_T_MUTATION_CHARS) + text[i:]
            refusals.update(_assert_same_truth_parse(mutant))
    assert answers == len(texts)
    assert {"unexpected character", "unexpected end of input", "expected", "expected a name",
            "expected a term", "negation applies to atoms only", "trailing input"} <= refusals, refusals
