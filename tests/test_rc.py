"""Derivability for strictly positive modal formulas.

Decision procedure (closure model + model check), certificate search,
and word normal forms.  The randomized schema torture lives in the
acceptance suite; this file keeps the hand-sized cases, the per-edge
reference closure that the numpy closure is checked against, and a
size-800 timing gate.
"""

import random
import statistics
import time

import pytest
from hypothesis import given, settings

from conftest import SMALL_ORDINALS, rand_formula, rand_ordinal, rc_formulas
from rcworm import rc
from rcworm.errors import NotVariableFreeError
from rcworm.ordinal import OMEGA, ONE, ZERO, add, compare, from_int, phi
from rcworm.syntax import parse_formula, parse_worm, render
from rcworm.worm import Worm


def f(text):
    return parse_formula(text)


TWO = from_int(2)
THREE = from_int(3)


# ------------------------------------------------------------ constructors


def test_conj_flattens_and_drops_top():
    assert rc.conj((rc.TOP, rc.Var("p"))) == rc.Var("p")
    assert rc.conj(()) == rc.TOP
    inner = rc.conj((rc.Var("p"), rc.Var("q")))
    flat = rc.conj((inner, rc.Var("r")))
    assert isinstance(flat, rc.And) and len(flat.conjuncts) == 3


def test_worm_formula():
    assert rc.worm_formula(Worm(())) == rc.TOP
    assert rc.worm_formula(Worm((ONE, ZERO))) == f("<1><0>T")


def test_normalize_sorts_and_dedupes_conjuncts():
    a = rc.normalize(f("q & p & q"))
    b = rc.normalize(f("p & q"))
    assert a == b
    assert rc.formula_key(a) == rc.formula_key(b)


def test_normalize_idempotent_on_samples():
    for text in ["T", "p", "<1>(p & p)", "(p & q) & (q & p)", "<0><0>T & T"]:
        once = rc.normalize(f(text))
        assert rc.normalize(once) == once


def test_build_q_shape():
    p = rc.Var("p")
    assert rc.build_q(ONE, 0, p) == p
    q1 = rc.build_q(ONE, 1, p)
    assert q1 == rc.Diam(ONE, rc.And((p, p)))
    q2 = rc.build_q(ONE, 2, rc.TOP)
    # literal duplicates survive until normalization
    assert q2 == rc.Diam(ONE, rc.And((rc.TOP, rc.Diam(ONE, rc.And((rc.TOP, rc.TOP))))))


# ------------------------------------------------------------------- model


def test_minimal_model_shapes():
    m = rc.build_minimal_model(rc.TOP)
    assert len(m.nodes) == 1 and not any(m.edges)
    chain = rc.build_minimal_model(f("<1><0>T"))
    assert len(chain.nodes) == 3
    # transitivity after downward closure adds the long 0-edge
    assert rc.model_check(chain, 0, f("<0><0>T"))
    assert rc.model_check(chain, 0, f("<0>T"))
    assert not rc.model_check(chain, 0, f("<1><1>T"))


def test_minimal_model_pairing_edge():
    m = rc.build_minimal_model(f("<2>p & <1>q"))
    # the closure must add a 1-edge from the p-node to the q-node
    assert rc.model_check(m, 0, f("<2>(p & <1>q)"))


def reference_model(f):
    """The per-edge closure on Python dicts: (labels, edges, strengths).

    Seeds one node per diamond occurrence in the order build_minimal_model
    does, then applies the two frame rewrites one present edge x -> y at a
    time, sweeping bottom-up then top-down until a round changes nothing.
    """
    labels, seeded = [set()], [{}]

    def seed(node, g):
        for p in g.conjuncts if isinstance(g, rc.And) else (g,):
            if isinstance(p, rc.Var):
                labels[node].add(p.name)
            elif isinstance(p, rc.Diam):
                labels.append(set())
                seeded.append({})
                seeded[node][len(labels) - 1] = (p.index, True)
                seed(len(labels) - 1, p.body)

    seed(0, f)
    table = rc._strength_table(seeded)
    rank = {s: r for r, s in enumerate(table) if r > 0}
    below = [0] + [rank.get(rc._s_below(s), 0) for s in table[1:]]
    edges = [{y: rank[s] for y, s in row.items()} for row in seeded]

    def raise_to(row, z, v):
        if v > row.get(z, 0):
            row[z] = v
            return True
        return False

    n = len(edges)
    changed = True
    while changed:
        changed = False
        for x in [*range(n - 1, -1, -1), *range(n)]:
            row = edges[x]
            for y in list(row):
                r = row[y]
                for z, s in list(edges[y].items()):
                    changed |= raise_to(row, z, min(r, s))
                if below[r]:
                    for z, s in list(row.items()):
                        changed |= raise_to(edges[y], z, min(below[r], s))
    return [frozenset(s) for s in labels], edges, table


def assert_matches_reference(f):
    model = rc.build_minimal_model(f)
    labels, edges, strengths = reference_model(f)
    assert model.labels == labels
    assert model.edges == edges
    assert model.strengths == strengths
    return model


def transfinite_pool(rng, count):
    """`count` distinct random notations at or above omega."""
    pool, seen = [], set()
    while len(pool) < count:
        candidate = rand_ordinal(rng, 3)
        if compare(candidate, OMEGA) >= 0 and render(candidate) not in seen:
            seen.add(render(candidate))
            pool.append(candidate)
    return pool


def test_closure_matches_reference_on_random_formulas():
    rng = random.Random(2024)
    mixed = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)]
    for _ in range(500):
        assert_matches_reference(
            rc.normalize(rand_formula(rng, rng.randrange(1, 50), mixed))
        )
    pool = transfinite_pool(rng, 50)
    for _ in range(3):
        assert_matches_reference(rc.normalize(rand_formula(rng, 200, pool)))


def test_closure_rank_dtype_holds_wide_tables():
    # 55 diamonds whose strength table outgrows one byte of rank
    f = rc.conj(tuple(
        rc.Diam(add(phi(from_int(a), from_int(b)), THREE), rc.TOP)
        for a in range(5)
        for b in range(1, 12)
    ))
    model = assert_matches_reference(rc.normalize(f))
    ranks = [r for row in model.edges for r in row.values()]
    assert len(model.strengths) > 256 and max(ranks) > 255
    assert max(ranks) < len(model.strengths)


def test_derives_size_800_median_under_one_second():
    rng = random.Random(800)
    pool = transfinite_pool(rng, 50)
    timings = []
    for _ in range(5):
        lhs = rand_formula(rng, 800, pool)
        rhs = rand_formula(rng, 800, pool)
        started = time.perf_counter()
        rc.derives(lhs, rhs)
        timings.append(time.perf_counter() - started)
    assert statistics.median(timings) < 1.0, timings


def test_model_check_basics():
    m = rc.build_minimal_model(f("<0>T"))
    assert rc.model_check(m, 0, rc.TOP)
    assert not rc.model_check(m, 0, f("<0><0>T"))
    m2 = rc.build_minimal_model(f("<1>T"))
    assert rc.model_check(m2, 0, f("<0>T"))


# ----------------------------------------------------------------- derives


def test_derives_axiom_instances():
    # reflexivity, top
    assert rc.derives(f("p"), f("p"))
    assert rc.derives(f("<1>p & q"), rc.TOP)
    # projections
    assert rc.derives(f("p & q"), f("p"))
    assert rc.derives(f("p & q"), f("q"))
    # index transitivity
    assert rc.derives(f("<1><1>p"), f("<1>p"))
    # index lowering
    assert rc.derives(f("<1>p"), f("<0>p"))
    assert not rc.derives(f("<0>p"), f("<1>p"))
    # pairing, both directions
    assert rc.derives(f("<2>p & <1>q"), f("<2>(p & <1>q)"))
    assert rc.derives(f("<2>(p & <1>q)"), f("<2>p & <1>q"))
    # polytransitivity
    assert rc.derives(f("<w><3>p"), f("<3>p"))


def test_derives_rejects_classics():
    assert not rc.derives(rc.TOP, f("<0>T"))
    assert not rc.derives(f("p"), f("q"))
    assert not rc.derives(f("<1>p"), f("<1><1>p"))
    assert not rc.derives(f("<1>(p & q)"), f("<1><1>p"))
    # pairing needs a strict index drop
    assert rc.derives(f("<1>p & <1>q"), f("<1>(p & <1>q)")) is False


def test_derives_self_strengthening():
    # <a>X proves <a>(X & <b>X) for b < a
    assert rc.derives(f("<1>p"), f("<1>(p & <0>p)"))
    assert rc.derives(f("<w>p"), f("<w>(p & <3>p)"))
    assert not rc.derives(f("<1>p"), f("<1>(p & <1>p)"))


def test_derives_transfinite_indices():
    w2p3 = add(phi(ZERO, TWO), THREE)  # w^2 + 3
    g0 = phi(ONE, ZERO)
    a = rc.Diam(w2p3, rc.Var("p"))
    assert rc.derives(a, rc.Diam(OMEGA, rc.Var("p")))
    assert rc.derives(rc.Diam(g0, a), rc.Diam(w2p3, rc.Diam(w2p3, rc.Var("p"))))
    assert not rc.derives(rc.Diam(OMEGA, rc.Var("p")), a)


def test_derives_word_equivalences():
    # appending a trailing zero never changes a word: [1] == [1,0]
    assert rc.derives(f("[1]"), f("[1,0]"))
    assert rc.derives(f("[1,0]"), f("[1]"))
    # [2,1] == [2] but strictly above nothing new
    assert rc.derives(f("[2]"), f("[2,1]"))
    assert rc.derives(f("[2,1]"), f("[2]"))
    assert not rc.derives(f("[2]"), f("<0>[2,1]"))
    # strict drop: [1,1] proves <0>[0,1]
    assert rc.derives(f("[1,1]"), f("<0>[0,1]"))
    assert not rc.derives(f("[0,1]"), f("<0>[1,1]"))


def test_derives_ignores_conjunct_order_and_duplicates():
    assert rc.derives(f("p & q"), f("q & p"))
    assert rc.derives(f("p & p & q"), f("q & p"))
    a = f("<1>(p & q) & <0>r")
    b = f("<0>r & <1>(q & p)")
    assert rc.derives(a, b) and rc.derives(b, a)


# ------------------------------------------------------------ proof search


def test_proof_search_finds_axioms_at_depth_one():
    d = rc.proof_search(f("p"), f("p"), max_depth=1)
    assert d is not None and rc.check_derivation(d)
    d = rc.proof_search(f("<1>p"), f("<0>p"), max_depth=2)
    assert d is not None and rc.check_derivation(d)


def test_proof_search_respects_depth_bound():
    assert rc.proof_search(rc.TOP, f("<0>T"), max_depth=30) is None


def test_proof_search_certificates_check_and_conclude():
    cases = [
        ("<1><1>p", "<1>p"),
        ("<2>p & <1>q", "<2>(p & <1>q)"),
        ("<2>(p & <1>q)", "<2>p & <1>q"),
        ("<w><3>p", "<3>p"),
        ("[1,1]", "<0>[0,1]"),
        ("<1>p", "<1>(p & <0>p)"),
        ("p & q & r", "r & p"),
    ]
    for lhs, rhs in cases:
        d = rc.proof_search(f(lhs), f(rhs))
        assert d is not None, (lhs, rhs)
        assert rc.check_derivation(d)
        assert d.conclusion == (rc.normalize(f(lhs)), rc.normalize(f(rhs)))


def test_check_derivation_rejects_tampering():
    d = rc.proof_search(f("<1><1>p"), f("<1>p"))
    assert d is not None
    bad = rc.Derivation("ax-refl", (f("p"), f("q")))
    with pytest.raises(ValueError):
        rc.check_derivation(bad)
    # swap the conclusion of a valid certificate
    forged = rc.Derivation(d.rule, (f("q"), f("p")), d.premises)
    with pytest.raises(ValueError):
        rc.check_derivation(forged)
    with pytest.raises(ValueError):
        rc.check_derivation(rc.Derivation("made-up", (f("p"), f("p"))))


def test_certificate_serialization():
    d = rc.proof_search(f("<2>p & <1>q"), f("<2>(p & <1>q)"))
    lines = d.to_lines()
    assert lines, "certificate must serialize"
    # every line: index, rule tag, premise refs, sequent
    for i, line in enumerate(lines):
        head, _, seq = line.partition(";")
        assert head.startswith("%d: " % i)
        assert "|-" in seq
    # the last line concludes the goal, spelled in normalized form
    want = "%s |- %s" % (
        render(rc.normalize(f("<2>p & <1>q"))),
        render(rc.normalize(f("<2>(p & <1>q)"))),
    )
    assert lines[-1].endswith(want)


@settings(max_examples=100, deadline=None)
@given(rc_formulas(max_leaves=5))
def test_search_agrees_with_decision_procedure_positive(a):
    # weaken a into something it must derive, then search for a certificate
    b = rc.normalize(a)
    targets = [rc.TOP, b]
    if isinstance(b, rc.And):
        targets.append(b.conjuncts[0])
    if isinstance(b, rc.Diam):
        targets.append(rc.Diam(ZERO, b.body))
    for t in targets:
        assert rc.derives(a, t)
        d = rc.proof_search(a, t, max_depth=14)
        assert d is not None
        rc.check_derivation(d)


# -------------------------------------------------------- word normal form


def test_merge_words_known_cases():
    got = rc.merge_words(Worm((ONE,)), Worm((ZERO,)))
    assert rc.derives(rc.worm_formula(got), f("<1>T & <0>T"))
    assert rc.derives(f("<1>T & <0>T"), rc.worm_formula(got))


def test_word_normal_form_basics():
    assert rc.word_normal_form(rc.TOP) == Worm(())
    w = rc.word_normal_form(f("<1>T & <0>T"))
    wf = rc.worm_formula(w)
    assert rc.derives(wf, f("<1>T & <0>T")) and rc.derives(f("<1>T & <0>T"), wf)
    # already a word after flattening
    w2 = rc.word_normal_form(f("<0>(T & <1>T)"))
    assert rc.derives(rc.worm_formula(w2), f("<0><1>T"))
    assert rc.derives(f("<0><1>T"), rc.worm_formula(w2))


def test_word_normal_form_rejects_variables():
    with pytest.raises(NotVariableFreeError):
        rc.word_normal_form(f("<1>p"))


def test_word_normal_form_transfinite():
    g = f("<w>T & <3>T & <1>T")
    w = rc.word_normal_form(g)
    wf = rc.worm_formula(w)
    assert rc.derives(wf, g) and rc.derives(g, wf)


@settings(max_examples=60, deadline=None)
@given(rc_formulas(indices=None, max_leaves=6))
def test_word_normal_form_certified_on_random_ground_formulas(a):
    # strip variables by renaming them to T
    def ground(x):
        if isinstance(x, rc.Var):
            return rc.TOP
        if isinstance(x, rc.And):
            return rc.conj(tuple(ground(c) for c in x.conjuncts))
        if isinstance(x, rc.Diam):
            return rc.Diam(x.index, ground(x.body))
        return x

    g = ground(a)
    w = rc.word_normal_form(g)
    wf = rc.worm_formula(w)
    assert rc.derives(wf, g)
    assert rc.derives(g, wf)
