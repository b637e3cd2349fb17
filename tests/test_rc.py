"""Derivability for strictly positive modal formulas.

Decision procedure (closure model + model check), certificates read off
the decided model, and word normal forms.  The randomized schema torture
lives in the acceptance suite; this file keeps the hand-sized cases, the
references the fast paths are checked against (the per-edge closure on
dicts, the node-by-node model check, the normalize that keys every
subformula from scratch) and the timing gates.
"""

import itertools
import random
import statistics
import time
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import SMALL_ORDINALS, gen, large_pairs, rand_formula, rand_ordinal, rc_formulas
from rcworm import ordinal, rc
from rcworm.errors import BudgetExceededError, NotVariableFreeError
from rcworm.ordinal import (
    OMEGA, ONE, ZERO, add, compare, from_int, godel_code, is_successor, omega_power, phi,
    predecessor,
)
from rcworm.syntax import parse_formula, parse_worm, render
from rcworm.worm import MAX_DISTINCT_LETTERS, Worm

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "known-values.txt"


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


def test_equal_formulas_are_one_object():
    assert rc.Diam(OMEGA, rc.Var("p")) is rc.Diam(OMEGA, rc.Var("p"))
    assert f("<w>(p & <1>T)") is rc.Diam(OMEGA, rc.And((rc.Var("p"), rc.Diam(ONE, rc.TOP))))
    assert rc.And(x for x in (rc.TOP, rc.TOP)) is rc.And((rc.TOP, rc.TOP))
    with pytest.raises(ValueError):
        rc.And(())


def test_normalize_sorts_and_dedupes_conjuncts():
    a = rc.normalize(f("q & p & q"))
    b = rc.normalize(f("p & q"))
    assert a is b and a.conjuncts == (rc.Var("p"), rc.Var("q")) and rc.Var("p") < rc.Var("q")


def test_normalize_idempotent_on_samples():
    for text in ["T", "p", "<1>(p & p)", "(p & q) & (q & p)", "<0><0>T & T"]:
        once = rc.normalize(f(text))
        assert rc.normalize(once) == once


def scratch_key(f, index_key=lambda a: a):
    """A formula's key, built from scratch, each index mapped by index_key."""
    if isinstance(f, rc.Diam):
        return (2, index_key(f.index), scratch_key(f.body, index_key))
    if isinstance(f, rc.And):
        return (3,) + tuple(scratch_key(c, index_key) for c in f.conjuncts)
    return (1, f.name) if isinstance(f, rc.Var) else (0,)


def godel_key(f):
    """The sort key normalize once used, with each index as its Godel code."""
    return scratch_key(f, godel_code)


def reference_normalize(f):
    """The Godel-keyed normalize: every conjunction flattened, deduplicated
    and sorted by godel_key, recomputed from scratch at every level."""
    if isinstance(f, rc.Diam):
        return rc.Diam(f.index, reference_normalize(f.body))
    if isinstance(f, rc.And):
        seen = {}
        for c in f.conjuncts:
            g = reference_normalize(c)
            for p in g.conjuncts if isinstance(g, rc.And) else (g,):
                seen.setdefault(godel_key(p), p)
        return rc.conj([seen[k] for k in sorted(seen)])
    return f


_KIND = {rc.TOP.__class__: 0, rc.Var: 1, rc.Diam: 2, rc.And: 3}


def order_cmp(a, b):
    """The sibling order, from compare alone: kind, then a variable's name,
    a diamond's index in ordinal order and then its body, and conjunctions
    conjunct by conjunct, a proper prefix first."""
    c = _KIND[a.__class__] - _KIND[b.__class__]
    if c or a is rc.TOP:
        return c
    if isinstance(a, rc.Var):
        return (a.name > b.name) - (a.name < b.name)
    if isinstance(a, rc.Diam):
        return compare(a.index, b.index) or order_cmp(a.body, b.body)
    for x, y in zip(a.conjuncts, b.conjuncts):
        c = order_cmp(x, y)
        if c:
            return c
    return len(a.conjuncts) - len(b.conjuncts)


def resort(f):
    """f with every conjunction's conjuncts put in order_cmp order."""
    if isinstance(f, rc.Diam):
        return rc.Diam(f.index, resort(f.body))
    if isinstance(f, rc.And):
        return rc.And(sorted(map(resort, f.conjuncts), key=cmp_to_key(order_cmp)))
    return f


def rand_nested(rng, size, indices):
    """rand_formula, but conjunctions nest unflattened and repeat parts."""
    if size <= 2:
        return rand_formula(rng, size, indices)
    if rng.random() < 0.5:
        return rc.Diam(rng.choice(indices), rand_nested(rng, size - 1, indices))
    k = rng.randrange(1, size - 1)
    left = rand_nested(rng, k, indices)
    parts = [left, rand_nested(rng, size - 1 - k, indices)]
    if rng.random() < 0.3:
        parts.append(left)
    return rc.And(parts)


def shuffled(rng, f):
    """f with every conjunction's conjuncts shuffled, some repeated, and
    some nested one level deeper."""
    if isinstance(f, rc.Diam):
        return rc.Diam(f.index, shuffled(rng, f.body))
    if not isinstance(f, rc.And):
        return f
    parts = [shuffled(rng, c) for c in f.conjuncts]
    parts += rng.sample(parts, rng.randrange(len(parts)))
    rng.shuffle(parts)
    if rng.random() < 0.5:
        parts[-2:] = [rc.And(parts[-2:])]
    return rc.And(parts)


def assert_normal(g):
    """g is flat, sorted in order_cmp order, duplicate-free and a fixpoint."""
    assert rc.normalize(g) is g
    if isinstance(g, rc.And):
        cs = g.conjuncts
        assert all(a < b and not b < a and order_cmp(a, b) < 0 for a, b in zip(cs, cs[1:]))
        assert not any(isinstance(c, (rc.And, rc._Top)) for c in cs)
        for c in cs:
            assert_normal(c)
    elif isinstance(g, rc.Diam):
        assert_normal(g.body)


def test_normalize_flattens_nested_conjunctions():
    p, q = rc.Var("p"), rc.Var("q")
    assert rc.normalize(rc.And((rc.And((p, q)), p))) == rc.And((p, q))
    tower = rc.build_q(ONE, 2, f("r & <0>p & q"))
    assert render(rc.normalize(tower)) == "<1>(q & r & <0>p & <1>(q & r & <0>p))"
    for beta in (ZERO, ONE, OMEGA):
        for k in range(4):
            for text in ("T", "p", "r & <0>p & q", "<1>(p & p) & <0>T"):
                assert_normal(rc.normalize(rc.build_q(beta, k, f(text))))


def test_normalize_keys_and_idempotence_on_random_nested_input():
    rng = random.Random(31)
    mixed = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)]
    for _ in range(300):
        assert_normal(rc.normalize(rand_nested(rng, rng.randrange(1, 40), mixed)))


def test_normalize_matches_reference_on_parsed_input():
    # over finite indices ordinal order is Godel-code order, so the printed
    # normal forms are the Godel-keyed ones byte for byte
    rng = random.Random(32)
    finite = [from_int(k) for k in range(9)]
    for _ in range(300):
        g = f(render(rand_formula(rng, rng.randrange(1, 40), finite)))
        assert render(rc.normalize(g)) == render(reference_normalize(g))
        h = rand_nested(rng, rng.randrange(1, 40), finite)
        assert render(rc.normalize(h)) == render(reference_normalize(h))


def test_normalize_orders_siblings_by_index():
    # over mixed indices the conjunct sets are the reference's; only the
    # sibling order is ordinal order, where Godel codes may disagree
    assert render(rc.normalize(f("<eps0>p & <2>p"))) == "<2>p & <eps0>p"
    assert render(reference_normalize(f("<2>p & <eps0>p"))) == "<eps0>p & <2>p"
    rng = random.Random(33)
    mixed = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)]
    reordered = 0
    for _ in range(300):
        g = rand_nested(rng, rng.randrange(1, 40), mixed)
        want = reference_normalize(g)
        assert rc.normalize(g) is resort(want)
        reordered += rc.normalize(g) is not want
    assert reordered > 10


def test_normalize_forgets_conjunct_order_and_repeats():
    rng = random.Random(34)
    mixed = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)]
    for _ in range(300):
        g = rand_formula(rng, rng.randrange(1, 40), mixed)
        assert rc.normalize(shuffled(rng, g)) is rc.normalize(g)


def test_nothing_in_rc_computes_a_godel_code(monkeypatch):
    # rc orders formulas by their interned indices; Godel codes are output only
    rows = [line.split(" ; ") for line in FIXTURES.read_text().splitlines()
            if line.startswith(("rc-", "wnf "))]
    assert len(rows) == 17 and not hasattr(rc, "godel_code")

    def refuse(*args, **kwargs):
        raise AssertionError("godel_code called")

    monkeypatch.setattr(ordinal, "godel_code", refuse)
    for kind, *args in rows:
        if kind == "rc-derives":
            lhs, rhs = rc.normalize(f(args[0])), rc.normalize(f(args[1]))
            assert rc.derives(lhs, rhs) == (args[2] == "true")
            if args[2] == "true":
                assert rc.check_derivation(rc.proof_search(lhs, rhs))
        elif kind == "rc-normalize":
            assert render(rc.normalize(f(args[0]))) == args[1]
        else:
            assert render(rc.word_normal_form(f(args[0]))) == args[1]


def test_build_q_shape():
    p = rc.Var("p")
    assert rc.build_q(ONE, 0, p) == p
    q1 = rc.build_q(ONE, 1, p)
    assert q1 == rc.Diam(ONE, rc.And((p, p)))
    q2 = rc.build_q(ONE, 2, rc.TOP)
    # literal duplicates survive until normalization
    assert q2 == rc.Diam(ONE, rc.And((rc.TOP, rc.Diam(ONE, rc.And((rc.TOP, rc.TOP))))))


def test_build_q_refuses_a_tower_whose_text_passes_the_budget():
    # the text has k (|beta| + |f| + 7) + |f| characters, |f| counting the
    # parentheses of a conjunction as a conjunct
    for text in ("p", "p & <w>q", "T", "<2>(p & q)"):
        g = f(text)
        part = len(render(g)) + 2 * isinstance(g, rc.And)
        for k in range(1, 4):
            assert len(render(rc.build_q(OMEGA, k, g))) == k * (part + 8) + part, (text, k)
    name = rc.Var("v" * 992)  # 1,000 characters a level
    assert len(render(rc.build_q(ONE, 999, name))) == 999_992 <= rc.Q_CHARS
    for k in (1000, 10 ** 12):
        with pytest.raises(BudgetExceededError):
            rc.build_q(ONE, k, name)


# ------------------------------------------------------------------- model


def test_minimal_model_shapes():
    m = rc.build_minimal_model(rc.TOP)
    assert len(m.labels) == 1 and not any(m.edges)
    chain = rc.build_minimal_model(f("<1><0>T"))
    assert len(chain.labels) == 3
    # transitivity after downward closure adds the long 0-edge
    assert rc.model_check(chain, 0, f("<0><0>T"))
    assert rc.model_check(chain, 0, f("<0>T"))
    assert not rc.model_check(chain, 0, f("<1><1>T"))


def test_minimal_model_pairing_edge():
    m = rc.build_minimal_model(f("<2>p & <1>q"))
    # the closure must add a 1-edge from the p-node to the q-node
    assert rc.model_check(m, 0, f("<2>(p & <1>q)"))


# The reference: the closure over all ordinals, not just the sequent's
# indices.  An edge carries a strength (sigma, inclusive): the
# downward closed index set {b : b < sigma} or {b : b <= sigma}.  Canonical
# form keeps the strict flag only at limit bounds.  The table of strengths
# is closed under strictly-below, so it can be far longer than the list of
# indices (<1000> alone brings 1,001).  The ranked closure must admit, on
# every edge, exactly the ranked indices the strength here contains.


def s_contains(s, alpha):
    sigma, incl = s
    c = compare(alpha, sigma)
    return c < 0 or (c == 0 and incl)


def s_cmp(s1, s2):
    # inclusion test; strengths are nested so this is a linear order
    c = compare(s1[0], s2[0])
    if c != 0:
        return c
    return (s1[1] > s2[1]) - (s1[1] < s2[1])


def s_below(s):
    """Strictly-below set {b : exists a in s, b < a}, or None when empty."""
    sigma, incl = s
    if incl:
        if sigma.is_zero():
            return None
        if is_successor(sigma):
            return (predecessor(sigma), True)
        return (sigma, False)
    return s  # canonical strict strengths have limit bounds


def strength_table(seeded):
    """Every strength the closure can reach, sorted by inclusion; [0] unused."""
    seen = set()
    stack = []
    for row in seeded:
        for s in row.values():
            if s not in seen:
                seen.add(s)
                stack.append(s)
    while stack:
        b = s_below(stack.pop())
        if b is not None and b not in seen:
            seen.add(b)
            stack.append(b)
    return [None] + sorted(seen, key=cmp_to_key(s_cmp))


def reference_model(f):
    """The all-ordinal closure of f on Python dicts: (labels, edges), where
    edges[x] maps y to the strength of the edge x -> y.

    Seeds one node per diamond occurrence in the order build_minimal_model
    does (a diamond equal to a sibling adds none), then applies the two
    frame rewrites one present edge x -> y at a time, sweeping bottom-up
    then top-down until a round changes nothing.
    """
    labels, seeded, diamonds = [set()], [{}], [[]]

    def seed(node, g):
        for p in g.conjuncts if isinstance(g, rc.And) else (g,):
            if isinstance(p, rc.Var):
                labels[node].add(p.name)
            elif isinstance(p, rc.Diam) and p not in diamonds[node]:
                diamonds[node].append(p)
                labels.append(set())
                seeded.append({})
                diamonds.append([])
                seeded[node][len(labels) - 1] = (p.index, True)
                seed(len(labels) - 1, p.body)

    seed(0, f)
    return [frozenset(s) for s in labels], reference_close(seeded)


def reference_close(seeded):
    """Closed dict rows of strengths of a seeded frame."""
    table = strength_table(seeded)
    rank = {s: r for r, s in enumerate(table) if r > 0}
    below = [0] + [rank.get(s_below(s), 0) for s in table[1:]]
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
    return [{y: table[r] for y, r in row.items()} for row in edges]


def ranked(edges, strengths):
    """The rank rows a closure over the indices strengths[1:] must give: an
    edge's rank is how many of those indices its strength contains (they
    are a prefix, as the strength is downward closed); 0 is no edge."""
    out = []
    for row in edges:
        ranks = {y: sum(s_contains(s, a) for a in strengths[1:]) for y, s in row.items()}
        out.append({y: r for y, r in ranks.items() if r})
    return out


def in_order(indices):
    return sorted(set(indices), key=cmp_to_key(compare))


def diamond_indices(g):
    return [h.index for h in subformulas(g) if isinstance(h, rc.Diam)]


def assert_matches_reference(f, g=rc.TOP):
    """The model of f has the reference closure's edges over f's ranks, and
    admits each index of g, at its rank or half rank, on exactly the edges of
    the all-ordinal closure whose strength contains it.  Returns the answers
    given at half ranks."""
    model = rc.build_minimal_model(f)
    labels, edges = reference_model(f)
    assert model.labels == labels
    assert model.strengths[1:] == in_order(diamond_indices(f))
    assert model.edges == ranked(edges, model.strengths)
    nodes, gaps = range(len(labels)), set()
    for a in set(diamond_indices(g)):
        r = model.rank_of(a)
        for x, y in itertools.product(nodes, nodes):
            want = y in edges[x] and s_contains(edges[x][y], a)
            assert model.admits(x, r, y) is want, (render(f), render(a), x, y)
            if a not in model.rank:
                gaps.add(want)
    return gaps


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


def test_closure_matches_reference_over_indices_only_the_right_side_has():
    # The right side's indices are not ranked: they fall in the gaps between
    # the left side's (finite gaps up to 40 wide), and an edge the
    # all-ordinal closure puts at <4> under a seeded <5> must admit 3.
    rng = random.Random(2027)
    pool = [from_int(k) for k in range(41)] + SMALL_ORDINALS[4:] + transfinite_pool(rng, 6)
    gaps = set()
    for _ in range(400):
        indices = rng.sample(pool, rng.randint(2, 8))
        k = rng.randint(1, len(indices) - 1)
        lhs = rand_formula(rng, rng.randrange(1, 30), indices[:k])
        rhs = rand_formula(rng, rng.randrange(2, 10), indices[k:])
        gaps |= assert_matches_reference(lhs, rhs)
    assert gaps == {True, False}


def test_closure_matches_reference_on_random_preorder_trees():
    # The closed form reads the tree as _seed numbers it, in preorder: each
    # new node hangs off the rightmost path of the tree so far.  Ranks are drawn
    # freely from 1-8 indices with gaps between them, some of which may seed
    # no edge, so siblings share ranks and ranks rise going down.  Sizes
    # lean small (the reference costs n^3 per sweep), up to 40 nodes.
    rng = random.Random(2026)
    pool = [from_int(j) for j in range(0, 20, 3)] + SMALL_ORDINALS[4:10]
    shapes = set()
    for _ in range(2000):
        indices = rng.sample(pool, rng.randint(1, 8))
        seeded, tree, path = [{}], [], [0]
        for y in range(1, rng.randint(1, rng.randint(1, 40))):
            del path[rng.randrange(len(path)) + 1:]
            x, a = path[-1], rng.choice(indices)
            if any(b is a for b, _ in seeded[x].values()):
                shapes.add("equal siblings")
            if x and compare(a, tree[x - 1][2].index) > 0:  # tree[x - 1] seeds x
                shapes.add("rise")
            seeded[x][y] = (a, True)
            seeded.append({})
            tree.append((x, y, rc.Diam(a, rc.TOP)))
            path.append(y)
        rank = ordinal.ranks(indices)
        model = rc.RcModel([frozenset()] * len(seeded), [-1] + [x for x, _, _ in tree],
                           [0] + [rank[d.index] for _, _, d in tree], rank)
        assert model.edges == ranked(reference_close(seeded), [None] + in_order(indices))
    assert shapes == {"equal siblings", "rise"}


def test_closure_holds_three_hundred_ranks():
    # 300 diamonds <w+k>T under the root: 300 ranks, one per sibling.
    # Pairing puts an edge of rank min(j, i - 1) from the i-th node to the
    # j-th, and nothing more closes.
    n = 300
    model = rc.build_minimal_model(rc.conj(
        tuple(rc.Diam(add(OMEGA, from_int(k)), rc.TOP) for k in range(n))
    ))
    want = [{i: i for i in range(1, n + 1)}]
    for i in range(1, n + 1):
        want.append({j: min(j, i - 1) for j in range(1, n + 1) if min(j, i - 1)})
    assert model.edges == want
    assert len(model.strengths) - 1 == n
    top, below = (rc.Diam(add(OMEGA, from_int(k)), rc.TOP) for k in (n - 1, n - 2))
    assert rc.model_check(model, 0, rc.Diam(top.index, below))
    assert not rc.model_check(model, 0, rc.Diam(top.index, top))


def test_holds_matches_the_reference_closure_across_flag_sizes():
    # _holds keeps one flag byte per node, read from and written back to the
    # int of a node set; trees of 1, 2, 3, 63, 64, 65 and 400 nodes cross
    # every size at which an int or a byte string changes shape.  Past 16
    # nodes the root's edges carry the least index and each subtree under it
    # holds at most 16 nodes, so the reference closure stays small.
    rng = random.Random(2041)
    indices = [from_int(j) for j in range(0, 14, 2)] + SMALL_ORDINALS[4:9]
    rank = ordinal.ranks(indices)
    least = min(indices, key=rank.__getitem__)
    answers = set()
    for n, trees in ((1, 1), (2, 20), (3, 30), (63, 2), (64, 2), (65, 2), (400, 1)):
        for _ in range(trees):
            seeded, parent, seed, path = [{}], [-1], [0], [0]
            for y in range(1, n):
                if n > 16 and (y - 1) % 16 == 0:
                    del path[1:]
                else:
                    del path[rng.randrange(len(path)) + 1:]
                x = path[-1]
                a = least if n > 16 and x == 0 else rng.choice(indices)
                seeded[x][y] = (a, True)
                seeded.append({})
                parent.append(x)
                seed.append(rank[a])
                path.append(y)
            labels = [frozenset(v for v in "pqr" if rng.random() < 0.3) for _ in range(n)]
            model = rc.RcModel(labels, parent, seed, rank)
            edges = reference_close(seeded)
            for _ in range(6):
                g = rand_formula(rng, rng.randrange(1, 12), indices)
                hit = rc._holds(model, g)[g]
                want = [lazy_check(labels, edges, s_contains, x, g) for x in range(n)]
                assert hit >> n == 0 and [bool(hit >> x & 1) for x in range(n)] == want, (n, g)
                answers.update(want)
    assert answers == {True, False}


def test_derives_size_800_median_under_35_ms():
    rng = random.Random(800)
    pool = transfinite_pool(rng, 50)
    timings = []
    for _ in range(5):
        lhs = rand_formula(rng, 800, pool)
        rhs = rand_formula(rng, 800, pool)
        started = time.perf_counter()
        rc.derives(lhs, rhs)
        timings.append(time.perf_counter() - started)
    assert statistics.median(timings) < 0.035, timings


def test_derives_large_finite_index_is_fast():
    # no Goedel code of <28> (a 28-summand notation) is ever computed, and
    # no index between 1 and 1000 is ever built
    for lhs in ("<28>T & <1>T", "<1000>T & <1>T"):
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            assert rc.derives(f(lhs), f("<1>T"))
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.01, (lhs, timings)


def test_model_check_basics():
    m = rc.build_minimal_model(f("<0>T"))
    assert rc.model_check(m, 0, rc.TOP)
    assert not rc.model_check(m, 0, f("<0><0>T"))
    m2 = rc.build_minimal_model(f("<1>T"))
    assert rc.model_check(m2, 0, f("<0>T"))
    def related(x, a, y):
        return m2.admits(x, m2.rank_of(a), y)

    assert related(0, ZERO, 1) and related(0, ONE, 1)
    assert not related(0, TWO, 1) and not related(1, ZERO, 0)


def test_an_unranked_index_falls_in_a_gap():
    # the two siblings are unrelated at 5, the only rank; 3 falls in the
    # gap below it, at the half rank 1/2, where the pairing law relates them
    m = rc.build_minimal_model(f("<5>p & <5>q"))
    assert m.strengths == [None, from_int(5)]
    assert (m.rank_of(from_int(5)), m.rank_of(THREE), m.rank_of(OMEGA)) == (1, 0.5, 1.5)
    assert not m.admits(1, m.rank_of(from_int(5)), 2) and m.admits(1, m.rank_of(THREE), 2)
    assert rc.model_check(m, 0, f("<5>(p & <3>q)"))
    assert not rc.model_check(m, 0, f("<5>(p & <5>q)"))
    assert m.strengths == [None, from_int(5)]


def test_no_question_seeds_the_model_again(monkeypatch):
    # model_check asks a model about an index it did not rank without a
    # second seeding walk, and proof_search seeds once
    calls = []
    seed = rc._seed
    monkeypatch.setattr(rc, "_seed", lambda g: calls.append(g) or seed(g))
    lhs, rhs = f("<5>p & <5>q"), f("<5>(p & <3>q)")
    m = rc.build_minimal_model(lhs)
    assert len(calls) == 1
    assert rc.model_check(m, 0, rhs) and len(calls) == 1
    assert rc.model_check(m, 1, f("<0>q")) and not rc.model_check(m, 0, f("<w>T"))
    assert len(calls) == 1
    assert rc.proof_search(lhs, rhs) is not None and len(calls) == 2


def lazy_check(labels, edges, admits, node, f):
    """The lazy check: node by node, walking each node's dict row;
    admits(edge value, a) says whether an edge admits the index a."""
    memo = {}

    def sat(x, g):
        key = (x, id(g))
        hit = memo.get(key)
        if hit is None:
            if isinstance(g, rc._Top):
                hit = True
            elif isinstance(g, rc.Var):
                hit = g.name in labels[x]
            elif isinstance(g, rc.And):
                hit = all(sat(x, c) for c in g.conjuncts)
            else:
                hit = any(admits(s, g.index) and sat(y, g.body) for y, s in edges[x].items())
            memo[key] = hit
        return hit

    return sat(node, f)


def reference_checker(lhs, rhs):
    """The node-by-node check on the model of lhs ranked over the indices of
    lhs and rhs together, built here from rc._seed with no rank_of: a
    function (node, goal) -> whether goal holds there, for goals over those
    indices."""
    labels, tree = rc._seed(lhs)
    rank = ordinal.ranks([d.index for _, _, d in tree] + diamond_indices(rhs))
    edges = rc.RcModel(labels, [-1] + [x for x, _, _ in tree],
                       [0] + [rank[d.index] for _, _, d in tree], rank).edges
    return lambda node, g: lazy_check(labels, edges, lambda r, a: r >= rank[a], node, g)


def reference_derives(f, g):
    """derives on the all-ordinal closure of f."""
    labels, edges = reference_model(f)
    return lazy_check(labels, edges, s_contains, 0, g)


def subformulas(g):
    yield g
    if isinstance(g, rc.Diam):
        yield from subformulas(g.body)
    elif isinstance(g, rc.And):
        for c in g.conjuncts:
            yield from subformulas(c)


def assert_check_matches_reference(rng, lhs, rhs, nodes):
    """The model of lhs, asked about rhs and some of lhs's own subformulas
    (which hold at many nodes), at the root and at `nodes` random other
    nodes, answers as the reference check over the indices of both sides."""
    model = rc.build_minimal_model(lhs)
    reference = reference_checker(lhs, rhs)
    parts = list(subformulas(lhs))
    goals = [rhs, rng.choice(parts), rng.choice(parts)]
    at = [0] + [rng.randrange(len(model.labels)) for _ in range(nodes)]
    answers = set()
    for g in goals:
        for x in at:
            want = reference(x, g)
            assert rc.model_check(model, x, g) is want, (lhs, g, x)
            answers.add(want)
    return answers


def test_model_check_matches_reference():
    rng = random.Random(2025)
    mixed = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)]
    answers = set()
    for _ in range(500):
        lhs = rand_formula(rng, rng.randrange(1, 40), mixed)
        rhs = rand_formula(rng, rng.randrange(1, 12), mixed)
        answers |= assert_check_matches_reference(rng, lhs, rhs, 3)
    pool = transfinite_pool(rng, 50)
    for _ in range(3):
        lhs, rhs = rand_formula(rng, 200, pool), rand_formula(rng, 200, pool)
        answers |= assert_check_matches_reference(rng, lhs, rhs, 20)
    assert answers == {True, False}


def test_derives_matches_reference_on_a_seeded_corpus():
    rng = random.Random(2030)
    pool = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)] + transfinite_pool(rng, 6)
    answers = [0, 0]
    for _ in range(20_000):
        indices = rng.sample(pool, rng.randint(2, 6))
        lhs = rand_formula(rng, rng.randint(1, 12), indices)
        rhs = rand_formula(rng, rng.randint(1, 6), indices)
        want = reference_derives(lhs, rhs)
        assert rc.derives(lhs, rhs) is want, (render(lhs), render(rhs))
        answers[want] += 1
    assert min(answers) > 1000, answers


def test_derives_matches_reference_on_benchmark_pairs():
    answers = []
    for lhs, rhs, want in itertools.islice(large_pairs(2031), 2):
        lhs, rhs = f(lhs), f(rhs)
        assert rc.derives(lhs, rhs) is want is reference_derives(lhs, rhs)
        answers.append(want)
    assert sorted(answers) == [False, True]


def test_extractor_reasons_hold_in_the_closed_relation():
    # Every edge of the closed relation, materialized as the model's dict
    # rows (RcModel.edges), has a reason (_Extractor.reason) whose premises
    # hold there: a seed is a tree edge at its seed rank; transitivity
    # through w has both premises at least the entry; pairing from u has
    # (u, x) above it and (u, y) at least it.  Only the closed form is read
    # here, not the certificates built from it.
    kinds = set()
    for lhs, rhs, _ in itertools.islice(large_pairs(2032), 4):
        lhs, rhs = rc.normalize(f(lhs)), f(rhs)
        extractor = rc._Extractor(lhs, rhs)
        model = extractor.model
        m = model.edges
        for x, row in enumerate(m):
            for y, v in row.items():
                w, paired = extractor.reason(x, y)
                if w is None:
                    assert model.parent[y] == x and model.seed[y] == v
                    kinds.add("seed")
                elif not paired:
                    assert m[x].get(w, 0) >= v and m[w].get(y, 0) >= v
                    kinds.add("trans")
                else:
                    assert m[w].get(x, 0) > v and m[w].get(y, 0) >= v
                    kinds.add("pair")
    assert kinds == {"seed", "trans", "pair"}


def relabel(g, sigma):
    if isinstance(g, rc.Diam):
        return rc.Diam(sigma(g.index), relabel(g.body, sigma))
    if isinstance(g, rc.And):
        return rc.And(tuple(relabel(c, sigma) for c in g.conjuncts))
    return g


def test_derives_depends_only_on_the_order_of_indices():
    rng = random.Random(2032)
    pool = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)] + transfinite_pool(rng, 6)
    answers, shuffled_changed = set(), 0
    for _ in range(2000):
        indices = rng.sample(pool, rng.randint(2, 6))
        lhs = rand_formula(rng, rng.randint(1, 12), indices)
        rhs = rand_formula(rng, rng.randint(1, 6), indices)
        want = rc.derives(lhs, rhs)
        answers.add(want)
        rank = ordinal.ranks(indices)
        shuffle = dict(zip(rank, rng.sample(list(rank), len(rank))))
        for sigma in (lambda a: from_int(rank[a]), omega_power):
            assert rc.derives(relabel(lhs, sigma), relabel(rhs, sigma)) is want
        shuffled_changed += rc.derives(relabel(lhs, shuffle.get), relabel(rhs, shuffle.get)) is not want
    assert answers == {True, False}
    # a map that does not keep the order changes answers, so the test has power
    assert shuffled_changed > 0


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
    # a repeated sibling diamond seeds no second node
    once = rc.build_minimal_model(f("<1>p & q"))
    twice = rc.build_minimal_model(f("<1>p & q & <1>p"))
    assert twice.labels == once.labels and twice.edges == once.edges


# ------------------------------------------------------------ proof search


def test_proof_search_finds_axioms_at_depth_one():
    d = rc.proof_search(f("p"), f("p"))
    assert d is not None and rc.check_derivation(d)
    d = rc.proof_search(f("<1>p"), f("<0>p"))
    assert d is not None and rc.check_derivation(d)


def test_proof_search_respects_depth_bound():
    assert rc.proof_search(rc.TOP, f("<0>T")) is None


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


def size_bound(lhs, rhs):
    """(n d + 1) (D + 1) (W + |g| + 4) certificate lines for f |- g: n model
    nodes, d distinct diamond subformulas of g, D model depth, W the widest
    conjunction of f, |g| the nodes of g (f and g normalized).  At most n d
    steps add a conjunct, each lifted through D + 1 levels."""
    def walk(h):
        todo = [h]
        while todo:
            h = todo.pop()
            yield h
            if isinstance(h, rc.Diam):
                todo.append(h.body)
            elif isinstance(h, rc.And):
                todo += h.conjuncts

    labels, tree = rc._seed(lhs)
    depth = [0]
    for x, _, _ in tree:
        depth.append(depth[x] + 1)
    d = len({h for h in walk(rhs) if isinstance(h, rc.Diam)})
    w = max([len(h.conjuncts) for h in walk(lhs) if isinstance(h, rc.And)] + [1])
    return (len(labels) * d + 1) * (max(depth) + 1) * (w + sum(1 for _ in walk(rhs)) + 4)


def assert_certified(lhs, rhs):
    """proof_search certifies f |- g exactly when f derives g; a certificate
    checks, concludes the normalized sequent and keeps to size_bound."""
    d = rc.proof_search(lhs, rhs)
    assert (d is not None) is rc.derives(lhs, rhs), (lhs, rhs)
    if d is not None:
        lhs, rhs = rc.normalize(lhs), rc.normalize(rhs)
        assert rc.check_derivation(d) and d.conclusion == (lhs, rhs)
        assert len(d.to_lines()) <= size_bound(lhs, rhs), (lhs, rhs)
    return d


def test_p_is_only_asked_on_a_tree_path(monkeypatch):
    # _Extractor.lemma_p has no pairing case: E asks P from the lowest common
    # ancestor of its nodes, and P's transitivity splits a tree path into two
    # tree paths, so x is always a proper ancestor of y
    from test_acceptance import _formula_corpus

    asked = []
    lemma_p = rc._Extractor.lemma_p

    def traced(self, x, y, t):
        w = y
        while w > x:  # ancestors are numbered lower
            w = self.parent[w]
        asked.append(w == x != y)
        return lemma_p(self, x, y, t)

    monkeypatch.setattr(rc._Extractor, "lemma_p", traced)
    corpus = _formula_corpus(4, [ZERO, ONE])
    pairs = [(lhs, rhs) for lhs in corpus for rhs in corpus]
    rng = random.Random(2037)
    pool = transfinite_pool(rng, 5)
    for _ in range(1500):
        lhs = rand_formula(rng, rng.randint(2, 14), pool)
        pairs += [(lhs, rand_formula(rng, rng.randint(2, 5), pool)) for _ in range(2)]
    certified = sum(assert_certified(lhs, rhs) is not None for lhs, rhs in pairs)
    assert certified > 1000 and len(asked) > 300 and all(asked), (certified, len(asked))


def test_every_derivable_pair_gets_a_certificate():
    rng = random.Random(2034)
    indices = [from_int(k) for k in range(4)] + [OMEGA, add(OMEGA, ONE)]
    certified = 0
    for _ in range(3000):
        lhs = rand_formula(rng, rng.randint(1, 12), indices)
        for _ in range(2):
            certified += assert_certified(lhs, rand_formula(rng, rng.randint(1, 6), indices)) is not None
    assert certified > 1000
    for k in range(10, 51, 10):
        assert assert_certified(f("<1>" * k + "p"), f("<1>p"))


def test_every_pair_of_the_benchmark_certificate_pass_gets_a_certificate():
    # the derivable pairs a traced queries-small run certifies, five seeds
    import workloads

    for seed in (1, 2, 3, 9101, 9102):
        wl = workloads.QueriesSmall(seed, None)
        rng = gen.workload_rng(wl.name + ":cert", seed)
        for _ in range(workloads.CERT_WINDOW):
            lhs, rhs = map(f, wl.draw_derive(rng, want=True).data)
            assert assert_certified(lhs, rhs)


def test_checker_and_serializer_walk_deep_derivations():
    # 2,000 nested steps at the default recursion limit, numbered in post-order
    p = f("p")
    d = chain = rc.Derivation("ax-refl", (p, p))
    for _ in range(2000):
        chain = rc.Derivation("mono", (rc.Diam(ONE, chain.conclusion[0]),) * 2, (chain,))
        d = rc.Derivation("cut", (p, p), (d, rc.Derivation("ax-refl", (p, p))))
    assert rc.check_derivation(chain) and rc.check_derivation(d)
    lines = d.to_lines()
    assert lines[:3] == ["0: ax-refl - ; p |- p", "1: ax-refl - ; p |- p", "2: cut 0,1 ; p |- p"]
    assert len(lines) == 4001 and lines[-1] == "4000: cut 3998,3999 ; p |- p"
    with pytest.raises(BudgetExceededError):
        chain.to_lines()  # 12 MB of text


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
        d = rc.proof_search(a, t)
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


def test_wnf_prints_an_equivalent_word_not_a_canonical_one():
    # `rc wnf` prints a word equivalent to its input: the two derive each
    # other.  Equivalent inputs may print different words: <1><2>T &
    # <1><1><1>T prints [1,2,1,1] (fixture corpus), and [1,2] is equivalent
    # to it too.  Only derives is asked, never an order type, so the check
    # does not depend on how word_normal_form chooses its word.
    rows = [line.split(" ; ") for line in FIXTURES.read_text().splitlines()
            if line.startswith("wnf ")]
    assert len(rows) == 4
    pairs = []
    for _, text, word in rows:
        printed = render(rc.word_normal_form(f(text)))
        assert printed == word
        pairs.append((f(text), f(printed)))
    pairs.append((f("<1><2>T & <1><1><1>T"), f("[1,2]")))
    for g, w in pairs:
        assert rc.derives(g, w) and rc.derives(w, g), (g, w)
    assert render(rc.word_normal_form(f("[1,2]"))) == "[1,2]"


def test_word_normal_form_rejects_variables():
    with pytest.raises(NotVariableFreeError):
        rc.word_normal_form(f("<1>p"))


def test_word_normal_form_transfinite():
    g = f("<w>T & <3>T & <1>T")
    w = rc.word_normal_form(g)
    wf = rc.worm_formula(w)
    assert rc.derives(wf, g) and rc.derives(g, wf)


def ground(x):
    """x with every variable replaced by T."""
    if isinstance(x, rc.Var):
        return rc.TOP
    if isinstance(x, rc.And):
        return rc.conj(tuple(ground(c) for c in x.conjuncts))
    if isinstance(x, rc.Diam):
        return rc.Diam(x.index, ground(x.body))
    return x


def equivalent(g, w):
    """Two-way derives between g and the worm w."""
    wf = rc.worm_formula(w)
    return rc.derives(g, wf) and rc.derives(wf, g)


def merged_word(g):
    """The merge_words fold over g, conjuncts in their own order."""
    if isinstance(g, rc.Diam):
        return Worm((g.index,) + merged_word(g.body).letters)
    acc = Worm()
    for c in g.conjuncts if isinstance(g, rc.And) else ():
        acc = rc.merge_words(acc, merged_word(c))
    return acc


@settings(max_examples=60, deadline=None)
@given(rc_formulas(indices=None, max_leaves=6))
def test_word_normal_form_certified_on_random_ground_formulas(a):
    g = ground(a)
    assert equivalent(g, rc.word_normal_form(g))


def test_word_normal_form_on_a_seeded_corpus():
    rng = random.Random(8803)
    pool = SMALL_ORDINALS + [from_int(k) for k in range(5, 9)] + transfinite_pool(rng, 6)
    exact = 0
    for _ in range(10_000):
        indices = rng.sample(pool, rng.randint(2, 6))
        g = ground(rand_formula(rng, rng.randint(1, 16), indices))
        w = rc.word_normal_form(g)
        assert equivalent(g, w), render(g)
        if w != merged_word(g):
            # the merged word is kept whenever it is equivalent
            assert not equivalent(g, merged_word(g)), render(g)
            exact += 1
    assert exact > 0


def test_word_normal_form_letter_cap():
    # only the order types word_normal_form needs are held to the cap: these
    # three need none past it, two shuffled words conjoined do
    letters = [add(OMEGA, from_int(k)) for k in range(MAX_DISTINCT_LETTERS + 1)]
    chain = rc.worm_formula(Worm(letters))
    ones = rc.conj(rc.Diam(a, rc.TOP) for a in letters)
    both = rc.conj((rc.worm_formula(Worm(letters[::-1])), chain))
    for g in (chain, ones, both):
        assert equivalent(g, rc.word_normal_form(g))
    rng = random.Random(53)
    shuffled = [rc.worm_formula(Worm(rng.sample(letters, len(letters)))) for _ in range(2)]
    with pytest.raises(BudgetExceededError):
        rc.word_normal_form(rc.conj(shuffled))


def test_merge_words_does_not_recurse_per_letter():
    a = Worm((ONE, ZERO) * 1500)
    assert rc.merge_words(a, Worm((ONE,))) == a
    assert rc.merge_words(Worm((TWO,) * 3000), a).letters == (TWO,) * 3000 + a.letters
