"""End-to-end acceptance suite.

One test per acceptance criterion; `pytest -v tests/test_acceptance.py`
prints a single pass/fail line for each.  Randomized criteria use fixed
seeds so the run is reproducible, and every stated time budget is asserted
inside the test that owns it.
"""

import itertools
import random
import statistics
import time
from functools import cmp_to_key
from pathlib import Path

from conftest import (
    SMALL_ORDINALS,
    rand_delta0,
    rand_formula,
    rand_ordinal,
    rand_structure,
    rand_worm,
)

from rcworm import truthcore as tc
from rcworm.cli import main as cli_main
from rcworm.errors import InvalidCodeError
from rcworm.ordinal import (
    EPS0,
    OMEGA,
    ONE,
    ZERO,
    add,
    compare,
    from_int,
    godel_code,
    godel_decode,
    left_subtract,
    omega_power,
    phi,
)
from rcworm.rc import (
    TOP,
    And,
    Diam,
    Var,
    check_derivation,
    derives,
    normalize,
    proof_search,
    worm_formula,
)
from rcworm.spectra import (
    fgh_class_label,
    fgh_eval,
    make_theory,
    ord_at,
    pi11_ordinal,
    spectrum,
)
from rcworm.syntax import parse_formula, parse_ordinal, parse_worm, render
from rcworm.worm import Worm, order_type, order_type_at

TWO = from_int(2)
THREE = from_int(3)

def epsilon(a):
    return phi(ONE, a)


def tower(k):
    """1, w, w^w, w^(w^w), ... at position k."""
    value = ONE
    for _ in range(k):
        value = omega_power(value)
    return value


# ------------------------------------------------------------- criterion 1


def test_criterion_01_single_letter_order_type_table():
    """Closed-form order types of one-letter words, each computed < 1 s."""
    cases = [
        ("[w]", epsilon(ZERO)),
        ("[w*2]", epsilon(epsilon(ZERO))),
    ]
    for n in range(4):
        cases.append(("[%d]" % (n + 1), tower(n + 1)))
        cases.append(("[w+%d]" % (n + 1), epsilon(tower(n + 1))))
    for alpha in (ONE, TWO, OMEGA):
        successor = add(alpha, ONE)
        cases.append(("[w^(%s)]" % render(successor), phi(successor, ZERO)))
        cases.append(
            ("[w^(%s)+w]" % render(successor), phi(successor, epsilon(ZERO)))
        )
    for text, expected in cases:
        started = time.perf_counter()
        got = order_type(parse_worm(text))
        elapsed = time.perf_counter() - started
        assert got == expected, (text, render(got), render(expected))
        assert elapsed < 1.0, (text, elapsed)


# ------------------------------------------------------------- criterion 2


def test_criterion_02_derivability_matches_order_type_comparison():
    """Over all 40 words with letters in {0,1,2} and length <= 3: the
    zero-prefixed consequence test agrees with strict order-type comparison,
    and mutual derivability agrees with order-type equality; < 60 s."""
    started = time.perf_counter()
    letters = (ZERO, ONE, TWO)
    words = [
        Worm(tuple(ls))
        for n in range(4)
        for ls in itertools.product(letters, repeat=n)
    ]
    assert len(words) == 40

    types = [order_type(w) for w in words]
    formulas = [worm_formula(w) for w in words]
    consequence = {
        (i, j): derives(formulas[i], formulas[j])
        for i in range(40)
        for j in range(40)
    }
    for i, j in itertools.product(range(40), repeat=2):
        cmp_types = compare(types[i], types[j])
        prefixed = worm_formula(Worm((ZERO,) + words[i].letters))
        assert derives(formulas[j], prefixed) == (cmp_types < 0), (i, j)
        mutual = consequence[(i, j)] and consequence[(j, i)]
        assert mutual == (cmp_types == 0), (i, j)
    assert time.perf_counter() - started < 60.0


# ------------------------------------------------------------- criterion 3


def _formula_corpus(max_size, indices):
    """All normalized formulas of at most max_size nodes over {p}."""
    by_size = {1: [TOP, Var("p")]}
    for size in range(2, max_size + 1):
        acc = []
        for sub in by_size.get(size - 1, []):
            for index in indices:
                acc.append(Diam(index, sub))
        for left_size in range(1, size - 1):
            for lhs in by_size.get(left_size, []):
                for rhs in by_size.get(size - 1 - left_size, []):
                    acc.append(And((lhs, rhs)))
        by_size[size] = acc
    out, seen = [], set()
    for formulas in by_size.values():
        for formula in formulas:
            node = normalize(formula)
            key = repr(node)
            if key not in seen:
                seen.add(key)
                out.append(node)
    return out


def test_criterion_03_search_and_decision_agree_exhaustively():
    """On every pair of formulas of size <= 4 over {p} and indices {0,1}:
    search never succeeds on an underivable pair, every derivable pair is
    certified, and every certificate passes the independent checker;
    < 5 min."""
    started = time.perf_counter()
    corpus = _formula_corpus(4, [ZERO, ONE])
    assert len(corpus) == 34
    derivable = certified = 0
    for lhs, rhs in itertools.product(corpus, repeat=2):
        decided = derives(lhs, rhs)
        certificate = proof_search(lhs, rhs)
        if certificate is not None:
            assert decided, (lhs, rhs)
            assert check_derivation(certificate) is True
            certified += 1
        if decided:
            derivable += 1
            assert certificate is not None, (lhs, rhs)
    assert derivable == certified == 345
    assert time.perf_counter() - started < 300.0


# ------------------------------------------------------------- criterion 4


AXIOM_INDEX_POOL = [
    ZERO,
    ONE,
    TWO,
    THREE,
    OMEGA,
    add(OMEGA, ONE),
    add(omega_power(TWO), THREE),
    omega_power(OMEGA),
    phi(ONE, ZERO),
]


def _weaken(rng, g, pool, depth=0):
    """Something g provably yields, built by construction only."""
    roll = rng.random()
    if roll < 0.06:
        return TOP
    if roll < 0.16 or depth > 3:
        return g
    if isinstance(g, And):
        kept = [c for c in g.conjuncts if rng.random() < 0.75]
        if not kept:
            kept = [rng.choice(g.conjuncts)]
        kept = [_weaken(rng, c, pool, depth + 1) for c in kept]
        return kept[0] if len(kept) == 1 else And(tuple(kept))
    if isinstance(g, Diam):
        index = g.index
        if rng.random() < 0.5:
            not_above = [b for b in pool if compare(b, index) <= 0]
            if not_above:
                index = rng.choice(not_above)
        return Diam(index, _weaken(rng, g.body, pool, depth + 1))
    return g


def test_criterion_04_axiom_schema_random_instances():
    """10,000 randomized instances of each of the six primitive schemas,
    with transfinite indices in the pool, all validated by derives."""
    rng = random.Random(41)
    pool = AXIOM_INDEX_POOL
    strict_pairs = [
        (small, large)
        for large in pool
        for small in pool
        if compare(small, large) < 0
    ]
    for _ in range(10000):
        index = rng.choice(pool)
        left = rand_formula(rng, rng.randint(1, 6), pool)
        right = rand_formula(rng, rng.randint(1, 6), pool)

        # schema 1: identity and the top conclusion
        assert derives(left, left)
        assert derives(left, TOP)
        # schema 2: conjunction projections
        pair = And((left, right))
        assert derives(pair, left)
        assert derives(pair, right)
        # schema 3: cut and conjunction introduction
        mid = _weaken(rng, left, pool)
        assert derives(left, _weaken(rng, mid, pool))
        assert derives(left, And((_weaken(rng, left, pool), mid)))
        # schema 4: repeated diamonds collapse
        assert derives(Diam(index, Diam(index, left)), Diam(index, left))
        # schema 5: monotone bodies, decreasing indices
        assert derives(Diam(index, left), Diam(index, _weaken(rng, left, pool)))
        small, large = rng.choice(strict_pairs)
        assert derives(Diam(large, left), Diam(small, left))
        # schema 6: a weaker diamond rides along inside a stronger one
        small, large = rng.choice(strict_pairs)
        inner = Diam(small, right)
        assert derives(
            And((Diam(large, left), inner)),
            Diam(large, And((left, inner))),
        )


# ------------------------------------------------------------- criterion 5


def test_criterion_05_ordinal_comparison_laws():
    """Trichotomy and transitivity exhaustively over every notation whose
    code is <= 5000, plus 10,000 random samples each of the subtraction
    round trip, power monotonicity, and the fixed-point collapse law."""
    notations = []
    for code in range(5001):
        try:
            notations.append(godel_decode(code))
        except InvalidCodeError:
            continue
    assert len(notations) == 2069

    # Sorting gives a candidate ranking; the full pairwise sweep then proves
    # compare is exactly that strict total order, which packs trichotomy and
    # transitivity into one exhaustive check.
    notations.sort(key=cmp_to_key(compare))
    for i, small in enumerate(notations):
        assert compare(small, small) == 0
        for large in notations[i + 1 :]:
            assert compare(small, large) < 0
            assert compare(large, small) > 0

    # Direct triple check on a subrange, straight from raw comparison signs
    # with no sorting argument in between: each row is the bitmask of
    # notations strictly above, and transitivity says any row reached through
    # a member of row[i] stays inside row[i].
    front = [n for n in notations if godel_code(n) <= 300]
    above = []
    for a in front:
        mask = 0
        for j, b in enumerate(front):
            if compare(a, b) < 0:
                mask |= 1 << j
        above.append(mask)
    for i in range(len(front)):
        probe = above[i]
        while probe:
            j = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            assert above[j] & ~above[i] == 0, (i, j)

    rng = random.Random(52)
    for _ in range(10000):
        first, second = rand_ordinal(rng, 3), rand_ordinal(rng, 3)
        low, high = (
            (first, second) if compare(first, second) <= 0 else (second, first)
        )
        assert add(low, left_subtract(low, high)) == high
        if compare(low, high) != 0:
            assert compare(omega_power(low), omega_power(high)) < 0
        base = rand_ordinal(rng, 2)
        if compare(low, high) != 0:
            assert phi(low, phi(high, base)) == phi(high, base)


# ------------------------------------------------------------- criterion 6


def test_criterion_06_theory_catalog_closed_forms():
    """The four catalog clauses and the three derived maps at parameter
    values {1, 2, w, w^w}, plus the five-point reference spectrum; all by
    exact notation equality."""
    parameters = (ONE, TWO, OMEGA, omega_power(OMEGA))
    for alpha in parameters:
        successor = add(alpha, ONE)
        boundary = omega_power(successor)

        plain = make_theory("pi01-ca0", alpha)
        for level in (ZERO, ONE, omega_power(alpha)):
            assert ord_at(plain, level) == phi(successor, ZERO)

        full = make_theory("pi01-ca", alpha)
        for level in (ZERO, ONE, omega_power(alpha)):
            assert ord_at(full, level) == phi(successor, EPS0)
        for level in (boundary, add(boundary, THREE)):
            assert ord_at(full, level) == EPS0

        assert pi11_ordinal(plain) == phi(successor, ZERO)
        assert pi11_ordinal(full) == phi(successor, EPS0)
        assert fgh_class_label(plain) == phi(successor, ZERO)
        assert fgh_class_label(full) == phi(successor, EPS0)

    for limit in (OMEGA, omega_power(OMEGA)):
        for key in ("pi01-ca0-lim", "pi01-ca-lim"):
            staged = make_theory(key, limit)
            for level in (ZERO, ONE, OMEGA):
                assert ord_at(staged, level) == phi(limit, ZERO)

    levels = [ZERO, ONE, TWO, OMEGA, add(OMEGA, ONE)]
    reference = spectrum(make_theory("pa-t"), levels)
    expected = [epsilon(EPS0)] * 3 + [EPS0] * 2
    assert reference.levels() == levels
    assert reference.ordinals() == expected


# ------------------------------------------------------------- criterion 7


def test_criterion_07_preset_and_word_pipelines_coincide():
    """Cataloged closed forms equal the order type computed from each
    preset's defining word through the independent word machinery."""
    theories = [make_theory("pa-t")]
    theories += [make_theory("ea-ct-isigma-n", n) for n in range(4)]
    for theory in theories:
        for level in (ZERO, ONE, OMEGA):
            assert ord_at(theory, level) == order_type_at(level, theory.word), (
                theory.name,
                render(level),
            )


# ------------------------------------------------------------- criterion 8


def test_criterion_08_truth_evaluation_oracle_equivalence():
    """5,000 random bounded sentences on random finite structures: the
    evaluation-based truth definition matches direct semantics, every built
    evaluation passes the local-correctness checker, and independently built
    evaluations agree wherever their domains overlap; < 2 min."""
    started = time.perf_counter()
    rng = random.Random(83)
    for _ in range(2500):
        structure = rand_structure(rng)
        first = rand_delta0(rng, rng.randint(1, 4))
        second = rand_delta0(rng, rng.randint(1, 4))
        built = []
        for sentence in (first, second):
            assert tc.tr_eval(sentence, structure) == tc.direct_eval(
                sentence, structure
            )
            evaluation = tc.build_evaluation(sentence, structure)
            assert tc.is_evaluation(evaluation, structure) is True
            built.append(evaluation)
        one, other = built
        for key in one.term_map.keys() & other.term_map.keys():
            assert one.term_map[key] == other.term_map[key]
        for key in one.sent_map.keys() & other.sent_map.keys():
            assert one.sent_map[key] == other.sent_map[key]
    assert time.perf_counter() - started < 120.0


# ------------------------------------------------------------- criterion 9


def test_criterion_09_fast_growing_micro_values():
    """Spot values of the fast-growing evaluator and monotonicity checks."""
    rng = random.Random(97)
    for _ in range(20):
        assert fgh_eval(rand_ordinal(rng, 3), 0) == 1
    assert fgh_eval(ZERO, 1) == 3
    assert fgh_eval(ZERO, 2) == 17
    assert fgh_eval(ONE, 1) == 4
    assert fgh_eval(TWO, 1) == 5
    assert fgh_eval(ZERO, 1) < fgh_eval(ZERO, 2)
    assert fgh_eval(ZERO, 1) <= fgh_eval(ONE, 1) <= fgh_eval(TWO, 1)


# ------------------------------------------------------------ criterion 10


def test_criterion_10_round_trip_parsing_and_fixtures():
    """parse(render(x)) = x for 10,000 random ordinals, words and formulas
    each, and the bundled fixture corpus passes with zero failures."""
    rng = random.Random(106)
    for _ in range(10000):
        ordinal = rand_ordinal(rng, 4)
        assert parse_ordinal(render(ordinal)) == ordinal
    for _ in range(10000):
        word = rand_worm(rng, max_len=6)
        assert parse_worm(render(word)) == word
    for _ in range(10000):
        formula = rand_formula(rng, rng.randint(1, 24), SMALL_ORDINALS)
        assert parse_formula(render(formula)) == formula

    corpus = Path(__file__).resolve().parent.parent / "fixtures" / "known-values.txt"
    assert cli_main(["fixtures", "run", str(corpus)]) == 0


# ------------------------------------------------------------ criterion 11


def test_criterion_11_large_formula_decision_speed():
    """derives on random formulas of size 200 over 50 distinct transfinite
    indices finishes under one second median."""
    rng = random.Random(118)
    pool, seen = [], set()
    while len(pool) < 50:
        candidate = rand_ordinal(rng, 3)
        if compare(candidate, OMEGA) < 0:
            continue
        key = render(candidate)
        if key not in seen:
            seen.add(key)
            pool.append(candidate)

    timings = []
    for _ in range(7):
        lhs = rand_formula(rng, 200, pool)
        rhs = rand_formula(rng, 200, pool)
        started = time.perf_counter()
        derives(lhs, rhs)
        timings.append(time.perf_counter() - started)
    assert statistics.median(timings) < 1.0, timings
