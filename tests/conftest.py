"""Shared generators for the test suite.

Two flavors: hypothesis strategies for property suites, and plain seeded
builders for the counted randomized runs in the acceptance tests.
"""

import random
import sys
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

from rcworm.ordinal import (
    ZERO,
    ONE,
    OMEGA,
    Ordinal,
    add,
    from_int,
    omega_power,
    phi,
)
from rcworm.worm import Worm
from rcworm import rc
from rcworm import truthcore as tc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's formula generator)


# Selected with --hypothesis-profile=ci: a failing property prints the blob
# that replays it (@reproduce_failure); deadlines and example counts stay the
# defaults.
settings.register_profile("ci", print_blob=True)

# Python's default recursion limit, what a command-line process gets.
DEFAULT_RECURSION_LIMIT = 1000


def pytest_sessionstart(session):
    # The nesting-bound tests in test_cli.py run main at the default limit; a
    # raised one would hide a crash there.
    assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT, (
        "run the suite at Python's default recursion limit")


# ------------------------------------------------------- hypothesis flavors


def ordinals(max_leaves=6):
    """Notations built from naturals by sum, power and the binary phi; every
    constructor keeps canonical form, so all draws are valid notations."""
    base = st.integers(min_value=0, max_value=4).map(from_int)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: add(*ab)),
            inner.map(omega_power),
            st.tuples(inner, inner).map(lambda ab: phi(*ab)),
        ),
        max_leaves=max_leaves,
    )


def worms(letters=None, max_length=4):
    if letters is None:
        letters = ordinals(max_leaves=3)
    return st.lists(letters, max_size=max_length).map(lambda ls: Worm(tuple(ls)))


def rc_formulas(indices=None, max_leaves=8):
    if indices is None:
        indices = st.integers(min_value=0, max_value=3).map(from_int)
    atoms = st.one_of(
        st.just(rc.TOP),
        st.sampled_from(["p", "q", "r"]).map(rc.Var),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(indices, inner).map(lambda p: rc.Diam(*p)),
            st.lists(inner, min_size=2, max_size=3).map(lambda fs: rc.conj(tuple(fs))),
        ),
        max_leaves=max_leaves,
    )


# ---------------------------------------------------------- seeded builders


SMALL_ORDINALS = [
    ZERO,
    ONE,
    from_int(2),
    from_int(3),
    OMEGA,
    add(OMEGA, ONE),
    add(OMEGA, OMEGA),
    omega_power(from_int(2)),
    omega_power(OMEGA),
    add(omega_power(from_int(2)), from_int(3)),
    phi(ONE, ZERO),
    phi(ONE, ONE),
    phi(from_int(2), ZERO),
    phi(OMEGA, ZERO),
]


def rand_ordinal(rng, depth=2):
    """A random notation; depth bounds nesting of the constructors."""
    if depth <= 0 or rng.random() < 0.3:
        return from_int(rng.randrange(0, 5))
    k = rng.randrange(3)
    if k == 0:
        return add(rand_ordinal(rng, depth - 1), rand_ordinal(rng, depth - 1))
    if k == 1:
        return omega_power(rand_ordinal(rng, depth - 1))
    return phi(rand_ordinal(rng, depth - 1), rand_ordinal(rng, depth - 1))


def rand_worm(rng, max_len=4, letters=None):
    pool = letters or SMALL_ORDINALS
    return Worm(tuple(rng.choice(pool) for _ in range(rng.randrange(max_len + 1))))


def rand_formula(rng, size, indices):
    """A random formula with exactly `size` nodes over variables p,q,r."""
    if size <= 1:
        return rng.choice([rc.TOP, rc.Var(rng.choice("pqr"))])
    if size == 2 or rng.random() < 0.6:
        return rc.Diam(rng.choice(indices), rand_formula(rng, size - 1, indices))
    k = rng.randrange(1, size - 1)
    left = rand_formula(rng, k, indices)
    right = rand_formula(rng, size - 1 - k, indices)
    out = rc.conj((left, right))
    return out


def rand_truth_term(rng, depth, vars_in_scope):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if vars_in_scope and rng.random() < 0.5:
            return tc.Var(rng.choice(vars_in_scope))
        return tc.numeral(rng.randrange(0, 6))
    k = rng.randrange(4)
    if k == 0:
        return tc.Succ(rand_truth_term(rng, depth - 1, vars_in_scope))
    if k == 1:
        return tc.Plus(
            rand_truth_term(rng, depth - 1, vars_in_scope),
            rand_truth_term(rng, depth - 1, vars_in_scope),
        )
    if k == 2:
        return tc.Times(
            rand_truth_term(rng, depth - 1, vars_in_scope),
            rand_truth_term(rng, depth - 1, vars_in_scope),
        )
    # keep exponents shallow so values stay small
    return tc.Exp(tc.numeral(rng.randrange(0, 4)))


_PREDS = ["P", "Q", "R"]


def rand_delta0(rng, depth, vars_in_scope=(), next_var=0):
    """A random bounded sentence: closed when vars_in_scope is empty."""
    vars_in_scope = list(vars_in_scope)
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            a = rand_truth_term(rng, 1, vars_in_scope)
            b = rand_truth_term(rng, 1, vars_in_scope)
            atom = tc.Atom(rng.choice(["=", "<="]), (a, b))
        else:
            pred = rng.choice(_PREDS)
            arity = 1 if rng.random() < 0.8 else 2
            atom = tc.Atom(
                pred,
                tuple(rand_truth_term(rng, 1, vars_in_scope) for _ in range(arity)),
            )
        if rng.random() < 0.4:
            return tc.NegAtom(atom.pred, atom.terms)
        return atom
    k = rng.randrange(4)
    if k == 0:
        return tc.AndF(
            rand_delta0(rng, depth - 1, vars_in_scope, next_var),
            rand_delta0(rng, depth - 1, vars_in_scope, next_var),
        )
    if k == 1:
        return tc.OrF(
            rand_delta0(rng, depth - 1, vars_in_scope, next_var),
            rand_delta0(rng, depth - 1, vars_in_scope, next_var),
        )
    var = "v%d" % next_var
    bound = tc.numeral(rng.randrange(0, 6))
    body = rand_delta0(rng, depth - 1, vars_in_scope + [var], next_var + 1)
    cls = tc.BoundedAll if k == 2 else tc.BoundedEx
    return cls(var, bound, body)


def rand_structure(rng, top=8):
    preds = {}
    for name in _PREDS:
        unary = {(m,) for m in range(top) if rng.random() < 0.4}
        binary = {
            (m, n) for m in range(4) for n in range(4) if rng.random() < 0.2
        }
        preds[name] = unary | binary
    return tc.FiniteStructure(preds)


def large_pairs(seed):
    """Texts (lhs, rhs, derivable) from the derive-large generator at its
    size: 200-node formulas over 50 transfinite indices.  Half the pairs
    weaken the left side; the other half plant an index above every index on
    it."""
    rng = random.Random(seed)
    pool = set()
    while len(pool) < 50:
        a = gen.rand_ord(rng)
        if a[0][0] > 0:
            pool.add(a)
    while True:
        lhs, rhs, want = gen.derive_pair(rng, 200, sorted(pool), lambda h: gen.CEILING)
        yield gen.formula_text(lhs, gen.ord_text), gen.formula_text(rhs, gen.ord_text), want
