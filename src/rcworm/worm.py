"""Words over ordinal letters and their order types.

A worm is a finite sequence of ordinal notations, leftmost letter outermost;
the empty worm is the top formula.  order_type computes the position of a
worm in the well-order that derivability induces on words: worms compare at
level alpha exactly as their order types at alpha do.  Order types at every
level are folded over the worm's least-letter splits from an explicit stack
(_fold), so nothing here recurses and no lowered worm is built.
"""

from __future__ import annotations

from .errors import BudgetExceededError, NotInFragmentError
from .ordinal import (
    ZERO,
    ONE,
    Ordinal,
    add,
    add_all,
    cnf_exponents,
    compare,
    left_subtract,
    omega_power,
    paper_phi,
    ranks,
)


class Worm:
    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        self.letters = tuple(letters)
        for a in self.letters:
            if not isinstance(a, Ordinal):
                raise TypeError("worm letters must be ordinal notations")
        self._hash = hash(("worm", self.letters))

    def __eq__(self, other):
        if not isinstance(other, Worm):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __repr__(self):
        from .syntax import render

        return "Worm<%s>" % render(self)


EMPTY = Worm()

# An order type nests about one Veblen level per distinct letter.  Ordinal
# comparison follows that nesting in a loop, so the cap bounds time and output,
# not the stack: near it most of the time is _fold's paper_phi chain, and past
# it an order type prints deeper than syntax.MAX_NESTING.  Worms with more
# distinct letters than this are refused before any ordinal arithmetic.
MAX_DISTINCT_LETTERS = 300


def in_fragment(alpha, w):
    """True when every letter of w is >= alpha."""
    return all(compare(letter, alpha) >= 0 for letter in w.letters)


def lift(alpha, w):
    """Add alpha on the left of every letter."""
    return Worm(tuple(add(alpha, letter) for letter in w.letters))


def lower(alpha, w):
    """Left-subtract alpha from every letter; w must lie in the alpha fragment."""
    if not in_fragment(alpha, w):
        raise NotInFragmentError("worm has a letter below the requested level")
    return Worm(tuple(left_subtract(alpha, letter) for letter in w.letters))


def order_type(w):
    """Position of w in the well-order on words over level 0 (_fold)."""
    return _fold(w.letters, ZERO)


def order_type_at(alpha, w):
    """Order type of w inside the alpha fragment: that of w lowered by alpha."""
    if not in_fragment(alpha, w):
        raise NotInFragmentError("worm has a letter below the requested level")
    return _fold(w.letters, alpha)


def _fold(letters, base):
    """Order type at level base of the worm with these letters, all >= base.

    With o_b the order type at level b, the empty worm has o_b = 0.  Else let
    m be the least letter and split at it into C0 m C1 m ... m Ck.  Lowering
    composes (lowering by b and then by -b + m is lowering by m), so
    unrolling o(C 0 B) = o(B) + w^o(C lowered by 1) over the zeros of the
    worm lowered by m gives s = o_m(Ck) + w^o_(m+1)(C(k-1)) + ... +
    w^o_(m+1)(C0).  If m = base, o_base = s; else, with [e1 >= ... >= ej]
    the base-w exponents of -base + m, o_base = paper_phi(e1, ...
    paper_phi(ej, -1 + s)), where -1 + s is total because s >= 1.

    Blocks are index ranges, expanded from a stack in preorder (Ck first
    after its parent) and folded in reverse, so the values of a block's
    children top `values`, Ck's topmost.  Past MAX_DISTINCT_LETTERS distinct
    letters this raises BudgetExceededError.
    """
    if len(set(letters)) > MAX_DISTINCT_LETTERS:
        raise BudgetExceededError(
            "worm has more than %d distinct letters" % MAX_DISTINCT_LETTERS
        )
    rank = ranks(letters)
    ranked = [rank[x] for x in letters]
    steps, todo = [], [(0, len(letters), base)]
    while todo:
        lo, hi, b = todo.pop()
        if lo == hi:
            steps.append(None)
            continue
        block = ranked[lo:hi]
        least = min(block)
        cuts = [i for i, r in enumerate(block, lo) if r == least]
        m = letters[cuts[0]]
        steps.append((b, m, len(cuts)))
        up = add(m, ONE) if cuts[-1] - lo >= len(cuts) else None  # some Cj, j < k, is not empty
        for cut in cuts:
            todo.append((lo, cut, up))
            lo = cut + 1
        todo.append((lo, hi, m))
    values = []
    for step in reversed(steps):
        if step is None:
            values.append(ZERO)
            continue
        b, m, k = step
        s = add_all([values.pop()] + [omega_power(values.pop()) for _ in range(k)])
        d = left_subtract(b, m)
        if not d.is_zero():
            s = left_subtract(ONE, s)
            for e in reversed(cnf_exponents(d)):
                s = paper_phi(e, s)
        values.append(s)
    return values[0]


def compare_at(alpha, a, b):
    """-1, 0, 1 as a precedes, matches or follows b at level alpha."""
    return compare(order_type_at(alpha, a), order_type_at(alpha, b))
