"""Words over ordinal letters and their order types.

A worm is a finite sequence of ordinal notations, leftmost letter outermost;
the empty worm is the top formula.  order_type computes the position of a
worm in the well-order that derivability induces on words: worms compare at
level alpha exactly as their order types at alpha do.
"""

from __future__ import annotations

from .errors import BudgetExceededError, NotInFragmentError
from .ordinal import (
    ZERO,
    ONE,
    Ordinal,
    add,
    cnf_exponents,
    compare,
    left_subtract,
    omega_power,
    paper_phi,
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

# order_type recurses about twice per distinct letter; worms with more
# distinct letters than this are refused before the recursion starts.
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
    """Position of w in the well-order on words over level 0.

    Empty worm: 0.  If zero letters occur, split at them into
    C0 0 C1 0 ... 0 Ck with every Cj zero-free; then
    o(A) = o(Ck) + w^o(C(k-1) lowered by 1) + ... + w^o(C0 lowered by 1),
    which unrolls o(C 0 B) = o(B) + w^o(C lowered by 1) over every zero.
    Otherwise let m be the least letter and [m1 >= ... >= mk] its base-w
    exponents: o(A) = paper_phi(m1, ... paper_phi(mk, -1 + o(A lowered by m))).
    The inner -1 + x is total because the lowered worm contains a zero letter.
    Lowering maps letters one-to-one, so the recursion is at most about twice
    as deep as w has distinct letters; past MAX_DISTINCT_LETTERS of them this
    raises BudgetExceededError.
    """
    if len(set(w.letters)) > MAX_DISTINCT_LETTERS:
        raise BudgetExceededError(
            "worm has more than %d distinct letters" % MAX_DISTINCT_LETTERS
        )
    return _order_type(w)


def _order_type(w):
    letters = w.letters
    if not letters:
        return ZERO
    blocks = [[]]
    for letter in letters:
        if letter.is_zero():
            blocks.append([])
        else:
            blocks[-1].append(letter)
    if len(blocks) > 1:
        acc = _order_type(Worm(blocks[-1]))
        for block in reversed(blocks[:-1]):
            acc = add(acc, omega_power(_order_type(lower(ONE, Worm(block)))))
        return acc
    m = letters[0]
    for letter in letters[1:]:
        if compare(letter, m) < 0:
            m = letter
    inner = left_subtract(ONE, _order_type(lower(m, w)))
    for e in reversed(cnf_exponents(m)):
        inner = paper_phi(e, inner)
    return inner


def order_type_at(alpha, w):
    """Order type of w inside the alpha fragment."""
    return order_type(lower(alpha, w))


def compare_at(alpha, a, b):
    """-1, 0, 1 as a precedes, matches or follows b at level alpha."""
    return compare(order_type_at(alpha, a), order_type_at(alpha, b))
