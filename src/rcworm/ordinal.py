"""Exact arithmetic on ordinal notations below Gamma_0.

A notation is a finite sum of binary Veblen terms phi(a, b) kept in normal
form: the term list is non-increasing in value, and no argument b is itself
a single term phi(c, d) with c > a (such a b is a fixed point of phi_a and
the outer phi would collapse onto it).  phi(0, b) denotes w^b, so finite
ordinals are sums of phi(0, 0).  The constructors refuse any other spelling
with InvalidCodeError, so every notation below Gamma_0 has exactly one
representation.

Godel coding (bit-exact, needed to reproduce the catalog numbers):

    pair(x, y)     = (x + y)(x + y + 1)/2 + y          (Cantor pairing)
    code(A)        = codeList(A.terms)
    codeList([])   = 0
    codeList(h:t)  = pair(codeTerm(h), codeList(t)) + 1
    codeTerm(phi(a, b)) = pair(code(a), code(b))

so code(0) = 0, code(1) = 1, code(eps0) = 2, code(w) = 4.  godel_decode
rejects numbers whose structural decode is not in normal form; the least
such number is 6 (it decodes to the increasing term list [1, eps0]).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cmp_to_key
import gc
from math import inf, isqrt
from operator import attrgetter
import weakref

from .errors import (
    BudgetExceededError,
    InvalidCodeError,
    OrdinalOverflowError,
    UndefinedError,
)
from .hashcons import Node

MAX_SUMMANDS = 10**6
"""Most equal summands a natural or an `a*n` repetition may spell out, and
most summands the terms of a parsed sum may spell out in all.

A natural n is stored as n summands phi(0, 0), so larger naturals are
refused with OrdinalOverflowError before anything is allocated.  The cap
sits far above every literal the tests and fixtures use (the largest is
1000)."""


# Terms and notations are hashcons.Node's: building a node whose fields equal
# a live node's returns that node.  Every notation has one normal form, so
# equal notations are the same object, and equality and hashing are object
# identity.  A node never changes what it denotes; it writes only its caches:
# the Godel code, once computed, and a term's order label, which a relabel
# rewrites.
#
# Order labels (Dietz & Sleator, "Two algorithms for maintaining order in a
# list", STOC 1987): every live term carries an integer label, and labels
# increase with the terms' values.  _LABELLED holds weak references to the
# terms, sorted by label.  A new term is binary-searched in with _cmp_term,
# takes the midpoint of its neighbours' labels, and the whole list is
# relabelled evenly only when no gap is left.  A dead term is dropped by
# bisecting on the label its weak reference carries.  Two distinct terms never
# tie, so compare decides two summands by one label comparison.

_BY_CODE = weakref.WeakValueDictionary()  # Godel code -> normal-form Ordinal
_LABELLED = []  # _LabelRef to each labelled term, by increasing label
_LABEL_GAP = 1 << 48  # label spacing after a relabel, and past either end


class _LabelRef(weakref.ref):
    """A weak reference to a labelled term that carries the term's label, so
    the term's slot in _LABELLED can be found after it dies."""

    __slots__ = ("label",)


_label_of = attrgetter("label")


def _unlabel(ref):
    del _LABELLED[bisect_left(_LABELLED, ref.label, key=_label_of)]


def _label(term):
    """Give a new normal-form term its label and splice it into _LABELLED.
    Entries before the search window [lo, hi) are below term and those from
    hi on above it, so a probe's descent stops at a labelled term whose label
    is not strictly between low and high, the labels of _LABELLED[lo - 1] and
    _LABELLED[hi]."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would run _unlabel and shift the list mid-search
    try:
        lo, hi = 0, len(_LABELLED)
        low, high = -inf, inf
        while lo < hi:
            mid = (lo + hi) // 2
            probe = _LABELLED[mid]
            if _cmp_term(term, probe(), low, high) < 0:
                hi, high = mid, probe.label
            else:
                lo, low = mid + 1, probe.label
        label = _free_label(lo)
        if label is None:
            _relabel()
            label = _free_label(lo)
        ref = _LabelRef(term, _unlabel)
        ref.label = term.label = label
        _LABELLED.insert(lo, ref)
    finally:
        if enabled:
            gc.enable()


def _free_label(i):
    """A label between those of _LABELLED[i - 1] and _LABELLED[i], or None."""
    if not _LABELLED:
        return 0
    if i == 0:
        return _LABELLED[0].label - _LABEL_GAP
    if i == len(_LABELLED):
        return _LABELLED[-1].label + _LABEL_GAP
    low, high = _LABELLED[i - 1].label, _LABELLED[i].label
    label = (low + high) // 2
    return label if label > low else None


def _relabel():
    """Spread the labels _LABEL_GAP apart, in their order."""
    for i, ref in enumerate(_LABELLED):
        ref.label = ref().label = i * _LABEL_GAP


class _TermCaches(Node):
    __slots__ = ("_code", "label")


class VeblenTerm(_TermCaches):
    """One summand phi(index, argument); `_code` caches its pair code, and
    `label` is its order label.  InvalidCodeError when the argument is a
    fixed point of phi_index, whose normal form is the argument itself."""

    __slots__ = ("index", "argument")

    def _fill(self):
        if _fixed_point(self.index, self.argument):
            raise InvalidCodeError("phi(a, b) is no normal form when b is a fixed point of phi_a")
        self._code = self.label = None
        _label(self)


class _OrdinalCaches(Node):
    __slots__ = ("_code",)


class Ordinal(_OrdinalCaches):
    """A notation: tuple of VeblenTerm summands, largest first.  () is 0.
    `_code` caches its Godel code once computed.  InvalidCodeError when a
    summand is larger than the one before it."""

    __slots__ = ("terms",)

    def __new__(cls, terms=()):
        return Node.__new__(cls, tuple(terms))

    def _fill(self):
        last = inf
        for t in self.terms:
            if t.label > last:
                raise InvalidCodeError("the summands of a normal form do not increase")
            last = t.label
        self._code = None

    def is_zero(self):
        return not self.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) < 0

    def __le__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) <= 0

    def __gt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) > 0

    def __ge__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) >= 0

    def __repr__(self):
        from .syntax import render  # cycle only at repr time

        return "Ordinal<%s>" % render(self)


def _fixed_point(a, b):
    """Whether b is a fixed point of phi_a: one term phi(c, d) with c > a."""
    return len(b.terms) == 1 and compare(b.terms[0].index, a) > 0


def _cmp_term(s, t, low, high):
    """The order of the values of terms s and t: -1, 0 or 1, in one loop.

    Two labelled terms compare by label.  Else, for s = phi(a1, b1) and
    t = phi(a2, b2), a1 = a2 leaves b1 against b2, and a1 < a2 leaves b1
    against t: s < t when b1 = 0, else b1's head against t, where a tie means
    s > t when b1 has more summands and s = t when not.  a1 > a2 is that
    swapped.  The loop carries the sign of the swaps and the answer to give
    if the heads below tie.  _label's new term is the one unlabelled term
    met, above any labelled term at or below low and below any at or above
    high.  A labelled t is inside that window: the probe is, and a chain
    term that leaves it is answered while it is still s."""
    sign, tie = 1, 0
    while s is not t:
        x = s.label
        if x is not None:
            if t.label is not None:
                return sign if x > t.label else -sign
            if not low < x < high:
                return sign if x >= high else -sign
        c = compare(s.index, t.index)
        if c == 0:
            c = compare(s.argument, t.argument)
            return sign * c if c else tie
        if c > 0:
            s, t, sign = t, s, -sign
        b = s.argument.terms
        if not b:
            return -sign
        if len(b) > 1:
            tie = sign
        s = b[0]
    return tie


def compare(a, b):
    """Trichotomous order on notations: -1, 0 or 1.  The first pair of
    summands that are not one object decides, by their labels."""
    if a is b:
        return 0
    for s, t in zip(a.terms, b.terms):
        if s is not t:
            return -1 if s.label < t.label else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def ranks(xs):
    """Each distinct notation of xs -> its place 1, 2, ... in the ordinal order
    (notations are interned, so equal notations are one key)."""
    return {x: i for i, x in enumerate(sorted(set(xs), key=cmp_to_key(compare)), 1)}


ZERO = Ordinal()
ONE = Ordinal((VeblenTerm(ZERO, ZERO),))
OMEGA = Ordinal((VeblenTerm(ZERO, ONE),))
EPS0 = Ordinal((VeblenTerm(ONE, ZERO),))
_UNIT = ONE.terms[0]  # phi(0, 0), the summand of a natural
ZERO._code = 0
_BY_CODE[0] = ZERO


def add(a, b):
    """Ordinal sum.  Trailing summands of a below b's head are absorbed."""
    return add_all((a, b)) if b.terms else a


def add_all(parts):
    """The sum of the parts, left to right, by add's absorption on one list
    of summands, with one notation built at the end."""
    terms = []
    for b in parts:
        if b.terms:
            head = b.terms[0]
            i = len(terms)
            while i > 0 and terms[i - 1].label < head.label:
                i -= 1
            del terms[i:]
            terms += b.terms
    return Ordinal(terms)


def left_subtract(a, b):
    """The unique c with a + c = b; UndefinedError when a > b."""
    for i, s in enumerate(a.terms):
        if i >= len(b.terms) or s.label > b.terms[i].label:
            raise UndefinedError("left difference undefined: minuend is smaller")
        if s is not b.terms[i]:
            return Ordinal(b.terms[i:])
    return Ordinal(b.terms[len(a.terms):])


def phi(a, b):
    """Binary Veblen value phi_a(b) in normal form.

    When b is already a fixed point of phi_a (a single term with larger
    index) the constructor collapses onto b instead of nesting.
    """
    if _fixed_point(a, b):
        return b
    return Ordinal((VeblenTerm(a, b),))


def paper_phi(a, b):
    """phi with the offset base row: paper_phi(0, b) = w^(1 + b).

    The zero row starts counting at w, so paper_phi(0, 0) = w and
    paper_phi(0, w) = w^w; rows a >= 1 agree with phi.
    """
    if a.is_zero():
        return omega_power(add(ONE, b))
    return phi(a, b)


def omega_power(a):
    """w^a (phi(0, a) up to fixed-point collapse); omega_power(0) = 1."""
    return phi(ZERO, a)


def omega_times(a):
    """w * a, by left distributivity over a's Cantor normal form."""
    return add_all([omega_power(add(ONE, e)) for e in cnf_exponents(a)])


def cnf_exponents(a):
    """Exponents [e1 >= e2 >= ...] with a = w^e1 + w^e2 + ...

    A summand phi(0, b) contributes b; a summand with index >= 1 is its own
    base-w exponent (it is an epsilon-or-higher fixed point).
    """
    out = []
    for t in a.terms:
        if t.index.is_zero():
            out.append(t.argument)
        else:
            out.append(Ordinal((t,)))
    return out


def from_int(n):
    if n < 0:
        raise UndefinedError("no negative ordinals")
    check_summands(n)
    return Ordinal((ONE.terms[0],) * n)


def check_summands(n):
    """OrdinalOverflowError when n summands are more than MAX_SUMMANDS."""
    if n > MAX_SUMMANDS:
        raise OrdinalOverflowError(
            "more than %d summands (naturals are stored one summand per unit)"
            % MAX_SUMMANDS
        )


def to_int(a):
    """The natural a denotes, or None if a is infinite."""
    for t in a.terms:
        if t is not _UNIT:
            return None
    return len(a.terms)


def is_successor(a):
    return bool(a.terms) and a.terms[-1] is _UNIT


def is_limit(a):
    return bool(a.terms) and not is_successor(a)


def predecessor(a):
    if not is_successor(a):
        raise UndefinedError("not a successor")
    return Ordinal(a.terms[:-1])


def _pair(x, y):
    s = x + y
    return s * (s + 1) // 2 + y


def _unpair(z):
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def godel_code(a, max_bits=None):
    """The Cantor-pairing code of a, computed once per node and cached.

    With max_bits, BudgetExceededError as soon as a partial code is longer:
    pairing never makes a code smaller than its parts, so the whole code
    would be longer too.  A cached code is held to max_bits as well."""
    code = a._code
    if code is None:
        code = 0
        for t in reversed(a.terms):
            if t._code is None:
                t._code = _pair(godel_code(t.index, max_bits), godel_code(t.argument, max_bits))
            code = _check_bits(_pair(t._code, code) + 1, max_bits)
        a._code = code
        _BY_CODE[code] = a
    return _check_bits(code, max_bits)


def _check_bits(code, max_bits):
    if max_bits is not None and code.bit_length() > max_bits:
        raise BudgetExceededError("the Godel code has more than %d bits" % max_bits)
    return code


def godel_decode(n):
    """Inverse of godel_code; InvalidCodeError on non-normal-form codes."""
    if n < 0:
        raise InvalidCodeError("codes are naturals")
    a = _decode(n)
    if a is None:
        raise InvalidCodeError("code %d does not denote a normal form" % n)
    return a


def _decode(n):
    """The notation with code n, or None when n codes no normal form.

    Summands are peeled off n until the rest of the code resolves through the
    code index, so a live sub-notation is never decoded or checked again, and
    only the whole notation is built and indexed.  VeblenTerm refuses a
    summand whose argument is a fixed point of phi_index, and labels order
    the summands."""
    node = _BY_CODE.get(n)
    heads, rest = [], n
    while node is None:
        u, rest = _unpair(rest - 1)
        i, b = _unpair(u)
        index, argument = _decode(i), _decode(b)
        if index is None or argument is None:
            return None
        try:
            head = VeblenTerm(index, argument)
        except InvalidCodeError:
            return None  # argument is a fixed point of phi_index
        if heads and heads[-1].label < head.label:
            return None  # summands must be non-increasing
        head._code = u
        heads.append(head)
        node = _BY_CODE.get(rest)
    if heads:
        if node.terms and heads[-1].label < node.terms[0].label:
            return None
        node = Ordinal(tuple(heads) + node.terms)
        node._code = n
        _BY_CODE[n] = node
    return node
