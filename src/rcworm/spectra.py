"""Catalog of analyzed theories: level-indexed ordinals, conservativity
spectra, well-ordering bounds, and a micro-scale fast-growing-hierarchy
evaluator.

Theories are opaque names, not formalized axiom systems.  Each one is
presented by a defining word, and every catalog answer is read off that word:
at logical-complexity level beta the theory reaches the order type of its word
at beta (worm.order_type_at), for beta below the theory's level bound.  The
well-ordering (Pi^1_1) bound is the order type at level 0, where cataloged,
and the provably-total function class is the order type at level 1.

Preset keys (CLI syntax KEY or KEY:PARAM, PARAM an ordinal or a decimal); each
preset's word is one letter, and that letter is also its level bound:

  pi01-ca0:A        iterated comprehension, set-induction-free base; A >= 1;
                    word [w^(A+1)]
  pi01-ca:A         same with full induction; A >= 1; word [w^(A+1)+w]
  pi01-ca0-lim:L    union of the above below a limit stage L; word [w^L]
  pi01-ca-lim:L     ditto with full induction; word [w^L]
  pa-t              full truth induction; word [w*2]; no Pi^1_1 bound
  aca               same strength; word [w*2]
  ea-ct-isigma-n:N  restricted truth induction; word [w+N+1]; no Pi^1_1 bound
"""

from .errors import (
    BudgetExceededError,
    InvalidCodeError,
    OutOfApplicabilityError,
    ParseError,
    UnsupportedError,
)
from .ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    add,
    compare,
    from_int,
    godel_decode,
    is_limit,
    omega_power,
    to_int,
)
from .worm import Worm, order_type_at


class TheoryDescriptor:
    """A cataloged theory: levels below `bound` are answered by the order
    type of `word`; `pi11` says whether a well-ordering bound is cataloged."""

    __slots__ = ("name", "word", "bound", "pi11")

    def __init__(self, name, word, bound=None, pi11=False):
        self.name = name
        self.word = word
        self.bound = bound
        self.pi11 = pi11

    def __repr__(self):
        return "TheoryDescriptor(%r)" % (self.name,)

    def __eq__(self, other):
        return isinstance(other, TheoryDescriptor) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Spectrum:
    """Levels paired with their ordinals; levels strictly increase and the
    ordinals never increase along them."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        for (l1, o1), (l2, o2) in zip(entries, entries[1:]):
            if compare(l1, l2) >= 0:
                raise ParseError("levels must be strictly increasing")
            if compare(o1, o2) < 0:
                raise ValueError("ordinals must not increase along levels")
        self.entries = entries

    def levels(self):
        return [l for l, _ in self.entries]

    def ordinals(self):
        return [o for _, o in self.entries]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, Spectrum) and self.entries == other.entries

    def __repr__(self):
        return "Spectrum(%r)" % (list(self.entries),)


def word_theory(word):
    """A theory presented by a word alone, defined up to its least letter."""
    bound = add(min(word.letters), ONE) if word.letters else None
    from .syntax import render

    return TheoryDescriptor("word:%s" % render(word), word, bound)


def _exponent(key, param):
    if not isinstance(param, Ordinal):
        raise UnsupportedError("%s needs an ordinal parameter" % key)
    if compare(param, ONE) < 0:
        raise UnsupportedError("iteration exponent must be at least 1: %s" % (key,))
    return param


def _limit(key, param):
    if not isinstance(param, Ordinal):
        raise UnsupportedError("%s needs an ordinal parameter" % key)
    if not is_limit(param):
        raise UnsupportedError("stage must be a limit ordinal: %s" % (key,))
    return param


def _natural(key, param):
    if isinstance(param, int):
        if param < 0:
            raise UnsupportedError("%s needs a natural number, got %d" % (key, param))
        return from_int(param)
    if not isinstance(param, Ordinal) or to_int(param) is None:
        raise UnsupportedError("%s needs a finite parameter" % key)
    return param


def _no_parameter(key, param):
    if param is not None:
        raise UnsupportedError("%s takes no parameter" % key)
    return None


# key -> (parameter check, letter of the defining word, Pi^1_1 bound cataloged)
_PRESETS = {
    "pi01-ca0": (_exponent, lambda a: omega_power(add(a, ONE)), True),
    "pi01-ca": (_exponent, lambda a: add(omega_power(add(a, ONE)), OMEGA), True),
    "pi01-ca0-lim": (_limit, omega_power, True),
    "pi01-ca-lim": (_limit, omega_power, True),
    "pa-t": (_no_parameter, lambda _: add(OMEGA, OMEGA), False),
    "aca": (_no_parameter, lambda _: add(OMEGA, OMEGA), True),
    "ea-ct-isigma-n": (_natural, lambda n: add(OMEGA, add(n, ONE)), False),
}


def make_theory(key, param=None):
    """Construct a cataloged descriptor from a preset key and parameter."""
    preset = _PRESETS.get(key)
    if preset is None:
        raise UnsupportedError("unknown theory %r" % (key,))
    check, letter_of, pi11 = preset
    param = check(key, param)
    name = key
    if param is not None:
        from .syntax import render

        name = "%s:%s" % (key, render(param))
    letter = letter_of(param)
    return TheoryDescriptor(name, Worm((letter,)), letter, pi11)


def parse_theory(text):
    """KEY or KEY:PARAM, the parameter in ordinal notation syntax."""
    from .syntax import parse_ordinal

    key, sep, rest = text.partition(":")
    key = key.strip()
    param = parse_ordinal(rest) if sep else None
    return make_theory(key, param)


def ord_at(t, beta):
    """The iteration ordinal the theory reaches at complexity level beta:
    the order type of its defining word at beta."""
    if t.bound is not None and compare(beta, t.bound) >= 0:
        raise OutOfApplicabilityError("level out of range for %s" % (t.name,))
    return order_type_at(beta, t.word)


def spectrum(t, levels):
    """Pointwise ord_at along the given strictly increasing levels."""
    return Spectrum((l, ord_at(t, l)) for l in levels)


def pi11_ordinal(t):
    """Bound on provably well-founded elementary orderings, where cataloged:
    the order type of the defining word at level 0."""
    if not t.pi11:
        raise UnsupportedError("no well-ordering clause for %s" % (t.name,))
    return ord_at(t, ZERO)


def fgh_class_label(t):
    """Index of the provably-total computable function class: the order type
    of the defining word at level 1."""
    return ord_at(t, ONE)


# ------------------------------------------------------ fast-growing values

_BIT_CAP = 21
FGH_STEPS = 20_000


def fgh_eval(alpha, x):
    """Literal evaluation of the fast-growing function at index alpha.

    F(alpha, x) is the maximum of the height-x tower of 2s at x, plus one,
    and every F(beta, .) iterated up to x times on arguments up to x, plus
    one, where beta runs over notations coded below x that sit below alpha.
    Any intermediate beyond 2^21 bits or past FGH_STEPS steps raises
    BudgetExceededError; safe inputs are x <= 2 at index 0 and x <= 1 above.
    """
    budget = [FGH_STEPS]
    memo = {}

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceededError("step budget exhausted")

    def tower(y, height):
        v = y
        for _ in range(height):
            spend()
            if v.bit_length() > _BIT_CAP:
                raise BudgetExceededError("intermediate value too large")
            v = 2 ** v
        return v

    def below(a, x):
        out = []
        for code in range(0, x + 1):
            try:
                b = godel_decode(code)
            except InvalidCodeError:
                continue
            if compare(b, a) < 0:
                out.append(b)
        return out

    def fgh(a, x):
        key = (a, x)
        hit = memo.get(key)
        if hit is not None:
            return hit
        spend()
        best = tower(x, x) + 1
        for b in below(a, x):
            for n in range(0, x + 1):
                v = n
                for _ in range(x):
                    v = fgh(b, v)
                    if v.bit_length() > _BIT_CAP:
                        raise BudgetExceededError("intermediate value too large")
                    if v + 1 > best:
                        best = v + 1
        memo[key] = best
        return best

    if x < 0:
        raise ValueError("argument must be a natural number")
    return fgh(alpha, x)
