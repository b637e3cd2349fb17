"""Concrete syntax: parse and render ordinals, worms and modal formulas.

Ordinals:  0 | terms joined by "+", a term being a natural, "w", "w^a",
           "phi(a,b)", "eps(a)" or "eps0", optionally followed by "*n"
           for n equal summands.  eps(a) abbreviates phi(1,a); eps0 is
           phi(1,0); w^a is the base-w power.
Worms:     "[a1,a2,...]" with ordinal letters, "[]" for the empty worm.
Formulas:  "T" | variable | "<a>f" | "f & g" | "(f)" | worm literal
           (its nested-diamond formula); diamonds bind tighter than "&",
           which flattens.

render is the canonical inverse: parse(render(x)) == x, output is pure
ASCII with finite ordinals in decimal.  Unicode aliases are accepted on
input only; error positions refer to the ASCII-normalized text.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .ordinal import (
    MAX_SUMMANDS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    check_summands,
    from_int,
    omega_power,
    phi,
    to_int,
)
from .rc import TOP, And, Diam, RcFormula, Var, conj, worm_formula
from .worm import Worm

_UNIT = ONE.terms[0]  # phi(0,0), the summand of a natural


_ALIASES = (
    ("ε₀", "eps0"),
    ("ε0", "eps0"),
    ("ω", "w"),
    ("φ", "phi"),
    ("ε", "eps"),
    ("⊤", "T"),
    ("∧", "&"),
    ("⟨", "<"),
    ("⟩", ">"),
)

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^(),\[\]<>&])")
# A character that no _TOKEN token can hold.  The first one in a text is
# refused before any parsing, as a whole-text tokenizer would, whatever error
# comes before it.
_STRAY = re.compile(r"[^\s\dA-Za-z_\-+*^(),\[\]<>&]")

_KEYWORDS = {"w", "phi", "eps", "eps0", "T"}

# Index text (what stands between a diamond's "<" and the next ">") -> its
# ordinal.  Notations are immutable and hash-consed, so an entry is the very
# object a fresh parse builds; only an index parse that ended at that ">" is
# stored, so every error still comes from a fresh parse.  Cleared when full.
_INDEX = {}
_INDEX_CAP = 4096


def _normalize_input(text):
    for src, dst in _ALIASES:
        if src in text:
            text = text.replace(src, dst)
    return text


def _decimal(tok):
    """The count a digit token denotes, at most MAX_SUMMANDS; a longer literal
    is refused before int() has to convert it."""
    n = int(tok) if len(tok.lstrip("0")) <= len(str(MAX_SUMMANDS)) else MAX_SUMMANDS + 1
    check_summands(n)
    return n


class _Parser:
    """Recursive descent over a one-token lookahead: tok is the next token
    (None at the end), at its position, end where scanning resumes."""

    def __init__(self, text):
        self.text = _normalize_input(text)
        stray = _STRAY.search(self.text)
        if stray is not None:
            raise ParseError("unexpected character %r" % stray.group(), stray.start())
        self.scan(0)

    def scan(self, pos):
        """Read the token at or after pos into the lookahead."""
        m = _TOKEN.match(self.text, pos)
        if m is None:  # only blanks are left
            self.tok = None
            self.at = self.end = len(self.text)
        else:
            self.tok = m.group(1)
            self.at = m.start(1)
            self.end = m.end()

    def peek(self):
        return self.tok

    def pos(self):
        return self.at

    def next(self):
        tok = self.tok
        self.scan(self.end)
        return tok

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError("expected %r" % tok, self.pos())
        return self.next()

    def done(self):
        if self.peek() is not None:
            raise ParseError("trailing input %r" % self.peek(), self.pos())

    # ---- ordinals

    def ordinal(self):
        total = self.ord_term()
        while self.peek() == "+":
            self.next()
            total = add(total, self.ord_term())
        return total

    def ord_term(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an ordinal", self.pos())
        if tok.isdigit():
            self.next()
            return from_int(_decimal(tok))
        base = self.ord_base()
        if self.peek() == "*":
            self.next()
            count = self.peek()
            if count is None or not count.isdigit():
                raise ParseError("expected a count after '*'", self.pos())
            self.next()
            return Ordinal(base.terms * _decimal(count))  # base is one term: already normal
        return base

    def ord_base(self):
        tok = self.peek()
        if tok == "w":
            self.next()
            if self.peek() == "^":
                self.next()
                return omega_power(self.ord_atom())
            return omega_power(ONE)
        if tok == "phi":
            self.next()
            self.expect("(")
            a = self.ordinal()
            self.expect(",")
            b = self.ordinal()
            self.expect(")")
            return phi(a, b)
        if tok == "eps0":
            self.next()
            return phi(ONE, ZERO)
        if tok == "eps":
            self.next()
            self.expect("(")
            a = self.ordinal()
            self.expect(")")
            return phi(ONE, a)
        raise ParseError("expected an ordinal term", self.pos())

    def ord_atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an exponent", self.pos())
        if tok.isdigit():
            self.next()
            return from_int(_decimal(tok))
        if tok == "(":
            self.next()
            a = self.ordinal()
            self.expect(")")
            return a
        if tok in ("w", "phi", "eps", "eps0"):
            return self.ord_base()
        raise ParseError("expected an exponent", self.pos())

    # ---- worms

    def ordinals(self, end):
        """Ordinals separated by commas, up to the token end (not consumed)."""
        out = [] if self.peek() == end else [self.ordinal()]
        while out and self.peek() == ",":
            self.next()
            out.append(self.ordinal())
        return out

    def worm(self):
        self.expect("[")
        letters = self.ordinals("]")
        self.expect("]")
        return Worm(letters)

    # ---- formulas

    def formula(self):
        parts = [self.formula_unary()]
        while self.peek() == "&":
            self.next()
            parts.append(self.formula_unary())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:  # "&" flattens but keeps duplicates
            if isinstance(p, And):
                flat.extend(p.conjuncts)
            elif p is not TOP:
                flat.append(p)
        if not flat:
            return TOP
        if len(flat) == 1:
            return flat[0]
        return And(flat)

    def formula_unary(self):
        indices = []  # a run of diamonds, built inside out without recursing
        while self.peek() == "<":
            indices.append(self.diamond_index())
        f = self.formula_atom()
        for index in reversed(indices):
            f = Diam(index, f)
        return f

    def diamond_index(self):
        """The ordinal of "<a>", through _INDEX; the lookahead moves past ">"."""
        close = self.text.find(">", self.end)
        key = self.text[self.end:close] if close >= 0 else None
        index = _INDEX.get(key)
        if index is not None:
            self.scan(close + 1)
            return index
        self.next()
        index = self.ordinal()
        if self.peek() == ">":  # the one at close: an ordinal holds no ">"
            if len(_INDEX) >= _INDEX_CAP:
                _INDEX.clear()
            _INDEX[key] = index
        self.expect(">")
        return index

    def formula_atom(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok == "[":
            return worm_formula(self.worm())
        if tok == "T":
            self.next()
            return TOP
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in _KEYWORDS:
            self.next()
            return Var(tok)
        raise ParseError("expected a formula", self.pos())


def parse_ordinal(text):
    p = _Parser(text)
    a = p.ordinal()
    p.done()
    return a


def parse_ordinals(text):
    """A comma-separated list of ordinals, possibly empty."""
    p = _Parser(text)
    out = p.ordinals(None)
    p.done()
    return out


def parse_worm(text):
    p = _Parser(text)
    w = p.worm()
    p.done()
    return w


def parse_formula(text):
    p = _Parser(text)
    f = p.formula()
    p.done()
    return f


# ---------------------------------------------------------------- rendering


def render(x):
    """Canonical text of an ordinal, worm or formula.  The text is built from
    an explicit stack of pending parts, last part on top, so nesting depth is
    not limited by Python's recursion limit."""
    if not isinstance(x, (Ordinal, Worm, RcFormula)):
        raise TypeError("cannot render %r" % (x,))
    out = []
    stack = [x]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is str:
            out.append(x)
        elif cls is Ordinal:
            stack += reversed(_ordinal_pieces(x))
        elif cls is Diam:
            if x.body.__class__ is And:
                stack += (")", x.body, ">(", x.index, "<")
            else:
                stack += (x.body, ">", x.index, "<")
        elif cls is And:
            for c in reversed(x.conjuncts):
                stack += (")", c, "(", " & ") if c.__class__ is And else (c, " & ")
            stack.pop()
        elif cls is Var:
            out.append(x.name)
        elif cls is Worm:
            stack.append("]")
            for a in reversed(x.letters):
                stack += (a, ",")
            if x.letters:
                stack.pop()
            stack.append("[")
        else:
            out.append("T")
    return "".join(out)


def _ordinal_pieces(a):
    """The text of a as literal strings and the ordinals whose text goes between."""
    if not a.terms:
        return ["0"]
    groups = []
    for t in a.terms:
        if groups and groups[-1][0] is t:
            groups[-1][1] += 1
        else:
            groups.append([t, 1])
    out = []
    for t, n in groups:
        if out:
            out.append("+")
        if t is _UNIT:
            out.append(str(n))
            continue
        if t.index is ZERO:
            e = t.argument
            k = to_int(e)
            if e is ONE:
                out.append("w")
            elif k is not None:
                out.append("w^%d" % k)
            elif e is OMEGA:
                out.append("w^w")
            else:
                out += ("w^(", e, ")")
        elif t.index is ONE:
            out += ["eps0"] if t.argument is ZERO else ["eps(", t.argument, ")"]
        else:
            out += ("phi(", t.index, ",", t.argument, ")")
        if n > 1:
            out.append("*%d" % n)
    return out
