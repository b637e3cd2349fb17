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

from .ordinal import (
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


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


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

_KEYWORDS = {"w", "phi", "eps", "eps0", "T"}


def _normalize_input(text):
    for src, dst in _ALIASES:
        if src in text:
            text = text.replace(src, dst)
    return text


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], len(text) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = _normalize_input(text)
        self.tokens = _tokenize(self.text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

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
            return from_int(int(tok))
        base = self.ord_base()
        if self.peek() == "*":
            self.next()
            count = self.peek()
            if count is None or not count.isdigit():
                raise ParseError("expected a count after '*'", self.pos())
            self.next()
            n = int(count)
            check_summands(n)
            return Ordinal(base.terms * n)  # base is one term: already normal
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
            return from_int(int(tok))
        if tok == "(":
            self.next()
            a = self.ordinal()
            self.expect(")")
            return a
        if tok in ("w", "phi", "eps", "eps0"):
            return self.ord_base()
        raise ParseError("expected an exponent", self.pos())

    # ---- worms

    def worm(self):
        self.expect("[")
        letters = []
        if self.peek() != "]":
            letters.append(self.ordinal())
            while self.peek() == ",":
                self.next()
                letters.append(self.ordinal())
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
        tok = self.peek()
        if tok == "<":
            self.next()
            index = self.ordinal()
            self.expect(">")
            return Diam(index, self.formula_unary())
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
    if isinstance(x, Ordinal):
        return _render_ordinal(x)
    if isinstance(x, Worm):
        return "[%s]" % ",".join(_render_ordinal(a) for a in x.letters)
    if isinstance(x, RcFormula):
        return _render_formula(x)
    raise TypeError("cannot render %r" % (x,))


def _render_ordinal(a):
    if a.is_zero():
        return "0"
    groups = []
    for t in a.terms:
        if groups and groups[-1][0] == t:
            groups[-1][1] += 1
        else:
            groups.append([t, 1])
    parts = []
    for t, n in groups:
        if t == ONE.terms[0]:
            parts.append(str(n))
            continue
        base = _render_term(t)
        parts.append(base if n == 1 else "%s*%d" % (base, n))
    return "+".join(parts)


def _render_term(t):
    if t.index.is_zero():
        if t.argument == ONE:
            return "w"
        return "w^" + _render_exponent(t.argument)
    if t.index == ONE:
        if t.argument.is_zero():
            return "eps0"
        return "eps(%s)" % _render_ordinal(t.argument)
    return "phi(%s,%s)" % (_render_ordinal(t.index), _render_ordinal(t.argument))


def _render_exponent(b):
    n = to_int(b)
    if n is not None:
        return str(n)
    if b == omega_power(ONE):
        return "w"
    return "(%s)" % _render_ordinal(b)


def _render_formula(f):
    if f is TOP or isinstance(f, type(TOP)):
        return "T"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Diam):
        body = _render_formula(f.body)
        if isinstance(f.body, And):
            body = "(%s)" % body
        return "<%s>%s" % (_render_ordinal(f.index), body)
    return " & ".join(
        "(%s)" % _render_formula(c) if isinstance(c, And) else _render_formula(c)
        for c in f.conjuncts
    )