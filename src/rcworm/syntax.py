"""Concrete syntax: parse and render ordinals, worms and modal formulas.

Ordinals:  0 | terms joined by "+", a term being a natural, "w", "w^a",
           "phi(a,b)", "eps(a)" or "eps0", optionally followed by "*n"
           for n equal summands.  eps(a) abbreviates phi(1,a); eps0 is
           phi(1,0); w^a is the base-w power.
Worms:     "[a1,a2,...]" with ordinal letters, "[]" for the empty worm.
Formulas:  "T" | variable | "<a>f" | "f & g" | "(f)" | worm literal
           (its nested-diamond formula); diamonds bind tighter than "&",
           which flattens.

render is the canonical inverse: parse(render(x)) == x for every x whose
text nests at most MAX_NESTING levels deep, output is pure ASCII with
finite ordinals in decimal.  Unicode aliases are accepted on input only;
error positions refer to the ASCII-normalized text.
"""

from __future__ import annotations

import re

from .errors import BudgetExceededError, ParseError
from .ordinal import (
    MAX_SUMMANDS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add_all,
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

_KEYWORDS = {"w", "phi", "eps", "eps0", "T"}

# Levels of nesting a parsed tree may have; deeper text is refused with
# BudgetExceededError, so every recursive walk of a parsed tree stays inside
# Python's default recursion limit.  A "(" opens a level, and so does "w^"
# ("w^(a)" is one); in truth syntax also a quantifier, "neg" and each link of
# an "&", "|", "+" or "*" chain.  A run of diamonds, an RC conjunction, an
# ordinal sum, a worm literal and a numeral open none.
MAX_NESTING = 200

# Index text (between a diamond's "<" and its ">", or a worm letter's up to
# the next "," or "]") -> (its ordinal, the levels its text opens).  Notations
# are hash-consed, so an entry is the very object a fresh parse builds.  Only
# a parse that stopped at that delimiter is stored, and a hit past MAX_NESTING
# is refused, so every error is a fresh parse's.  Cleared when full.
_INDEX = {}
_INDEX_CAP = 4096
_LETTER_END = re.compile(r"[,\]]")

_TOKENS = r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^(),\[\]<>&]"

# After blanks: a diamond, group 1 its index text (no "<" or ">"), or as group
# 2 a worm literal (no "[", "]", "<" or ">" inside) or one of _TOKENS.
_FORMULA_TOKEN = re.compile(r"\s*(?:<([^<>]*)>|(\[[^\[\]<>]*\]|%s))" % _TOKENS)


def _normalize_input(text):
    for src, dst in _ALIASES:
        if src in text:
            text = text.replace(src, dst)
    return text


class Scanner:
    """A one-token lookahead for recursive descent: tok is the next token
    (None at the end), at its position, end where scanning resumes.

    A subclass supplies TOKEN, a pattern whose group 1 is the next token
    after blanks, and STRAY, which matches a character no token can hold.
    The first stray character is refused before any parsing, as a
    whole-text tokenizer would, whatever error comes before it.  depth
    counts the levels of nesting open at the lookahead (MAX_NESTING), and
    peak is the deepest level opened since a caller last reset it.
    """

    def __init__(self, text):
        self.text = text
        stray = self.STRAY.search(text)
        if stray is not None:
            raise ParseError("unexpected character %r" % stray.group(), stray.start())
        self.depth = self.peak = 0
        self.scan(0)

    def scan(self, pos):
        """Read the token at or after pos into the lookahead."""
        m = self.TOKEN.match(self.text, pos)
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
        if tok is None:
            raise ParseError("unexpected end of input", self.at)
        self.scan(self.end)
        return tok

    def expect(self, tok):
        if self.tok != tok:
            raise ParseError("expected %r" % tok, self.at)
        return self.next()

    def done(self):
        if self.tok is not None:
            raise ParseError("trailing input %r" % self.tok, self.at)

    def whole(self, rule):
        """What rule(self) parses, which must be all of the text."""
        x = rule(self)
        self.done()
        return x

    def literal(self, cap):
        """The value of the digit token at the lookahead, consumed, or None
        when it has more digits than cap, before int() has to convert it."""
        tok = self.next()
        return int(tok) if len(tok.lstrip("0")) <= len(str(cap)) else None

    def open(self, tok):
        """Consume tok and open one level of nesting."""
        self.expect(tok)
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        self.fit()

    def close(self, tok=None):
        """Consume tok, if any, and close the innermost level."""
        if tok is not None:
            self.expect(tok)
        self.depth -= 1

    def fit(self, height=0):
        """Refuse a construct `height` levels tall at the lookahead's depth
        when the two together pass MAX_NESTING."""
        if self.depth + height > MAX_NESTING:
            raise BudgetExceededError(
                "text nested more than %d levels deep (MAX_NESTING)" % MAX_NESTING
            )


class _Parser(Scanner):
    """Ordinals, worms and formulas; aliases are normalized first."""

    TOKEN = re.compile(r"\s*(%s)" % _TOKENS)
    STRAY = re.compile(r"[^\s\dA-Za-z_\-+*^(),\[\]<>&]")

    def __init__(self, text):
        super().__init__(_normalize_input(text))

    def count(self):
        """A digit token's value, at most MAX_SUMMANDS."""
        n = self.literal(MAX_SUMMANDS)
        check_summands(MAX_SUMMANDS + 1 if n is None else n)
        return n

    def cached(self, key, stop):
        """The ordinal at the lookahead, through _INDEX by key, its text up to
        its delimiter at position stop (key None: it has none)."""
        hit = _INDEX.get(key)
        if hit is not None:
            self.fit(hit[1])
            self.scan(stop)
            return hit[0]
        self.peak = depth = self.depth
        a = self.ordinal()
        if key is not None and self.at == stop:
            if len(_INDEX) >= _INDEX_CAP:
                _INDEX.clear()
            _INDEX[key] = a, self.peak - depth
        return a

    # ---- ordinals

    def ordinal(self):
        parts = [self.ord_term()]
        spelled = len(parts[0].terms)
        while self.peek() == "+":
            self.next()
            parts.append(self.ord_term())
            spelled += len(parts[-1].terms)
            check_summands(spelled)  # before the next term is built
        return add_all(parts)

    def ord_term(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an ordinal", self.pos())
        if tok.isdigit():
            return from_int(self.count())
        base = self.ord_base()
        if self.peek() == "*":
            self.next()
            count = self.peek()
            if count is None or not count.isdigit():
                raise ParseError("expected a count after '*'", self.pos())
            return Ordinal(base.terms * self.count())  # base is one term: already normal
        return base

    def ord_base(self):
        tok = self.peek()
        if tok == "w":
            self.next()
            if self.peek() == "^":
                self.open("^")
                a = self.ord_atom()
                self.close()
                return omega_power(a)
            return omega_power(ONE)
        if tok == "phi":
            self.next()
            self.open("(")
            a = self.ordinal()
            self.expect(",")
            b = self.ordinal()
            self.close(")")
            return phi(a, b)
        if tok == "eps0":
            self.next()
            return phi(ONE, ZERO)
        if tok == "eps":
            self.next()
            self.open("(")
            a = self.ordinal()
            self.close(")")
            return phi(ONE, a)
        raise ParseError("expected an ordinal term", self.pos())

    def ord_atom(self):
        """An exponent; its "(" is the level its "w^" opened."""
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an exponent", self.pos())
        if tok.isdigit():
            return from_int(self.count())
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
        out = [] if self.peek() == end else [self.letter()]
        while out and self.peek() == ",":
            self.next()
            out.append(self.letter())
        return out

    def letter(self):
        """A worm letter, through _INDEX by its text up to the next "," or "]"."""
        stop = _LETTER_END.search(self.text, self.at)
        if stop is None:
            return self.cached(None, None)
        return self.cached(self.text[self.at:stop.start()], stop.start())

    def worm(self):
        self.expect("[")
        letters = self.ordinals("]")
        self.expect("]")
        return Worm(letters)

    # ---- formulas

    def formula(self):
        """Operands (diamonds before T, a variable, a worm literal or "("
        formula ")") joined by "&", which flattens but keeps duplicates, in
        one pass of _FORMULA_TOKEN with a stack of open parentheses.  The
        scanner reads an index not in _INDEX, a worm literal and the token
        that ends the formula, so every refusal is the scanner's; a valid
        index or worm ends at its lexeme's ">" or "]" (a "<" or "[" that
        starts no lexeme starts none), so the pass goes on in step."""
        levels = []          # per open "(": the conjuncts and diamonds before it
        parts, run = [], []  # the innermost level's conjuncts; diamonds awaiting a body
        operand, end = True, len(self.text)  # operand: an operand is due, else "&" or ")"
        for m in _FORMULA_TOKEN.finditer(self.text, self.at):
            key, tok = m.groups()
            if not operand:
                if tok == "&":
                    operand = True
                    continue
                if tok != ")" or not levels:
                    end = m.start()
                    break
                self.depth -= 1
                f = conj(parts)
                parts, run = levels.pop()
            elif tok is None or tok == "<":  # a diamond
                hit = _INDEX.get(key)
                if hit is not None and self.depth + hit[1] <= MAX_NESTING:
                    run.append(hit[0])
                else:
                    self.scan(m.start())
                    self.next()
                    run.append(self.cached(key, m.end(1)))
                    self.expect(">")
                continue
            elif tok == "(":
                self.depth += 1
                self.fit()
                levels.append((parts, run))
                parts, run = [], []
                continue
            elif tok == "T":
                f = TOP
            elif tok.isidentifier() and tok not in _KEYWORDS:
                f = Var(tok)
            elif tok[0] == "[":
                self.scan(m.start())
                f = worm_formula(self.worm())
            else:
                end = m.start()
                break
            if run:
                for index in reversed(run):
                    f = Diam(index, f)
                run.clear()
            parts.append(f)
            operand = False
        self.scan(end)
        if operand:
            raise ParseError("expected a formula", self.at)
        if levels:
            self.expect(")")
        return conj(parts)


def parse_ordinal(text):
    return _Parser(text).whole(_Parser.ordinal)


def parse_ordinals(text):
    """A comma-separated list of ordinals, possibly empty."""
    return _Parser(text).whole(lambda p: p.ordinals(None))


def parse_worm(text):
    return _Parser(text).whole(_Parser.worm)


def parse_formula(text):
    return _Parser(text).whole(_Parser.formula)


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
