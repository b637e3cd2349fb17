"""Parsing and rendering for ordinals, sequences and modal formulas."""

import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    SMALL_ORDINALS, large_pairs, ordinals, rand_formula, rand_ordinal, rand_worm, rc_formulas, worms,
)
from rcworm import hashcons, rc, syntax
from rcworm.errors import BudgetExceededError, DomainError, OrdinalOverflowError
from rcworm.ordinal import (
    EPS0,
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
from rcworm.syntax import (
    ParseError,
    parse_formula,
    parse_ordinal,
    parse_ordinals,
    parse_worm,
    render,
)
from rcworm.worm import Worm


def test_parse_ordinal_forms():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("17") == from_int(17)
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w + 1") == add(OMEGA, ONE)
    assert parse_ordinal("w*2") == add(OMEGA, OMEGA)
    assert parse_ordinal("w^2 + w*2 + 3") == add(
        omega_power(from_int(2)), add(add(OMEGA, OMEGA), from_int(3))
    )
    assert parse_ordinal("eps0") == EPS0
    assert parse_ordinal("eps(1)") == phi(ONE, ONE)
    assert parse_ordinal("eps(eps0)") == phi(ONE, EPS0)
    assert parse_ordinal("phi(2, 0)") == phi(from_int(2), ZERO)
    assert parse_ordinal("w^(w + 1)") == omega_power(add(OMEGA, ONE))


def test_repetition_is_repeated_sum():
    for base in ("w", "w^w", "w^(w+1)", "eps0", "eps(3)", "phi(2,w)", "phi(0,eps0)"):
        b = parse_ordinal(base)
        total = ZERO
        for n in range(6):
            assert parse_ordinal("%s*%d" % (base, n)) == total
            total = add(total, b)
    assert len(parse_ordinal("w*%d" % MAX_SUMMANDS).terms) == MAX_SUMMANDS
    for text in ("w*%d" % (MAX_SUMMANDS + 1), "%d" % (MAX_SUMMANDS + 1), "w^99999999999"):
        with pytest.raises(OrdinalOverflowError):
            parse_ordinal(text)


def test_parse_ordinal_unicode_aliases():
    assert parse_ordinal("ω") == OMEGA  # omega letter
    assert parse_ordinal("ε0") == EPS0  # epsilon-zero
    assert parse_ordinal("ε₀") == EPS0  # subscript variant
    assert parse_ordinal("φ(1, 0)") == EPS0
    assert parse_ordinal("ω^2 + ω") == add(omega_power(from_int(2)), OMEGA)


def test_parse_worm_forms():
    assert parse_worm("[]") == Worm(())
    assert parse_worm("[0]") == Worm((ZERO,))
    assert parse_worm("[2, 1, 0]") == Worm((from_int(2), ONE, ZERO))
    assert parse_worm("[w, w+1]") == Worm((OMEGA, add(OMEGA, ONE)))
    # worms are interned: equal letters give the one node
    assert parse_worm("[2, 1, 0]") is Worm([from_int(2), ONE, ZERO])
    # a letter that is no ordinal notation is refused before it is interned
    with pytest.raises(TypeError, match="ordinal notations"):
        Worm((ZERO, 1))
    assert (Worm, (ZERO, 1)) not in hashcons._TABLE


def test_parse_formula_forms():
    assert parse_formula("T") == rc.TOP
    assert parse_formula("p") == rc.Var("p")
    assert parse_formula("<0>p") == rc.Diam(ZERO, rc.Var("p"))
    assert parse_formula("p & <1>T") == rc.conj((rc.Var("p"), rc.Diam(ONE, rc.TOP)))
    assert parse_formula("<w>(p & q)") == rc.Diam(
        OMEGA, rc.conj((rc.Var("p"), rc.Var("q")))
    )
    # a bare sequence literal denotes its formula
    assert parse_formula("[1, 0]") == rc.Diam(ONE, rc.Diam(ZERO, rc.TOP))


def test_parse_errors_carry_positions(monkeypatch):
    with pytest.raises(ParseError) as e:
        parse_ordinal("w + + 1")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_ordinal("")
    with pytest.raises(ParseError):
        parse_worm("[1, ]")
    with pytest.raises(ParseError):
        parse_formula("<1>")
    with pytest.raises(ParseError):
        parse_formula("p & ")
    with pytest.raises(ParseError):
        parse_ordinal("w + 1 junk")
    # malformed diamond indices, on a cold index cache and on a warm one
    spots = {
        "<w+>p": ("expected an ordinal term", 3),
        "<1 2>p": ("expected '>'", 3),
        "<1<2>p": ("expected '>'", 2),
        "<>p": ("expected an ordinal term", 1),
    }
    monkeypatch.setattr(syntax, "_INDEX", {})
    for warm in (False, True):
        if warm:
            parse_formula("<w+1>p & <1>p & <2>p")
            assert len(syntax._INDEX) == 3
        for text, (message, position) in spots.items():
            with pytest.raises(ParseError) as e:
                parse_formula(text)
            assert e.value.position == position, text
            assert str(e.value) == "%s (at position %d)" % (message, position), text


# ------------------------------------------------------------ index text cache


def test_index_cache_builds_each_index_once(monkeypatch):
    calls = []
    real = syntax._Parser.ordinal

    def counting(self):
        calls.append(self.pos())
        return real(self)

    monkeypatch.setattr(syntax._Parser, "ordinal", counting)
    monkeypatch.setattr(syntax, "_INDEX", {})
    texts = ["1", "w", "w+1", "w^2*3", "eps0"]  # none parses a nested ordinal
    text = " & ".join("<%s><%s>p" % (texts[i % 5], texts[(i * 3) % 5]) for i in range(50))
    f = parse_formula(text)
    diamonds = [d for c in f.conjuncts for d in (c, c.body)]
    assert len(diamonds) == 100 and all(d.__class__ is rc.Diam for d in diamonds)
    assert len(calls) <= 5
    assert sorted(syntax._INDEX) == sorted(texts)
    calls.clear()
    assert parse_formula(text) == f
    assert calls == []


def test_malformed_index_leaves_no_entry(monkeypatch):
    monkeypatch.setattr(syntax, "_INDEX", {})
    for text in ("<w+>p", "<1 2>p", "<1", "<1<2>p", "<>p", "<w*99999999>p"):
        with pytest.raises((ParseError, DomainError)):
            parse_formula(text)
        assert syntax._INDEX == {}, text


def test_index_cache_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(syntax, "_INDEX", {})
    cap = syntax._INDEX_CAP
    for k in range(cap + 100):  # cap + 100 distinct texts, each reading 1
        assert parse_formula("<%s1>p" % (" " * k)).index is ONE
        assert 0 < len(syntax._INDEX) <= cap


def test_worm_letters_go_through_the_index_cache(monkeypatch):
    # a letter ended by "," or "]" is cached by its text from its first token
    # to that delimiter; a letter with a comma inside never ends at its first
    # comma, so it is never stored
    monkeypatch.setattr(syntax, "_INDEX", {})
    text = "[w+1, 2, phi(1,w), eps0 ,w+1]"
    cold = parse_worm(text)
    assert sorted(syntax._INDEX) == ["2", "eps0 ", "w+1"]
    calls = []
    real = syntax._Parser.ordinal

    def counting(self):
        calls.append(self.pos())
        return real(self)

    monkeypatch.setattr(syntax._Parser, "ordinal", counting)
    warm = parse_worm(text)
    at = text.index("phi")
    assert calls == [at, at + 4, at + 6]  # phi(1,w) and its two arguments
    monkeypatch.setattr(syntax, "_INDEX", {})
    fresh = parse_worm(text)
    assert len(warm.letters) == 5
    assert all(a is b is c for a, b, c in zip(cold.letters, warm.letters, fresh.letters))
    # the diamond indices share the cache: "<w+1>" after "[w+1]" parses nothing
    parse_worm("[w+1]")
    calls.clear()
    d = rc.Diam(warm.letters[0], rc.TOP)
    assert parse_formula("<w+1>T & [w+1]") == rc.conj((d, d))
    assert calls == []


def test_malformed_letter_leaves_no_entry(monkeypatch):
    monkeypatch.setattr(syntax, "_INDEX", {})
    for text in ("[w+]", "[1 2]", "[1", "[phi(1,]", "[w*99999999]", "[<1>]", "[]]"):
        with pytest.raises((ParseError, DomainError)):
            parse_worm(text)
        assert syntax._INDEX == {}, text
    with pytest.raises(ParseError):
        parse_worm("[1, w+, 2]")  # the letter before it is well formed and stays
    assert sorted(syntax._INDEX) == ["1"]


def test_letter_errors_match_on_a_cold_and_a_warm_cache(monkeypatch):
    spots = {
        "[w+]": ("expected an ordinal term", 3),
        "[1 2]": ("expected ']'", 3),
        "[w+1,]": ("expected an ordinal term", 5),
        "[1,,2]": ("expected an ordinal term", 3),
        "[1]]": ("trailing input ']'", 3),
        "[w^2 ,1": ("expected ']'", 7),
    }
    deep = "(" * syntax.MAX_NESTING + "%s" + ")" * syntax.MAX_NESTING
    for inner in ("[w^2]", "<w^2>T", "[1,w^2]"):
        spots[deep % inner] = None  # refused: "w^" opens one level past the bound
    monkeypatch.setattr(syntax, "_INDEX", {})
    for warm in (False, True):
        if warm:
            parse_formula("[w+1, 1, 2, w^2] & <w+1><w^2>T")
            assert {"1", "2", "w+1", "w^2"} <= set(syntax._INDEX)
        for text, want in spots.items():
            if want is None:
                with pytest.raises(BudgetExceededError, match="than %d levels" % syntax.MAX_NESTING):
                    parse_formula(text)
                continue
            with pytest.raises(ParseError) as e:
                parse_worm(text)
            assert (e.value.position, str(e.value)) == (want[1], "%s (at position %d)" % want), text
    # one level less fits, with the cache warm
    n = syntax.MAX_NESTING - 1
    assert parse_formula("(" * n + "[w^2]" + ")" * n) == rc.Diam(omega_power(from_int(2)), rc.TOP)


def test_render_spot_values():
    assert render(ZERO) == "0"
    assert render(from_int(12)) == "12"
    assert render(add(OMEGA, OMEGA)) == "w*2"
    assert render(add(omega_power(from_int(2)), ONE)) == "w^2+1"
    assert render(EPS0) == "eps0"
    assert render(phi(ONE, ONE)) == "eps(1)"
    assert render(phi(from_int(2), ZERO)) == "phi(2,0)"
    assert render(Worm((ONE, ZERO))) == "[1,0]"
    assert render(rc.Diam(OMEGA, rc.conj((rc.Var("p"), rc.Var("q"))))) == "<w>(p & q)"


# ------------------------------------------------- recursive reference renderer


def _reference_render(x):
    """render as a recursion over the syntax tree, one call per nesting level."""
    if isinstance(x, Worm):
        return "[%s]" % ",".join(_ref_ordinal(a) for a in x.letters)
    if isinstance(x, rc.RcFormula):
        return _ref_formula(x)
    return _ref_ordinal(x)


def _ref_ordinal(a):
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
        base = _ref_term(t)
        parts.append(base if n == 1 else "%s*%d" % (base, n))
    return "+".join(parts)


def _ref_term(t):
    if t.index.is_zero():
        if t.argument == ONE:
            return "w"
        return "w^" + _ref_exponent(t.argument)
    if t.index == ONE:
        if t.argument.is_zero():
            return "eps0"
        return "eps(%s)" % _ref_ordinal(t.argument)
    return "phi(%s,%s)" % (_ref_ordinal(t.index), _ref_ordinal(t.argument))


def _ref_exponent(b):
    n = to_int(b)
    if n is not None:
        return str(n)
    if b == omega_power(ONE):
        return "w"
    return "(%s)" % _ref_ordinal(b)


def _ref_formula(f):
    if f == rc.TOP:
        return "T"
    if isinstance(f, rc.Var):
        return f.name
    if isinstance(f, rc.Diam):
        body = _ref_formula(f.body)
        if isinstance(f.body, rc.And):
            body = "(%s)" % body
        return "<%s>%s" % (_ref_ordinal(f.index), body)
    return " & ".join(
        "(%s)" % _ref_formula(c) if isinstance(c, rc.And) else _ref_formula(c)
        for c in f.conjuncts
    )


_README_VALUES = [
    "w^2*2+3", "w^(w+1)", "eps(eps0)", "phi(2,0)", "[w+1,w]", "[1,2]",
    "<2>p & <1>q", "<2>(p & <1>q)", "<1>(T & <1>T)", "q & p & q",
    "<1>(p & <1>(p & p))",
]


def _parsed(text):
    """Every reading of text as an ordinal, worm or formula."""
    out = []
    for parse in (parse_ordinal, parse_worm, parse_formula):
        try:
            out.append(parse(text))
        except (ParseError, OrdinalOverflowError):
            pass
    return out


def _corpus_texts():
    """The README values and every field of the fixture corpus."""
    corpus = Path(__file__).resolve().parent.parent / "fixtures" / "known-values.txt"
    texts = list(_README_VALUES)
    for line in corpus.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            texts += [field.strip() for field in line.split(";")[1:]]
    return texts


def test_render_matches_the_recursive_reference():
    objects = [x for text in _corpus_texts() for x in _parsed(text)]
    assert len(objects) > 150
    rng = random.Random(4217)
    indices = SMALL_ORDINALS + [rand_ordinal(rng, 3) for _ in range(20)]
    for _ in range(1000):
        objects.append(rand_ordinal(rng, 4))
        objects.append(rand_worm(rng, 6, indices))
        objects.append(rand_formula(rng, rng.randrange(1, 25), indices))
    for x in objects:
        assert render(x) == _reference_render(x), x


def test_render_deep_nesting():
    tower = ZERO
    for _ in range(3000):
        tower = omega_power(add(tower, ONE))
    want = "w"
    for _ in range(2999):
        want = "w^(%s+1)" % want
    assert render(tower) == want
    f = rc.TOP
    for _ in range(3000):
        f = rc.Diam(ONE, rc.conj((rc.Var("p"), f)))
    assert render(f) == "<1>(p & " * 2999 + "<1>p" + ")" * 2999


# ------------------------------------------- tokenizer-based reference parser


_REF_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^(),\[\]<>&])")


def _ref_decimal(tok):
    n = int(tok) if len(tok.lstrip("0")) <= len(str(MAX_SUMMANDS)) else MAX_SUMMANDS + 1
    check_summands(n)
    return n


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], len(text) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))  # end marker
    return tokens


class _RefParser:
    """The parser as it was before the one-token scanner: the whole text is
    tokenized up front, the grammar is one recursive rule per construct, and
    every diamond index and worm letter is parsed afresh.  It counts levels
    of nesting as the text is read, as MAX_NESTING states them: a "(" in a
    formula opens one, and so do "w^", "phi(" and "eps(" in an ordinal."""

    def __init__(self, text):
        self.text = syntax._normalize_input(text)
        self.tokens = _ref_tokenize(self.text)
        self.i = 0
        self.depth = 0

    def open(self):
        self.depth += 1
        if self.depth > syntax.MAX_NESTING:
            raise BudgetExceededError(
                "text nested more than %d levels deep (MAX_NESTING)" % syntax.MAX_NESTING)

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
            return from_int(_ref_decimal(tok))
        base = self.ord_base()
        if self.peek() == "*":
            self.next()
            count = self.peek()
            if count is None or not count.isdigit():
                raise ParseError("expected a count after '*'", self.pos())
            self.next()
            return Ordinal(base.terms * _ref_decimal(count))
        return base

    def ord_base(self):
        tok = self.peek()
        if tok == "w":
            self.next()
            if self.peek() == "^":
                self.next()
                self.open()
                a = self.ord_atom()
                self.depth -= 1
                return omega_power(a)
            return omega_power(ONE)
        if tok == "phi":
            self.next()
            self.expect("(")
            self.open()
            a = self.ordinal()
            self.expect(",")
            b = self.ordinal()
            self.expect(")")
            self.depth -= 1
            return phi(a, b)
        if tok == "eps0":
            self.next()
            return phi(ONE, ZERO)
        if tok == "eps":
            self.next()
            self.expect("(")
            self.open()
            a = self.ordinal()
            self.expect(")")
            self.depth -= 1
            return phi(ONE, a)
        raise ParseError("expected an ordinal term", self.pos())

    def ord_atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an exponent", self.pos())
        if tok.isdigit():
            self.next()
            return from_int(_ref_decimal(tok))
        if tok == "(":
            self.next()
            a = self.ordinal()
            self.expect(")")
            return a
        if tok in ("w", "phi", "eps", "eps0"):
            return self.ord_base()
        raise ParseError("expected an exponent", self.pos())

    def ordinals(self, end):
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

    def formula(self):
        parts = [self.formula_unary()]
        while self.peek() == "&":
            self.next()
            parts.append(self.formula_unary())
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            if isinstance(p, rc.And):
                flat.extend(p.conjuncts)
            elif p is not rc.TOP:
                flat.append(p)
        if not flat:
            return rc.TOP
        if len(flat) == 1:
            return flat[0]
        return rc.And(flat)

    def formula_unary(self):
        tok = self.peek()
        if tok == "<":
            self.next()
            index = self.ordinal()
            self.expect(">")
            return rc.Diam(index, self.formula_unary())
        if tok == "(":
            self.next()
            self.open()
            f = self.formula()
            self.expect(")")
            self.depth -= 1
            return f
        if tok == "[":
            return rc.worm_formula(self.worm())
        if tok == "T":
            self.next()
            return rc.TOP
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in syntax._KEYWORDS:
            self.next()
            return rc.Var(tok)
        raise ParseError("expected a formula", self.pos())


def _ref_rule(rule):
    def parse(text):
        p = _RefParser(text)
        x = rule(p)
        p.done()
        return x
    return parse


_PARSE_PAIRS = {
    "ordinal": (parse_ordinal, _ref_rule(_RefParser.ordinal)),
    "ordinals": (parse_ordinals, _ref_rule(lambda p: p.ordinals(None))),
    "worm": (parse_worm, _ref_rule(_RefParser.worm)),
    "formula": (parse_formula, _ref_rule(_RefParser.formula)),
}


def _outcome(parse, text):
    """("ok", result), or the refusal's type, message and position."""
    try:
        return "ok", parse(text)
    except ParseError as e:
        return "ParseError", str(e), e.position
    except DomainError as e:
        return type(e).__name__, str(e)


def _ordinals_in(x):
    """Every ordinal in a parse result, outermost first, without recursing."""
    out = []
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, Ordinal):
            out.append(x)
        elif isinstance(x, (list, tuple)):
            stack += reversed(x)
        elif isinstance(x, Worm):
            stack += reversed(x.letters)
        elif isinstance(x, rc.Diam):
            stack += (x.body, x.index)
        elif isinstance(x, rc.And):
            stack += reversed(x.conjuncts)
    return out


def _assert_same_parse(kind, text, runs=1):
    parse, reference = _PARSE_PAIRS[kind]
    want = _outcome(reference, text)
    for _ in range(runs):
        got = _outcome(parse, text)
        assert got == want, (kind, text)
        if want[0] != "ok":
            continue  # a refusal: message and position already compared
        left, right = _ordinals_in(got[1]), _ordinals_in(want[1])
        assert len(left) == len(right) and all(a is b for a, b in zip(left, right)), (kind, text)
    return want


_INDEX_TEXTS = [
    "0", "1", " 2 ", "w", "w+1", " w + 1 ", "ω+1", "ω ^ 2*3 + ω", "eps0", "ε0", "ε₀",
    "phi(2, w)", "φ(1,0)", "w^(w+1)", "eps(1) + 4", "w*2", " w^w ", "phi( 0 , eps0 )",
]


def _rand_formula_text(rng, size):
    """Formula text over a small pool of index texts, so indices repeat."""
    if size <= 1:
        return rng.choice(["p", "q", "T", "[1, w]", "( p )", "[]"])
    if rng.random() < 0.6:
        left, right = rng.choice([("<", ">"), ("⟨", "⟩"), ("< ", ">"), ("<", " >")])
        return left + rng.choice(_INDEX_TEXTS) + right + _rand_formula_text(rng, size - 1)
    k = rng.randrange(1, size)
    pattern = rng.choice(["%s & %s", "(%s) & %s", "%s∧%s", "(%s & %s)"])
    return pattern % (_rand_formula_text(rng, k), _rand_formula_text(rng, size - k))


_MUTATION_CHARS = "<>()[]&+*^,0 1w2ep$?é⟨"


def _mutations(rng, text, count):
    out = []
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 1 / 3 and i < len(text):
            out.append(text[:i] + text[i + 1:])
        elif roll < 2 / 3 and i < len(text):
            out.append(text[:i] + rng.choice(_MUTATION_CHARS) + text[i + 1:])
        else:
            out.append(text[:i] + rng.choice(_MUTATION_CHARS) + text[i:])
    return out


def _nesting_texts():
    """Formula texts at MAX_NESTING levels and one past them: parentheses
    alone, and with a diamond index or a worm letter whose "w^" opens the
    last level."""
    n = syntax.MAX_NESTING
    texts = []
    for depth, inner in ((n, "p"), (n + 1, "p"), (n - 1, "<w^2>p"), (n, "<w^2>p"),
                         (n - 1, "[1, w^2]"), (n, "[1, w^2]"), (n, "<1>(q) & r")):
        texts.append("(" * depth + inner + ")" * depth)
        texts.append("<w>" + "(p & " * depth + inner + ")" * depth)
    return texts


_WORM_TEXTS = [
    "[phi(1,w), ω+1 , ε₀,φ(1, 0)]", "[ phi( 2 , w^w ) ,eps(ε0)]", "[φ(0,1),phi(0,1)]",
    "[w, ω, w , 1,1]", "[eps(1) + 4, w^(w+1),]", "[ε₀ ,, 1]",
]


def test_parse_matches_the_tokenizer_reference(monkeypatch):
    monkeypatch.setattr(syntax, "_INDEX", {})
    rng = random.Random(5113)
    corpus = [(kind, text) for text in _corpus_texts() for kind in _PARSE_PAIRS]
    for _ in range(400):
        corpus.append(("formula", _rand_formula_text(rng, rng.randrange(1, 30))))
    indices = SMALL_ORDINALS[:6] + [rand_ordinal(rng, 2) for _ in range(4)]
    for _ in range(200):
        corpus.append(("formula", render(rand_formula(rng, rng.randrange(1, 30), indices))))
    for lhs, rhs, _ in itertools.islice(large_pairs(5114), 3):
        corpus += [("formula", lhs), ("formula", rhs)]
    corpus += [("formula", text) for text in _nesting_texts()]
    corpus += [(kind, text) for text in _WORM_TEXTS for kind in ("worm", "formula")]
    answers = [_assert_same_parse(kind, text) for kind, text in corpus]
    assert sum(a[0] == "ok" and isinstance(a[1], rc.RcFormula) for a in answers) > 600
    assert sum(a[0] == "BudgetExceededError" for a in answers) == 8  # of _nesting_texts()
    refusals = set()
    for kind, text in corpus:
        for mutant in _mutations(rng, text, 3):
            want = _assert_same_parse(kind, mutant, runs=2)
            if want[0] == "ParseError":
                refusals.add(re.sub(r" '.*| \(at position \d+\)$", "", want[1]))
    assert {"unexpected character", "expected", "expected an ordinal term",
            "expected a formula", "trailing input"} <= refusals, refusals


@given(ordinals())
def test_ordinal_round_trip(a):
    assert parse_ordinal(render(a)) == a


@given(worms())
def test_worm_round_trip(v):
    assert parse_worm(render(v)) == v


@given(rc_formulas())
def test_formula_round_trip(f):
    assert parse_formula(render(f)) == f


@given(rc_formulas(indices=ordinals(max_leaves=3), max_leaves=5))
def test_formula_round_trip_transfinite_indices(f):
    assert parse_formula(render(f)) == f
