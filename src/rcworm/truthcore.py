"""Executable truth for bounded arithmetic sentences over finite predicate
structures.

Sentences live in negation normal form: negation sits on atoms only, the
connectives are binary and/or, and quantifiers come bounded (x <= t) or
unbounded.  The bounded fragment is decided three independent ways:

  * direct_eval          plain recursive semantics, the oracle;
  * build_evaluation     constructs a finite, locally correct assignment of
                         numbers to closed terms and bits to sentences whose
                         domain covers the input;
  * tr_eval              reads the input's bit off that assignment.

is_evaluation checks the thirteen local-correctness clauses one by one and
reports the first offender, so any disagreement between the three routes is
attributable to a specific clause.  build_evaluation and is_evaluation take
a bounded quantifier's instances from one plan per quantifier (_instances);
direct_eval instantiates by subst, independently of the plan.
"""

from .errors import BudgetExceededError, NotInFragmentError, ParseError
from .hashcons import Node
from .syntax import Scanner

from functools import reduce
import itertools
import json
import re


# ------------------------------------------------------------ node caches
#
# Terms and formulas are hash-consed (hashcons.Node); each node's _fill()
# sets `fv`, the frozenset of the variables free in it, when it is built;
# Zero and Succ also set `value`: the number of a numeral, or None.

_NO_VARS = frozenset()


def _union(a, b):
    # shares an operand where one is empty, so closed nodes hold no new sets
    return a | b if a and b else a or b


def _bind(fv, var):
    return fv - {var} if var in fv else fv


def _fill_arg(node):
    node.fv = node.arg.fv


def _fill_pair(node):
    node.fv = _union(node.left.fv, node.right.fv)


def _fill_terms(node):
    node.fv = reduce(_union, (t.fv for t in node.terms), _NO_VARS)


def _fill_bounded(node):
    node.fv = _union(node.bound.fv, _bind(node.body.fv, node.var))


def _fill_unbounded(node):
    node.fv = _bind(node.body.fv, node.var)


def _new_literal(cls, pred, terms):
    return Node.__new__(cls, pred, tuple(terms))


# -------------------------------------------------------------------- terms


class ArithTerm(Node):
    __slots__ = ("fv", "value")

    def __repr__(self):
        return render_term(self)


class Zero(ArithTerm):
    __slots__ = ()

    def _fill(self):
        self.fv, self.value = _NO_VARS, 0


class Succ(ArithTerm):
    __slots__ = ("arg",)

    def _fill(self):
        _fill_arg(self)
        below = self.arg.value if isinstance(self.arg, (Zero, Succ)) else None
        self.value = None if below is None else below + 1


class Plus(ArithTerm):
    __slots__ = ("left", "right")
    _fill = _fill_pair


class Times(ArithTerm):
    __slots__ = ("left", "right")
    _fill = _fill_pair


class Exp(ArithTerm):
    """Unary exponential, read base 2."""

    __slots__ = ("arg",)
    _fill = _fill_arg


class Var(ArithTerm):
    __slots__ = ("name",)

    def _fill(self):
        self.fv = frozenset((self.name,))


ZERO_T = Zero()

# Largest numeral literal, exp argument and number of quantifier instances in
# one build_evaluation; anything larger is refused with BudgetExceededError
# before the work starts, instead of hanging or exhausting memory.
TRUTH_CAP = 200_000


def numeral(n):
    """n rendered as n applications of the successor to zero."""
    if n < 0:
        raise ValueError("numerals are naturals")
    if n > TRUTH_CAP:
        raise BudgetExceededError(
            "numeral %d is above the truth budget of %d" % (n, TRUTH_CAP)
        )
    t = ZERO_T
    for _ in range(n):
        t = Succ(t)
    return t


def _pow2(v):
    if v > TRUTH_CAP:
        raise BudgetExceededError(
            "exp of %d: the truth budget allows exp of at most %d" % (v, TRUTH_CAP)
        )
    return 2**v


# ----------------------------------------------------------------- formulas


class TaitFormula(Node):
    __slots__ = ("fv",)

    def __repr__(self):
        return render_formula(self)


class Atom(TaitFormula):
    """pred applied to terms; "=" and "<=" are the built-in predicates."""

    __slots__ = ("pred", "terms")
    __new__ = _new_literal
    _fill = _fill_terms


class NegAtom(TaitFormula):
    __slots__ = ("pred", "terms")
    __new__ = _new_literal
    _fill = _fill_terms


class AndF(TaitFormula):
    __slots__ = ("left", "right")
    _fill = _fill_pair


class OrF(TaitFormula):
    __slots__ = ("left", "right")
    _fill = _fill_pair


class BoundedAll(TaitFormula):
    __slots__ = ("var", "bound", "body")
    _fill = _fill_bounded


class BoundedEx(TaitFormula):
    __slots__ = ("var", "bound", "body")
    _fill = _fill_bounded


class All(TaitFormula):
    __slots__ = ("var", "body")
    _fill = _fill_unbounded


class Ex(TaitFormula):
    __slots__ = ("var", "body")
    _fill = _fill_unbounded


def atom_le(a, b):
    return Atom("<=", (a, b))


# -------------------------------------------------------- structural helpers


def free_vars(node, acc=None):
    """The variables free in a term or formula: a new set, or acc updated."""
    if acc is None:
        return set(node.fv)
    acc |= node.fv
    return acc


term_vars = free_vars


def is_delta0(f):
    if isinstance(f, (Atom, NegAtom)):
        return True
    if isinstance(f, (AndF, OrF)):
        return is_delta0(f.left) and is_delta0(f.right)
    if isinstance(f, (BoundedAll, BoundedEx)):
        return is_delta0(f.body)
    return False


def subst_term(t, name, repl):
    if name not in t.fv:
        return t
    if isinstance(t, Var):
        return repl
    if isinstance(t, (Succ, Exp)):
        return type(t)(subst_term(t.arg, name, repl))
    return type(t)(subst_term(t.left, name, repl), subst_term(t.right, name, repl))


def subst(f, name, repl):
    """Replace the free variable `name` by the closed term `repl`."""
    if not isinstance(f, TaitFormula):
        raise TypeError("not a formula: %r" % (f,))
    if name not in f.fv:
        return f
    if isinstance(f, (Atom, NegAtom)):
        return type(f)(f.pred, tuple(subst_term(t, name, repl) for t in f.terms))
    if isinstance(f, (AndF, OrF)):
        return type(f)(subst(f.left, name, repl), subst(f.right, name, repl))
    if isinstance(f, (BoundedAll, BoundedEx)):
        # `name` may be free in the bound only, with the body shadowing it
        body = f.body if f.var == name else subst(f.body, name, repl)
        return type(f)(f.var, subst_term(f.bound, name, repl), body)
    return type(f)(f.var, subst(f.body, name, repl))


def _pack(*terms):
    return terms


def _plan(body, var):
    """The nodes of body in which var is free, in post-order, as steps
    (cls, args, holes).  Slot 0 is the numeral put for var and slot k the
    node of step k.  Step k builds cls(*args) once each of its holes (i, j)
    has put slot j in args[i]; the other args are the node's own fields.  An
    atom's terms tuple is a step of its own, of class _pack."""
    steps = []
    slots = {Var(var): 0}
    todo = [(body, None, None, None)]
    while todo:
        node, cls, args, live = todo.pop()
        if live is not None:  # every live field has its slot now
            steps.append((cls, args, [(i, slots[args[i]]) for i in live]))
            slots[node] = len(steps)
        elif node not in slots:
            if isinstance(node, tuple):
                cls, args = _pack, list(node)
            else:
                cls = type(node)
                args = [getattr(node, name) for name in cls.__slots__]
            # an atom's terms are live with it; a quantifier over var binds
            # var in its body, the last field
            end = len(args) - 1 if getattr(node, "var", None) == var else len(args)
            live = [i for i in range(end) if isinstance(args[i], tuple)
                    or isinstance(args[i], Node) and var in args[i].fv]
            todo.append((node, cls, args, live))
            todo.extend((args[i], None, None, None) for i in live)
    return steps


def _instances(f, top):
    """The body of bounded quantifier f at x = 0, 1, ..., top, each built only
    when it is asked for, so that a budget refusal inside one instance comes
    before the next is built.  An instance rebuilds the nodes in which x is
    free, one constructor call each, by the steps of one plan (_plan); every
    other node is shared with the body."""
    if f.var not in f.body.fv:
        yield from itertools.repeat(f.body, top + 1)
        return
    steps = _plan(f.body, f.var)
    for n in _numerals(top):
        built = [n]
        for cls, args, holes in steps:
            for i, k in holes:
                args[i] = built[k]
            built.append(cls(*args))
        yield built[-1]


def _numerals(top):
    """The numerals 0, 1, ..., top, one successor at a time."""
    n = ZERO_T
    yield n
    for _ in range(top):
        n = Succ(n)
        yield n


def _charge(left, top):
    """Take one quantifier's top + 1 instances from left[0], the number of
    instances still allowed, or refuse once the budget runs out."""
    if top + 1 > left[0]:
        raise BudgetExceededError(
            "more than %d quantifier instances to evaluate" % TRUTH_CAP
        )
    left[0] -= top + 1


def _require_delta0_sentence(f):
    if not is_delta0(f):
        raise NotInFragmentError("unbounded quantifier in a bounded-only context")
    if f.fv:
        raise NotInFragmentError("free variables: %s" % ", ".join(sorted(f.fv)))


# ----------------------------------------------------------------- semantics


_SHAPE = ("a structure is a JSON object mapping each predicate "
          "to a list of naturals or non-empty lists of naturals")


class FiniteStructure:
    """Finitely supported interpretations for the extra predicates; any query
    outside the listed support answers false.  preds maps each predicate to
    its members: naturals, or non-empty lists or tuples of naturals for
    higher arity.  Anything else, a boolean included, is a ParseError."""

    def __init__(self, preds):
        if not isinstance(preds, dict):
            raise ParseError(_SHAPE)
        table = {}
        for name, rows in preds.items():
            if not isinstance(rows, (list, tuple, set, frozenset)):
                raise ParseError(_SHAPE)
            members = set()
            for r in rows:
                if type(r) is int and r >= 0:  # a bool is no natural
                    members.add((r,))
                elif type(r) in (list, tuple) and r:
                    for x in r:
                        if type(x) is not int or x < 0:
                            raise ParseError(_SHAPE)
                    members.add(tuple(r))
                else:
                    raise ParseError(_SHAPE)
            table[name] = frozenset(members)
        self.preds = table

    def holds(self, pred, values):
        return tuple(values) in self.preds.get(pred, frozenset())

    def to_json(self):
        out = {}
        for name in sorted(self.preds):
            rows = sorted(self.preds[name])
            out[name] = [r[0] if len(r) == 1 else list(r) for r in rows]
        return out


def load_structure(source):
    """Structure from a JSON file name, or from its data already read."""
    if not isinstance(source, str):
        return FiniteStructure(source)
    try:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as e:  # not UTF-8, not JSON, or a NUL in the path
        raise ParseError("structure file %s: %s" % (source, e)) from None
    return FiniteStructure(data)


def eval_term(t):
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        # iterate down a run of successors: numerals can be deep
        n = 0
        while isinstance(t, Succ):
            n += 1
            t = t.arg
        return eval_term(t) + n
    if isinstance(t, Plus):
        return eval_term(t.left) + eval_term(t.right)
    if isinstance(t, Times):
        return eval_term(t.left) * eval_term(t.right)
    if isinstance(t, Exp):
        return _pow2(eval_term(t.arg))
    if isinstance(t, Var):
        raise NotInFragmentError("open term: %s" % t.name)
    raise TypeError("not a term: %r" % (t,))


def _atom_truth(pred, values, structure):
    if pred == "=":
        return values[0] == values[1]
    if pred == "<=":
        return values[0] <= values[1]
    return structure.holds(pred, values)


def direct_eval(f, structure):
    """Plain recursive truth over the standard model; the oracle.  It
    instantiates a bounded quantifier by subst, one numeral at a time, and
    charges each quantifier it visits its top + 1 instances against
    TRUTH_CAP before expanding it.  Nothing is memoized, so a sentence that
    repeats a subsentence can be refused here though tr_eval answers it."""
    _require_delta0_sentence(f)
    return _direct(f, structure, [TRUTH_CAP])


def _direct(f, structure, left):
    if isinstance(f, Atom):
        return _atom_truth(f.pred, [eval_term(t) for t in f.terms], structure)
    if isinstance(f, NegAtom):
        return not _atom_truth(f.pred, [eval_term(t) for t in f.terms], structure)
    if isinstance(f, AndF):
        return _direct(f.left, structure, left) and _direct(f.right, structure, left)
    if isinstance(f, OrF):
        return _direct(f.left, structure, left) or _direct(f.right, structure, left)
    if isinstance(f, (BoundedAll, BoundedEx)):
        top = eval_term(f.bound)
        _charge(left, top)
        bits = (_direct(subst(f.body, f.var, n), structure, left) for n in _numerals(top))
        return all(bits) if isinstance(f, BoundedAll) else any(bits)
    raise NotInFragmentError("unbounded quantifier in a bounded-only context")


# ------------------------------------------------------ partial evaluations


class PartialEvaluation:
    """Finite assignment: closed terms to numbers, bounded sentences to bits."""

    def __init__(self, term_map=None, sent_map=None):
        self.term_map = dict(term_map or {})
        self.sent_map = dict(sent_map or {})

    def __len__(self):
        return len(self.term_map) + len(self.sent_map)

    def copy(self):
        return PartialEvaluation(self.term_map, self.sent_map)


class FailedClause:
    """Falsy diagnostic: which local-correctness clause broke, and where."""

    __slots__ = ("clause", "witness")

    def __init__(self, clause, witness):
        self.clause = clause
        self.witness = witness

    def __bool__(self):
        return False

    def __repr__(self):
        return "FailedClause(%d, %r)" % (self.clause, self.witness)


def is_evaluation(s, structure):
    """True, or the first failing clause of the thirteen, with a witness.

    Clauses, in order: (1) the domain holds closed terms and bounded
    sentences only; (2) sentence values are bits; (3) term values are
    naturals; (4) zero maps to 0; (5)-(8) successor, sum, product and
    exponential agree with the values of their immediate subterms, which must
    be present; (9) atoms and negated atoms agree with the structure applied
    to their arguments' values; (10)-(11) conjunction/disjunction agree with
    their parts; (12)-(13) a bounded quantifier requires its bound term and
    every instance up to the bound's value, and agrees with them.
    """
    tm, sm = s.term_map, s.sent_map

    for t in tm:
        if not isinstance(t, ArithTerm) or t.fv:
            return FailedClause(1, t)
    for f in sm:
        if not isinstance(f, TaitFormula) or f.fv or not is_delta0(f):
            return FailedClause(1, f)
    for f, v in sm.items():
        if v not in (0, 1):
            return FailedClause(2, f)
    for t, v in tm.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return FailedClause(3, t)
    if ZERO_T in tm and tm[ZERO_T] != 0:
        return FailedClause(4, ZERO_T)
    for t, v in tm.items():
        if isinstance(t, Succ):
            if t.arg not in tm or v != tm[t.arg] + 1:
                return FailedClause(5, t)
    for t, v in tm.items():
        if isinstance(t, Plus):
            if (
                t.left not in tm
                or t.right not in tm
                or v != tm[t.left] + tm[t.right]
            ):
                return FailedClause(6, t)
    for t, v in tm.items():
        if isinstance(t, Times):
            if (
                t.left not in tm
                or t.right not in tm
                or v != tm[t.left] * tm[t.right]
            ):
                return FailedClause(7, t)
    for t, v in tm.items():
        if isinstance(t, Exp):
            if t.arg not in tm or v != 2 ** tm[t.arg]:
                return FailedClause(8, t)
    for f, v in sm.items():
        if isinstance(f, (Atom, NegAtom)):
            if any(t not in tm for t in f.terms):
                return FailedClause(9, f)
            truth = _atom_truth(f.pred, [tm[t] for t in f.terms], structure)
            if isinstance(f, NegAtom):
                truth = not truth
            if (v == 1) != truth:
                return FailedClause(9, f)
    for f, v in sm.items():
        if isinstance(f, AndF):
            if f.left not in sm or f.right not in sm:
                return FailedClause(10, f)
            if (v == 1) != (sm[f.left] == 1 and sm[f.right] == 1):
                return FailedClause(10, f)
    for f, v in sm.items():
        if isinstance(f, OrF):
            if f.left not in sm or f.right not in sm:
                return FailedClause(11, f)
            if (v == 1) != (sm[f.left] == 1 or sm[f.right] == 1):
                return FailedClause(11, f)
    for f, v in sm.items():
        if isinstance(f, (BoundedAll, BoundedEx)):
            clause = 12 if isinstance(f, BoundedAll) else 13
            if f.bound not in tm:
                return FailedClause(clause, f)
            insts = []
            for inst in _instances(f, tm[f.bound]):
                if inst not in sm:
                    return FailedClause(clause, f)
                insts.append(sm[inst] == 1)
            want = all(insts) if isinstance(f, BoundedAll) else any(insts)
            if (v == 1) != want:
                return FailedClause(clause, f)
    return True


def build_evaluation(f, structure):
    """The least assignment whose domain covers the given sentence."""
    _require_delta0_sentence(f)
    out = PartialEvaluation()
    _build_sent(f, structure, out, [TRUTH_CAP])
    return out


def _build_term(t, out):
    tm = out.term_map
    # walk a run of successors iteratively, down to a known or other node
    run = []
    while isinstance(t, Succ) and t not in tm:
        run.append(t)
        t = t.arg
    v = tm.get(t)
    if v is None:
        if isinstance(t, Zero):
            v = 0
        elif isinstance(t, Plus):
            v = _build_term(t.left, out) + _build_term(t.right, out)
        elif isinstance(t, Times):
            v = _build_term(t.left, out) * _build_term(t.right, out)
        elif isinstance(t, Exp):
            v = _pow2(_build_term(t.arg, out))
        else:
            raise NotInFragmentError("open term in a sentence: %r" % (t,))
        tm[t] = v
    for s in reversed(run):
        v += 1
        tm[s] = v
    return v


def _build_sent(f, structure, out, left):
    """`left` holds the number of quantifier instances still allowed."""
    hit = out.sent_map.get(f)
    if hit is not None:
        return hit
    if isinstance(f, (Atom, NegAtom)):
        values = [_build_term(t, out) for t in f.terms]
        truth = _atom_truth(f.pred, values, structure)
        if isinstance(f, NegAtom):
            truth = not truth
        v = 1 if truth else 0
    elif isinstance(f, (AndF, OrF)):
        a = _build_sent(f.left, structure, out, left)
        b = _build_sent(f.right, structure, out, left)
        v = a & b if isinstance(f, AndF) else a | b
    elif isinstance(f, (BoundedAll, BoundedEx)):
        top = _build_term(f.bound, out)
        _charge(left, top)
        bits = [_build_sent(g, structure, out, left) for g in _instances(f, top)]
        if isinstance(f, BoundedAll):
            v = 1 if all(b == 1 for b in bits) else 0
        else:
            v = 1 if any(b == 1 for b in bits) else 0
    else:
        raise NotInFragmentError("unbounded quantifier in a bounded-only context")
    out.sent_map[f] = v
    return v


def tr_eval(f, structure):
    """Truth via the constructed assignment.  Any locally correct assignment
    containing the sentence gives the same bit, so the one we build decides."""
    s = build_evaluation(f, structure)
    return s.sent_map[f] == 1


# ------------------------------------------------------------ syntactic layer


def de_morgan_negate(f):
    """Negation pushed to the atoms; an involution."""
    if isinstance(f, Atom):
        return NegAtom(f.pred, f.terms)
    if isinstance(f, NegAtom):
        return Atom(f.pred, f.terms)
    if isinstance(f, AndF):
        return OrF(de_morgan_negate(f.left), de_morgan_negate(f.right))
    if isinstance(f, OrF):
        return AndF(de_morgan_negate(f.left), de_morgan_negate(f.right))
    if isinstance(f, BoundedAll):
        return BoundedEx(f.var, f.bound, de_morgan_negate(f.body))
    if isinstance(f, BoundedEx):
        return BoundedAll(f.var, f.bound, de_morgan_negate(f.body))
    if isinstance(f, All):
        return Ex(f.var, de_morgan_negate(f.body))
    if isinstance(f, Ex):
        return All(f.var, de_morgan_negate(f.body))
    raise TypeError("not a formula: %r" % (f,))


def classify(f):
    """Minimal class of a prenex formula: ("delta0", 0), ("pi", n) or
    ("sigma", n).  Unbounded quantifiers under a connective or a bounded
    quantifier have no class here and raise NotInFragmentError.
    """
    kinds = []
    while isinstance(f, (All, Ex)):
        k = "pi" if isinstance(f, All) else "sigma"
        if not kinds or kinds[-1] != k:
            kinds.append(k)
        f = f.body
    if not is_delta0(f):
        raise NotInFragmentError("formula is not in prenex form")
    if not kinds:
        return ("delta0", 0)
    return (kinds[0], len(kinds))


# ------------------------------------------------------------- text syntax
#
# formula := disj ;  disj := conj ('|' conj)* ;  conj := unit ('&' unit)*
# unit    := ('all' | 'ex') VAR ['<=' term] '.' unit-level formula
#          | 'neg' atom | '(' formula ')' | atom
# atom    := PRED '(' term {',' term} ')' | term ('=' | '<=') term
# term    := sum of products of: 0, NAT, VAR, 'S(t)', 'exp(t)', '(' term ')'
#
# A leading '(' at the unit level always opens a formula, so comparisons must
# start with an unparenthesized term.

_RESERVED = frozenset(("all", "ex", "neg", "S", "exp"))
_CALL = re.compile(r"\s*\(")  # a predicate's "(" after its name


class _TruthParser(Scanner):
    """Recursive descent over the truth syntax.

    height is the number of levels of the construct parsed last, below the
    depth open around it.  A chain builds a left-nested tree, so each link
    puts one more level above everything before it in the chain; link counts
    it, and refuses the chain once it passes MAX_NESTING.
    """

    TOKEN = re.compile(r"\s*(<=|\d+|[A-Za-z_][A-Za-z0-9_]*|[()+*,.=&|~])")
    STRAY = re.compile(r"[^\s\dA-Za-z_()+*,.=&|~<]|<(?!=)")  # "<" only in "<="

    def close(self, tok=None):
        super().close(tok)
        self.height += 1

    def link(self, left):
        """Count a link over a left part of height left and the part just parsed."""
        self.height = max(left, self.height) + 1
        self.fit(self.height)

    def formula(self):
        f = self.conj()
        while self.peek() == "|":
            left = self.height
            self.next()
            f = OrF(f, self.conj())
            self.link(left)
        return f

    def conj(self):
        f = self.unit()
        while self.peek() == "&":
            left = self.height
            self.next()
            f = AndF(f, self.unit())
            self.link(left)
        return f

    def unit(self):
        tok = self.peek()
        if tok in ("all", "ex"):
            self.open(tok)
            var = self.ident()
            bound = None
            if self.peek() == "<=":
                self.next()
                bound = self.term()
            below = self.height if bound is not None else 0
            self.expect(".")
            body = self.formula()
            self.height = max(below, self.height)
            self.close()
            if tok == "all":
                return All(var, body) if bound is None else BoundedAll(var, bound, body)
            return Ex(var, body) if bound is None else BoundedEx(var, bound, body)
        if tok in ("neg", "~"):
            self.open(tok)
            a = self.unit()
            if not isinstance(a, Atom):
                raise ParseError("negation applies to atoms only", self.pos())
            self.close()
            return NegAtom(a.pred, a.terms)
        if tok == "(":
            self.open("(")
            f = self.formula()
            self.close(")")
            return f
        return self.atom()

    def ident(self):
        tok = self.next()
        if not tok.isidentifier() or tok in _RESERVED:
            raise ParseError("expected a name", self.pos())
        return tok

    def atom(self):
        # predicate application, or a comparison between two terms
        tok = self.peek()
        if tok and tok.isidentifier() and tok not in _RESERVED and _CALL.match(self.text, self.end):
            self.next()
            self.open("(")
            terms = [self.term()]
            below = self.height
            while self.peek() == ",":
                self.next()
                terms.append(self.term())
                below = max(below, self.height)
            self.height = below
            self.close(")")
            return Atom(tok, terms)
        left = self.term()
        below = self.height
        op = self.next()
        if op not in ("=", "<="):
            raise ParseError("expected '=' or '<='", self.pos())
        right = self.term()
        self.height = max(below, self.height)
        return Atom(op, (left, right))

    def term(self):
        t = self.factor()
        while self.peek() == "+":
            left = self.height
            self.next()
            t = Plus(t, self.factor())
            self.link(left)
        return t

    def factor(self):
        t = self.prim()
        while self.peek() == "*":
            left = self.height
            self.next()
            t = Times(t, self.prim())
            self.link(left)
        return t

    def prim(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.height = 0
        if tok.isdigit():
            n = self.literal(TRUTH_CAP)
            if n is None:
                raise BudgetExceededError(
                    "numeral %s... is above the truth budget of %d" % (tok[:12], TRUTH_CAP)
                )
            return numeral(n)
        if tok in ("S", "exp", "("):
            if tok != "(":
                self.next()
            self.open("(")
            t = self.term()
            self.close(")")
            return Exp(t) if tok == "exp" else Succ(t) if tok == "S" else t
        if tok.isidentifier():
            self.next()
            return Var(tok)
        raise ParseError("expected a term", self.pos())


def parse_truth_formula(text):
    return _TruthParser(text).whole(_TruthParser.formula)


def parse_truth_term(text):
    return _TruthParser(text).whole(_TruthParser.term)


def render_term(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, (Zero, Succ)):
        return "S(%s)" % render_term(t.arg) if t.value is None else str(t.value)
    if isinstance(t, Exp):
        return "exp(%s)" % render_term(t.arg)
    if isinstance(t, Plus):
        return "%s+%s" % (render_term(t.left), _paren_factor(t.right, True))
    if isinstance(t, Times):
        return "%s*%s" % (_paren_factor(t.left, False), _paren_factor(t.right, False))
    raise TypeError("not a term: %r" % (t,))


def _paren_factor(t, in_sum):
    s = render_term(t)
    if isinstance(t, Plus):
        return "(%s)" % s
    if isinstance(t, Times) and not in_sum:
        return "(%s)" % s
    return s


def render_formula(f):
    if isinstance(f, Atom):
        if f.pred in ("=", "<="):
            return "%s %s %s" % (render_term(f.terms[0]), f.pred, render_term(f.terms[1]))
        return "%s(%s)" % (f.pred, ", ".join(render_term(t) for t in f.terms))
    if isinstance(f, NegAtom):
        return "neg %s" % render_formula(Atom(f.pred, f.terms))
    if isinstance(f, AndF):
        # the parser is left-associative, so a nested right And needs parens
        return "%s & %s" % (_paren(f.left, (OrF,) + _QUANTIFIED),
                            _paren(f.right, (AndF, OrF) + _QUANTIFIED))
    if isinstance(f, OrF):
        return "%s | %s" % (_paren(f.left, _QUANTIFIED), _paren(f.right, (OrF,) + _QUANTIFIED))
    if isinstance(f, BoundedAll):
        return "all %s <= %s . %s" % (f.var, render_term(f.bound), render_formula(f.body))
    if isinstance(f, BoundedEx):
        return "ex %s <= %s . %s" % (f.var, render_term(f.bound), render_formula(f.body))
    if isinstance(f, All):
        return "all %s . %s" % (f.var, render_formula(f.body))
    if isinstance(f, Ex):
        return "ex %s . %s" % (f.var, render_formula(f.body))
    raise TypeError("not a formula: %r" % (f,))


_QUANTIFIED = (BoundedAll, BoundedEx, All, Ex)


def _paren(f, kinds):
    """The text of f, in parentheses when f is one of kinds."""
    s = render_formula(f)
    return "(%s)" % s if isinstance(f, kinds) else s
