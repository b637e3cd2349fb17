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
a bounded quantifier's instances from its plan (_instances), the one builder
of instance sentences.  The plans are made once per quantifier of the parsed
sentence and stored on the quantifier nodes, so is_evaluation reuses those
build_evaluation made.  direct_eval builds no instance: it evaluates a
quantifier's body under an assignment of numbers to variables, as Tarski's
satisfaction clause does, independently of the plans.
"""

from .errors import BudgetExceededError, NotInFragmentError, ParseError
from .hashcons import Node
from .syntax import Scanner

from functools import reduce
import itertools
import json
import re
from types import MappingProxyType


# ------------------------------------------------------------ node caches
#
# Terms and formulas are hash-consed (hashcons.Node); each node's _fill()
# sets `fv`, the frozenset of the variables free in it, when it is built;
# Zero and Succ also set `value`: the number of a numeral, or None.  A
# formula's _fill() sets `bounded`: whether every quantifier in it is bounded.

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


def _fill_literal(node):
    node.fv = reduce(_union, (t.fv for t in node.terms), _NO_VARS)
    node.bounded = True


def _fill_connective(node):
    _fill_pair(node)
    node.bounded = node.left.bounded and node.right.bounded


def _fill_bounded(node):
    node.fv = _union(node.bound.fv, _bind(node.body.fv, node.var))
    node.bounded = node.body.bounded
    node.plan = None


def _fill_unbounded(node):
    node.fv = _bind(node.body.fv, node.var)
    node.bounded = False


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
    __slots__ = ("fv", "bounded")

    def __repr__(self):
        return render_formula(self)


class Atom(TaitFormula):
    """pred applied to terms; "=" and "<=" are the built-in predicates."""

    __slots__ = ("pred", "terms")
    __new__ = _new_literal
    _fill = _fill_literal


class NegAtom(TaitFormula):
    __slots__ = ("pred", "terms")
    __new__ = _new_literal
    _fill = _fill_literal


class AndF(TaitFormula):
    __slots__ = ("left", "right")
    _fill = _fill_connective


class OrF(TaitFormula):
    __slots__ = ("left", "right")
    _fill = _fill_connective


class _Bounded(TaitFormula):
    """A bounded quantifier.  `plan` caches the plan its instances are built
    by (_instances), or is None until one is needed."""

    __slots__ = ("plan",)


class BoundedAll(_Bounded):
    __slots__ = ("var", "bound", "body")
    _fill = _fill_bounded


class BoundedEx(_Bounded):
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


def free_vars(node):
    """The variables free in a term or formula, as a new set."""
    return set(node.fv)


def _pack(*terms):
    return terms


def _plan(q, scope=_NO_VARS):
    """The plan of bounded quantifier q: (steps, subs, ins).  scope holds the
    variables of the quantifiers whose plans q's plan is nested in.  With
    scope not empty, the plan is None if a node it would rebuild binds a
    variable of scope, or q's own, again: a node such as P(x) may then sit
    both under and outside the re-binding.

    The steps rebuild, in post-order, the nodes of q's body in which q's
    variable x is free.  An instance fills a list `built` of slots: first one
    node for each node of ins, then the numeral put for x, then the node of
    each step.  A step (cls, args, holes) builds cls(*args) once each of its
    holes (i, j) has put slot j in args[i]; the other args are the node's own
    fields.  An atom's terms tuple is a step of its own, of class _pack.

    ins lists the args of steps and subs in which a variable of scope is
    free, so the plan serves every quantifier that puts numerals for scope's
    variables in q: the first slots of its instances hold its own versions
    of ins.  A step may build a quantifier over a variable free in its body
    whose other free variables are x and those of scope, so that an instance
    closes it.  Its plan is made here, once, with x added to scope: subs
    holds (k, steps, subs, pick) for it, and the quantifier built by step k
    gets (steps, subs, [built[j] for j in pick]) as its plan."""
    var = q.var
    inner = scope | {var}
    steps, subs, ins = [], [], []
    slots = {Var(var): 0}

    def slot(node):  # the e-th node of ins has slot ~e until the walk ends
        j = slots.get(node)
        if j is None:
            j = slots[node] = ~len(ins)
            ins.append(node)
        return j

    todo = [(q.body, None, None, None)]
    while todo:
        node, cls, args, holes = todo.pop()
        if holes is not None:  # every live field has its slot now
            steps.append((cls, args, [(i, slot(args[i])) for i in holes]))
            k = slots[node] = len(steps)
            if (isinstance(node, _Bounded) and node.var in node.body.fv
                    and node.fv <= inner):
                sub = _plan(node, inner)
                if sub is not None:
                    subs.append((k, sub[0], sub[1], [slot(a) for a in sub[2]]))
        elif node not in slots:
            if isinstance(node, tuple):
                cls, args = _pack, list(node)
            else:
                cls = type(node)
                args = [getattr(node, name) for name in cls.__slots__]
            binder = getattr(node, "var", None)
            if scope and binder in inner:
                return None
            # an atom's terms are live with it; a quantifier over var binds
            # var in its body, the last field
            end = len(args) - 1 if binder == var else len(args)
            live = [i for i in range(end) if isinstance(args[i], tuple)
                    or isinstance(args[i], Node) and var in args[i].fv]
            # a field in which a variable of scope is free comes from ins
            holes = live + [i for i, a in enumerate(args) if i not in live
                            and isinstance(a, Node) and not scope.isdisjoint(a.fv)]
            todo.append((node, cls, args, holes))
            todo.extend((args[i], None, None, None) for i in live)
    if ins:  # ins take the first slots
        n = len(ins)
        steps = [(cls, args, [(i, j + n if j >= 0 else ~j) for i, j in holes])
                 for cls, args, holes in steps]
        subs = [(k + n, s, u, [j + n if j >= 0 else ~j for j in pick])
                for k, s, u, pick in subs]
    return steps, subs, ins


def _instances(f, top):
    """The body of bounded quantifier f at x = 0, 1, ..., top, each built only
    when it is asked for, so that a budget refusal inside one instance comes
    before the next is built.  An instance rebuilds the nodes in which x is
    free, one constructor call each, by the steps of f's plan; every other
    node is shared with the body.  The plan of a quantifier in the sentence
    as parsed is made once (_plan) and stored on it, with the plans of the
    quantifiers nested in it; a quantifier an instance builds takes its plan
    from those, unless it re-binds a variable, and walks no body again."""
    if f.var not in f.body.fv:
        yield from itertools.repeat(f.body, top + 1)
        return
    if f.plan is None:
        f.plan = _plan(f)
    steps, subs, vals = f.plan
    for n in _numerals(top):
        built = vals + [n]
        for cls, args, holes in steps:
            for i, k in holes:
                args[i] = built[k]
            built.append(cls(*args))
        for k, sub_steps, sub_subs, pick in subs:
            node = built[k]
            if node.plan is None:
                node.plan = (sub_steps, sub_subs, [built[j] for j in pick])
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
    if not isinstance(f, TaitFormula) or not f.bounded:
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


def eval_term(t, env=MappingProxyType({})):
    """The value of t, reading each variable's value from env, a mapping from
    names to naturals; a variable env lacks is refused."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        # iterate down a run of successors: numerals can be deep
        n = 0
        while isinstance(t, Succ):
            n += 1
            t = t.arg
        return eval_term(t, env) + n
    if isinstance(t, Plus):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, Times):
        return eval_term(t.left, env) * eval_term(t.right, env)
    if isinstance(t, Exp):
        return _pow2(eval_term(t.arg, env))
    if isinstance(t, Var):
        n = env.get(t.name)
        if n is None:
            raise NotInFragmentError("open term: %s" % t.name)
        return n
    raise TypeError("not a term: %r" % (t,))


def _atom_truth(pred, values, structure):
    if pred == "=":
        return values[0] == values[1]
    if pred == "<=":
        return values[0] <= values[1]
    return structure.holds(pred, values)


def direct_eval(f, structure):
    """Plain recursive truth over the standard model; the oracle.  Like
    Tarski's satisfaction clause, it evaluates a bounded quantifier's body
    under the assignment extended by x = 0, 1, ..., top in turn, and builds
    no instance sentence.  It charges each quantifier it visits its top + 1
    instances against TRUTH_CAP before evaluating them.  Nothing is
    memoized, so a sentence that repeats a subsentence can be refused here
    though tr_eval answers it."""
    _require_delta0_sentence(f)
    return _direct(f, structure, [TRUTH_CAP], {})


def _direct(f, structure, left, env):
    """The truth of f under env, which assigns every variable free in f."""
    if isinstance(f, Atom):
        return _atom_truth(f.pred, [eval_term(t, env) for t in f.terms], structure)
    if isinstance(f, NegAtom):
        return not _atom_truth(f.pred, [eval_term(t, env) for t in f.terms], structure)
    if isinstance(f, AndF):
        return _direct(f.left, structure, left, env) and _direct(f.right, structure, left, env)
    if isinstance(f, OrF):
        return _direct(f.left, structure, left, env) or _direct(f.right, structure, left, env)
    # a bounded quantifier, since f is in the bounded fragment
    top = eval_term(f.bound, env)
    _charge(left, top)
    var, body = f.var, f.body
    bits = (_direct(body, structure, left, {**env, var: n}) for n in range(top + 1))
    return all(bits) if isinstance(f, BoundedAll) else any(bits)


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
        if not isinstance(f, TaitFormula) or f.fv or not f.bounded:
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
    else:  # a bounded quantifier, since f is in the bounded fragment
        top = _build_term(f.bound, out)
        _charge(left, top)
        bits = [_build_sent(g, structure, out, left) for g in _instances(f, top)]
        if isinstance(f, BoundedAll):
            v = 1 if all(b == 1 for b in bits) else 0
        else:
            v = 1 if any(b == 1 for b in bits) else 0
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
    if not isinstance(f, TaitFormula) or not f.bounded:
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
