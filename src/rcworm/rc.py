"""Strictly positive modal formulas over transfinite modalities.

Formulas are hash-consed (hashcons), so equal formulas are one object and
equality is identity.  normalize sorts the conjuncts of a conjunction with
`<` (RcFormula), where indices compare in ordinal order, the only order that
derivability depends on (derives); Godel codes are for output alone.

Derivability between conjunctive diamond formulas is decided on a finite
tree model: the syntax tree of the left formula gives one node per diamond
occurrence, and the accessibility relations are the least ones over it closed
under

  * downward closure   x R_a y and b < a          =>  x R_b y
  * transitivity       x R_a y and y R_a z        =>  x R_a z
  * the pairing law    x R_a y and x R_b z, b < a =>  y R_b z   (y = z allowed)

The distinct indices of the left formula are ranked 1..k in ordinal order,
and any other index falls in a gap between two ranks (derives states why
nothing is lost); each node keeps its parent and the rank of the diamond that
seeded it.  The closed relation is a function of that tree alone (_holds
proves the closed form), so it is never built: the right formula is
model-checked at the root by two passes over the tree per diamond, one
bottom-up and one top-down, over per-node flags; between diamonds a node set
is an int, so a conjunction is one `&`.

proof_search reads a certificate over the primitive rules off the same tree,
which gives the rule behind each edge of the closure (_Extractor); it
returns None exactly when the sequent is not derivable, and check_derivation
checks a certificate on its own.  word_normal_form reads the worm of a
variable-free formula off worm order types alone, with no model.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, floor

from .errors import BudgetExceededError, NotVariableFreeError
from .hashcons import Node
from .ordinal import compare, ranks
from .worm import Worm, compare_at, order_type


# ---------------------------------------------------------------- formulas


class RcFormula(Node):
    """A hash-consed formula (see hashcons), so equal formulas are one object.

    Formulas are ordered by `<`, which compares their shallow `key`s: (0,)
    for T, (1, name) for a variable, (2, index, body) for a diamond and
    (3, *conjuncts) for a conjunction.  The index is the interned notation
    itself, which compares in ordinal order, so no Godel code is ever
    computed.  A key holds its subformulas, not their keys, so `<` walks a
    run of diamonds with equal indices in a loop and recurses only through
    conjunctions.
    """

    __slots__ = ("key",)

    def __lt__(self, other):
        while self.__class__ is Diam and other.__class__ is Diam and self.index is other.index:
            self, other = self.body, other.body
        return self.key < other.key


class _Top(RcFormula):
    __slots__ = ()

    def _fill(self):
        self.key = (0,)

    def __repr__(self):
        return "TOP"


TOP = _Top()


class Var(RcFormula):
    __slots__ = ("name",)

    def _fill(self):
        self.key = (1, self.name)


class And(RcFormula):
    """Flattened conjunction; never empty, never contains TOP or a nested And."""

    __slots__ = ("conjuncts",)

    def __new__(cls, conjuncts):
        conjuncts = tuple(conjuncts)
        if not conjuncts:
            raise ValueError("empty conjunction; use TOP")
        return Node.__new__(cls, conjuncts)

    def _fill(self):
        self.key = (3, *self.conjuncts)


class Diam(RcFormula):
    __slots__ = ("index", "body")

    def _fill(self):
        self.key = (2, self.index, self.body)


def conj(parts):
    """Conjunction constructor: flattens, drops TOP, unwraps singletons."""
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.conjuncts)
        elif not isinstance(p, _Top):
            flat.append(p)
    if len(flat) > 1:
        return And(flat)
    return flat[0] if flat else TOP


def worm_formula(w):
    """The worm as a formula: letters become nested diamonds over TOP."""
    f = TOP
    for letter in reversed(w.letters):
        f = Diam(letter, f)
    return f


def _postorder(f):
    """Each distinct subformula of f once, after its parts, as a list (explicit
    stack; a 1-tuple on the stack marks where its node is finished)."""
    seen, out, todo = set(), [], [f]
    while todo:
        g = todo.pop()
        cls = g.__class__
        if cls is tuple:
            out.append(g[0])
        elif g not in seen:
            seen.add(g)
            todo.append((g,))
            if cls is Diam:
                todo.append(g.body)
            elif cls is And:
                todo += g.conjuncts
    return out


def normalize(f):
    """Set-semantics normal form: conjunctions flattened, deduplicated and
    sorted by key, so formulas that differ only in conjunct order and
    repeats normalize to one object.

    One post-order pass (_postorder) normalizes each distinct subformula
    once, after its parts.  Equal conjuncts are one object, so siblings
    dedupe by identity.
    """
    done = {}
    for g in _postorder(f):
        if isinstance(g, Diam):
            done[g] = Diam(g.index, done[g.body])
        elif isinstance(g, And):
            flat = dict.fromkeys(p for c in g.conjuncts for p in _parts(done[c]))
            done[g] = conj(sorted(flat))
        else:
            done[g] = g
    return done[f]


def build_q(beta, k, f):
    """Iterated reflection tower: q(0) = f, q(k+1) = <beta>(f & q(k)).  A
    tower whose text would pass Q_CHARS is refused before any node is built."""
    from .syntax import render

    part = len(render(f)) + 2 * isinstance(f, And)  # f's text as a conjunct
    if k and k * (len(render(beta)) + part + 7) + part > Q_CHARS:
        raise BudgetExceededError("rc q text passes %d characters (Q_CHARS)" % Q_CHARS)
    out = f
    for _ in range(k):
        out = Diam(beta, And((f, out)))
    return out


# ---------------------------------------------------------------- the model


class RcModel:
    """Finite tree frame over the ranked indices of the left formula.

    Its distinct indices are ranked 1..k in ordinal order, and strengths[r]
    is the top index an edge of rank r admits ([0] unused); rank_of(a) is
    a's rank, or the half rank of the gap an unranked a falls in.  The tree
    is the only edge store: parent[y] is y's parent in _seed's preorder (-1
    at the root) and seed[y] the rank of the diamond that seeded y (0 at the
    root).  The closed relation is a function of the tree (_holds); `admits`
    reads one entry of it and `edges` all of them.
    """

    __slots__ = ("labels", "parent", "seed", "rank", "strengths")

    def __init__(self, labels, parent, seed, rank):
        self.labels = labels    # list of frozensets of variable names
        self.parent = parent    # node -> its parent, -1 at the root
        self.seed = seed        # node -> the rank of its seeding diamond, 0 at the root
        self.rank = rank        # ranked index -> its rank, 1..k
        self.strengths = [None] * (len(rank) + 1)
        for a, r in rank.items():
            self.strengths[r] = a

    def rank_of(self, a):
        """a's rank, or i + 1/2 when a is not ranked and i ranked indices lie below it (derives)."""
        return self.rank.get(a) or bisect_left(self.strengths, a, 1) - 0.5

    @property
    def edges(self):
        """The closed relation as dict rows, node -> {node: edge rank}.  Row
        y is the tree row T_y (the least seed rank on the path down to each
        proper descendant) raised to min(seed[y] - 1, row(parent[y]))."""
        parent, seed = self.parent, self.seed
        rows = [{} for _ in self.labels]
        for c in range(len(rows) - 1, 0, -1):
            row, s = rows[parent[c]], seed[c]
            row[c] = s
            for z, v in rows[c].items():
                row[z] = min(s, v)
        for y in range(1, len(rows)):
            cap = seed[y] - 1
            row = {z: min(cap, v) for z, v in rows[parent[y]].items()} if cap else {}
            for z, v in rows[y].items():
                if v > row.get(z, 0):
                    row[z] = v
            rows[y] = row
        return rows

    def admits(self, x, r, y):
        """Whether the edge x -> y has rank (or half rank) r or more: y is in Q_r(x) (_holds)."""
        parent, seed = self.parent, self.seed
        while x and seed[x] > r:  # climb to top_r(x)
            x = parent[x]
        z = y
        while z > x and seed[z] >= r:
            z = parent[z]
        return z == x != y


def _parts(f):
    return f.conjuncts if isinstance(f, And) else () if f is TOP else (f,)


def build_minimal_model(f):
    """Tree model of f (_seed), over the distinct indices of f in ordinal order."""
    return _model(*_seed(f))


def _model(labels, tree):
    """The model of a seeding walk's (labels, tree)."""
    rank = ranks([d.index for _, _, d in tree])
    return RcModel(labels, [-1] + [x for x, _, _ in tree],
                   [0] + [rank[d.index] for _, _, d in tree], rank)


def _seed(f):
    """The seeding walk: (labels, tree), where labels[x] is the set of
    variables at node x and tree lists the (parent, child, diamond) edges.

    A diamond equal to a sibling already seeded at the same node adds no
    node, so duplicate conjuncts cost nothing; conjunct order does not change
    the closure.  Nodes are numbered in preorder, from an explicit stack, so
    tree[i] seeds node i + 1.
    """
    labels = [set()]
    seeded = [set()]  # node -> the diamonds seeded under it
    tree = []
    todo = [(0, iter(_parts(f)))]
    while todo:
        node, rest = todo[-1]
        p = next(rest, None)
        if p is None:
            todo.pop()
        elif isinstance(p, Var):
            labels[node].add(p.name)
        elif isinstance(p, Diam) and p not in seeded[node]:
            seeded[node].add(p)
            tree.append((node, len(labels), p))
            todo.append((len(labels), iter(_parts(p.body))))
            labels.append(set())
            seeded.append(set())
        elif isinstance(p, And):
            todo.append((node, iter(p.conjuncts)))  # nested And from un-normalized input
    return [frozenset(s) for s in labels], tree


def model_check(model, node, f):
    """Whether f holds at `node` of the model (_holds)."""
    return bool(_holds(model, f)[f] >> node & 1)


def _holds(model, f):
    """Each distinct subformula of f -> the nodes where it holds, as an int
    with bit x set for node x.

    Each subformula (one interned object) is evaluated once, after its parts
    (_postorder): TOP holds everywhere, a variable where it labels the node,
    a conjunction where every conjunct holds, and <a>B at y when some edge
    y -> z of the least closure R of the seeds admits a and B holds at z.

    R is read off the tree.  For a rank r, call the edge into c r-high when
    seed[c] >= r.  Let top_r(y) be where climbing from y over (r+1)-high
    edges stops, and D_r(u) the proper descendants of u on r-high paths.
    Lemma: R admits r on (y, z) exactly when z is in Q_r(y) = D_r(top_r(y)).
    Proof.  Q holds the seeds: c is in D_r(parent c) for r = seed[c], and
    D_r(y) lies in Q_r(y), as y is top_r(y) or in D_r(top_r(y)).  Q is in R:
    an r-high path is a chain of seeds of rank >= r, so u R_r z for z in
    D_r(u) by transitivity; for u = top_r(y) != y also u R_(r+1) y, and
    pairing gives y R_r z.  Q obeys the frame conditions.  Let t = top_r(y);
    the climb from y stops there, so t is the root or seed[t] <= r.
      * downward: top_(r-1)(y) is t or above it, reached over r-high edges,
        so Q_r(y) lies in D_(r-1)(t), inside Q_(r-1)(y).
      * transitivity: for z in D_r(t), the climb from z runs up the r-high
        path from t and stops at t or at a node v of D_r(t), so Q_r(z), which
        is D_r(t) or D_r(v), lies in Q_r(y).
      * pairing: for z in Q_(r+1)(y) = D_(r+1)(t'), t' is on y's climb to t,
        and the climb from z runs up to t', then on to t: Q_r(z) = Q_r(y).
        (Pairing across a gap of ranks follows by the downward law.)
    So Q is a closed relation inside R that holds the seeds, and Q = R.

    Hence <a>B, r = rank_of(a), holds at y iff D_r(top_r(y)) meets B.  The
    bottom-up pass marks each u where D_r(u) meets B: u has an r-high child
    where B holds or which is marked.  A mark passes up every r-high edge,
    so a climb meets a mark iff it ends at one, and the top-down pass copies
    the answer at a parent down each (r+1)-high edge.  As both compare seed
    ranks with r by >= and > alone, the half rank of a gap is exact (derives).

    The passes run over flags: bin(B | 1 << n) has one ASCII digit per node,
    node x at index ~x.  Marking or-s 2 into a digit, so one bytearray holds
    B and the marks, and _MARKS reads the marks back as digits for int().
    """
    parent, seed, rank, labels = model.parent, model.seed, model.rank, model.labels
    n = len(labels)
    top = 1 << n
    high = {}  # m -> the (child, parent) flag indices of edges of seed rank >= m, deepest first
    memo = {}
    for g in _postorder(f):
        cls = g.__class__
        if cls is Diam:
            r = rank.get(g.index) or model.rank_of(g.index)
            hit, m = memo[g.body], ceil(r)  # the r-high edges
            up = high.get(m)
            if up is None:
                up = high[m] = [(~c, ~parent[c]) for c in range(n - 1, 0, -1) if seed[c] >= m]
            if hit and up:
                m = floor(r) + 1  # the (r+1)-high edges: seed rank > r
                down = high.get(m)
                if down is None:
                    down = high[m] = [(~c, ~parent[c]) for c in range(n - 1, 0, -1) if seed[c] >= m]
                flags = bytearray(bin(hit | top).encode())
                for c, p in up:  # bottom-up: c in B or marked, its digit not "0"
                    if flags[c] != 48:
                        flags[p] |= 2
                for c, p in reversed(down):  # top-down: p marked, "2" or "3"
                    if flags[p] > 49:
                        flags[c] |= 2
                hit = int(flags.translate(_MARKS), 0)
            else:
                hit = 0
        elif cls is And:
            hit = memo[g.conjuncts[0]]
            for c in g.conjuncts[1:]:
                hit &= memo[c]
        elif cls is Var:
            hit = sum(1 << x for x, ls in enumerate(labels) if g.name in ls)
        else:
            hit = top - 1
        memo[g] = hit
    return memo


_MARKS = bytes.maketrans(b"123", b"011")  # marked "2", "3" -> "1"; "0b1..." -> "0b0..."


def derives(f, g):
    """True when f proves g: g holds at the root of the tree model of f.

    The model is closed over J, the distinct indices of f, ranked 1..k, not
    over all ordinals.  This loses nothing.  Lemma: let R be the least family
    of relations R_a, one per ordinal a, that holds the seeded edges and
    obeys the three frame conditions, and R' the least such family over a
    set J' that contains J.  Then R_j = R'_j for every j in J'.  Proof.  R
    restricted to J' obeys the conditions over J' and holds the seeds, so R'
    is inside it.  Conversely, extend R' to all ordinals: an a outside J'
    gets T_j, the least transitive relation containing R'_j that is also
    Euclidean (x T y and x T z give y T z), where j is the least element of
    J' above a (no such j: the empty relation).  For b < j in J' the
    relation {(x, y) : x R'_b y and R'_b(x) is inside R'_b(y)} contains R'_j
    (pairing), and is transitive and Euclidean, so it contains T_j.  That
    gives downward closure from a gap to b and pairing from a gap onto b;
    pairing onto a gap level follows from the Euclidean law, since every
    edge above the gap lies in R'_j, inside T_j.  So the extension obeys
    the conditions and holds the seeds; R lies inside it, and R_j in R'_j.

    With J' = J, the model is R on J.  An index a of g outside J, above i
    indices of J, has rank i + 1 over J' = J + {a}, whose tree is the same
    with each seed rank above i one more.  _holds compares seed ranks with r
    only by >= and >, so at the half rank i + 1/2 (rank_of) it answers by
    R_a, as that model does at i + 1.  So derivability depends only on the
    order of the indices (Dashkov, Math. Notes 91, 2012; Beklemishev,
    "Calibrating provability logic", AiML 9, 2012).
    """
    return model_check(build_minimal_model(f), 0, g)


# ------------------------------------------------------------- derivations


class Derivation:
    """Certificate tree over the primitive rules.

    rule is one of ax-refl, ax-top, ax-proj, ax-absorb, ax-lower, ax-pair,
    cut, and-intro, mono; conclusion is an (lhs, rhs) pair and premises a
    tuple of sub-derivations.  check_derivation validates every node.
    """

    __slots__ = ("rule", "conclusion", "premises")

    def __init__(self, rule, conclusion, premises=()):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = tuple(premises)

    def __repr__(self):
        return "Derivation(%s, %r)" % (self.rule, self.conclusion)

    def to_lines(self):
        """Serialize: one rule per line in post-order, premises referenced by
        line number, from an explicit stack.  Raises BudgetExceededError as
        soon as the text passes CERTIFICATE_CHARS."""
        from .syntax import render

        lines, refs, size = [], [], 0
        todo = [(self, False)]
        while todo:
            d, ready = todo.pop()
            if not ready:
                todo += [(d, True)] + [(p, False) for p in reversed(d.premises)]
                continue
            mine = refs[len(refs) - len(d.premises):]
            del refs[len(refs) - len(d.premises):]
            line = "%d: %s %s ; %s |- %s" % (len(lines), d.rule, ",".join(map(str, mine)) or "-",
                                              render(d.conclusion[0]), render(d.conclusion[1]))
            size += len(line) + 1
            if size > CERTIFICATE_CHARS:
                raise BudgetExceededError(
                    "certificate text passes %d characters (CERTIFICATE_CHARS)" % CERTIFICATE_CHARS)
            refs.append(len(lines))
            lines.append(line)
        return lines


def check_derivation(d):
    """Local validity of every step, in preorder from an explicit stack (a
    step that several premises share is checked once); raises ValueError on
    the first break."""
    todo, seen = [d], set()
    while todo:
        d = todo.pop()
        if id(d) not in seen:
            seen.add(id(d))
            if not _valid(d):
                raise ValueError("invalid %s step concluding %r" % (d.rule, d.conclusion))
            todo += reversed(d.premises)
    return True


def _valid(d):
    (lhs, rhs), rule, ps = d.conclusion, d.rule, d.premises
    if rule == "ax-refl":
        return not ps and lhs == rhs
    if rule == "ax-top":
        return not ps and rhs == TOP
    if rule == "ax-proj":
        return not ps and isinstance(lhs, And) and any(c == rhs for c in lhs.conjuncts)
    if rule == "and-intro":
        return (isinstance(rhs, And) and len(ps) == len(rhs.conjuncts)
                and all(p.conclusion == (lhs, c) for p, c in zip(ps, rhs.conjuncts)))
    if rule == "cut":
        return (len(ps) == 2 and ps[0].conclusion[0] == lhs
                and ps[0].conclusion[1] == ps[1].conclusion[0] and ps[1].conclusion[1] == rhs)
    if rule == "mono":
        return (len(ps) == 1 and isinstance(lhs, Diam) and isinstance(rhs, Diam)
                and lhs.index == rhs.index and ps[0].conclusion == (lhs.body, rhs.body))
    if rule == "ax-absorb":
        return (not ps and isinstance(lhs, Diam) and isinstance(lhs.body, Diam)
                and lhs.index == lhs.body.index and rhs == lhs.body)
    if rule == "ax-lower":
        return (not ps and isinstance(lhs, Diam) and isinstance(rhs, Diam)
                and lhs.body == rhs.body and compare(rhs.index, lhs.index) < 0)
    if rule == "ax-pair":
        return (not ps and isinstance(lhs, And) and len(lhs.conjuncts) == 2
                and all(isinstance(c, Diam) for c in lhs.conjuncts) and isinstance(rhs, Diam)
                and rhs.index == lhs.conjuncts[0].index
                and compare(lhs.conjuncts[1].index, lhs.conjuncts[0].index) < 0
                and rhs.body == conj((lhs.conjuncts[0].body, lhs.conjuncts[1])))
    raise ValueError("unknown rule %r" % rule)


# The most characters of certificate text: to_lines stops past them, and the
# extractor after CERTIFICATE_CHARS // 20 derivation nodes, since no line is
# shorter than 20 characters.  Text grows as lines times formula length: a run
# of 50 <1>s against <1>p prints 0.75 MB, a run of 200 42 MB.  Q_CHARS bounds
# the text of a build_q tower: `rc q 1 111111 p` prints that many characters.
CERTIFICATE_CHARS = 10 ** 6
Q_CHARS = 10 ** 6


def proof_search(f, g):
    """A certificate of normalize(f) |- normalize(g), read off the tree
    model that decides the sequent (_Extractor), or None exactly when f does
    not derive g.  Raises BudgetExceededError past CERTIFICATE_CHARS // 20
    derivation nodes."""
    return _Extractor(normalize(f), normalize(g)).certificate()


class _Extractor:
    """One certificate of f |- g, read off the tree model of f.

    Node x keeps its conjuncts in parts[x], and its body is their conj; its
    child y is the conjunct parts[x][pos[y]] = <c>body(y), c the index that
    seeded y.  A step proves F |- F' for an F' with one more conjunct at one
    node: and-intro there (ax-proj for each old conjunct, the new one's proof
    last), lifted to the root by mono and and-intro.  A balanced tree of cuts
    chains the steps and a last proof of g.  Two lemmas recurse on the reason
    for the closure's edge (x, y) (reason):

      E(x, y, t, src): y's body embeds src, which is H or t = <a>H, and
          (x, y) admits a; adds t at x.  Seed: ax-proj to <c>body(y), mono,
          ax-lower to a, and ax-absorb when src is t.  Transitivity through
          w: E(w, y, t, src), E(x, w, t, t).  Pairing from u: E(u, y, t,
          src), P(u, x, t).
      P(x, y, t): x embeds t = <b>G, and (x, y) admits an index above b;
          adds t to y's body.  Seed: ax-pair at x appends <c>(body(y) & t),
          which y stands for from then on.  Transitivity through w: P(x, w,
          t), P(w, y, t).  P never pairs: x is always a proper ancestor of
          y, since E asks P from the lowest common ancestor of its nodes,
          and transitivity splits a tree path into two tree paths.

    The reason does not depend on the rank asked for.  If (x, y) admits r
    (y in Q_r(x), _holds), then y is a child of x (a seed); or a deeper
    descendant of x, whose path from x is r-high as part of the path from
    top_r(x), so transitivity through x's child w on it; or else pairing
    from u, the lowest node that is a proper ancestor of both.  Then u is on
    x's climb to top_r(x), so (u, x) admits the least rank above r and
    (u, y) admits r along tree paths.  The premises of a pairing are tree
    paths, and those of a tree path are shorter tree paths, so the recursion
    ends.  A walk down g picks each diamond's witness from the node sets of
    _holds and calls E once the witness embeds the body.  A lemma whose node
    already embeds its conclusion does nothing, and every added conjunct is
    a diamond subformula of g, so there are at most nodes x (diamond
    subformulas of g) steps.  Embedded, not literally present, since a later
    step grows a conjunct an earlier test matched.  Pending lemmas wait on a
    stack, so nothing recurses per node or diamond.
    """

    def __init__(self, f, g):
        labels, tree = _seed(f)
        self.model = model = _model(labels, tree)
        self.g, self.parent, self.sat = g, model.parent, _holds(model, g)
        self.parts = [list(_parts(f))] + [list(_parts(d.body)) for _, _, d in tree]
        self.body = [f] + [d.body for _, _, d in tree]
        self.index = [None] + [d.index for _, _, d in tree]
        self.pos = [None] + [self.parts[x].index(d) for x, _, d in tree]
        self.embedded = {}  # (b, s) -> a proof of b |- s when b embeds s, else None
        self.route = {}     # top diamond of g -> (root's child, src) of its last E
        self.steps, self.made = [], 0

    def certificate(self):
        if not self.sat[self.g] & 1:
            return None
        todo = [(self.hold, (0, self.g))]
        while todo:
            lemma, args = todo.pop()
            todo += reversed(lemma(*args))
        items = self.steps + [self.last()]
        return self.chain(items, 0, len(items))

    def hold(self, y, s):
        """Make y's body embed s, which holds at y in the model."""
        out = []
        for c in _parts(s):
            if isinstance(c, Diam) and not self.embedding(self.body[y], c):
                r, hit = self.model.rank_of(c.index), self.sat[c.body]
                z = next(z for z in range(len(self.body)) if hit >> z & 1 and self.model.admits(y, r, z))
                out += [(self.hold, (z, c.body)), (self.lemma_e, (y, z, c, c.body, y == 0))]
        return out

    def reason(self, x, y):
        """Why the closure relates x to y, given that it does: (None, False)
        for a seed, (w, False) for transitivity through w, (u, True) for
        pairing from u."""
        parent, w = self.parent, y
        while parent[w] > x:  # ancestors are numbered lower
            w = parent[w]
        if parent[w] == x:
            return (None if w == y else w), False
        u, v = parent[x], parent[w]
        while u != v:  # the later-numbered one is no ancestor of the other
            u, v = (parent[u], v) if u > v else (u, parent[v])
        return u, True

    def lemma_e(self, x, y, t, src, last=False):
        """E; for a top diamond of g (last), its seed step is left to last()."""
        if self.embedding(self.body[x], t):
            return ()
        w, paired = self.reason(x, y)
        if w is None and last:
            self.route[t] = (y, src)
        elif w is None:
            self.add(x, t, self.through(x, y, t, src))
        elif not paired:
            return [(self.lemma_e, (w, y, t, src)), (self.lemma_e, (x, w, t, t, last))]
        else:  # no edge enters the root, so a last E has no pairing reason
            return [(self.lemma_e, (w, y, t, src)), (self.lemma_p, (w, x, t))]
        return ()

    def lemma_p(self, x, y, t):
        if self.embedding(self.body[y], t):
            return ()
        w = self.reason(x, y)[0]
        if w is None:
            self.pair(x, y, t)
            return ()
        return [(self.lemma_p, (x, w, t)), (self.lemma_p, (w, y, t))]

    def add(self, x, t, proof):
        """Append t to x's conjuncts (proof: body(x) |- t) and record the
        step, lifted to the root."""
        old = self.body[x]
        self.parts[x].append(t)
        new = self.body[x] = conj(self.parts[x])
        step = self.rule("and-intro", old, new, *[self.proj(old, c) for c in self.parts[x][:-1]], proof)
        while x:
            p, i = self.parent[x], self.pos[x]
            was, now = self.parts[p][i], Diam(self.index[x], new)
            step, old = self.rule("mono", was, now, step), self.body[p]
            self.parts[p][i] = now
            new = self.body[p] = conj(self.parts[p])
            if old is not was:
                step = self.rule("and-intro", old, new, *[
                    self.via(old, was, step) if j == i else self.proj(old, c)
                    for j, c in enumerate(self.parts[p])])
            x = p
        self.steps.append(step)

    def pair(self, x, y, t):
        k = self.parts[x][self.pos[y]]
        both = And((k, t))
        self.parts[y].append(t)
        self.body[y] = conj(self.parts[y])
        grown = Diam(self.index[y], self.body[y])
        intro = self.rule("and-intro", self.body[x], both,
                          self.proj(self.body[x], k), self.embedding(self.body[x], t))
        self.add(x, grown, self.cut(intro, self.rule("ax-pair", both, grown)))
        self.pos[y] = len(self.parts[x]) - 1

    def through(self, x, y, t, src):
        """body(x) |- t through x's conjunct for y, whose body embeds src:
        mono, ax-lower and ax-absorb, identity steps dropped."""
        k, c, a = self.parts[x][self.pos[y]], self.index[y], t.index
        chain = [self.rule("mono", k, Diam(c, src), self.embedding(self.body[y], src))
                 ] if self.body[y] is not src else []
        if c is not a:
            chain.append(self.rule("ax-lower", Diam(c, src), Diam(a, src)))
        if src is t:
            chain.append(self.rule("ax-absorb", Diam(a, t), t))
        return self.via(self.body[x], k, self.chain(chain, 0, len(chain)) if chain
                        else self.rule("ax-refl", k, k))

    def last(self):
        """F |- g: a variable by ax-proj; a diamond K by cut(ax-proj F |- K',
        d), where K' is the first conjunct of F that embeds K (d is mono, or
        ax-refl when K' is K) or else the end of K's route (through); the
        ax-proj is dropped when F is K'."""
        f, proofs = self.body[0], []
        for k in _parts(self.g):
            c = next((c for c in self.parts[0] if c is k or isinstance(c, Diam) and isinstance(
                k, Diam) and c.index is k.index and self.embedding(c.body, k.body)), None)
            if isinstance(k, Var):
                proofs.append(self.proj(f, k))
            elif c is None:
                y, src = self.route[k]
                proofs.append(self.through(0, y, k, src))
            else:
                proofs.append(self.via(f, c, self.rule("ax-refl", k, k) if c is k else
                                       self.rule("mono", c, k, self.embedding(c.body, k.body))))
        if isinstance(self.g, And):
            return self.rule("and-intro", f, self.g, *proofs)
        return proofs[0] if proofs else self.rule("ax-top", f, TOP)

    def embedding(self, b, s):
        """A proof of b |- s by ax-proj and mono when b embeds s, else None:
        each conjunct of s is a conjunct of b, or a diamond whose body some
        conjunct of b with its index embeds.  Memoized on the pair, and each
        pair evaluated after its inner pairs, from a stack."""
        todo = [(b, s)]
        while todo:
            key = todo[-1]
            have = _parts(key[0])
            fresh = [(d.body, c.body) for c in _parts(key[1]) if c not in have and isinstance(c, Diam)
                     for d in have if isinstance(d, Diam) and d.index is c.index
                     and (d.body, c.body) not in self.embedded]
            if key in self.embedded:
                todo.pop()
            elif fresh:
                todo += fresh
            else:
                self.embedded[todo.pop()] = self._embed(*key)
        return self.embedded[(b, s)]

    def _embed(self, b, s):
        if b is s or s is TOP:
            return self.rule("ax-refl" if b is s else "ax-top", b, s)
        have, proofs = _parts(b), []
        for c in _parts(s):
            d = c if c in have else next((d for d in have if isinstance(c, Diam) and isinstance(d, Diam)
                                          and d.index is c.index and self.embedded[(d.body, c.body)]), None)
            if d is None:
                return None
            proofs.append(self.proj(b, c) if d is c else
                          self.via(b, d, self.rule("mono", d, c, self.embedded[(d.body, c.body)])))
        return self.rule("and-intro", b, s, *proofs) if isinstance(s, And) else proofs[0]

    def rule(self, name, lhs, rhs, *premises):
        self.made += 1
        if self.made > CERTIFICATE_CHARS // 20:
            raise BudgetExceededError("certificate passes %d derivation nodes (CERTIFICATE_CHARS // 20)"
                                      % (CERTIFICATE_CHARS // 20))
        return Derivation(name, (lhs, rhs), premises)

    def cut(self, d1, d2):
        return self.rule("cut", d1.conclusion[0], d2.conclusion[1], d1, d2)

    def proj(self, b, c):
        return self.rule("ax-refl" if b is c else "ax-proj", b, c)

    def via(self, b, k, d):
        """b |- the right side of d, where d starts at b's conjunct k."""
        return d if b is k else self.cut(self.proj(b, k), d)

    def chain(self, items, lo, hi):
        """Consecutive sequents items[lo:hi] joined by a balanced tree of cuts."""
        if hi - lo == 1:
            return items[lo]
        return self.cut(self.chain(items, lo, (lo + hi) // 2), self.chain(items, (lo + hi) // 2, hi))


# ------------------------------------------------------- word normal forms


def merge_words(a, b):
    """Two words merged head first: the larger head goes first and equal
    heads are kept once.  Often, not always, equivalent to their conjunction."""
    return Worm(_merge(a.letters, b.letters, ranks(a.letters + b.letters)))


def _merge(a, b, rank):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        c = rank[a[i]] - rank[b[j]]
        out.append(a[i] if c >= 0 else b[j])
        i, j = i + (c >= 0), j + (c <= 0)
    return tuple(out) + a[i:] + b[j:]


def _conj_words(a, b, rank):
    """The word equivalent to a & b, for words a and b (letter tuples).

    With m the least letter, split a = a1 m a2 and b = b1 m b2 at the first
    m: a & b = (a1 & b1) m max(a2, b2), the larger tail at level m, where
    worms are linearly ordered (Beklemishev, APAL 128, 2004).  A word without
    m is all head.  The loop goes on with a1 and b1, all above m.
    """
    first_a, first_b = ({x: i for i, x in reversed(list(enumerate(w)))} for w in (a, b))
    tails = []
    for m in sorted(first_a.keys() | first_b.keys(), key=rank.__getitem__):
        if not (a and b):
            break
        i, j = first_a.get(m, len(a)), first_b.get(m, len(b))
        if i < len(a) or j < len(b):
            a2, b2 = a[i + 1:], b[j + 1:]
            if not a2 or (b2 and a2 != b2 and compare_at(m, Worm(a2), Worm(b2)) < 0):
                a2 = b2
            tails.append((m,) + a2)
        a, b = a[:i], b[:j]
    return sum(reversed(tails), a or b)


def word_normal_form(f):
    """The worm equivalent to a variable-free formula: the merge_words fold
    when it has the order type of the exact word of _conj_words (and so is
    equivalent to it), else the exact word.  BudgetExceededError only when
    an order type it needs is of a worm past worm.MAX_DISTINCT_LETTERS
    distinct letters, or with a gap between letters of more summands."""
    merged, exact = _words(f)
    if merged != exact and compare(order_type(Worm(merged)), order_type(Worm(exact))):
        return Worm(exact)
    return Worm(merged)


def _words(f):
    """(merged, exact) words of f.  A stack lists the steps in post-order (()
    for T, a diamond run's letters, n for n conjuncts), then they run."""
    letters, steps, todo = set(), [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Diam):
            run = []
            while isinstance(g, Diam):
                run.append(g.index)
                g = g.body
            letters.update(run)
            todo += [tuple(run), g]
        elif isinstance(g, And):
            todo += [len(g.conjuncts), *reversed(g.conjuncts)]
        elif isinstance(g, Var):
            raise NotVariableFreeError("word normal forms exist only for variable-free formulas")
        else:
            steps.append(g if isinstance(g, (tuple, int)) else ())
    rank, done = ranks(letters), []
    for step in steps:
        if isinstance(step, int):
            merged = exact = ()
            for m, e in done[-step:]:
                merged, exact = _merge(merged, m, rank), _conj_words(exact, e, rank)
            done[-step:] = [(merged, exact)]
        else:
            merged, exact = done.pop() if step else ((), ())
            done.append((step + merged, step + exact))
    return done[0]
