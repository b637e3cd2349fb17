"""Strictly positive modal formulas over transfinite modalities.

Formulas are hash-consed (hashcons), so equal formulas are one object and
equality is identity.  normalize sorts the conjuncts of a conjunction with
`<` (RcFormula), where indices compare in ordinal order, the only order that
derivability depends on (derives); Godel codes are for output alone.

Derivability between conjunctive diamond formulas is decided on a minimal
closure model: the syntax tree of the left formula gives one node per
diamond occurrence, and the accessibility relations are closed under

  * downward closure   x R_a y and b < a          =>  x R_b y
  * transitivity       x R_a y and y R_a z        =>  x R_a z
  * the pairing law    x R_a y and x R_b z, b < a =>  y R_b z   (y = z allowed)

The closure runs over the distinct indices of both formulas, ranked 1..k in
ordinal order (derives states why nothing is lost).  Each edge's index set
is downward closed, so an edge carries one rank and admits the indices of
rank up to it.  The right formula is then model-checked at the root.

proof_search produces independently checkable certificates built from the
six primitive rules; a returned derivation is always locally valid, while
None only means the depth bound or the model budget ran out.
word_normal_form reads the worm of a variable-free formula off worm order
types alone, with no model.

numpy is imported only inside the three functions that build or read the
closure matrix (_close, model_check, RcModel.edges), so a process that
decides no consequence never loads it.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import cycle

from .errors import BudgetExceededError, NotVariableFreeError, SearchExhaustedError
from .hashcons import Node
from .ordinal import compare
from .worm import MAX_DISTINCT_LETTERS, Worm, compare_at, order_type


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
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def worm_formula(w):
    """The worm as a formula: letters become nested diamonds over TOP."""
    f = TOP
    for letter in reversed(w.letters):
        f = Diam(letter, f)
    return f


def _children(f):
    return (f.body,) if isinstance(f, Diam) else f.conjuncts if isinstance(f, And) else ()


def normalize(f):
    """Set-semantics normal form: conjunctions flattened, deduplicated and
    sorted by key, so formulas that differ only in conjunct order and
    repeats normalize to one object.

    One post-order pass from an explicit stack normalizes each distinct
    subformula once, after its parts.  Equal conjuncts are one object, so
    siblings dedupe by identity.
    """
    done = {}
    todo = [f]
    while todo:
        g = todo[-1]
        if g in done:
            todo.pop()
            continue
        parts = _children(g)
        fresh = [c for c in parts if c not in done]
        if fresh:
            todo += fresh
            continue
        todo.pop()
        if isinstance(g, Diam):
            done[g] = Diam(g.index, done[g.body])
        elif isinstance(g, And):
            flat = dict.fromkeys(p for c in parts for p in _parts(done[c]))
            done[g] = conj(sorted(flat))
        else:
            done[g] = g
    return done[f]


def build_q(beta, k, f):
    """Iterated reflection tower: q(0) = f, q(k+1) = <beta>(f & q(k))."""
    out = f
    for _ in range(k):
        out = Diam(beta, And((f, out)))
    return out


# ---------------------------------------------------------------- the model


class RcModel:
    """Finite frame over the ranked indices of a sequent.

    The distinct indices the model was built over are ranked 1..k in
    ordinal order; `strengths` lists them by rank, so strengths[r] is the
    top index an edge of rank r admits ([0] unused).  The closed rank matrix
    is the only edge store: matrix[x, y] is the rank of the edge x -> y, 0
    when there is none, and the edge admits exactly the indices of rank at
    most matrix[x, y].  `formula` is the left side the nodes were seeded
    from; a question about an index the model did not rank rebuilds the
    model from it with that index added.
    """

    __slots__ = ("labels", "matrix", "rank", "formula", "root")

    def __init__(self, labels, matrix, rank, formula):
        self.labels = labels    # list of frozensets of variable names
        self.matrix = matrix    # n x n numpy array of edge ranks
        self.rank = rank        # ranked index -> its rank, 1..k
        self.formula = formula
        self.root = 0

    @property
    def nodes(self):
        return range(len(self.labels))

    @property
    def strengths(self):
        """The ranked indices in rank order, after an unused [0]."""
        return [None] + sorted(self.rank, key=self.rank.__getitem__)

    @property
    def edges(self):
        """Rows of the matrix as dicts, node -> {node: edge rank}."""
        import numpy as np

        out = []
        for row in self.matrix:
            ys = np.nonzero(row)[0]
            out.append(dict(zip(ys.tolist(), row[ys].tolist())))
        return out

    def related(self, x, alpha, y):
        r = self.rank.get(alpha)
        if r is None:
            return build_minimal_model(self.formula, Diam(alpha, TOP)).related(x, alpha, y)
        return bool(self.matrix[x, y] >= r)


def _parts(f):
    return f.conjuncts if isinstance(f, And) else (f,)


def _indices(f):
    """The diamond indices of f in preorder, repeats kept."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Diam):
            out.append(g.index)
            todo.append(g.body)
        elif isinstance(g, And):
            todo += reversed(g.conjuncts)
    return out


def build_minimal_model(f, g=TOP):
    """Closure model of f: one node per diamond occurrence plus the root,
    closed over the distinct indices of f and g ranked together (_close).

    A diamond equal to a sibling already seeded at the same node adds no
    node, so duplicate conjuncts cost nothing; conjunct order does not change
    the closure.  Nodes are numbered in preorder, from an explicit stack.
    """
    labels = [set()]
    seeded = [set()]  # node -> the diamonds seeded under it
    edges = []     # (parent, child, index)
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
            edges.append((node, len(labels), p.index))
            todo.append((len(labels), iter(_parts(p.body))))
            labels.append(set())
            seeded.append(set())
        elif isinstance(p, And):
            todo.append((node, iter(p.conjuncts)))  # nested And from un-normalized input
    rank = _ranks([a for _, _, a in edges] + _indices(g))
    matrix = _close(len(labels), [(x, y, rank[a]) for x, y, a in edges], len(rank))
    return RcModel([frozenset(s) for s in labels], matrix, rank, f)


def _close(n, seeds, k):
    """Least fixpoint of the frame conditions on n nodes, over ranks 1..k.

    seeds are (x, y, r) edges.  An edge of rank r stands for the index set
    of ranks 1..r, so meet is min, inclusion is <=, and strictly-below is
    r - 1.  The rank dtype is the smallest unsigned type that holds k, so it
    cannot overflow.  Rows live in one dense matrix m (0 = no edge), and each
    row x is closed by two whole-matrix (max, min) products over all y at once:

      transitivity   row(x) := max(row(x), max_y min(m[x,y], row(y)))
      pairing        row(y) := max(row(y), min(m[x,y] - 1, row(x)))

    (the y = y column of the pairing rewrite is the reflexive self-loop).
    Passes alternate bottom-up and top-down, which keeps their number small
    on deep models, and stop after the first pass that leaves the matrix sum
    unchanged.  Updates only raise ranks, so such a pass changed no entry:
    every row's rules held in one unchanging state, which is the fixpoint.
    """
    import numpy as np

    dtype = np.min_scalar_type(k)
    below = (np.maximum(np.arange(k + 1), 1) - 1).astype(dtype)
    m = np.zeros((n, n), dtype=dtype)
    for x, y, r in seeds:
        m[x, y] = r

    total = int(m.sum(dtype=np.int64))
    for sweep in cycle((range(n - 1, -1, -1), range(n))):
        for x in sweep:
            row = m[x]
            np.maximum(row, np.minimum(row[:, None], m).max(axis=0), out=row)
            np.maximum(m, np.minimum(below[row][:, None], row), out=m)
        fresh = int(m.sum(dtype=np.int64))
        if fresh == total:
            return m
        total = fresh


def model_check(model, node, f):
    """Whether f holds at `node` of the model.

    Each distinct subformula of f (one interned object) is evaluated once,
    after its parts and from an explicit stack, as a boolean vector over all
    nodes: TOP holds everywhere, a variable where it labels the node, a
    conjunction where every conjunct holds, and <a>B at x when some edge
    x -> y admits a (its rank reaches a's) and B holds at y.  An index the
    model did not rank rebuilds it once, over the indices of f as well.
    """
    import numpy as np

    m, rank = model.matrix, model.rank
    n = len(model.labels)
    memo = {}
    todo = [f]
    while todo:
        g = todo[-1]
        if g in memo:
            todo.pop()
            continue
        parts = _children(g)
        fresh = [c for c in parts if c not in memo]
        if fresh:
            todo += fresh
            continue
        todo.pop()
        if isinstance(g, _Top):
            hit = np.ones(n, dtype=bool)
        elif isinstance(g, Var):
            hit = np.fromiter((g.name in ls for ls in model.labels), dtype=bool, count=n)
        elif isinstance(g, And):
            hit = np.logical_and.reduce([memo[c] for c in parts])
        else:
            r = rank.get(g.index)
            if r is None:
                return model_check(build_minimal_model(model.formula, f), node, f)
            hit = (m[:, memo[g.body]] >= r).any(axis=1)
        memo[g] = hit
    return bool(memo[f][node])


def derives(f, g):
    """True when f proves g: g holds at the root of the closure model of f.

    The model is closed over J, the distinct indices of f and g, ranked
    1..k, not over all ordinals.  This loses nothing.  Lemma: let R be the
    least family of relations R_a, one per ordinal a, that contains the
    seeded edges (all indexed in J) and obeys the three frame conditions,
    and R' the least such family over J alone.  Then R_j = R'_j for every
    j in J.  Proof.  R restricted to J obeys the conditions over J and holds
    the seeds, so R' is inside it.  Conversely, extend R' to all ordinals:
    an a outside J gets T_j, the least transitive relation containing R'_j
    that is also Euclidean (x T y and x T z give y T z), where j is the least
    element of J above a (no such j: the empty relation).  For b < j in J
    the relation {(x, y) : x R'_b y and R'_b(x) is inside R'_b(y)} contains
    R'_j (pairing), and is transitive and Euclidean, so it contains T_j.
    That gives downward closure from a gap to b and pairing from a gap onto
    b; pairing onto a gap level follows from the Euclidean law, since every
    edge above the gap lies in R'_j, inside T_j.  So the extension obeys the
    conditions over all ordinals and holds the seeds; R lies inside it, and
    R_j is inside R'_j.  As g asks only about indices in J, both closures
    give the same answer.  The same argument shows derivability depends only
    on the order type of the indices (Dashkov, Math. Notes 91, 2012;
    Beklemishev, "Calibrating provability logic", AiML 9, 2012).
    """
    return model_check(build_minimal_model(f, g), 0, g)


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
        """Serialize: one rule per line, premises referenced by line number."""
        from .syntax import render

        lines = []

        def emit(d):
            refs = [emit(p) for p in d.premises]
            lines.append(
                "%d: %s %s ; %s |- %s"
                % (
                    len(lines),
                    d.rule,
                    ",".join(str(r) for r in refs) or "-",
                    render(d.conclusion[0]),
                    render(d.conclusion[1]),
                )
            )
            return len(lines) - 1

        emit(self)
        return lines


def check_derivation(d):
    """Local validity of every step; raises ValueError on the first break."""
    lhs, rhs = d.conclusion
    rule = d.rule
    if rule == "ax-refl":
        _expect(not d.premises and lhs == rhs, d)
    elif rule == "ax-top":
        _expect(not d.premises and rhs == TOP, d)
    elif rule == "ax-proj":
        _expect(
            not d.premises
            and isinstance(lhs, And)
            and any(c == rhs for c in lhs.conjuncts),
            d,
        )
    elif rule == "and-intro":
        _expect(
            isinstance(rhs, And)
            and len(d.premises) == len(rhs.conjuncts)
            and all(
                p.conclusion == (lhs, c) for p, c in zip(d.premises, rhs.conjuncts)
            ),
            d,
        )
    elif rule == "cut":
        _expect(
            len(d.premises) == 2
            and d.premises[0].conclusion[0] == lhs
            and d.premises[0].conclusion[1] == d.premises[1].conclusion[0]
            and d.premises[1].conclusion[1] == rhs,
            d,
        )
    elif rule == "mono":
        _expect(
            len(d.premises) == 1
            and isinstance(lhs, Diam)
            and isinstance(rhs, Diam)
            and lhs.index == rhs.index
            and d.premises[0].conclusion == (lhs.body, rhs.body),
            d,
        )
    elif rule == "ax-absorb":
        _expect(
            not d.premises
            and isinstance(lhs, Diam)
            and isinstance(lhs.body, Diam)
            and lhs.index == lhs.body.index
            and rhs == lhs.body,
            d,
        )
    elif rule == "ax-lower":
        _expect(
            not d.premises
            and isinstance(lhs, Diam)
            and isinstance(rhs, Diam)
            and lhs.body == rhs.body
            and compare(rhs.index, lhs.index) < 0,
            d,
        )
    elif rule == "ax-pair":
        ok = (
            not d.premises
            and isinstance(lhs, And)
            and len(lhs.conjuncts) == 2
            and isinstance(lhs.conjuncts[0], Diam)
            and isinstance(lhs.conjuncts[1], Diam)
            and isinstance(rhs, Diam)
            and rhs.index == lhs.conjuncts[0].index
            and compare(lhs.conjuncts[1].index, lhs.conjuncts[0].index) < 0
            and rhs.body == conj((lhs.conjuncts[0].body, lhs.conjuncts[1]))
        )
        _expect(ok, d)
    else:
        raise ValueError("unknown rule %r" % rule)
    for p in d.premises:
        check_derivation(p)
    return True


def _expect(ok, d):
    if not ok:
        raise ValueError("invalid %s step concluding %r" % (d.rule, d.conclusion))


def _cut(d1, d2):
    return Derivation("cut", (d1.conclusion[0], d2.conclusion[1]), (d1, d2))


def _restructure(src, dst):
    """Proof of src |- dst when dst is src's conjunction reordered/deduped."""
    if src == dst:
        return Derivation("ax-refl", (src, dst))
    if isinstance(dst, And):
        return Derivation(
            "and-intro",
            (src, dst),
            tuple(
                Derivation("ax-refl", (src, c)) if src == c else Derivation("ax-proj", (src, c))
                for c in dst.conjuncts
            ),
        )
    return Derivation("ax-proj", (src, dst))


# Model nodes one proof_search may build.  Self-strengthening doubles the left
# side per step: searches that find a certificate build under a hundred nodes,
# and the ones that would never end pass 3,000 within two seconds.
SEARCH_MODEL_NODES = 1000


def proof_search(f, g, max_depth=24):
    """Bounded goal-directed search; None means a bound ran out, nothing more:
    max_depth, or SEARCH_MODEL_NODES across the models built to vet subgoals.

    Every subgoal is first vetted against the closure-model decision procedure,
    so underivable branches die immediately and only true sequents are explored.
    Every subgoal's indices come from f and g, so each vetting model is built
    over the indices of both and never needs a rebuild.  The certificate that
    comes back never depends on that vetting; it checks on its own via
    check_derivation.
    """
    f = normalize(f)
    g = normalize(g)
    scope = conj((f, g))
    proven = {}
    failed = {}
    models = {}
    sem = {}
    spent = 0

    def holds(lhs, rhs, key):
        nonlocal spent
        hit = sem.get(key)
        if hit is None:
            m = models.get(key[0])
            if m is None:
                spent += len(_indices(lhs))
                if spent > SEARCH_MODEL_NODES:
                    raise SearchExhaustedError
                m = build_minimal_model(lhs, scope)
                models[key[0]] = m
            hit = model_check(m, 0, rhs)
            sem[key] = hit
        return hit

    def search(lhs, rhs, depth):
        key = (lhs, rhs)
        hit = proven.get(key)
        if hit is not None:
            return hit
        if not holds(lhs, rhs, key):
            return None
        if failed.get(key, -1) >= depth:
            return None
        d = attempt(lhs, rhs, depth)
        if d is not None:
            proven[key] = d
        elif failed.get(key, -1) < depth:
            failed[key] = depth
        return d

    def attempt(lhs, rhs, depth):
        if rhs == TOP:
            return Derivation("ax-top", (lhs, TOP))
        if lhs == rhs:
            return Derivation("ax-refl", (lhs, rhs))
        if depth <= 0:
            return None
        if isinstance(rhs, And):
            subs = []
            for c in rhs.conjuncts:
                s = search(lhs, c, depth - 1)
                if s is None:
                    return None
                subs.append(s)
            return Derivation("and-intro", (lhs, rhs), subs)
        if isinstance(lhs, And):
            for c in lhs.conjuncts:
                s = search(c, rhs, depth - 1)
                if s is not None:
                    return _cut(Derivation("ax-proj", (lhs, c)), s)
            d = _pair_moves(lhs, rhs, depth)
            if d is not None:
                return d
        if isinstance(lhs, Diam):
            d = _diam_moves(lhs, rhs, depth)
            if d is not None:
                return d
        return None

    def _diam_moves(lhs, rhs, depth):
        if not isinstance(rhs, Diam):
            return None
        c = compare(rhs.index, lhs.index)
        if c > 0:
            return None  # indexes only ever drop
        if c == 0:
            s = search(lhs.body, rhs.body, depth - 1)
            if s is not None:
                return Derivation("mono", (lhs, rhs), (s,))
        else:
            # lower the outer index first, then go monotone
            mid = Diam(rhs.index, lhs.body)
            s = search(lhs.body, rhs.body, depth - 1)
            if s is not None:
                return _cut(
                    Derivation("ax-lower", (lhs, mid)),
                    Derivation("mono", (mid, rhs), (s,)),
                )
        # unfold: prove the whole goal inside, then absorb the double diamond
        s = search(lhs.body, rhs, depth - 1)
        if s is not None:
            outer = Diam(lhs.index, rhs)
            d = Derivation("mono", (lhs, outer), (s,))
            if lhs.index != rhs.index:
                mid = Diam(rhs.index, rhs)
                d = _cut(d, Derivation("ax-lower", (outer, mid)))
                outer = mid
            return _cut(d, Derivation("ax-absorb", (outer, rhs)))
        # self-strengthening: <a>X |- <a>(X & <b>X) for b < a from the goal's indexes
        cands = []
        seen = set()
        for b in _indices(rhs):
            if compare(b, lhs.index) < 0 and b not in seen:
                seen.add(b)
                cands.append(b)
        for b in cands:
            lowered = Diam(b, lhs.body)
            raw_body = conj((lhs.body, lowered))
            stronger = Diam(lhs.index, normalize(raw_body))
            s = search(stronger, rhs, depth - 1)
            if s is not None:
                pair_lhs = And((lhs, lowered))
                steps = _cut(
                    Derivation(
                        "and-intro",
                        (lhs, pair_lhs),
                        (
                            Derivation("ax-refl", (lhs, lhs)),
                            Derivation("ax-lower", (lhs, lowered)),
                        ),
                    ),
                    Derivation("ax-pair", (pair_lhs, Diam(lhs.index, raw_body))),
                )
                if raw_body != stronger.body:
                    steps = _cut(
                        steps,
                        Derivation(
                            "mono",
                            (Diam(lhs.index, raw_body), stronger),
                            (_restructure(raw_body, stronger.body),),
                        ),
                    )
                return _cut(steps, s)
        return None

    def _pair_moves(lhs, rhs, depth):
        if not isinstance(rhs, Diam):
            return None
        parts = lhs.conjuncts
        for i, ci in enumerate(parts):
            if not isinstance(ci, Diam):
                continue
            for j, cj in enumerate(parts):
                if i == j or not isinstance(cj, Diam):
                    continue
                if compare(cj.index, ci.index) >= 0:
                    continue
                merged = Diam(ci.index, conj((ci.body, cj)))
                norm_merged = normalize(merged)
                if norm_merged in parts:
                    continue
                grown = normalize(conj(parts + (norm_merged,)))
                s = search(grown, rhs, depth - 1)
                if s is None:
                    continue
                pair_lhs = And((ci, cj))
                pair_step = _cut(
                    Derivation(
                        "and-intro",
                        (lhs, pair_lhs),
                        (
                            Derivation("ax-proj", (lhs, ci)),
                            Derivation("ax-proj", (lhs, cj)),
                        ),
                    ),
                    Derivation("ax-pair", (pair_lhs, merged)),
                )
                if merged != norm_merged:
                    pair_step = _cut(
                        pair_step,
                        Derivation(
                            "mono",
                            (merged, norm_merged),
                            (_restructure(merged.body, norm_merged.body),),
                        ),
                    )
                assert isinstance(grown, And)
                intro = []
                for c in grown.conjuncts:
                    if c is norm_merged:
                        intro.append(pair_step)
                    else:
                        intro.append(Derivation("ax-proj", (lhs, c)))
                return _cut(
                    Derivation("and-intro", (lhs, grown), intro),
                    s,
                )
        return None

    try:
        return search(f, g, max_depth)
    except SearchExhaustedError:
        return None


# ------------------------------------------------------- word normal forms


def merge_words(a, b):
    """Two words merged head first: the larger head goes first and equal
    heads are kept once.  Often, not always, equivalent to their conjunction."""
    return Worm(_merge(a.letters, b.letters, _ranks(a.letters + b.letters)))


def _ranks(letters):
    """Each distinct letter -> its place 1, 2, ... in the ordinal order
    (notations are interned, so equal letters are one key)."""
    return {x: i for i, x in enumerate(sorted(set(letters), key=cmp_to_key(compare)), 1)}


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
    equivalent to it), else the exact word.  More than MAX_DISTINCT_LETTERS
    distinct indices, the order types' cap, raise BudgetExceededError."""
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
    if len(letters) > MAX_DISTINCT_LETTERS:
        raise BudgetExceededError(
            "formula has more than %d distinct indices" % MAX_DISTINCT_LETTERS)
    rank, done = _ranks(letters), []
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
