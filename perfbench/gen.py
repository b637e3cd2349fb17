"""Seeded input generators for the benchmark, in plain Python.

Nothing here imports rcworm: every input leaves this module as text in the
repository's notation (or as Godel codes and JSON-style data), together with
the answer it must produce, known by construction.  The program under test
sees only the text.

Ordinals are kept as Cantor-style sums over a fixed ascending list of
additively principal bases: a tuple of (base rank, coefficient) pairs with
strictly decreasing ranks.  For such sums Python's tuple order is the ordinal
order, so the benchmark can sort, add and subtract them without the library.
"""

import random

# Each base is w^e or a Veblen value phi(a, b), listed in ascending order,
# with its text and its Veblen term (index, argument) as sums over BASES.
_ONE = ((0, 1),)
_TWO = ((0, 2),)
_THREE = ((0, 3),)
_W = ((1, 1),)
_W1 = ((1, 1), (0, 1))
BASES = [
    ("1", (), ()),
    ("w", (), _ONE),
    ("w^2", (), _TWO),
    ("w^3", (), _THREE),
    ("w^w", (), _W),
    ("w^(w+1)", (), _W1),
    ("eps0", _ONE, ()),
    ("eps(1)", _ONE, _ONE),
    ("eps(w)", _ONE, _W),
    ("phi(2,0)", _TWO, ()),
    ("phi(3,0)", _THREE, ()),  # ceiling: never drawn, only placed above
]
DRAWN_BASES = len(BASES) - 1
CEILING = ((len(BASES) - 1, 1),)


def ord_text(a, base_text=None):
    """Text of a sum; base_text maps a rank to its text (default: BASES)."""
    if not a:
        return "0"
    parts = []
    for rank, coeff in a:
        if rank == 0:
            parts.append(str(coeff))
            continue
        base = base_text(rank) if base_text else BASES[rank][0]
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return "+".join(parts)


def power_text(e):
    """Text of w^e for a natural exponent e >= 1."""
    return "w" if e == 1 else "w^%d" % e


def ord_add(a, b):
    """a + b: summands of a below b's head are absorbed."""
    if not b:
        return a
    head, coeff = b[0]
    kept = [t for t in a if t[0] > head]
    same = [c for r, c in a if r == head]
    if same:
        coeff += same[0]
    return tuple(kept) + ((head, coeff),) + b[1:]


def _pair(x, y):
    s = x + y
    return s * (s + 1) // 2 + y


def ord_code(a):
    """Godel code, as the ordinal module documents it: summands in order."""
    terms = [rank for rank, coeff in a for _ in range(coeff)]
    code = 0
    for rank in reversed(terms):
        _, index, argument = BASES[rank]
        code = _pair(_pair(ord_code(index), ord_code(argument)), code) + 1
    return code


def rand_ord(rng, top=DRAWN_BASES, terms=3, coeff=3):
    """A random sum of 1..terms summands over the bases below rank `top`."""
    ranks = sorted(rng.sample(range(top), rng.randint(1, min(terms, top))), reverse=True)
    return tuple((r, rng.randint(1, coeff)) for r in ranks)


# ---------------------------------------------------------------- formulas
# ("T",) | ("v", name) | ("d", index, body) | ("a", parts); parts never
# contain TOP or a nested conjunction.

TOP = ("T",)


def conj(parts):
    flat = []
    for p in parts:
        if p[0] == "a":
            flat.extend(p[1])
        elif p[0] != "T":
            flat.append(p)
    if not flat:
        return TOP
    return flat[0] if len(flat) == 1 else ("a", tuple(flat))


def formula_text(f, index_text):
    kind = f[0]
    if kind == "T":
        return "T"
    if kind == "v":
        return f[1]
    if kind == "d":
        body = formula_text(f[2], index_text)
        if f[2][0] == "a":
            body = "(%s)" % body
        return "<%s>%s" % (index_text(f[1]), body)
    return " & ".join(formula_text(p, index_text) for p in f[1])


def indices_of(f, acc):
    if f[0] == "d":
        acc.append(f[1])
        indices_of(f[2], acc)
    elif f[0] == "a":
        for p in f[1]:
            indices_of(p, acc)
    return acc


def rand_formula(rng, size, indices, atoms=(TOP, ("v", "p"), ("v", "q"), ("v", "r"))):
    """A random formula with `size` nodes, as the acceptance tests draw them."""
    if size <= 1:
        return rng.choice(atoms)
    if size == 2 or rng.random() < 0.6:
        return ("d", rng.choice(indices), rand_formula(rng, size - 1, indices, atoms))
    k = rng.randrange(1, size - 1)
    return conj((rand_formula(rng, k, indices, atoms),
                 rand_formula(rng, size - 1 - k, indices, atoms)))


def weaken(rng, g, indices, depth=0):
    """A formula g proves, built only with the six primitive schemas:
    top and identity, projection, conjunction introduction, absorption of
    <a><b>X into <a>X for b >= a, monotone bodies under lowered indices, and
    pairing <a>X & <b>Y |- <a>(X & <b>Y) for b < a (with <b>X for Y it is
    self-strengthening)."""
    roll = rng.random()
    if roll < 0.05:
        return TOP
    if roll < 0.15 or depth > 4:
        return g
    if g[0] == "a":
        kept = [c for c in g[1] if rng.random() < 0.75] or [rng.choice(g[1])]
        diams = [c for c in kept if c[0] == "d"]
        if len(diams) >= 2 and rng.random() < 0.3:
            hi, lo = sorted(rng.sample(diams, 2), key=lambda d: d[1], reverse=True)
            if lo[1] < hi[1]:
                kept[kept.index(hi)] = ("d", hi[1], conj((hi[2], lo)))
        return conj([weaken(rng, c, indices, depth + 1) for c in kept])
    if g[0] == "d":
        index, body = g[1], g[2]
        if body[0] == "d" and body[1] >= index and rng.random() < 0.3:
            return weaken(rng, ("d", index, body[2]), indices, depth + 1)
        lower = [b for b in indices if b < index]
        if lower and rng.random() < 0.15:
            b = rng.choice(lower)
            body = conj((body, ("d", b, body)))
        if rng.random() < 0.5:
            index = rng.choice([b for b in indices if b <= index] or [index])
        return ("d", index, weaken(rng, body, indices, depth + 1))
    return g


def plant(rng, g, letter):
    """g with <letter>T conjoined at a random diamond body (or at the top)."""
    sites = []

    def walk(h, path):
        if h[0] == "d":
            sites.append(path)
            walk(h[2], path + (2,))
        elif h[0] == "a":
            for i, p in enumerate(h[1]):
                walk(p, path + (1, i))

    walk(g, ())
    leaf = ("d", letter, TOP)
    if not sites:
        return conj((g, leaf))
    return _replace(g, rng.choice(sites), lambda d: ("d", d[1], conj((d[2], leaf))))


def _replace(h, path, fn):
    if not path:
        return fn(h)
    if path[0] == 2:
        return ("d", h[1], _replace(h[2], path[1:], fn))
    i = path[1]
    parts = list(h[1])
    parts[i] = _replace(parts[i], path[2:], fn)
    return ("a", tuple(parts))


def derive_pair(rng, size, indices, ceiling):
    """(lhs, rhs, expected): true pairs weaken lhs; false ones plant a
    diamond above every lhs index, which no closure edge can admit."""
    lhs = rand_formula(rng, size, indices)
    rhs = weaken(rng, lhs, indices)
    if rng.random() < 0.5:
        return lhs, conj((rhs, weaken(rng, lhs, indices))), True
    return lhs, plant(rng, rhs, ceiling(lhs)), False


# ------------------------------------------------------------ bounded truth

PREDS = ("P", "Q", "R")


def rand_term(rng, depth, scope):
    if depth <= 0 or rng.random() < 0.35:
        if scope and rng.random() < 0.5:
            return ("x", rng.choice(scope))
        return ("n", rng.randrange(0, 6))
    k = rng.randrange(4)
    if k == 0:
        return ("S", rand_term(rng, depth - 1, scope))
    if k == 3:
        return ("exp", ("n", rng.randrange(0, 4)))
    return ("+" if k == 1 else "*", rand_term(rng, depth - 1, scope),
            rand_term(rng, depth - 1, scope))


def term_text(t):
    kind = t[0]
    if kind == "n":
        return str(t[1])
    if kind == "x":
        return t[1]
    if kind in ("S", "exp"):
        return "%s(%s)" % (kind, term_text(t[1]))
    # a formula unit may not open with "(", so only operands get parentheses
    return "%s %s %s" % (_operand_text(t[1]), kind, _operand_text(t[2]))


def _operand_text(t):
    text = term_text(t)
    return "(%s)" % text if t[0] in ("+", "*") else text


def rand_atom(rng, scope):
    """An atom or negated atom of the acceptance tests' generator."""
    if rng.randrange(3) == 0:
        atom = (rng.choice(("=", "<=")), rand_term(rng, 1, scope), rand_term(rng, 1, scope))
    else:
        arity = 1 if rng.random() < 0.8 else 2
        atom = (rng.choice(PREDS),) + tuple(rand_term(rng, 1, scope) for _ in range(arity))
    return ("neg", atom) if rng.random() < 0.4 else ("atom", atom)


# (atoms, quantifier bounds from the outside in), each bound a numeral range
# or "v0" for the outermost variable.  The truth workload cycles through
# these shapes, so every run has the same mix; the seed draws everything
# else.  The shapes cost about the same, so no shape dominates a run.
SENTENCE_SHAPES = (
    (4, ((45, 50),)),
    (2, ((45, 50), (2, 3))),
    (2, ((20, 25), "v0")),
    (2, ((30, 35), (2, 3), (2, 3))),
)


def rand_sentence(rng, shape):
    """Nested bounded quantifiers over a random conjunction/disjunction of
    atoms, as `shape` prescribes."""
    atoms, bounds = shape
    scope = tuple("v%d" % i for i in range(len(bounds)))
    f = rand_atom(rng, scope)
    for _ in range(atoms - 1):
        f = (rng.choice("&|"), f, rand_atom(rng, scope))
    for var, bound in reversed(list(zip(scope, bounds))):
        bound = ("x", bound) if bound == "v0" else ("n", rng.randint(*bound))
        f = (rng.choice(("all", "ex")), var, bound, f)
    return f


def sentence_text(f):
    kind = f[0]
    if kind in ("atom", "neg"):
        pred, args = f[1][0], f[1][1:]
        if pred in ("=", "<="):
            text = "%s %s %s" % (term_text(args[0]), pred, term_text(args[1]))
        else:
            text = "%s(%s)" % (pred, ", ".join(term_text(t) for t in args))
        return "neg " + text if kind == "neg" else text
    if kind in ("&", "|"):
        return "(%s) %s (%s)" % (sentence_text(f[1]), kind, sentence_text(f[2]))
    return "%s %s <= %s . %s" % (kind, f[1], term_text(f[2]), sentence_text(f[3]))


def rand_structure(rng, top):
    """Predicate tables as the JSON structure format lists them."""
    out = {}
    for name in PREDS:
        unary = [m for m in range(top) if rng.random() < 0.4]
        binary = [[m, n] for m in range(4) for n in range(4) if rng.random() < 0.2]
        out[name] = unary + binary
    return out


def workload_rng(name, seed):
    """One reproducible stream per (workload, seed)."""
    return random.Random("%s:%d" % (name, seed))
