"""The four workloads: an input stream per seed, the operation each input
runs (the timed part), and the oracle that checks its answer (untimed).

Each operation is what one CLI command does in-process: parse text, call the
library, render the answer.  With a Tracer the operation calls the same
public functions one by one, each inside a span; `derives` is split into the
stages it is defined as (normalize both sides, build the closure model of
the left, model-check the right at the root) so their times show apart.
"""

import contextlib
import io
import itertools
import os
import signal
import subprocess
import sys
import time
from collections import namedtuple
from functools import cmp_to_key

import cli_cases
import gen
import speed

# `show` is the input as the failure report prints it.
Item = namedtuple("Item", "kind data expect show")

CLI_ENTRY = "import sys; from rcworm.cli import main; sys.exit(main())"


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no library handler
    for Exception can swallow it."""


def on_alarm(signum, frame):
    raise OpTimeout()


def guarded(wl, fn, *args, limit=None):
    """fn(*args) under a per-op limit (the workload's unless given):
    (value, failure), where failure is None or (category, reason) with
    category "timeout", "refused" (a typed DomainError) or "error" (any other
    exception).  In-process limits need on_alarm as the SIGALRM handler."""
    limit = limit or wl.limit
    try:
        if wl.in_process:
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn(*args), None
        finally:
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (OpTimeout, subprocess.TimeoutExpired):
        return None, ("timeout", "over the %.2f s limit" % limit)
    except Exception as e:  # any raise is a failed op, reported with its input
        refused = any(c.__name__ == "DomainError" for c in type(e).__mro__)
        category = "refused" if refused else "error"
        return None, (category, "%s: %s" % (type(e).__name__, e))


class _InProcess:
    in_process = True
    min_ops = 0  # ops an untraced run does at least, beyond run.py's MIN_OPS

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        # Imported here, not at the top: the cli-batch process never loads
        # rcworm (or numpy) itself, so its set-up time stays a client's.
        global rc, ordinal, worm, syntax, spectra, truthcore
        from rcworm import ordinal, rc, spectra, syntax, truthcore, worm

    def stream(self, label, seed=None):
        """Inputs drawn from (label, seed), the workload's seed by default."""
        rng = gen.workload_rng("%s:%s" % (self.name, label), self.seed if seed is None else seed)
        for i in itertools.count():
            yield self.draw(rng, i)

    def parse(self, tr, fn, text):
        return tr.call("syntax." + fn.__name__, fn, text)

    def derives(self, tr, f, g):
        if not tr.on:
            return rc.derives(f, g)
        nf = tr.call("rc.normalize", rc.normalize, f)
        ng = tr.call("rc.normalize", rc.normalize, g)
        model = tr.call("rc.build_minimal_model", rc.build_minimal_model, nf)
        tr.count("rc.model_nodes", len(model.labels))
        tr.count("rc.model_strengths", len(model.strengths) - 1)
        tr.count("rc.model_edges", sum(len(row) for row in model.edges))
        return tr.call("rc.model_check", rc.model_check, model, 0, ng)

    def traced_extras(self, tr):
        """Per-layer metrics measured after the traced phase, and the
        inputs to report with them."""
        return {}, []


# ------------------------------------------------------------ derive-large


class DeriveLarge(_InProcess):
    """rc.derives on ~200-node pairs over 50 transfinite indices."""

    name = "derive-large"
    limit = 3.0
    window = 12
    size = 200

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = gen.workload_rng(self.name + ":indices", seed)
        pool = set()
        while len(pool) < 50:
            a = gen.rand_ord(rng)
            if a[0][0] > 0:  # transfinite
                pool.add(a)
        self.indices = sorted(pool)

    def draw(self, rng, i):
        lhs, rhs, want = gen.derive_pair(rng, self.size, self.indices, lambda f: gen.CEILING)
        texts = (gen.formula_text(lhs, gen.ord_text), gen.formula_text(rhs, gen.ord_text))
        return Item("derive", texts, want, "%s |- %s" % texts)

    def run(self, item, tr):
        f = self.parse(tr, syntax.parse_formula, item.data[0])
        g = self.parse(tr, syntax.parse_formula, item.data[1])
        return self.derives(tr, f, g)

    def check(self, item, out, tr):
        return None if out is item.expect else "derives said %s" % out


# ----------------------------------------------------------- queries-small

# Indices mixing finite and transfinite values, ascending.
SMALL_INDICES = [(), ((0, 1),), ((0, 2),), ((0, 3),), ((1, 1),), ((1, 1), (0, 1)),
                 ((2, 1), (0, 3)), ((4, 1),), ((6, 1),)]
# For a false query: the least of these above every index on the left.
SMALL_CEILINGS = SMALL_INDICES + [((6, 1), (0, 1))]
WORM_LEVELS = [(), ((0, 1),), ((1, 1),), ((1, 1), (0, 1)), ((6, 1),)]
THEORIES = [("pa-t", ["0", "1", "2", "3", "w", "w+1", "w+2"]),
            ("aca", ["0", "1", "2", "3", "w", "w+1", "w+2"])]
THEORIES += [("ea-ct-isigma-n:%d" % n, ["0", "1", "2", "w"] + ["w+%d" % j for j in range(1, n + 1)])
             for n in range(5)]
# One turn of the queries-small rotation: 15% derive, 15% wnf, 15% sort,
# 25% worm, 10% spectrum and 20% arith.
QUERY_CYCLE = ["derive", "wnf", "sort", "worm", "spectrum", "arith"] * 2 + \
    ["derive", "wnf", "sort", "worm", "arith"] + ["worm", "arith"] + ["worm"]
# The certificate pass of a traced queries-small run: derivable pairs searched,
# and the limit of one search.  A search either ends within 0.05 s or runs on
# past 60 s, so the limit decides nothing but how long a stuck search is held.
CERT_WINDOW = 300
CERT_LIMIT = 0.5


def _ceiling_above(f):
    top = max(gen.indices_of(f, []), default=None)
    return next(c for c in SMALL_CEILINGS if top is None or c > top)


def _worm01_type(bits):
    """Order type of a worm over letters {0,1}, in closed form: splitting at
    each 0, o(1^k 0 B) = o(B) + w^k and o(1^k) = w^k (0 when k = 0)."""
    blocks = [len(run) for run in "".join(map(str, bits)).split("0")]
    total = ((blocks[-1], 1),) if blocks[-1] else ()
    for k in reversed(blocks[:-1]):
        total = gen.ord_add(total, ((k, 1),))
    return total


def _scaled_mean(timed, factors):
    """Mean of (op index, raw seconds) pairs at reference speed; 0 if none."""
    return sum(t * factors[i] for i, t in timed) / len(timed) if timed else 0.0


def _lifted_text(alpha, bits):
    letters = [gen.ord_text(gen.ord_add(alpha, ((0, 1),)) if b else alpha) for b in bits]
    return "[%s]" % ",".join(letters)


class QueriesSmall(_InProcess):
    """A mixed stream of small interactive questions."""

    name = "queries-small"
    limit = 30.0  # the budgeted word search of `rc wnf` has taken up to 3.5 s
    window = 400

    def draw(self, rng, i):
        """Kinds in a fixed rotation, so every run has the same mix."""
        return getattr(self, "draw_" + QUERY_CYCLE[i % len(QUERY_CYCLE)])(rng)

    def draw_derive(self, rng, want=None):
        """A pair of 2-8 node formulas; derivable when `want` (drawn if
        None), by weakening the left side, and otherwise not, by planting a
        diamond above every index on the left."""
        f = gen.rand_formula(rng, rng.randint(2, 8), SMALL_INDICES)
        g = gen.weaken(rng, f, SMALL_INDICES)
        if want is None:
            want = rng.random() < 0.5
        if not want:
            g = gen.plant(rng, g, _ceiling_above(f))
        texts = (gen.formula_text(f, gen.ord_text), gen.formula_text(g, gen.ord_text))
        return Item("derive", texts, want, "rc derives %r %r" % texts)

    def draw_wnf(self, rng):
        letters = [rng.choice(SMALL_INDICES) for _ in range(rng.randint(1, 4))]
        w = gen.TOP
        for a in reversed(letters):
            w = ("d", a, w)
        f = gen.conj((w, gen.weaken(rng, w, SMALL_INDICES)))
        text = gen.formula_text(f, gen.ord_text)
        word = "[%s]" % ",".join(gen.ord_text(a) for a in letters)
        return Item("wnf", text, word, "rc wnf %r (equivalent to %s)" % (text, word))

    def draw_sort(self, rng):
        batch = [gen.rand_ord(rng) if rng.random() < 0.95 else () for _ in range(100)]
        codes = [gen.ord_code(a) for a in batch]
        want = [gen.ord_code(a) for a in sorted(batch)]
        return Item("sort", codes, want, "sort codes %s" % codes)

    def draw_worm(self, rng):
        alpha = rng.choice(WORM_LEVELS)
        words = [[rng.randint(0, 1) for _ in range(rng.randint(10, 100))] for _ in range(2)]
        texts = [_lifted_text(alpha, bits) for bits in words]
        types = [_worm01_type(bits) for bits in words]
        level = gen.ord_text(alpha)
        if rng.random() < 0.5:
            want = gen.ord_text(types[0], gen.power_text)
            return Item("order_type", (level, texts[0]), want,
                        "worm o-at %s %s" % (level, texts[0]))
        want = (types[0] > types[1]) - (types[0] < types[1])
        return Item("compare_at", (level, texts[0], texts[1]), want,
                    "worm cmp-at %s %s %s" % (level, texts[0], texts[1]))

    def draw_spectrum(self, rng):
        name, levels = rng.choice(THEORIES)
        chosen = [x for x in levels if rng.random() < 0.5] or [rng.choice(levels)]
        return Item("spectrum", (name, chosen), None,
                    "spectrum %s --levels %s" % (name, ",".join(chosen)))

    def draw_arith(self, rng):
        a, b = gen.rand_ord(rng), gen.rand_ord(rng)
        texts = (gen.ord_text(a), gen.ord_text(b))
        return Item("arith", texts, gen.ord_text(gen.ord_add(a, b)), "ord add %s %s" % texts)

    def run(self, item, tr):
        return getattr(self, "run_" + item.kind)(item, tr)

    def run_derive(self, item, tr):
        f = self.parse(tr, syntax.parse_formula, item.data[0])
        g = self.parse(tr, syntax.parse_formula, item.data[1])
        return self.derives(tr, f, g)

    def run_wnf(self, item, tr):
        w = tr.call("rc.word_normal_form", rc.word_normal_form,
                    self.parse(tr, syntax.parse_formula, item.data))
        tr.call("syntax.render", syntax.render, w)
        tr.count("worm.letters", len(w))
        return w

    def run_sort(self, item, tr):
        xs = [tr.call("ordinal.godel_decode", ordinal.godel_decode, c) for c in item.data]
        cmp = ordinal.compare
        if tr.on:
            calls = [0]

            def cmp(a, b):
                calls[0] += 1
                return ordinal.compare(a, b)

        out = tr.call("ordinal.compare", lambda: sorted(xs, key=cmp_to_key(cmp)))
        if tr.on:
            tr.count("ordinal.compare_calls", calls[0])
        return out

    def run_order_type(self, item, tr):
        level = self.parse(tr, syntax.parse_ordinal, item.data[0])
        w = self.parse(tr, syntax.parse_worm, item.data[1])
        tr.count("worm.letters", len(w))
        o = tr.call("worm.order_type_at", worm.order_type_at, level, w)
        tr.call("syntax.render", syntax.render, o)
        return o

    def run_compare_at(self, item, tr):
        level = self.parse(tr, syntax.parse_ordinal, item.data[0])
        a = self.parse(tr, syntax.parse_worm, item.data[1])
        b = self.parse(tr, syntax.parse_worm, item.data[2])
        tr.count("worm.letters", len(a) + len(b))
        return tr.call("worm.compare_at", worm.compare_at, level, a, b)

    def run_spectrum(self, item, tr):
        t = tr.call("spectra.parse_theory", spectra.parse_theory, item.data[0])
        levels = [self.parse(tr, syntax.parse_ordinal, x) for x in item.data[1]]
        sp = tr.call("spectra.spectrum", spectra.spectrum, t, levels)
        for o in sp.ordinals():
            tr.call("syntax.render", syntax.render, o)
        return t, levels, sp

    def run_arith(self, item, tr):
        a = self.parse(tr, syntax.parse_ordinal, item.data[0])
        b = self.parse(tr, syntax.parse_ordinal, item.data[1])
        c = tr.call("ordinal.add", ordinal.add, a, b)
        d = tr.call("ordinal.left_subtract", ordinal.left_subtract, a, c)
        tr.call("syntax.render", syntax.render, c)
        return b, c, d

    def check(self, item, out, tr):
        return getattr(self, "check_" + item.kind)(item, out)

    def check_derive(self, item, out):
        return None if out is item.expect else "derives said %s" % out

    def check_wnf(self, item, out):
        want = worm.order_type(syntax.parse_worm(item.expect))
        if ordinal.compare(worm.order_type(out), want) != 0:
            return "word %s is not equivalent" % syntax.render(out)
        return None

    def check_sort(self, item, out):
        return None if [ordinal.godel_code(x) for x in out] == item.expect else "sorted out of order"

    def check_order_type(self, item, out):
        if out != syntax.parse_ordinal(item.expect):
            return "order type %s, expected %s" % (syntax.render(out), item.expect)
        return None

    def check_compare_at(self, item, out):
        return None if out == item.expect else "compare_at said %d" % out

    def check_spectrum(self, item, out):
        t, levels, sp = out
        if sp.levels() != levels:
            return "levels changed"
        for level, o in sp:
            if o != worm.order_type_at(level, t.word):
                return "level %s disagrees with the word pipeline" % syntax.render(level)
        return None

    def check_arith(self, item, out):
        b, c, d = out
        if c != syntax.parse_ordinal(item.expect) or d != b:
            return "sum %s, left difference %s" % (syntax.render(c), syntax.render(d))
        return None

    def traced_extras(self, tr):
        """What `rc derives --certificate` adds to a derivable query:
        proof_search at its default depth, then check_derivation, over
        CERT_WINDOW seeded derivable pairs, untimed by the op loop.  On a
        few such pairs proof_search does not end; the timed stream cannot
        hold an op that never answers, so these searches are counted here,
        each held to CERT_LIMIT and reported with its input.  Times are
        means per finished call, at reference speed."""
        rng = gen.workload_rng(self.name + ":cert", self.seed)
        scale = speed.Scale()
        search_s, check_s, stuck = [], [], []
        steps = 0
        for i in range(CERT_WINDOW):
            item = self.draw_derive(rng, want=True)
            f = syntax.parse_formula(item.data[0])
            g = syntax.parse_formula(item.data[1])
            scale.mark()
            t0 = time.perf_counter()
            d, failure = guarded(self, tr.call, "rc.proof_search", rc.proof_search, f, g,
                                 limit=CERT_LIMIT)
            t1 = time.perf_counter()
            show = "rc derives --certificate %r %r" % item.data
            if failure is not None and failure[0] == "timeout":
                stuck.append(show)
                continue
            if failure is not None:
                raise RuntimeError("%s: %s" % (show, failure[1]))
            search_s.append((i, t1 - t0))
            if d is None:  # the depth bound ran out: no certificate
                continue
            tr.call("rc.check_derivation", rc.check_derivation, d)
            check_s.append((i, time.perf_counter() - t1))
            if d.conclusion != (rc.normalize(f), rc.normalize(g)):
                raise RuntimeError("%s: certificate concludes %r" % (show, d.conclusion))
            steps += len(tr.call("rc.to_lines", d.to_lines))
        factors = scale.factors()
        return {
            "rc.proof_search_s": _scaled_mean(search_s, factors),
            "rc.check_derivation_s": _scaled_mean(check_s, factors),
            "rc.certificate_steps": steps,
            "rc.search_found_ratio": len(check_s) / CERT_WINDOW,
            "rc.proof_search_stuck": len(stuck),
        }, stuck


# ----------------------------------------------------------- truth-bounded


class TruthBounded(_InProcess):
    """Bounded sentences with wide quantifier bounds: `truth eval` and
    `truth build-ef`, each checked against direct_eval."""

    name = "truth-bounded"
    limit = 5.0
    window = 30

    def draw(self, rng, i):
        """Shapes and the two commands in a fixed rotation, so every run
        has the same mix."""
        shapes = gen.SENTENCE_SHAPES
        f = gen.rand_sentence(rng, shapes[i % len(shapes)])
        structure = gen.rand_structure(rng, 64)
        kind = ("eval", "build-ef")[i // len(shapes) % 2]
        text = gen.sentence_text(f)
        return Item(kind, (text, structure), None,
                    "truth %s %r --structure %s" % (kind, text, structure))

    def run(self, item, tr):
        f = tr.call("truthcore.parse_truth_formula", truthcore.parse_truth_formula, item.data[0])
        structure = truthcore.load_structure(item.data[1])
        if item.kind == "eval":
            return f, structure, tr.call("truthcore.tr_eval", truthcore.tr_eval, f, structure), True
        s = tr.call("truthcore.build_evaluation", truthcore.build_evaluation, f, structure)
        tr.count("truthcore.eval_entries", len(s))
        valid = tr.call("truthcore.is_evaluation", truthcore.is_evaluation, s, structure)
        return f, structure, s.sent_map[f] == 1, valid

    def check(self, item, out, tr):
        f, structure, got, valid = out
        if valid is not True:
            return "built evaluation fails the local-correctness check: %r" % (valid,)
        want = tr.call("truthcore.direct_eval", truthcore.direct_eval, f, structure)
        return None if got == want else "truth value %s, direct_eval %s" % (got, want)


# --------------------------------------------------------------- cli-batch


class CliBatch:
    """Sequential `rcworm` processes, one at a time."""

    name = "cli-batch"
    in_process = False
    limit = 10.0
    window = 20

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cases = cli_cases.cases(root, os.path.join(os.path.dirname(__file__), "out"))
        # A run covers one whole pass, so every run has the same mix.
        self.min_ops = len(self.cases)

    def stream(self, label, seed=None):
        """Every case once per pass, in a seeded order."""
        rng = gen.workload_rng("%s:%s" % (self.name, label), self.seed if seed is None else seed)
        while True:
            for case in rng.sample(self.cases, len(self.cases)):
                yield Item("cli", case, None, "rcworm " + " ".join(map(repr, case[0])))

    def run(self, item, tr):
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY] + item.data[0],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self.limit)
        return proc.returncode, proc.stdout

    def check(self, item, out, tr):
        return cli_cases.check(item.data, *out)

    def traced_extras(self, tr):
        """cli.main in-process over the window's command lines."""
        from rcworm import cli

        stream = self.stream("run")
        for _ in range(self.window):
            item = next(stream)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tr.call("cli.main", cli.main, list(item.data[0]))
            reason = cli_cases.check(item.data, code, buf.getvalue())
            if reason:
                raise RuntimeError("in-process %s: %s" % (item.show, reason))
        return {}, []


WORKLOADS = {w.name: w for w in (DeriveLarge, QueriesSmall, TruthBounded, CliBatch)}
