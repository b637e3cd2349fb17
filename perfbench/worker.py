"""One workload in one fresh interpreter, driven by run.py.

Protocol: after set-up (import, input stream, one warm-up operation and its
oracle) print "READY <raw> <scaled>" and read one line from stdin: raw is
the wall time of the warm-up op and of the reference loops timed around it,
scaled the op's time at reference speed, both 0 for cli-batch.  "go" runs
the timed phase and prints RESULT <json>; anything else exits.  The loop is
closed with one client: the next operation starts after the previous one's
answer has been checked.  In-process operations run under an interval timer,
so an operation that passes its workload's limit raises OpTimeout and counts
as one failure; the cli-batch subprocesses carry the same limit as a timeout.
A traced run ends with the workload's own extra pass (traced_extras), whose
reported inputs are printed as "STUCK <input>" lines before the result.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import speed
import tracing
from workloads import WORKLOADS, guarded, on_alarm

# The whole timed part of a run stops here even if min-ops is not reached.
WALL_CAP_S = 120.0
# ops_per_s is a median over this many blocks of the run's ops: on
# queries-small a few `rc wnf` ops a run take 0.05-3.5 s each, and how many a
# seed draws moved a whole-run mean by 10-20% between seeds.
BLOCKS = 20

# Per-layer metrics: name -> the span names whose self time it sums, per op.
LAYER_TIMES = {
    "rc.normalize_s": ["rc.normalize"],
    "rc.build_model_s": ["rc.build_minimal_model"],
    "rc.model_check_s": ["rc.model_check"],
    "rc.wnf_s": ["rc.word_normal_form"],
    "ordinal.compare_s": ["ordinal.compare"],
    "ordinal.code_s": ["ordinal.godel_decode"],
    "ordinal.arith_s": ["ordinal.add", "ordinal.left_subtract"],
    "worm.order_type_s": ["worm.order_type_at", "worm.compare_at"],
    "spectra.spectrum_s": ["spectra.spectrum", "spectra.parse_theory"],
    "syntax.parse_s": ["syntax.parse_formula", "syntax.parse_ordinal", "syntax.parse_worm"],
    "syntax.render_s": ["syntax.render"],
    "truthcore.parse_s": ["truthcore.parse_truth_formula"],
    "truthcore.tr_eval_s": ["truthcore.tr_eval"],
    "truthcore.build_evaluation_s": ["truthcore.build_evaluation"],
    "truthcore.is_evaluation_s": ["truthcore.is_evaluation"],
    "truthcore.direct_eval_s": ["truthcore.direct_eval"],
}
LAYER_COUNTS = ["rc.model_nodes", "rc.model_strengths", "rc.model_edges",
                "ordinal.compare_calls", "worm.letters", "truthcore.eval_entries"]
# Per-layer metrics that only a workload's traced_extras measures; 0 elsewhere.
EXTRAS = ["rc.proof_search_s", "rc.check_derivation_s", "rc.certificate_steps",
          "rc.search_found_ratio", "rc.proof_search_stuck"]
# Prints how long a fresh `import rcworm.cli` takes inside the new process.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rcworm.cli; "
                "print(time.perf_counter() - t)")


def _checked(wl, item, tr):
    """Run one op, then its oracle: (raw seconds of the op, failure or None)."""
    t0 = time.perf_counter()
    out, failure = guarded(wl, tr.call, "op." + item.kind, wl.run, item, tr)
    elapsed = time.perf_counter() - t0
    if failure is None:
        wrong, failure = guarded(wl, wl.check, item, out, tr)
        if failure is not None:
            failure = ("oracle " + failure[0], failure[1])
        elif wrong is not None:
            failure = ("wrong", wrong)
    return elapsed, failure


def run_phase(wl, tr, seconds, min_ops):
    """Closed loop until `seconds` of raw op time and `min_ops` ops are done.
    Returns per-op raw latencies and speed factors, and the failures."""
    stream = wl.stream("run")
    scale = speed.Scale()
    latencies, failures = [], []
    busy = 0.0
    started = time.perf_counter()
    min_ops = max(min_ops, 2)  # percentiles need two samples
    while busy < seconds or len(latencies) < min_ops:
        if time.perf_counter() - started > WALL_CAP_S:
            break
        item = next(stream)
        op = len(latencies)
        scale.mark()
        tr.op = op
        elapsed, failure = _checked(wl, item, tr)
        busy += elapsed
        latencies.append(elapsed)
        if failure is not None:
            failures.append({"op": op, "kind": item.kind, "category": failure[0],
                             "reason": failure[1], "input": item.show})
    return latencies, scale.factors(), failures


def window_counts(wl):
    """Exact counts over the first `wl.window` ops of the run stream, and
    how many of them failed."""
    tr = tracing.Tracer()
    stream = wl.stream("run")
    failed = 0
    for op in range(wl.window):
        tr.op = op
        failed += _checked(wl, next(stream), tr)[1] is not None
    return tr.counts, failed


def summary(latencies, factors, failures):
    """End-to-end figures of one phase, at reference speed, plus raw ones
    (and the whole-phase mean throughput, which the rare slow op sways)."""
    ok = len(latencies) - len(failures)
    scaled = [t * f for t, f in zip(latencies, factors)]
    failed_ops = {f["op"] for f in failures}
    return {
        "ops_per_s": _block_throughput(scaled, failed_ops),
        "op_ms_p50": 1000 * _quantile(scaled, 50),
        "op_ms_p90": 1000 * _quantile(scaled, 90),
        "ok_ratio": ok / len(latencies),
    }, {
        "ops_per_s": _block_throughput(latencies, failed_ops),
        "op_ms_p50": 1000 * _quantile(latencies, 50),
        "op_ms_p90": 1000 * _quantile(latencies, 90),
        "op_s": sum(latencies),
        "speed_factor_median": statistics.median(factors),
        "scaled_ops_per_s_whole_phase": ok / sum(scaled),
    }


def _block_throughput(times, failed_ops):
    """Median over BLOCKS equal runs of consecutive ops of (ops that passed
    / their total time)."""
    n = len(times)
    k = min(BLOCKS, n)
    rates = []
    for b in range(k):
        lo, hi = b * n // k, (b + 1) * n // k
        passed = sum(1 for i in range(lo, hi) if i not in failed_ops)
        rates.append(passed / sum(times[lo:hi]))
    return statistics.median(rates)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _probe(root, code, timed_inside=False, repeat=5):
    """Median time of a fresh interpreter running `code`, or of the time the
    code prints when timed_inside, at reference speed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(repeat):
        factor = speed.factor_now()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed = float(proc.stdout) if timed_inside else time.perf_counter() - t0
        times.append(elapsed * factor)
    return statistics.median(times)


def untraced_result(wl, seconds, min_ops):
    latencies, factors, failures = run_phase(wl, tracing.NullTracer(), seconds,
                                             max(min_ops, wl.min_ops))
    metrics, raw = summary(latencies, factors, failures)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return {"attempted": len(latencies), "failures": failures, "raw": raw, "metrics": metrics}


def traced_result(wl, seconds, root, spans_path):
    """Half the time untraced, then half traced over the same op stream."""
    base, _ = summary(*run_phase(wl, tracing.NullTracer(), seconds / 2, 1))
    tr = tracing.Tracer()
    latencies, factors, failures = run_phase(wl, tr, seconds / 2, 1)
    traced, raw = summary(latencies, factors, failures)
    tr.op = -1
    extras, stuck = wl.traced_extras(tr)
    for show in stuck:
        print("STUCK " + show, flush=True)
    ops = len(latencies)
    total, calls = tr.self_times(factors)
    metrics = {name: sum(total[s] for s in spans) / ops for name, spans in LAYER_TIMES.items()}
    counts, window_failed = window_counts(wl)
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    metrics.update({name: extras.get(name, 0) for name in EXTRAS})
    metrics["cli.main_s"] = total["cli.main"] / calls["cli.main"] if calls["cli.main"] else 0.0
    metrics["cli.interp_s"] = _probe(root, "pass")
    metrics["cli.import_s"] = _probe(root, IMPORT_PROBE, timed_inside=True)
    metrics["trace.untraced_ops_per_s"] = base["ops_per_s"]
    metrics["trace.ops_per_s"] = traced["ops_per_s"]
    metrics["trace.overhead_pct"] = 100 * (1 - traced["ops_per_s"] / base["ops_per_s"])
    metrics["trace.window_failed"] = window_failed
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tr.spans,
                   "speed_factor_by_op": factors}, fh)
    return {"attempted": ops, "failures": failures, "raw": raw, "metrics": metrics,
            "stuck": stuck}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, on_alarm)
    wl = WORKLOADS[args.workload](args.seed, args.root)
    if wl.in_process:
        import rcworm

        src = os.path.join(os.path.realpath(args.root), "src")
        if not os.path.realpath(rcworm.__file__).startswith(src + os.sep):
            sys.exit("rcworm was imported from %s, not from %s" % (rcworm.__file__, src))
    # The same warm-up op for every seed, so that set-up does the same work
    # whatever the seed.  It only warms up: its failures are the timed
    # phase's to report.
    warm = next(wl.stream("warmup", seed=0))
    started = time.perf_counter()
    # An in-process warm-up op is compute, which the reference loop tracks;
    # run.py scales the rest of set-up, mostly process start-up, otherwise.
    before = speed.factor_now() if wl.in_process else 0.0
    t0 = time.perf_counter()
    out, failure = guarded(wl, wl.run, warm, tracing.NullTracer())
    if failure is None:
        guarded(wl, wl.check, warm, out, tracing.NullTracer())
    warm_s = time.perf_counter() - t0
    raw = scaled = 0.0
    if wl.in_process:
        scaled = warm_s * (before + speed.factor_now()) / 2
        raw = time.perf_counter() - started
    print("READY %r %r" % (raw, scaled), flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    if args.trace:
        result = traced_result(wl, args.seconds, args.root, args.spans)
    else:
        result = untraced_result(wl, args.seconds, args.min_ops)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
