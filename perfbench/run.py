"""rcworm benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload derive-large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's src/.  Each run spawns the workload's interpreter SETUPS times
(once when traced) and times each set-up; the last one runs the timed phase.
Every failed op, and in a traced queries-small run every proof_search that
did not end, is printed with its input; the last line of stdout is the
result as JSON, and the same result plus the environment is written to
perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("derive-large", "queries-small", "truth-bounded", "cli-batch")
SETUPS = 11
MIN_OPS = 100  # so that at least ten samples sit beyond p90
RUN_CAP_S = 165.0  # the whole run, set-ups included
# Failures that are not wrong answers: the op ran out of time, or the library
# refused it with a typed DomainError (as the CLI would, with exit 1).
NOT_WRONG = ("timeout", "refused", "oracle timeout")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Worker:
    """One workload interpreter, spoken to line by line with a deadline."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.buf = b""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--min-ops", str(MIN_OPS), "--root", str(ROOT),
               "--spans", str(OUT / ("%s-seed%d-spans.json" % (args.workload, args.seed)))]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)

    def line(self):
        while b"\n" not in self.buf:
            left = self.deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("the workload ran past %.0f s" % RUN_CAP_S)
            if select.select([self.proc.stdout], [], [], left)[0]:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise EOFError("the workload exited with code %s" % self.proc.wait())
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def send(self, text):
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args):
    """Each set-up as (raw seconds outside the warm-up op, spawn factor, the
    warm-up's seconds at reference speed), and the child's result."""
    deadline = time.perf_counter() + RUN_CAP_S
    setups = []
    spawns = 1 if args.trace else SETUPS
    before = speed.spawn_factor()
    for i in range(spawns):
        w = Worker(args, deadline)
        try:
            ready = w.line().split()
            elapsed = time.perf_counter() - w.started
            if len(ready) != 3 or ready[0] != "READY":
                raise RuntimeError("the workload did not report READY")
            warm_raw, warm_scaled = map(float, ready[1:])
            # The READY interpreter waits on stdin while the factor is taken.
            after = speed.spawn_factor()
            setups.append((elapsed - warm_raw, (before + after) / 2, warm_scaled))
            before = after
            if i + 1 < spawns:
                w.send("quit")
                w.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
                continue
            w.send("go")
            line = w.line()
            while not line.startswith("RESULT "):
                print(line)
                line = w.line()
            w.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            return setups, json.loads(line[len("RESULT "):])
        finally:
            w.stop()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside
    a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    src_lines = sum(1 for p in sorted((ROOT / "src" / "rcworm").rglob("*.py"))
                    for line in p.read_text().splitlines() if line.strip())
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "seed": args.seed, "git_commit": git_commit(), "src_lines": src_lines}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="op time to measure (split in halves when traced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rcworm" / "__init__.py").is_file():
        sys.exit("perfbench: no rcworm sources under %s" % (ROOT / "src"))
    units = declared_units(args.trace)
    OUT.mkdir(exist_ok=True)
    # One CPU for this process, the workload and its children, so the
    # reference loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        setups, result = measure(args)
    except (OSError, RuntimeError, EOFError, TimeoutError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: %s" % e)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(t * f + warm for t, f, warm in setups)
    failures = result["failures"]
    for f in failures:
        print("FAILED op %d (%s) %s: %s\n    input: %s"
              % (f["op"], f["kind"], f["category"], f["reason"], f["input"]))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args), "setup_s_start_factor_warm": setups,
              "attempted": result["attempted"], "failed": len(failures),
              "raw": result["raw"], "metrics": metrics, "failures": failures,
              "stuck": result.get("stuck", [])}
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print("%s seed %d: %d ops attempted, %d failed, %.2f s of raw op time"
          % (args.workload, args.seed, result["attempted"], len(failures), result["raw"]["op_s"]))
    for name in sorted(metrics):
        print("  %-32s %s" % (name, metrics[name]))
    if set(units) != set(metrics):
        sys.exit("perfbench: measured %s, declared %s" % (sorted(metrics), sorted(units)))
    print(json.dumps({
        "correct": all(f["category"] in NOT_WRONG for f in failures),
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
