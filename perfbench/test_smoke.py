"""Smoke test of the benchmark itself, at a tiny load.

    python3 -m pytest perfbench/test_smoke.py

Checks that the benchmark's own oracles agree with the library on inputs
whose answers are known, that every workload emits every declared metric
with all oracles passing, that the exact counts of a traced run repeat under
the same seed, and that the benchmark refuses to run without the sources.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from functools import cmp_to_key
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cli_cases  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from rcworm import cli, ordinal, rc, syntax, worm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ["rc.model_nodes", "rc.model_strengths", "rc.model_edges", "rc.certificate_steps",
         "rc.search_found_ratio", "rc.proof_search_stuck", "ordinal.compare_calls",
         "worm.letters", "truthcore.eval_entries", "trace.window_failed"]
# run.py's main() with MIN_OPS lowered, so that a run is a few ops long.
TINY = ("import sys; sys.path.insert(0, sys.argv[1]); import run; run.MIN_OPS = 3; "
        "sys.argv = sys.argv[1:]; run.main()")


def run_bench(workload, trace, seed=7, bench=HERE, cwd=ROOT):
    """The benchmark in `bench` at a tiny load: 0.3 s of op time, 3 ops."""
    return subprocess.run([sys.executable, "-c", TINY, str(bench), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_ordinal_family_matches_library():
    rng = random.Random(3)
    batch = [gen.rand_ord(rng) for _ in range(200)] + [(), gen.CEILING]
    parsed = [syntax.parse_ordinal(gen.ord_text(a)) for a in batch]
    for a, p in zip(batch, parsed):
        assert ordinal.godel_code(p) == gen.ord_code(a)
    by_library = sorted(range(len(batch)), key=cmp_to_key(
        lambda i, j: ordinal.compare(parsed[i], parsed[j])))
    assert [batch[i] for i in by_library] == sorted(batch)
    for a, b in zip(batch, batch[1:]):
        s = gen.ord_add(a, b)
        assert ordinal.add(syntax.parse_ordinal(gen.ord_text(a)),
                           syntax.parse_ordinal(gen.ord_text(b))) == syntax.parse_ordinal(gen.ord_text(s))


def test_worm_closed_form_matches_order_type():
    rng = random.Random(5)
    for _ in range(50):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 30))]
        got = worm.order_type(syntax.parse_worm(workloads._lifted_text((), bits)))
        want = gen.ord_text(workloads._worm01_type(bits), gen.power_text)
        assert got == syntax.parse_ordinal(want), (bits, want)


def test_constructed_pairs_have_their_answers():
    rng = random.Random(11)
    indices = workloads.SMALL_INDICES
    for _ in range(300):
        lhs, rhs, want = gen.derive_pair(rng, rng.randint(2, 12), indices,
                                         workloads._ceiling_above)
        texts = [gen.formula_text(f, gen.ord_text) for f in (lhs, rhs)]
        assert rc.derives(*map(syntax.parse_formula, texts)) is want, texts


def test_cli_cases_hold_in_process(tmp_path):
    for case in cli_cases.cases(str(ROOT), str(tmp_path)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(case[0]))
        assert cli_cases.check(case, code, buf.getvalue()) is None, case


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_counts_repeat_under_a_seed():
    first, second = (last_json(run_bench("queries-small", 1, seed=5))["metrics"]
                     for _ in range(2))
    assert {k: first[k]["value"] for k in EXACT} == {k: second[k]["value"] for k in EXACT}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("derive-large", 0, bench=tmp_path / "perfbench", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
