"""Smoke test of the benchmark on tiny sizes of each workload.

    python3 -m pytest bench/test_smoke.py -q
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

import check  # noqa: E402
import workloads  # noqa: E402
from ndsolve import cli  # noqa: E402
from ndsolve.backends import clear_graver_cache  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "desk": functools.partial(workloads.desk, per_problem=1),
    "graver": functools.partial(workloads.graver, count=2, max_n=30),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=bool(trace), build=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_workloads_name_every_route_and_repeat_per_seed(tmp_path):
    for build in TINY.values():
        _, ops = build(5, str(tmp_path))
        _, again = build(5, str(tmp_path))
        assert [o.argv for o in ops] == [o.argv for o in again]
        for op in ops:
            flags = set(op.argv)
            assert "--budget" in flags or op.argv[0] == "graver"
            assert flags & {"--model", "--algo", "--max-elements"}
            assert ("--q" in flags) == (op.problem == "maxqcut")


def test_corrupted_expected_value_fails_the_gate(tmp_path):
    cases, ops = TINY["desk"](3, str(tmp_path))
    results = run.one_pass(ops, cli.main, clear_graver_cache, run.BestTimes())[1]
    assert check.judge(cases, ops, results) == ([], [])
    case = next(c for c in cases if c.inst.problem == "sumcol")
    case.expected[None] += 1
    failed, errors = check.judge(cases, ops, results)
    assert failed == [] and any("oracle says" in e for e in errors)


def test_later_pass_printing_other_output_fails_the_gate(tmp_path):
    cases, ops = TINY["desk"](3, str(tmp_path))
    calls = iter(range(10**6))

    def main(argv):
        code = cli.main(argv)
        if next(calls) == len(ops):  # the first op of the second pass
            print("extra")
        return code

    best = run.BestTimes()
    passes = [run.one_pass(ops, main, clear_graver_cache, best)]
    passes.append(run.one_pass(ops, main, clear_graver_cache, best, reference=passes[0][1]))
    assert passes[1][1] == [0]
    errors = run.judge_passes(cases, ops, passes, check.judge)[1]
    assert errors == [f"{ops[0].case} {ops[0].route}: pass 2 printed other output than pass 1"]


def test_tampered_witness_fails_the_gate(tmp_path):
    cases, ops = TINY["desk"](3, str(tmp_path))
    results = run.one_pass(ops, cli.main, clear_graver_cache, run.BestTimes())[1]
    i = next(i for i, op in enumerate(ops) if op.problem == "maxqcut")
    code, out = results[i]
    results[i] = (code, out.replace("witness: 1:", "witness: 1:9", 1))  # vertex 1 in part 9x > q
    assert any("partition" in e for e in check.judge(cases, ops, results)[1])


def test_exits_without_result_when_sources_are_absent(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_best_times_sum_piece_minima():
    best = run.BestTimes()
    best.fold([[1.0, 5.0], [2.0], [1.0, 5.0]])
    best.fold([[3.0, 4.0], [1.5], [5.5]])
    assert best.per_op() == [5.0, 1.5, 5.5]
    assert best.whole == [6.0, 1.5, 5.5]


def test_piece_clock_cuts_ops_at_lp_calls(tmp_path):
    from ndsolve import algorithms, backends

    originals = (backends.solve_lp, algorithms.solve_lp)
    _, ops = TINY["desk"](3, str(tmp_path))
    best = run.BestTimes()
    with run.PieceClock() as clock:
        first = run.one_pass(ops, cli.main, clear_graver_cache, best, clock=clock)
        counts = [len(b) for b in best.pieces]
        again = run.one_pass(ops, cli.main, clear_graver_cache, best, first[1], clock)
    assert (backends.solve_lp, algorithms.solve_lp) == originals
    assert again[1] == []
    assert [len(b) for b in best.pieces] == counts
    assert all(n % 2 == 1 for n in counts) and max(counts) > 1
