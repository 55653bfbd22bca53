"""Smoke test of the benchmark at its smallest sizes; no timing bounds."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import references as ref
import run
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_each_workload_reports_every_end_to_end_metric():
    names = [m["name"] for m in SPEC["end_to_end"]]
    for workload in wl.NAMES:
        result = run.run_workload(workload, seed=3, seconds=0.0, small=True)
        assert result["correct"], workload
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_unwraps():
    rl = wl.import_reglang()
    trim = rl.trim
    names = [m["name"] for m in SPEC["per_layer"]]
    for workload in wl.NAMES:
        result = run.run_workload(workload, seed=3, seconds=0.0, trace=1, small=True)
        assert result["correct"], workload
        assert list(result["metrics"]) == names
        spans = (run.SPANS_DIR / f"spans-{workload}.csv").read_text().splitlines()
        assert spans[0] == "name,start,end,parent,op" and len(spans) > 1
    assert rl.trim is trim
    assert sys.modules["reglang.metrics"].combine is sys.modules["reglang.automata"].combine


def test_self_times_add_up_to_the_traced_operation_time():
    rl = wl.import_reglang()
    dfas = wl.build(rl, "corpus_matrix", small=True)
    ops = wl.operations(rl, "corpus_matrix", dfas, small=True)
    tracer = Tracer()
    tracer.install()
    try:
        done = run.run_pass(ops, random.Random(0), tracer)
    finally:
        tracer.uninstall()
    op_s = sum(seconds for _op, _out, seconds, _factor in done)
    accounted = sum(tracer.self_times()) + sum(tracer.over)
    assert abs(accounted - op_s) <= 0.05 * op_s
    layers = {name.split(".")[0] for name, *_rest in tracer.spans()}
    assert layers == {"automata", "graphs", "counting", "spectral", "metrics"}


def test_lockstep_counts_match_the_suffix_closed_form():
    rl = wl.import_reglang()
    for k in (2, 3):
        a, b = (rl.dfa_from_regex(f"(a|b)*a(a|b){{{m}}}", "ab") for m in (k, k - 1))
        counts = ref.pair_counts(a, b)
        for n in range(12):
            sym, uni = next(counts)
            if n < k:
                assert (sym, uni) == (0, 0)
            elif n == k:
                assert (sym, uni) == (2 ** (k - 1),) * 2
            else:
                assert (sym, uni) == (2 ** (n - 1), 3 * 2 ** (n - 2))
        h, hs = ref.pair_entropies(a, b)
        assert abs(h - 1.0) <= ref.ENTROPY_TOL and abs(hs - 2.0) <= ref.ENTROPY_TOL


def test_cesaro_window_reference_is_within_its_own_error():
    rl = wl.import_reglang()
    even, triple = rl.harmonize_all([rl.dfa_from_regex("(aa)*"), rl.dfa_from_regex("(aaa)*")])
    value, error = ref.cesaro_window(even, triple, horizon=4000)
    assert abs(value - 0.75) <= ref.cesaro_tolerance(error)
    assert error > 0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
