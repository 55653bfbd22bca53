import gc
import importlib.util
import json
import sys
from pathlib import Path

import reglang as rl

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The reglang modules a cold-start process loads: the front end, and
# beside it those its command runs.
FRONT_END = ("reglang", "reglang._record", "reglang.automata", "reglang.errors",
             "reglang.graphs", "reglang.regex")
ANALYSIS = {
    "build_process_s": (),
    "import_process_s": ("cli",),
    "entropy_process_s": ("cli", "spectral"),
    "entropy_golden_process_s": ("cli", "spectral"),
    "analyze_process_s": ("cli", "counting"),
    "distance_h_process_s": ("cli", "counting", "metrics", "spectral"),
    "distance_jn_process_s": ("cli", "counting", "metrics", "spectral"),
}


def test_smallest_rung_of_each_family_is_timed():
    ladder = _ladder()
    smallest = {
        name: (sizes[:1], patterns, layers)
        for name, (sizes, patterns, layers) in ladder.FAMILIES.items()
    }
    records = ladder.measure(rl, smallest, runs=1, cold_runs=1)
    assert [(r["family"], r["size"]) for r in records] == [
        ("tie", 4),
        ("disjoint", 4),
        ("gap", 4),
        ("chain", 1000),
        ("periodic", 100),
        ("cold", 4),
    ]
    from_regex = ("dfa_from_regex_left_s", "dfa_from_regex_right_s", "compile_left_s",
                  "compile_right_s", "determinize_left_s", "determinize_right_s")
    counting = ("minimize_left_s", "minimize_right_s", "jaccard_cum_n_s", "jaccard_exact_n_s")
    pair = ("entropy_distance_s", "cesaro_jaccard_s", "entropy_sum_s")
    jaccard_first = ("jaccard_cum_n_first_s", "jaccard_exact_n_first_s")
    pair_first = ("entropy_distance_first_s", "cesaro_jaccard_first_s", "entropy_sum_first_s")
    structure = (
        "trim_left_s",
        "trim_right_s",
        "essential_left_s",
        "essential_right_s",
        "scc_decompose_left_s",
        "scc_decompose_right_s",
        "language_entropy_left_s",
        "language_entropy_right_s",
        "separating_n_s",
        "count_vectors_left_s",
        "count_vectors_right_s",
        "trim_left_kept_s",
        "trim_right_kept_s",
        "essential_left_kept_s",
        "essential_right_kept_s",
        "scc_decompose_left_kept_s",
        "scc_decompose_right_kept_s",
        "language_entropy_left_kept_s",
        "language_entropy_right_kept_s",
        "separating_n_kept_s",
        "count_vectors_left_kept_s",
        "count_vectors_right_kept_s",
    )
    count_vectors = (
        "count_vectors_left_s",
        "count_vectors_right_s",
        "count_vectors_left_kept_s",
        "count_vectors_right_kept_s",
    )
    separation = ("separating_n_s", "separating_n_kept_s")
    build = ("build_process_s",)
    jn_process = ("distance_jn_process_s",)
    command_line = (
        "entropy_process_s",
        "distance_h_process_s",
        "distance_jn_process_s",
        "entropy_golden_process_s",
        "analyze_process_s",
    )
    import_only = ("import_process_s",)
    long = ("jaccard_cum_n_long_s", "jaccard_cum_n_long_first_s")
    expected = {"tie": from_regex + counting + pair + jaccard_first + pair_first + long
                + count_vectors + build + jn_process,
                "disjoint": from_regex + counting + pair + jaccard_first + pair_first + separation
                + build + jn_process,
                "gap": pair + pair_first,
                "chain": from_regex + counting + jaccard_first + structure + build + jn_process,
                "periodic": from_regex + ("jaccard_cum_n_s", "jaccard_exact_n_s") + jaccard_first
                + structure + build + jn_process,
                "cold": import_only + command_line}
    for record in records:
        timed = [key for key in record if key.endswith("_s")]
        assert timed == list(expected[record["family"]]), record
        for layer in timed:
            assert isinstance(record[layer], float), (record, layer)
        # only the golden-ratio control has a component that needs iteration
        loaded = {key for key in record if key.endswith("_numpy") and record[key]}
        assert loaded == ({"entropy_golden_process_numpy"} if record["family"] == "cold" else set())
        for layer in timed:
            if layer in ladder.PROCESSES:
                layers = {f"reglang.{m}" for m in ANALYSIS[layer]}
                assert record[f"{layer[:-2]}_modules"] == sorted({*FRONT_END, *layers}), layer


class _Run:
    stdout = "reglang\n"


def test_cold_start_processes_read_no_bytecode_cache(monkeypatch):
    # each process imports a copy of the package without `__pycache__`
    # and writes none, so neither checkout reads a cache left behind
    ladder = _ladder()
    src = Path(rl.__file__).resolve().parents[1]
    copies = []

    def run(command, **kwargs):
        package = Path(command[4]) / "reglang"
        copies.append(sorted(path.name for path in package.iterdir()))
        assert command == [sys.executable, "-B", "-c", ladder.PROBE, command[4], "import"]
        return _Run()

    monkeypatch.setattr(ladder.subprocess, "run", run)
    seconds, modules = ladder.process_time(src, ["import"], runs=2)
    assert seconds >= 0.0 and modules == ["reglang"]
    sources = sorted(path.name for path in (src / "reglang").glob("*.py"))
    assert copies == [sources, sources]


def _spin():
    for _ in range(10**9):
        pass


def test_a_run_over_budget_is_a_timeout():
    ladder = _ladder()
    assert ladder.median_time(_spin, runs=1, budget=0.05) is None
    assert ladder.median_time(lambda: None, runs=3) >= 0.0


def test_the_collector_is_off_inside_a_timed_call_and_restored_after_it():
    ladder = _ladder()
    seen = []
    ladder.median_time(lambda: seen.append(gc.isenabled()), runs=3, warmup=1)
    assert seen == [False] * 4 and gc.isenabled()
    assert ladder.median_time(_spin, runs=1, budget=0.05) is None and gc.isenabled()
    gc.disable()
    try:
        ladder.median_time(lambda: seen.append(gc.isenabled()), runs=1)
        assert not gc.isenabled() and seen[-1] is False
    finally:
        gc.enable()


def test_fresh_layers_time_a_copy_that_has_kept_nothing():
    ladder = _ladder()
    dfa = rl.dfa_from_regex("(a|b)*ab")
    copies = []
    ladder.median_time(copies.append, runs=3, prepare=lambda: (ladder.fresh(rl, dfa),))
    assert len({id(copy) for copy in copies}) == 3
    assert all(copy == dfa and copy is not dfa for copy in copies)
    calls = []
    ladder.median_time(lambda: calls.append(len(calls)), runs=3, warmup=1)
    assert calls == [0, 1, 2, 3]


class _Logged:
    """A reglang stand-in that logs its name on every `jaccard_cum_n`."""

    def __init__(self, name, log):
        self.name, self.log = name, log
        self.dfa_from_regex = rl.dfa_from_regex

    def jaccard_cum_n(self, a, b, n):
        self.log.append(self.name)
        return rl.jaccard_cum_n(a, b, n)


def test_alternating_rounds_take_turns_to_go_first():
    ladder = _ladder()
    log = []
    trees = {"x": _Logged("x", log), "y": _Logged("y", log)}
    families = {"tie": ((4,), ladder.tie, ("jaccard_cum_n_s",))}
    records = ladder.alternate(trees, families, rounds=4, runs=1)
    assert log == ["x", "y", "y", "x", "x", "y", "y", "x"]
    for name in trees:
        (record,) = records[name]
        assert (record["family"], record["size"]) == ("tie", 4)
        assert isinstance(record["jaccard_cum_n_s"], float)
        low, high = record["jaccard_cum_n_quartiles"]
        assert low <= record["jaccard_cum_n_s"] <= high
        # rounds are counted as won only between "src" and "against"
        assert "jaccard_cum_n_wins" not in record


def test_a_sub_microsecond_time_keeps_four_significant_figures(monkeypatch):
    ladder = _ladder()
    times = iter([1.2345678e-07, 2.3456789e-07, 3.4567891e-07])
    monkeypatch.setattr(ladder, "median_time", lambda *args, **kwargs: next(times))
    families = {"tie": ((4,), ladder.tie, ("trim_left_kept_s",))}
    (record,) = ladder.alternate({"src": rl}, families, rounds=3, runs=1)["src"]
    assert record["trim_left_kept_s"] == 2.346e-07
    assert record["trim_left_kept_quartiles"] == [1.79e-07, 2.901e-07]


def test_against_times_a_second_checkout_at_the_smallest_rungs(tmp_path, monkeypatch):
    ladder = _ladder()
    smallest = {
        name: (sizes[:1], patterns, layers)
        for name, (sizes, patterns, layers) in ladder.FAMILIES.items()
        if name in ("tie", "periodic")
    }
    for name, value in (("FAMILIES", smallest), ("ROUNDS", 2), ("RUNS", 1), ("COLD_RUNS", 1)):
        monkeypatch.setattr(ladder, name, value)
    out = tmp_path / "pair.json"
    # the same sources, imported a second time under another module name
    layers = ["dfa_from_regex_left_s", "jaccard_cum_n_s", "trim_left_s", "distance_jn_process_s"]
    src = str(Path(rl.__file__).resolve().parents[1])
    argv = ["--src", src, "--against", src, "--layers", *layers]
    assert ladder.main([*argv, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"env", "against_env", "alternating"}
    alternating = result["alternating"]
    assert (alternating["rounds"], alternating["runs"], alternating["cold_runs"]) == (2, 1, 1)
    expected = {
        ("tie", 4): ["dfa_from_regex_left_s", "jaccard_cum_n_s", "distance_jn_process_s"],
        ("periodic", 100): layers,
    }
    for name in ("src", "against"):
        records = alternating[name]
        assert {(r["family"], r["size"]): [k for k in r if k.endswith("_s")] for r in records} == expected
        for record in records:
            for layer in expected[record["family"], record["size"]]:
                assert isinstance(record[layer], float), (name, record, layer)
                low, high = record[f"{layer[:-2]}_quartiles"]
                assert low <= record[layer] <= high, (name, record, layer)
                wins = record.get(f"{layer[:-2]}_wins")
                if name == "src":
                    assert wins in range(3), (record, layer)  # of the 2 rounds
                else:
                    assert wins is None, (record, layer)
    assert ladder.load(Path(src), "reglang_against") is not rl
