"""Time layers of reglang on a ladder of input sizes and write JSON.

    python scripts/ladder.py --out ladder.json
    python scripts/ladder.py --src ../other-checkout/src --out other.json
    python scripts/ladder.py --against ../parent/src --layers jaccard_cum_n_s --out pair.json

Front-end layers, timed in process on each operand's pattern:
`dfa_from_regex`, the parse, compile and determinization; `compile`,
the parse and `compile_to_nfa`; and `determinize` of the position
automaton, compiled outside the timed call.  Counting
layers: `minimize` of each operand of a pair, and
`jaccard_cum_n(a, b, 200)` and `jaccard_exact_n(a, b, 200)` of the pair,
the first also timed as a whole process running `reglang distance
--metric jn --n 200`.  Pair layers: `entropy_distance`,
`cesaro_jaccard` and `entropy_sum` of the pair.  A pair's operands keep
its refinement outcome, and a DFA that refines the other its counting
quotient, so these five layers mostly time calls that read what the
first call kept; each has a `<layer>_first` twin that times the same
call on fresh equal copies of the operands, made outside the timed
call, and so pays for what it keeps.  Structural layers: `trim`,
`essential(trim(d))`, `scc_decompose(trim(d))`, `language_entropy` and
`CountVectors.from_dfa` of each operand, and `separating_n` of the pair,
which the disjoint family times too: its operands lie equally far from
acceptance, so their separation searches the pairs of states.  A DFA
keeps the components of one search over its table, its spectral report,
its trim graph and its distances to acceptance, so each run of those
six layers gets fresh equal copies of the operands, made outside the
timed call, and pays for the whole analysis; its `<layer>_kept` twin
times the same call repeated on the same operands, after a first,
untimed call.  A DFA keeps no counting system, so the
`count_vectors_*_kept` twins time the whole build again, and no
essential graph, so the `essential_*_kept` twins time `essential` again
on the kept trim graph and search.  Cold-start
layers time whole processes, each a fresh interpreter: `build_process_s`
imports reglang and builds the rung's two operands, in every family but
the cold one; the cold family times `import_process_s`, which imports
`reglang` and `reglang.cli` and builds nothing, and runs the command
line on the tie pair: `reglang entropy` of its left operand, `reglang
distance --metric h` and `--metric jn --n 200` of the pair, `reglang
entropy '(a|bb)*'`, whose component needs power iteration, and `reglang
analyze --counts 20` of its left operand.
Beside each cold-start time, `<layer>_numpy` records whether the process
loaded numpy, and `<layer>_modules` the sorted names of the reglang
modules it loaded.  Each process runs with `-B` and imports a copy of
the checkout's package made in an empty directory, so it compiles
reglang from source and reads no bytecode cache of either checkout,
however old; the standard library keeps its caches, as in any installed
interpreter.
Rungs, each family in increasing size:

- tie k:        (a|b)*a(a|b){k}  against (a|b)*a(a|b){k-1},  k = 4..12
- disjoint k:   (a|b)*a(a|b){k}  against (a|b)*b(a|b){k},    k = 4..12
- gap k:        (a|b)*a(a|b){k}  against a*b(a|b){k},        k = 4..12
- chain n:      a{n}(a|b)*       against a{n+1000},          n = 1000..16000
- periodic m:   P(m)             against P(m+1),             m = 100..3200
- cold k:       the tie pair,                                k = 4, 7, 12

where P(m) = (a{2})*b(a{3})*b(a{4})*b(a{2})*b... has m starred parts, the
i-th of period 2 + i mod 3, so its trim graph has m periodic components.
Every family but the cold and gap ones times the front-end layers.  The
first two families time the counting and pair layers, and the tie
family the `count_vectors` ones too; the gap family, whose operands
grow at different orders (1 bit against 0), times the pair layers
alone; the periodic family times the structural ones
and the three finite-horizon layers, and the chain the counting and
structural ones.  Each family that times a finite-horizon or pair layer
times its `_first` twin too.  Under lumping, the
counting systems of the first two families shrink to a few vertices; the
chain's do not shrink.  Each time is the median of RUNS
wall-clock runs, after the operands are built (COLD_RUNS processes for a
cold-start layer), kept to FIGURES significant figures.  A run longer than
BUDGET_S seconds is stopped and recorded as "timeout", and that layer is
"skipped" on the family's larger rungs.  `--src` selects the reglang
sources to time, so one script times two checkouts alike, and `--layers`
times only the named layers.

`--against` times a second checkout in the same run, imported beside the
first under another module name.  Each layer of each rung is then timed
in ROUNDS rounds; in a round each checkout times it once (the median of
RUNS runs, or of COLD_RUNS processes), the two taking turns to go first,
so that a drift of the host's speed over the run reaches both alike.
The output holds, under "alternating", each checkout's records with the
median over the rounds of each layer, its first and third quartiles over
the rounds as `<layer>_quartiles`, and in the records of `src` the
number of rounds in which `src` took less time than `against` as
`<layer>_wins`: a change shows where the two checkouts' quartiles part
and `src` wins nearly every round, not in one ratio of medians.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 3
COLD_RUNS = 5
ROUNDS = 5
BUDGET_S = 10.0
FIGURES = 4
HORIZON = 200
GOLDEN = "(a|bb)*"

# layer -> the call it times, on the operands a and b of a rung
LAYERS = {
    "minimize_left_s": lambda rl, a, b: rl.minimize(a),
    "minimize_right_s": lambda rl, a, b: rl.minimize(b),
    "jaccard_cum_n_s": lambda rl, a, b: rl.jaccard_cum_n(a, b, HORIZON),
    "jaccard_exact_n_s": lambda rl, a, b: rl.jaccard_exact_n(a, b, HORIZON),
    "entropy_distance_s": lambda rl, a, b: rl.entropy_distance(a, b),
    "cesaro_jaccard_s": lambda rl, a, b: rl.cesaro_jaccard(a, b),
    "entropy_sum_s": lambda rl, a, b: rl.entropy_sum(a, b),
    "trim_left_s": lambda rl, a, b: rl.trim(a),
    "trim_right_s": lambda rl, a, b: rl.trim(b),
    "essential_left_s": lambda rl, a, b: rl.essential(rl.trim(a)),
    "essential_right_s": lambda rl, a, b: rl.essential(rl.trim(b)),
    "scc_decompose_left_s": lambda rl, a, b: rl.scc_decompose(rl.trim(a)),
    "scc_decompose_right_s": lambda rl, a, b: rl.scc_decompose(rl.trim(b)),
    "language_entropy_left_s": lambda rl, a, b: rl.language_entropy(a),
    "language_entropy_right_s": lambda rl, a, b: rl.language_entropy(b),
    "separating_n_s": lambda rl, a, b: rl.separating_n([a, b]),
    "count_vectors_left_s": lambda rl, a, b: rl.CountVectors.from_dfa(a),
    "count_vectors_right_s": lambda rl, a, b: rl.CountVectors.from_dfa(b),
}
JACCARD = ("jaccard_cum_n_s", "jaccard_exact_n_s")
COUNTING = ("minimize_left_s", "minimize_right_s", *JACCARD)
PAIR = ("entropy_distance_s", "cesaro_jaccard_s", "entropy_sum_s")
# analyses the operands keep, timed on fresh copies
FRESH = tuple(layer for layer in LAYERS if layer not in COUNTING + PAIR)
KEPT = tuple(f"{layer[:-2]}_kept_s" for layer in FRESH)
LAYERS.update(zip(KEPT, map(LAYERS.get, FRESH)))
# the pair's metrics as first calls, on fresh copies
JACCARD_FIRST = tuple(f"{layer[:-2]}_first_s" for layer in JACCARD)
PAIR_FIRST = tuple(f"{layer[:-2]}_first_s" for layer in PAIR)
LAYERS.update(zip(JACCARD_FIRST + PAIR_FIRST, map(LAYERS.get, JACCARD + PAIR)))
STRUCTURE = FRESH + KEPT
SEPARATION = ("separating_n_s", "separating_n_kept_s")
COUNT_VECTORS = tuple(layer for layer in STRUCTURE if layer.startswith("count_vectors"))

# front-end layer -> the call it times, on the patterns p1 and p2 of a
# rung, or for a DETERMINIZE layer on their position automata n1 and n2
FRONT_END = {
    "dfa_from_regex_left_s": lambda rl, p1, p2: rl.dfa_from_regex(p1),
    "dfa_from_regex_right_s": lambda rl, p1, p2: rl.dfa_from_regex(p2),
    "compile_left_s": lambda rl, p1, p2: _compile(rl, p1),
    "compile_right_s": lambda rl, p1, p2: _compile(rl, p2),
    "determinize_left_s": lambda rl, n1, n2: rl.determinize(n1),
    "determinize_right_s": lambda rl, n1, n2: rl.determinize(n2),
}
FROM_REGEX = tuple(FRONT_END)
DETERMINIZE = FROM_REGEX[4:]

# cold-start layer -> the arguments of PROBE, given the rung's patterns
PROCESSES = {
    "import_process_s": lambda p1, p2: ["import"],
    "build_process_s": lambda p1, p2: ["build", p1, p2],
    "entropy_process_s": lambda p1, p2: ["entropy", p1],
    "distance_h_process_s": lambda p1, p2: ["distance", "--metric", "h", p1, p2],
    "distance_jn_process_s": lambda p1, p2: [
        "distance", "--metric", "jn", "--n", str(HORIZON), p1, p2
    ],
    "entropy_golden_process_s": lambda p1, p2: ["entropy", GOLDEN],
    "analyze_process_s": lambda p1, p2: ["analyze", p1, "--counts", "20"],
}
IMPORT, BUILD = ("import_process_s",), ("build_process_s",)
JN_PROCESS = ("distance_jn_process_s",)
COMMAND_LINE = tuple(PROCESSES)[2:]
# Run as `python -c PROBE src import` to import reglang and its command
# line from src, as `python -c PROBE src build pattern...` to import
# reglang and build each pattern's DFA, or as `python -c PROBE src
# args...` to run `reglang args...`; its last line of output names the
# loaded modules among numpy and reglang's.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "import":
    import reglang
    import reglang.cli
    code = 0
elif sys.argv[2] == "build":
    import reglang
    for pattern in sys.argv[3:]:
        reglang.dfa_from_regex(pattern)
    code = 0
else:
    from reglang.cli import main
    code = main(sys.argv[2:])
print(*sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "reglang"))
sys.exit(code)
"""


def periodic(m: int) -> str:
    return "b".join(f"(a{{{2 + i % 3}}})*" for i in range(m))


def tie(k: int) -> tuple:
    return f"(a|b)*a(a|b){{{k}}}", f"(a|b)*a(a|b){{{k - 1}}}"


# family -> (sizes, the rung's pair of patterns, its layers)
FAMILIES = {
    "tie": (
        range(4, 13),
        tie,
        FROM_REGEX + COUNTING + PAIR + JACCARD_FIRST + PAIR_FIRST + COUNT_VECTORS + BUILD
        + JN_PROCESS,
    ),
    "disjoint": (
        range(4, 13),
        lambda k: (f"(a|b)*a(a|b){{{k}}}", f"(a|b)*b(a|b){{{k}}}"),
        FROM_REGEX + COUNTING + PAIR + JACCARD_FIRST + PAIR_FIRST + SEPARATION + BUILD
        + JN_PROCESS,
    ),
    "gap": (
        range(4, 13),
        lambda k: (f"(a|b)*a(a|b){{{k}}}", f"a*b(a|b){{{k}}}"),
        PAIR + PAIR_FIRST,
    ),
    "chain": (
        (1000, 2000, 4000, 8000, 16000),
        lambda n: (f"a{{{n}}}(a|b)*", f"a{{{n + 1000}}}"),
        FROM_REGEX + COUNTING + JACCARD_FIRST + STRUCTURE + BUILD + JN_PROCESS,
    ),
    "periodic": (
        (100, 200, 400, 800, 1600, 3200),
        lambda m: (periodic(m), periodic(m + 1)),
        FROM_REGEX + JACCARD + JACCARD_FIRST + STRUCTURE + BUILD + JN_PROCESS,
    ),
    "cold": ((4, 7, 12), tie, IMPORT + COMMAND_LINE),
}


class _Timeout(Exception):
    pass


def _stop(_signum, _frame):
    raise _Timeout


def median_time(call, runs=RUNS, budget=BUDGET_S, prepare=tuple, warmup=0):
    """Median wall time of `runs` calls `call(*prepare())`, timing the
    call only, after `warmup` untimed ones, or None when one exceeds
    `budget` s."""
    times = []
    previous = signal.signal(signal.SIGALRM, _stop)
    try:
        for _ in range(warmup + runs):
            args = prepare()
            signal.setitimer(signal.ITIMER_REAL, budget)
            start = time.perf_counter()
            try:
                call(*args)
            except _Timeout:
                return None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
    finally:
        signal.signal(signal.SIGALRM, previous)
    times = sorted(times[warmup:])
    return times[len(times) // 2]


def process_time(src, args, runs=COLD_RUNS, budget=BUDGET_S):
    """(median wall time of `runs` fresh interpreters running PROBE with
    `args` on the reglang package in the directory `src`, the sorted names
    of the modules among numpy and reglang's that the last loaded), or
    (None, None) when one exceeds `budget` s.  The interpreters import a
    copy of the package with no `__pycache__` and write no bytecode, so
    none reads a cache of it."""
    times = []
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(Path(src) / "reglang", Path(copy) / "reglang",
                        ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, "-B", "-c", PROBE, copy, *args]
        for _ in range(runs):
            start = time.perf_counter()
            try:
                run = subprocess.run(command, capture_output=True, text=True, timeout=budget,
                                     check=True)
            except subprocess.TimeoutExpired:
                return None, None
            times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2], run.stdout.splitlines()[-1].split()


def _compile(rl, pattern):
    """The position automaton of `pattern`, as `dfa_from_regex` compiles it."""
    return rl.compile_to_nfa(rl.parse_regex(pattern))


def fresh(rl, dfa):
    """An equal DFA that has kept no analysis yet."""
    return rl.Dfa(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.initial)


def measure(rl, families=FAMILIES, runs=RUNS, cold_runs=COLD_RUNS):
    """One record per rung: the operands' patterns and sizes and each
    layer's median seconds, "timeout" or "skipped", and for a cold-start
    layer whether numpy loaded and which reglang modules."""
    return alternate({"src": rl}, families, 1, runs, cold_runs)["src"]


def alternate(trees, families=FAMILIES, rounds=ROUNDS, runs=RUNS, cold_runs=COLD_RUNS):
    """The records of `measure` for each reglang module in `trees` (name
    -> module), each layer timed in `rounds` rounds in which every module
    times it once, the modules taking turns to go first; a record holds
    the median over the rounds and, with more than one round, the
    quartiles, and for the module "src" timed against one named
    "against", the rounds it won."""
    records = {name: [] for name in trees}
    for family, (sizes, patterns, layers) in families.items():
        stopped = {name: set() for name in trees}  # layers that timed out on a smaller rung
        for size in sizes:
            p1, p2 = patterns(size)
            rung = {}
            for name, rl in trees.items():
                a, b = rl.dfa_from_regex(p1), rl.dfa_from_regex(p2)
                rung[name] = (rl, a, b, {"family": family, "size": size,
                                          "patterns": [_short(p1), _short(p2)],
                                          "states": [a.n_states, b.n_states]})
            for layer in layers:
                times = {name: [] for name in trees}
                for turn in range(rounds):
                    for name in list(trees)[:: 1 if turn % 2 == 0 else -1]:
                        if layer in stopped[name] or None in times[name]:
                            continue
                        rl, a, b, record = rung[name]
                        seconds, loaded = _time_layer(rl, layer, a, b, p1, p2, runs, cold_runs)
                        times[name].append(seconds)
                        if layer in PROCESSES:  # None after a timeout
                            record[f"{layer[:-2]}_numpy"] = loaded and "numpy" in loaded
                            record[f"{layer[:-2]}_modules"] = loaded and [
                                m for m in loaded if m != "numpy"]
                for name, seconds in times.items():
                    record = rung[name][3]
                    if layer in stopped[name]:
                        record[layer] = "skipped"
                    elif None in seconds:
                        stopped[name].add(layer)
                        record[layer] = "timeout"
                    else:
                        record[layer] = _figures(statistics.median(seconds))
                        if rounds > 1:
                            q1, _q2, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
                            record[f"{layer[:-2]}_quartiles"] = [_figures(q1), _figures(q3)]
                timed = [isinstance(rung[name][3][layer], float) for name in trees]
                if set(trees) == {"src", "against"} and all(timed):
                    wins = sum(s < a for s, a in zip(times["src"], times["against"]))
                    rung["src"][3][f"{layer[:-2]}_wins"] = wins
            for name in trees:
                records[name].append(rung[name][3])
                print(json.dumps({"tree": name, **rung[name][3]}), file=sys.stderr, flush=True)
    return records


def _figures(seconds: float) -> float:
    """`seconds` to FIGURES significant figures: a kept analysis read back
    takes well under a microsecond, which a fixed number of decimals
    would flatten."""
    return float(f"{seconds:.{FIGURES}g}")


def _time_layer(rl, layer, a, b, p1, p2, runs, cold_runs):
    """(median seconds of the layer on the rung, or None on a timeout, and
    for a cold-start layer the modules of `process_time`)."""
    if layer in PROCESSES:
        src = Path(rl.__file__).resolve().parents[1]
        return process_time(src, PROCESSES[layer](p1, p2), cold_runs)
    if layer in DETERMINIZE:
        n1, n2 = _compile(rl, p1), _compile(rl, p2)
        return median_time(FRONT_END[layer], runs, prepare=lambda: (rl, n1, n2)), None
    if layer in FRONT_END:
        return median_time(FRONT_END[layer], runs, prepare=lambda: (rl, p1, p2)), None
    if layer in FRESH + JACCARD_FIRST + PAIR_FIRST:
        return median_time(LAYERS[layer], runs,
                           prepare=lambda: (rl, fresh(rl, a), fresh(rl, b))), None
    return median_time(LAYERS[layer], runs, prepare=lambda: (rl, a, b),
                       warmup=int(layer in KEPT)), None


def load(src: Path, name: str):
    """The reglang package in the directory `src`, imported as the module
    `name` unless it already is: two checkouts load side by side under two
    names."""
    init = src.resolve() / "reglang" / "__init__.py"
    loaded = sys.modules.get(name)
    if loaded is not None and Path(loaded.__file__).resolve() == init:
        return loaded
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def select(families, layers):
    """The families restricted to `layers`, without those left with none."""
    chosen = {}
    for family, (sizes, patterns, timed) in families.items():
        timed = tuple(layer for layer in timed if layer in layers)
        if timed:
            chosen[family] = (sizes, patterns, timed)
    return chosen


def _short(pattern: str, most: int = 60) -> str:
    """The pattern, its middle elided when it is longer than `most`."""
    if len(pattern) <= most:
        return pattern
    return f"{pattern[: most // 2]}...{pattern[-most // 4 :]}"


def environment(src: Path) -> dict:
    import numpy as np

    return {
        "commit": _commit(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "runs": RUNS,
        "cold_runs": COLD_RUNS,
        "budget_s": BUDGET_S,
        "horizon": HORIZON,
    }


def _commit(src: Path) -> str:
    """The git commit of the sources, suffixed "-dirty" when they differ
    from it, or "unknown" outside a git work tree."""
    git = ["git", "-C", str(src)]
    try:
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--", "."],
                                capture_output=True, text=True)
    except OSError:
        return "unknown"
    if head.returncode:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the reglang package to time")
    parser.add_argument("--against", type=Path,
                        help="directory holding a second reglang package, timed in alternating "
                             "rounds with the first")
    parser.add_argument("--layers", nargs="+", choices=[*FRONT_END, *LAYERS, *PROCESSES],
                        help="time only these layers")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    families = select(FAMILIES, args.layers) if args.layers else FAMILIES
    rl = load(args.src, "reglang")
    result = {"env": environment(args.src)}
    if args.against is None:
        result["rungs"] = measure(rl, families, RUNS, COLD_RUNS)
    else:
        trees = {"src": rl, "against": load(args.against, "reglang_against")}
        result["against_env"] = environment(args.against)
        alternating = alternate(trees, families, ROUNDS, RUNS, COLD_RUNS)
        result["alternating"] = {"rounds": ROUNDS, "runs": RUNS, "cold_runs": COLD_RUNS,
                                 **alternating}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
