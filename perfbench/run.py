"""Benchmark of reglang: each workload in its own single-threaded process.

    python3 perfbench/run.py --workload corpus_matrix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

A workload is a closed loop: one caller makes one library call at a time,
in an order the seed shuffles, pass after pass until `--seconds` would be
exceeded.  Every output is checked against an independent reference (see
`workloads.py`).  With `--trace 0` the calls run untraced and the
end-to-end metrics are reported; with `--trace 1` one untraced pass is
followed by traced passes, the per-layer metrics are reported and every
span is written to `.bench_build/spans-<workload>.csv`.  Lines starting
with `#` describe the run; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads: the workload process stays single-threaded
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
# Times `import reglang` plus building and harmonizing every input, as
# `workloads.build` does, in a fresh interpreter.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reglang
reglang.harmonize_all([reglang.dfa_from_regex(p, a) for p, a in json.loads(sys.argv[2])])
print(time.perf_counter() - t0)
"""
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "right_share")
# Times are reported at reference speed: measured seconds times
# REFERENCE_S over the time `reference_loop` took around them, sampled at
# least every SPIN_EVERY_S.  On a shared host the CPU's speed drifts by up
# to a quarter over tens of seconds; the reference loop drifts with it.
# The loop's time also jumps by up to half between runs 10 ms apart, so a
# sample lasts SPIN_SHARE of the time since the last one, and a call of
# seconds is scaled by every sample within one call length of it.
REFERENCE_S = 0.003
SPIN_EVERY_S = 0.5
SPIN_SHARE = 0.03
SPANS_DIR = wl.SRC.parent / ".bench_build"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl.import_reglang()  # exits non-zero when the checkout has no sources
    if args.workload == "all":
        result = run_all(args)
    else:
        print("# env " + json.dumps(environment(args)))
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a child process; their metrics prefixed by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def commit():
    """The checkout's git commit, suffixed "-dirty" when `src/` differs from
    it, or "unknown" outside a git work tree."""
    root = wl.SRC.parent
    git = ["git", "-C", str(root)]
    try:
        head = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = head.stdout.split()
    if head.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1] + ("-dirty" if status.returncode or status.stdout.strip() else "")


_MATRIX = tuple(tuple((i * j) % 3 for j in range(160)) for i in range(160))


def reference_loop():
    """Fixed pure-Python work, independent of reglang: two products of a
    row with a dense 160x160 tuple matrix, the shape of reglang's exact
    counting step, so that it slows down with the machine as reglang does."""
    row = tuple(range(160))
    for _ in range(2):
        row = tuple(sum(row[i] * _MATRIX[i][j] for i in range(160)) for j in range(160))
    return row


def spin(seconds=0.0):
    """The machine's current speed: the mean time of the reference loop,
    run five times or for `seconds`, whichever is longer."""
    started = perf_counter()
    runs = 0
    while runs < 5 or perf_counter() - started < seconds:
        reference_loop()
        runs += 1
    return (perf_counter() - started) / runs


class Speed:
    """Speed samples taken between calls, and the factors they give."""

    def __init__(self):
        self.loops = [spin()]  # mean time of the reference loop per sample
        self.times = [perf_counter()]  # when each sample ended

    def sample(self, after=0.0):
        """Take a sample if more than `after` seconds passed since the last."""
        since = perf_counter() - self.times[-1]
        if since >= after:
            self.loops.append(spin(SPIN_SHARE * since))
            self.times.append(perf_counter())

    def factor(self, start, end):
        """Factor that turns the seconds of a call from `start` to `end`
        into seconds at reference speed: the samples just before and after
        it, and every other one within one call length of it."""
        width = end - start
        lo = min(bisect_left(self.times, start - width), bisect_right(self.times, start) - 1)
        hi = max(bisect_right(self.times, end + width), bisect_left(self.times, end) + 1)
        return REFERENCE_S / statistics.fmean(self.loops[lo:hi])


def setup_times(name, small, samples):
    """Set-up time of `samples` fresh interpreters, with their factors."""
    specs = json.dumps([[pattern, alphabet] for _l, pattern, alphabet in wl.specs(name, small)])
    speed = Speed()
    runs = []
    for _ in range(samples):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(wl.SRC), specs],
            check=True, capture_output=True, text=True, timeout=170,
        )
        runs.append((float(out.stdout), start, perf_counter()))
        speed.sample()
    return [(seconds, speed.factor(start, end)) for seconds, start, end in runs]


def run_pass(ops, rng, tracer=None, phase=0):
    """One pass in seeded order.

    Returns [(op, output, seconds, factor)]: each call's output and latency,
    and the factor that scales the latency to reference speed, from the
    speed samples taken around it (every SPIN_EVERY_S seconds).
    """
    order = list(ops)
    rng.shuffle(order)
    calls = []
    speed = Speed()
    for op in order:
        speed.sample(after=SPIN_EVERY_S)
        if tracer is not None:
            tracer.begin_op(phase, op.kind)
        start = perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # a failed operation is a result to count
            output = exc
        calls.append((op, output, start, perf_counter()))
    speed.sample()
    return [(op, out, end - start, speed.factor(start, end)) for op, out, start, end in calls]


def agrees(op, output):
    try:
        return not isinstance(output, Exception) and wl.agrees(op, output)
    except (AttributeError, TypeError):  # not even the right kind of result
        return False


def measure(ops, rng, seconds, tracer=None):
    """Passes until another one would end after `seconds`; at least one.

    Outputs are checked after each pass and dropped, so memory does not
    grow with the number of passes.  Returns per pass a list of
    (op, seconds, factor, right).
    """
    passes = []
    started = perf_counter()
    while True:
        done = run_pass(ops, rng, tracer, len(passes))
        passes.append([(op, sec, factor, agrees(op, out)) for op, out, sec, factor in done])
        del done
        elapsed = perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def run_workload(name, seed, seconds, trace=0, small=False):
    rl = wl.import_reglang()
    rng = random.Random(seed)
    setup = None if trace else setup_times(name, small, 1 if small else SETUP_SAMPLES)
    dfas = wl.build(rl, name, small)
    inputs_ok = wl.inputs_agree(name, dfas, small)
    ops = wl.operations(rl, name, dfas, small)

    if trace:
        from tracer import Tracer

        baseline = measure(ops, rng, 0.0)  # one untraced pass
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_op(-1)
            speed = Speed()
            start = perf_counter()
            wl.build(rl, name, small)
            end = perf_counter()
            speed.sample()
            setup_call = (end - start, speed.factor(start, end))
            passes = measure(ops, rng, seconds - _wall(baseline[0], raw=True), tracer)
        finally:
            tracer.uninstall()
        checked = baseline + passes
    else:
        passes = measure(ops, rng, seconds)
        checked = passes

    calls = [call for items in checked for call in items]
    wrong = [op for op, _sec, _factor, right in calls if not right]
    correct = inputs_ok and all(op.kind in wl.LIMIT_KINDS for op in wrong)
    attempted = len(calls)

    kinds = dict.fromkeys(op.kind for op in ops)
    report = {
        "wall_s": (statistics.median(_wall(items) for items in passes), "s"),
        "raw_wall_s": (statistics.median(_wall(items, raw=True) for items in passes), "s"),
    }
    for kind in kinds:
        per_pass = [_wall(items, kind) for items in passes]
        report[f"{kind}_s"] = (statistics.median(per_pass), "s")

    if trace:
        factors = [setup_call[1]] + [factor for items in passes for _op, _s, factor, _r in items]
        op_s = setup_call[0] * setup_call[1] + statistics.fmean(_wall(items) for items in passes)
        metrics = tracer.metrics(len(passes), op_s, factors)
        overhead = report["wall_s"][0] - _wall(baseline[0])
        metrics["trace.overhead_s"] = (overhead, "s")
        for kind, ranked in tracer.breakdown().items():
            shares = ", ".join(f"{name} {share:.1%}" for name, share in ranked)
            print(f"# self time of {kind}: {shares}")
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{name}.csv"
        tracer.write(spans)
        print(f"# spans written to {spans.relative_to(SPANS_DIR.parent)}")
    else:
        report["setup_s"] = (statistics.median(sec * factor for sec, factor in setup), "s")
        report["raw_setup_s"] = (statistics.median(sec for sec, _factor in setup), "s")
        for prefix, raw in (("", False), ("raw_", True)):
            cuts = _latency_percentiles(passes, raw)
            report[f"{prefix}op_p50_ms"] = (cuts[49] * 1e3, "ms")
            report[f"{prefix}op_p99_ms"] = (cuts[98] * 1e3, "ms")
        report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        report["right_share"] = (1 - len(wrong) / attempted, "ratio")
        metrics = {key: report[key] for key in END_TO_END}

    traced = "traced " if trace else ""
    print(f"# {name}: {len(passes)} {traced}passes of {len(ops)} operations; latency "
          f"quantiles over the {len(ops)} per-operation medians; times at reference "
          f"speed except raw_*")
    for key, (value, unit) in report.items():
        print(f"# {traced}metric {key} {value:.6g} {unit}")
    print(f"# metric wrong_share {len(wrong) / attempted:.6g} ratio")
    for op in sorted(set(wrong), key=lambda op: (op.kind, op.label)):
        print(f"# wrong {op.kind} {op.label}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def _latency_percentiles(passes, raw=False):
    """Percentiles of each operation's median latency across the passes."""
    per_op = {}
    for items in passes:
        for op, sec, factor, _right in items:
            per_op.setdefault(id(op), []).append(sec * (1.0 if raw else factor))
    latencies = sorted(statistics.median(samples) for samples in per_op.values())
    return statistics.quantiles(latencies, n=100, method="inclusive")


def _wall(items, kind=None, raw=False):
    """Time of one pass's calls (of one kind), at reference speed unless raw."""
    return sum(
        sec * (1.0 if raw else factor)
        for op, sec, factor, _right in items
        if kind is None or op.kind == kind
    )


if __name__ == "__main__":
    sys.exit(main())
