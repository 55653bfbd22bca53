"""Time layers of reglang on a ladder of input sizes and write JSON.

    python scripts/ladder.py --out ladder.json
    python scripts/ladder.py --src ../other-checkout/src --out other.json

Counting layers: `minimize` of each operand of a pair, and
`jaccard_cum_n(a, b, 200)` of the pair.  Structural layers: `trim`,
`scc_decompose(trim(d))` and `language_entropy` of each operand, and
`separating_n` of the pair.  Rungs, each family in increasing size:

- tie k:        (a|b)*a(a|b){k}  against (a|b)*a(a|b){k-1},  k = 4..12
- disjoint k:   (a|b)*a(a|b){k}  against (a|b)*b(a|b){k},    k = 4..12
- chain n:      a{n}(a|b)*       against a{n+1000},          n = 1000..16000
- periodic m:   P(m)             against P(m+1),             m = 100..3200

where P(m) = (a{2})*b(a{3})*b(a{4})*b(a{2})*b... has m starred parts, the
i-th of period 2 + i mod 3, so its trim graph has m periodic components.
The first two families time the counting layers, the periodic family the
structural ones and the chain both.  Under lumping, the counting systems
of the first two families shrink to a few vertices; the chain's do not
shrink.  Each time is the median of RUNS
wall-clock runs, after the operands are built.  A run longer than
BUDGET_S seconds is stopped and recorded as "timeout", and that layer is
"skipped" on the family's larger rungs.  `--src` selects the reglang
sources to time, so one script times two checkouts alike.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

RUNS = 3
BUDGET_S = 10.0
HORIZON = 200

# layer -> the call it times, on the operands a and b of a rung
LAYERS = {
    "minimize_left_s": lambda rl, a, b: rl.minimize(a),
    "minimize_right_s": lambda rl, a, b: rl.minimize(b),
    "jaccard_cum_n_s": lambda rl, a, b: rl.jaccard_cum_n(a, b, HORIZON),
    "trim_left_s": lambda rl, a, b: rl.trim(a),
    "trim_right_s": lambda rl, a, b: rl.trim(b),
    "scc_decompose_left_s": lambda rl, a, b: rl.scc_decompose(rl.trim(a)),
    "scc_decompose_right_s": lambda rl, a, b: rl.scc_decompose(rl.trim(b)),
    "language_entropy_left_s": lambda rl, a, b: rl.language_entropy(a),
    "language_entropy_right_s": lambda rl, a, b: rl.language_entropy(b),
    "separating_n_s": lambda rl, a, b: rl.separating_n([a, b]),
}
COUNTING = tuple(LAYERS)[:3]
STRUCTURE = tuple(LAYERS)[3:]


def periodic(m: int) -> str:
    return "b".join(f"(a{{{2 + i % 3}}})*" for i in range(m))


# family -> (sizes, the rung's pair of patterns, its layers)
FAMILIES = {
    "tie": (
        range(4, 13),
        lambda k: (f"(a|b)*a(a|b){{{k}}}", f"(a|b)*a(a|b){{{k - 1}}}"),
        COUNTING,
    ),
    "disjoint": (
        range(4, 13),
        lambda k: (f"(a|b)*a(a|b){{{k}}}", f"(a|b)*b(a|b){{{k}}}"),
        COUNTING,
    ),
    "chain": (
        (1000, 2000, 4000, 8000, 16000),
        lambda n: (f"a{{{n}}}(a|b)*", f"a{{{n + 1000}}}"),
        COUNTING + STRUCTURE,
    ),
    "periodic": (
        (100, 200, 400, 800, 1600, 3200),
        lambda m: (periodic(m), periodic(m + 1)),
        STRUCTURE,
    ),
}


class _Timeout(Exception):
    pass


def _stop(_signum, _frame):
    raise _Timeout


def median_time(call, runs=RUNS, budget=BUDGET_S):
    """Median wall time of `runs` calls, or None when one exceeds `budget` s."""
    times = []
    previous = signal.signal(signal.SIGALRM, _stop)
    try:
        for _ in range(runs):
            signal.setitimer(signal.ITIMER_REAL, budget)
            start = time.perf_counter()
            try:
                call()
            except _Timeout:
                return None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return sorted(times)[len(times) // 2]


def measure(rl, families=FAMILIES, runs=RUNS):
    """One record per rung: the operands' patterns and sizes and each
    layer's median seconds, "timeout" or "skipped"."""
    records = []
    for family, (sizes, patterns, layers) in families.items():
        stopped = set()  # layers that timed out on a smaller rung
        for size in sizes:
            p1, p2 = patterns(size)
            a, b = rl.dfa_from_regex(p1), rl.dfa_from_regex(p2)
            record = {"family": family, "size": size, "patterns": [_short(p1), _short(p2)],
                      "states": [a.n_states, b.n_states]}
            for layer in layers:
                if layer in stopped:
                    record[layer] = "skipped"
                    continue
                seconds = median_time(lambda: LAYERS[layer](rl, a, b), runs)
                if seconds is None:
                    stopped.add(layer)
                record[layer] = "timeout" if seconds is None else round(seconds, 6)
            records.append(record)
            print(json.dumps(record), file=sys.stderr, flush=True)
    return records


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
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import reglang as rl

    result = {"env": environment(args.src), "rungs": measure(rl)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
