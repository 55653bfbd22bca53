"""Time two layers of reglang on a ladder of input sizes and write JSON.

    python scripts/ladder.py --out ladder.json
    python scripts/ladder.py --src ../other-checkout/src --out other.json

Layers: `minimize` of each operand of a pair, and `jaccard_cum_n(a, b, 200)`
of the pair.  Rungs, each family in increasing size:

- tie k:      (a|b)*a(a|b){k}  against (a|b)*a(a|b){k-1},  k = 4..12
- disjoint k: (a|b)*a(a|b){k}  against (a|b)*b(a|b){k},    k = 4..12
- chain n:    a{n}(a|b)*       against a{n+1000},          n = 1000..16000

Under lumping, the counting systems of the first two families shrink to a
few vertices; the chain's do not shrink.  Each time is the median of RUNS
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

FAMILIES = {
    "tie": (range(4, 13), lambda k: (f"(a|b)*a(a|b){{{k}}}", f"(a|b)*a(a|b){{{k - 1}}}")),
    "disjoint": (range(4, 13), lambda k: (f"(a|b)*a(a|b){{{k}}}", f"(a|b)*b(a|b){{{k}}}")),
    "chain": ((1000, 2000, 4000, 8000, 16000), lambda n: (f"a{{{n}}}(a|b)*", f"a{{{n + 1000}}}")),
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
    for family, (sizes, patterns) in families.items():
        stopped = set()  # layers that timed out on a smaller rung
        for size in sizes:
            p1, p2 = patterns(size)
            a, b = rl.dfa_from_regex(p1), rl.dfa_from_regex(p2)
            layers = {
                "minimize_left_s": lambda: rl.minimize(a),
                "minimize_right_s": lambda: rl.minimize(b),
                "jaccard_cum_n_s": lambda: rl.jaccard_cum_n(a, b, HORIZON),
            }
            record = {"family": family, "size": size, "patterns": [p1, p2],
                      "states": [a.n_states, b.n_states]}
            for layer, call in layers.items():
                if layer in stopped:
                    record[layer] = "skipped"
                    continue
                seconds = median_time(call, runs)
                if seconds is None:
                    stopped.add(layer)
                record[layer] = "timeout" if seconds is None else round(seconds, 6)
            records.append(record)
            print(json.dumps(record), file=sys.stderr, flush=True)
    return records


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
