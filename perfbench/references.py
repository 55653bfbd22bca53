"""Independent references for the values reglang computes.

Nothing here calls reglang.  Automata are read as plain transition tables
(`alphabet`, `transitions`, `accepting`, `initial`); products, word counts,
spectral radii and strongly connected components come from this file's own
code.  The checks in `workloads.py` compare reglang's outputs with these.

Run as a script to regenerate the frozen Cesaro references of the corpus:

    python3 perfbench/references.py

That walks each of the 253 corpus pairs to length 20000 with exact integers
and takes several minutes, so the result is committed as `cesaro_refs.json`
instead of being recomputed on every benchmark run.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

CESARO_HORIZON = 20_000
CESARO_WINDOW = 840  # lcm(1..8): whole periods of every residue class here
CESARO_FILE = Path(__file__).with_name("cesaro_refs.json")

# A radius above 1 of an integer matrix with at most a few thousand rows
# exceeds 1 + 1e-4, while eigvals moves a defective unit eigenvalue of index
# k <= 3 by about eps**(1/k) < 1e-5.  So this gap separates polynomial from
# exponential growth without a false call either way.
UNIT_GAP = 1e-4
# eigvals moves a dominant eigenvalue of index k <= 2 by at most about
# sqrt(eps * |A|) < 1e-7, so entropies agree with this reference within:
ENTROPY_TOL = 1e-6
# Floor for the Cesaro tolerance: the ROADMAP's accuracy target for limits.
CESARO_FLOOR = 1e-6


def lockstep(d1, d2):
    """Reachable part of the product of two complete DFAs over one alphabet.

    Returns (succ, in1, in2): succ[i] lists the product state reached from
    state i on each symbol, in1[i] and in2[i] whether each side accepts.
    State 0 is the initial pair.
    """
    if tuple(d1.alphabet) != tuple(d2.alphabet):
        raise ValueError("lockstep needs automata over one alphabet")
    start = (d1.initial, d2.initial)
    index = {start: 0}
    pairs = [start]
    succ = []
    for p, q in pairs:  # grows while iterating: breadth-first order
        row = []
        for target in zip(d1.transitions[p], d2.transitions[q]):
            j = index.get(target)
            if j is None:
                j = index[target] = len(pairs)
                pairs.append(target)
            row.append(j)
        succ.append(row)
    in1 = [p in d1.accepting for p, _q in pairs]
    in2 = [q in d2.accepting for _p, q in pairs]
    return succ, in1, in2


def single(dfa):
    """The DFA itself in lockstep form (both sides the same automaton)."""
    return [list(row) for row in dfa.transitions], [
        q in dfa.accepting for q in range(len(dfa.transitions))
    ]


def reachable(succ, start):
    seen = {start}
    todo = [start]
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def coreachable(succ, accept):
    """States from which an accepting state can be reached."""
    pred = [[] for _ in succ]
    for s, row in enumerate(succ):
        for t in row:
            pred[t].append(s)
    seen = {s for s, ok in enumerate(accept) if ok}
    todo = list(seen)
    while todo:
        for p in pred[todo.pop()]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def trim_states(succ, accept, start=0):
    """Sorted states on some accepting path from `start`."""
    return sorted(reachable(succ, start) & coreachable(succ, accept))


def pair_counts(d1, d2):
    """Yield (|W_n(L1 sym L2)|, |W_n(L1 union L2)|) for n = 0, 1, ... exactly."""
    succ, in1, in2 = lockstep(d1, d2)
    union = [a or b for a, b in zip(in1, in2)]
    keep = trim_states(succ, union)
    pos = {s: i for i, s in enumerate(keep)}
    sources = [[] for _ in keep]  # sources[j]: i once per edge i -> j
    for s in keep:
        for t in succ[s]:
            if t in pos:
                sources[pos[t]].append(pos[s])
    sym_at = [i for i, s in enumerate(keep) if in1[s] != in2[s]]
    uni_at = [i for i, s in enumerate(keep) if union[s]]
    x = [0] * len(keep)
    if keep:
        x[0] = 1  # keep is sorted and non-empty only if it holds state 0
    while True:
        yield sum(x[i] for i in sym_at), sum(x[i] for i in uni_at)
        x = [sum(x[i] for i in src) for src in sources]


def jaccard_pair(d1, d2, n):
    """(exact Jaccard at length n, cumulative Jaccard up to n) as Fractions."""
    total_sym = total_uni = 0
    for _length, (sym, uni) in zip(range(n + 1), pair_counts(d1, d2)):
        total_sym += sym
        total_uni += uni
    exact = Fraction(sym, uni) if uni else Fraction(0)
    cumulative = Fraction(total_sym, total_uni) if total_uni else Fraction(0)
    return exact, cumulative


def cesaro_window(d1, d2, horizon=CESARO_HORIZON, window=CESARO_WINDOW):
    """Mean of the exact cumulative Jaccard values over the `window` lengths
    ending at `horizon`, and an error estimate for it.

    Cumulative Jaccard sequences of regular languages approach their
    (residue-wise) limits like c/n or faster, so the window mean at horizon
    N is off by about the gap between the means at N and N/2; that gap is
    returned as the estimate.
    """
    half = horizon // 2
    windows = {half: 0.0, horizon: 0.0}
    total_sym = total_uni = 0
    for n, (sym, uni) in zip(range(horizon + 1), pair_counts(d1, d2)):
        total_sym += sym
        total_uni += uni
        for end in windows:
            if end - window < n <= end:
                windows[end] += total_sym / total_uni if total_uni else 0.0
    mean = windows[horizon] / window
    return mean, abs(mean - windows[half] / window)


def cesaro_tolerance(error):
    """Tolerance for a Cesaro reference with the given error estimate.

    Twice the estimate, because it extrapolates from two horizons, plus
    the ROADMAP's accuracy floor for limits.
    """
    return 2.0 * error + CESARO_FLOOR


def spectral_radius(succ, accept):
    """Largest eigenvalue modulus of the trimmed graph's adjacency matrix."""
    keep = trim_states(succ, accept)
    if not keep:
        return 0.0
    pos = {s: i for i, s in enumerate(keep)}
    matrix = np.zeros((len(keep), len(keep)))
    for s in keep:
        for t in succ[s]:
            if t in pos:
                matrix[pos[s], pos[t]] += 1.0
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def entropy_of(succ, accept):
    """Entropy in bits per symbol: log2 of the radius when it exceeds 1."""
    radius = spectral_radius(succ, accept)
    return math.log2(radius) if radius > 1.0 + UNIT_GAP else 0.0


def pair_entropies(d1, d2):
    """(h distance, hs distance) of a pair from eigenvalues of its product."""
    succ, in1, in2 = lockstep(d1, d2)
    h_sym = entropy_of(succ, [a != b for a, b in zip(in1, in2)])
    h_uni = entropy_of(succ, [a or b for a, b in zip(in1, in2)])
    left = entropy_of(succ, [a and not b for a, b in zip(in1, in2)])
    right = entropy_of(succ, [b and not a for a, b in zip(in1, in2)])
    return (h_sym / h_uni if h_uni else 0.0), left + right


def components(dfa):
    """What `scc_decompose(trim(dfa))` must report, computed independently.

    Returns (components sorted by smallest vertex, periods, trivial flags,
    residue period).  Components are found with Kosaraju's two passes;
    the period of a component is the gcd of level[u] + 1 - level[v] over
    its internal edges, with levels from a breadth-first search inside it.
    """
    succ, accept = single(dfa)
    vertices = trim_states(succ, accept, dfa.initial)
    alive = set(vertices)
    out = {v: [t for t in succ[v] if t in alive] for v in vertices}
    into = {v: [] for v in vertices}
    for v in vertices:
        for t in out[v]:
            into[t].append(v)

    order = []
    seen = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for t in it:
                if t not in seen:
                    seen.add(t)
                    stack.append((t, iter(out[t])))
                    break
            else:
                stack.pop()
                order.append(v)
    comp_of = {}
    comps = []
    for root in reversed(order):
        if root in comp_of:
            continue
        members = {root}
        comp_of[root] = len(comps)
        todo = [root]
        while todo:
            for p in into[todo.pop()]:
                if p not in comp_of:
                    comp_of[p] = len(comps)
                    members.add(p)
                    todo.append(p)
        comps.append(frozenset(members))
    comps.sort(key=min)

    periods, trivial = [], []
    residue = 1
    for comp in comps:
        v0 = min(comp)
        if len(comp) == 1 and v0 not in out[v0]:
            periods.append(1)
            trivial.append(True)
            continue
        level = {v0: 0}
        frontier = [v0]
        while frontier:
            nxt = []
            for u in frontier:
                for t in out[u]:
                    if t in comp and t not in level:
                        level[t] = level[u] + 1
                        nxt.append(t)
            frontier = nxt
        period = 0
        for u in comp:
            for t in out[u]:
                if t in comp:
                    period = math.gcd(period, level[u] + 1 - level[t])
        periods.append(period)
        trivial.append(False)
        residue = math.lcm(residue, period)
    return tuple(comps), tuple(periods), tuple(trivial), residue


def regenerate(horizon=CESARO_HORIZON, window=CESARO_WINDOW, path=CESARO_FILE):
    """Recompute the corpus Cesaro references and write them to `path`."""
    from workloads import corpus_dfas  # builds the inputs with reglang

    names, dfas = corpus_dfas()
    pairs = {}
    for i in range(len(dfas)):
        for j in range(i + 1, len(dfas)):
            value, error = cesaro_window(dfas[i], dfas[j], horizon, window)
            pairs[f"{names[i]}|{names[j]}"] = {"value": value, "error": error}
            print(f"{names[i]}|{names[j]} {value:.12f} +- {error:.3g}", file=sys.stderr)
    payload = {"horizon": horizon, "window": window, "pairs": pairs}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_cesaro(path=CESARO_FILE):
    """name1|name2 -> (reference value, tolerance)."""
    data = json.loads(path.read_text())
    return {
        key: (entry["value"], cesaro_tolerance(entry["error"]))
        for key, entry in data["pairs"].items()
    }


if __name__ == "__main__":
    regenerate()
