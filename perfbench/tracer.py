"""Outside-in tracer for reglang's layers.

`Tracer.install` wraps every public function defined in the layer modules
(regex, automata, graphs, counting, spectral, metrics) at each name that
binds it in `reglang` or a `reglang.*` module, plus `CountVectors.from_dfa`.
No file of reglang changes.  The generators returned by `length_counts` and
`cumulative_counts` are proxied so that each `next()` is a span too.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  The wrapper's own bookkeeping falls
outside [start, end] and is taken out of the parent's self time, so the
self times of all spans add up to the time of the root spans.
"""

import functools
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("regex", "automata", "graphs", "counting", "spectral", "metrics")
GENERATORS = ("counting.length_counts", "counting.cumulative_counts")
STEP = "counting.length_counts.next"  # one vector-matrix product
CESARO_MODES = {
    "analytic-shortcut": "analytic",
    "per-residue": "per_residue",
    "empirical": "empirical",
}
# Functions whose self time is reported on its own, as <name>.s.
TIMED = (
    "automata.determinize",
    "automata.essential",
    "automata.combine",
    "automata.trim",
    "graphs.scc_decompose",
    "graphs.component_period",
    "counting.matrix_power",
)
# Functions that some workloads never call: their time is reported as a
# share of the traced operation time, so that it is never a constant zero.
SHARED = ("automata.minimize", "counting.from_dfa")
COUNTED = ("automata.minimize", "automata.combine", "automata.trim", "counting.matrix_power")
# Groups whose inputs are keyed on structure for <group>.distinct_share.
DISTINCT = ("automata.trim", "spectral")


def _distinct_group(name):
    if name == "automata.trim":
        return name
    return "spectral" if name.startswith("spectral.") else None


class Tracer:
    def __init__(self):
        self.names = []  # span name by id
        self.name_ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.over = array("d")  # wrapper bookkeeping outside [start, end]
        self.keys = {}  # span -> structural hash of its inputs
        self.events = []  # (op, counter, amount) from results
        self.op_phase = []  # per op: -1 for set-up, else the pass number
        self.op_kind = []  # per op: the operation's kind
        self.op_id = -1
        self.stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin_op(self, phase, kind="setup"):
        self.op_id = len(self.op_phase)
        self.op_phase.append(phase)
        self.op_kind.append(kind)

    def _open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.over.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        tracer = self
        name_id = self._name_id(name)
        step_id = self._name_id(name + ".next") if name in GENERATORS else None
        keyed = _distinct_group(name) is not None

        def traced(*args, **kwargs):
            entered = perf_counter()
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(i)
                if name == "metrics.cesaro_jaccard":
                    tracer.events.append((tracer.op_id, "metrics.cesaro.error", 1))
                tracer.over[i] = tracer.start[i] - entered + perf_counter() - tracer.end[i]
                raise
            tracer._close(i)
            if keyed:
                tracer.keys[i] = _structure_key(name, args)
            if step_id is not None:
                result = _Steps(tracer, step_id, result)
            else:
                tracer._count(name, result)
            tracer.over[i] = tracer.start[i] - entered + perf_counter() - tracer.end[i]
            return result

        return functools.update_wrapper(traced, fn)

    def _count(self, name, result):
        op = self.op_id
        if name == "regex.compile_to_nfa":
            self.events.append((op, "regex.nfa_states", result.n_states))
        elif name == "automata.determinize":
            self.events.append((op, "automata.dfa_states", result.n_states))
        elif name == "automata.combine":
            self.events.append((op, "automata.combine.states_out", result.n_states))
        elif name == "spectral.component_spectrum":
            self.events.append((op, "spectral.power_iterations", result.iterations))
        elif name == "metrics.cesaro_jaccard":
            mode = CESARO_MODES.get(result.mode, "other")
            self.events.append((op, "metrics.cesaro." + mode, 1))
            d = result.diagnostics
            terms = d.get("terms_used", 0) + d.get("residue_cap_terms", 0) + d.get("n_used", 0)
            self.events.append((op, "metrics.cesaro.terms", terms))

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap the layer functions of the imported reglang package."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"reglang.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "reglang" and not module_name.startswith("reglang."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    self._undo.append((module, attr, obj))
        counts = sys.modules["reglang.counting"].CountVectors
        original = counts.__dict__["from_dfa"]
        counts.from_dfa = classmethod(self._wrap("counting.from_dfa", original.__func__))
        self._undo.append((counts, "from_dfa", original))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- results ---------------------------------------------------------

    def spans(self):
        """Yield (name, start, end, parent, op) for every span recorded."""
        for i in range(len(self.start)):
            yield self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]

    def self_times(self):
        """Per span: duration minus the time its children and their
        wrappers took."""
        n = len(self.start)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i] + self.over[i]
        return own

    def metrics(self, passes, op_s, factors):
        """Per-layer metrics for one set-up plus one pass.

        `passes` is the number of traced passes, `op_s` the traced
        operation time per set-up plus pass as the benchmark timed it
        around each call, and `factors[op]` scales the times of an
        operation to reference speed.  Work in the set-up counts once,
        work in the passes is averaged over them.
        """
        sums = (defaultdict(float), defaultdict(float))  # set-up, passes
        own = self.self_times()
        for i in range(len(own)):
            acc = sums[self.op_phase[self.op[i]] >= 0]
            factor = factors[self.op[i]]
            name = self.names[self.name[i]]
            layer = name.split(".")[0]
            acc[layer + ".s"] += own[i] * factor
            if not name.endswith(".next"):
                acc[layer + ".calls"] += 1
            if name in TIMED or name in SHARED:
                acc[name + ".s"] += own[i] * factor
            if name in COUNTED:
                acc[name + ".calls"] += 1
            if name == STEP:
                acc["counting.steps"] += 1
            acc["trace.bookkeeping_s"] += self.over[i] * factor
        for op, counter, amount in self.events:
            sums[self.op_phase[op] >= 0][counter] += amount
        setup, traced = sums
        total = defaultdict(float)
        for key in setup.keys() | traced.keys():
            total[key] = setup[key] + traced[key] / passes

        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = (total[f"{layer}.s"], "s")
            out[f"{layer}.calls"] = (total[f"{layer}.calls"], "count")
        for name in TIMED:
            out[f"{name}.s"] = (total[f"{name}.s"], "s")
        for name in SHARED:
            out[f"{name}.share"] = (total[f"{name}.s"] / op_s, "ratio")
        for name in COUNTED:
            out[f"{name}.calls"] = (total[f"{name}.calls"], "count")
        for counter in (
            "regex.nfa_states",
            "automata.dfa_states",
            "automata.combine.states_out",
            "counting.steps",
            "spectral.power_iterations",
            "metrics.cesaro.analytic",
            "metrics.cesaro.per_residue",
            "metrics.cesaro.empirical",
            "metrics.cesaro.other",
            "metrics.cesaro.error",
            "metrics.cesaro.terms",
        ):
            out[counter] = (total[counter], "count")
        for group in DISTINCT:
            out[f"{group}.distinct_share"] = (self._distinct_share(group), "ratio")
        out["trace.attributed_share"] = (sum(total[f"{l}.s"] for l in LAYERS) / op_s, "ratio")
        out["trace.bookkeeping_s"] = (total["trace.bookkeeping_s"], "s")
        return out

    def breakdown(self, top=3):
        """kind -> its `top` functions by self time, with their shares."""
        by_kind = defaultdict(lambda: defaultdict(float))
        own = self.self_times()
        for i in range(len(own)):
            by_kind[self.op_kind[self.op[i]]][self.names[self.name[i]]] += own[i]
        out = {}
        for kind, times in by_kind.items():
            total = sum(times.values())
            ranked = sorted(times.items(), key=lambda item: -item[1])[:top]
            out[kind] = [(name, seconds / total) for name, seconds in ranked]
        return out

    def _distinct_share(self, group):
        """Distinct inputs over calls, per pass, averaged over the passes."""
        keys = defaultdict(list)
        for i, key in self.keys.items():
            if _distinct_group(self.names[self.name[i]]) == group:
                keys[self.op_phase[self.op[i]]].append(key)
        shares = [len(set(k)) / len(k) for phase, k in keys.items() if phase >= 0]
        return statistics.fmean(shares) if shares else 0.0  # never called

    def write(self, path):
        """Write every span as a CSV line: name,start,end,parent,op."""
        with open(path, "w") as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans():
                out.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class _Steps:
    """Generator proxy: each `next()` is a span of its own."""

    __slots__ = ("tracer", "name_id", "gen")

    def __init__(self, tracer, name_id, gen):
        self.tracer = tracer
        self.name_id = name_id
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        entered = perf_counter()
        i = tracer._open(self.name_id)
        try:
            return next(self.gen)
        finally:
            tracer._close(i)
            tracer.over[i] = tracer.start[i] - entered + perf_counter() - tracer.end[i]


def _structure_key(name, args):
    """Hash of a call's inputs by value: automata and graphs are frozen
    dataclasses, so equal structures hash alike."""
    try:
        return hash((name, args))
    except TypeError:
        return hash((name, id(args[0]) if args else None))
