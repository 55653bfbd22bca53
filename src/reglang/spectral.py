"""Spectral radii of automaton graphs and the entropy of a language.

The growth rate of a regular language, in bits per symbol, is the log
base 2 of the largest spectral radius among the strongly connected
components of its essential graph.  Its growth order (radius, index)
refines this: the index d is the largest number of components with the
dominant radius on one path of the condensation DAG, so word counts grow
like n^(d-1) radius^n (Rothblum, "Algebraic eigenspaces of nonnegative
matrices", LAA 1975).

A component whose vertices all have the same number r of internal
out-edges, or all the same number of internal in-edges, has radius
exactly r: A 1 = r 1 (or 1^T A = r 1^T), and a non-negative matrix with
a positive eigenvector has its spectral radius as that eigenvalue, at any
period.  Sigma* loops, simple cycles and de Bruijn graphs are such
components: a count of degrees over their internal edges gives their
radius.  The radius of any other component is computed by power
iteration on its internal edge arrays: one step applies the component
matrix A `period` times with `np.bincount`, so the iterated A^period is
aperiodic and the min/max ratio bounds converge geometrically from both
sides, while A^period itself is never formed.  numpy is imported only
there, so a process whose components all have a constant degree never
loads it.

Components, periods, internal edges and the condensation DAG are those
a DFA, a pair's product table or a graph keeps from its one search (see
`graphs`).  The essential graph, which `automata.essential` reads off the
same search, keeps every cyclic component of the trim graph whole, so a
language's spectrum is read off its trim graph's components.  One
`Decomposition` per search, kept beside the search's report once
`analyze_graph`, `topological_entropy`, `language_entropy` or
`component_spectrum` reads it, keeps each spectrum it computes and the
whole graph's report.  A DFA's trim graph holds the DFA's report, so
`language_entropy(d)` and the spectra of `trim(d)` compute each spectrum
once in the DFA's lifetime, in any order.  The boolean combinations of
a pair of languages are sets of states of one product table, whose one
`Decomposition`, made afresh for each pair, gives each one's report,
period and the components that reach it.
"""

import math
from collections import Counter
from functools import cached_property
from operator import itemgetter

from ._record import record
from .automata import Dfa, LabeledGraph, _reach
from .errors import ConvergenceError
from .graphs import _find_cyclic, _reversed, scc_decompose

ENTROPY_EPS = 1e-9
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000


@record(frozen=True)
class ComponentSpectrum:
    vertices: tuple
    period: int
    radius: float
    iterations: int
    residual: float

    def __init__(self, vertices, period, radius, iterations, residual):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "residual", residual)


@record(frozen=True)
class SpectralReport:
    """Per-component radii plus the language-level summary.

    `lambda_class` is one of "finite" (nilpotent matrix, finite
    language), "unit" (radius 1, polynomial growth), "expanding"
    (radius above 1, exponential growth).  `entropy_bits` is zero for
    the first two classes and log2(radius) otherwise.  `index` is the
    largest number of dominant components on one path of the
    condensation DAG: 0 exactly when the language is finite.
    """

    components: tuple  # of ComponentSpectrum, nontrivial components only
    spectral_radius: float
    entropy_bits: float
    lambda_class: str
    index: int

    def __init__(self, components, spectral_radius, entropy_bits, lambda_class, index):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "spectral_radius", spectral_radius)
        object.__setattr__(self, "entropy_bits", entropy_bits)
        object.__setattr__(self, "lambda_class", lambda_class)
        object.__setattr__(self, "index", index)


def classify_radius(radius: float) -> str:
    # Integer matrices admit no radius strictly between 0 and 1.
    if radius < 0.5:
        return "finite"
    if abs(radius - 1.0) < ENTROPY_EPS:
        return "unit"
    return "expanding"


def _perron_root(step, v):
    """Largest eigenvalue of the non-negative matrix B that `step`
    multiplies a vector by, where B's diagonal blocks are primitive with
    a common dominant eigenvalue, from the positive float array v.

    Uses power iteration with two-sided ratio bounds: for a positive
    vector v, min_i (Bv)_i / v_i and max_i (Bv)_i / v_i bracket the
    dominant eigenvalue, and the bracket collapses geometrically.
    """
    for iteration in range(1, POWER_MAX_ITER + 1):
        w = step(v)
        ratios = w / v
        low = float(ratios.min())
        high = float(ratios.max())
        width = high - low
        if width <= POWER_TOL * max(1.0, high):
            return 0.5 * (low + high), iteration, width
        v = w / w.max()
    raise ConvergenceError(
        f"power iteration missed tolerance {POWER_TOL} after {POWER_MAX_ITER} steps",
        partial=0.5 * (low + high),
        diagnostics={"residual": width, "iterations": POWER_MAX_ITER},
    )


def component_spectrum(graph: LabeledGraph, component) -> ComponentSpectrum:
    """The spectrum the graph's decomposition keeps for one strongly
    connected component.  Raises ValueError when `component` is not one,
    and TrivialComponentError when it has no cycle."""
    return _decomposition(graph)._spectrum(_find_cyclic(scc_decompose(graph), component))


def _spectrum(component, internal, period) -> ComponentSpectrum:
    """Perron root of a component of the given period from its internal
    (src, dst) edges: r when every vertex has r internal out-edges, or
    every vertex r internal in-edges; otherwise by power iteration over
    the edges in their order."""
    vertices = tuple(sorted(component))
    n = len(vertices)
    for end in (0, 1):
        degrees = Counter(map(itemgetter(end), internal))
        if len(degrees) == n and len(set(degrees.values())) == 1:
            return ComponentSpectrum(vertices, period, float(len(internal) // n), 0, 0.0)

    import numpy as np

    pos = {v: i for i, v in enumerate(vertices)}
    src, dst = np.array([(pos[s], pos[d]) for s, d in internal]).T

    def step(v):
        for _ in range(period):
            v = np.bincount(src, weights=v[dst], minlength=n)
        return v

    root, iterations, residual = _perron_root(step, np.ones(n))
    radius = root ** (1.0 / period) if period > 1 else root
    return ComponentSpectrum(vertices, period, radius, iterations, residual)


class Decomposition:
    """Strongly connected components, from a `graphs.ComponentReport` and
    its condensation DAG, and the components, period and spectral report
    of the whole graph or of its part that reaches a vertex set.

    If every vertex is reachable, as in a `Product` table, trimming to an
    accepting set keeps or drops each component whole, and no path
    between kept components leaves them: `report(accepting)` equals
    `analyze_graph` of the trim graph, for every combination of a pair.
    """

    def __init__(self, scc, condensation):
        # the report's fields, not the report, which keeps this object (no cycle)
        self.components = scc.components
        self.periods = scc.periods
        self.trivial = scc.trivial
        self.internal = scc.internal
        self.condensation = condensation
        self._spectra = {}  # computed when a report first keeps the component

    @cached_property
    def _component_of(self) -> dict:
        return {v: c for c, comp in enumerate(self.components) for v in comp}

    @cached_property
    def _predecessors(self) -> list:
        """The condensation DAG's edges, reversed."""
        return _reversed(self.condensation)

    def reaching(self, accepting) -> list:
        """The numbers, in order, of the components that reach `accepting`."""
        seeds = {self._component_of[v] for v in accepting}
        return sorted(_reach(seeds, self._predecessors))

    def period(self, accepting) -> int:
        """The lcm of the periods of the cyclic components reaching `accepting`."""
        reaching = self.reaching(accepting)
        return math.lcm(*(self.periods[c] for c in reaching if not self.trivial[c]))

    def _spectrum(self, c: int) -> ComponentSpectrum:
        if c not in self._spectra:
            self._spectra[c] = _spectrum(self.components[c], self.internal[c], self.periods[c])
        return self._spectra[c]

    def report(self, accepting=None) -> SpectralReport:
        """Report over the components that reach `accepting` (all if None)."""
        kept = range(len(self.components))
        if accepting is not None:
            kept = self.reaching(accepting)
        spectra = {c: self._spectrum(c) for c in kept if not self.trivial[c]}
        radius = max((s.radius for s in spectra.values()), default=0.0)
        label = classify_radius(radius)
        entropy = max(0.0, math.log2(radius)) if label == "expanding" else 0.0
        dominant = [
            c in spectra and _tied(math.log2(spectra[c].radius / radius))
            for c in range(len(self.components))
        ]
        index = sum(dominant)  # the index when at most one component dominates
        if index > 1:
            index = _longest_chain(self.condensation, dominant)
        return SpectralReport(tuple(spectra.values()), radius, entropy, label, index)

    @cached_property
    def whole(self) -> SpectralReport:
        """The report over every component, kept."""
        return self.report()


def _tied(gap: float) -> bool:
    """The one band of equal growth: whether rates `gap` bits apart tie."""
    return abs(gap) <= 10 * ENTROPY_EPS


def _decomposition(graph) -> Decomposition:
    """The decomposition of the search a `Dfa`, a `Product` or a
    `LabeledGraph` keeps, made on the first call and kept beside its
    report, which a DFA's trim graph shares (see `automata.trim`).  The
    graph also holds it in its `__dict__`, where later calls find it."""
    kept = graph.__dict__.get("_decomposition")
    if kept is None:
        report = scc_decompose(graph)
        if "_decomposition" not in report.__dict__:
            report.__dict__["_decomposition"] = Decomposition(report, graph._components[1])
        kept = graph.__dict__["_decomposition"] = report.__dict__["_decomposition"]
    return kept


def analyze_graph(graph: LabeledGraph) -> SpectralReport:
    """Spectral report over the nontrivial components of a graph, with
    the index of its dominant radius; the one its decomposition keeps."""
    return _decomposition(graph).whole


def _longest_chain(successors, marked) -> int:
    """Largest number of marked components on one path of the
    condensation DAG, given as each component's successors, by longest
    path in Kahn's topological order."""
    indegree = [0] * len(successors)
    for targets in successors:
        for c in targets:
            indegree[c] += 1
    best = [int(m) for m in marked]  # most marked on a path ending at c
    ready = [c for c, k in enumerate(indegree) if k == 0]
    while ready:
        c = ready.pop()
        for t in successors[c]:
            best[t] = max(best[t], best[c] + marked[t])
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    return max(best, default=0)


def topological_entropy(graph: LabeledGraph) -> float:
    """Growth rate of admissible blocks of an essential graph: the max of
    log2(radius) over components, 0 for the empty graph, read from the
    graph's kept report."""
    return analyze_graph(graph).entropy_bits


def language_entropy(dfa: Dfa) -> SpectralReport:
    """Entropy of a DFA's language in bits per symbol.

    Empty and finite languages report entropy 0; otherwise the value is
    log2 of the dominant component radius of the essential graph.  The
    components of the trim graph are analysed instead: the essential graph
    keeps the trim graph's components that lie on a path from a cyclic
    component to a cyclic one (see `automata.essential`), every cyclic
    component among them, so both graphs have the same nontrivial
    components, internal edges and periods, hence the same spectrum, read
    off the decomposition of the DFA's one search, which `trim` shares: no
    labeled graph is built, and a second call computes nothing.
    """
    return _decomposition(dfa).whole


def graph_from_matrix(rows) -> LabeledGraph:
    """Labeled graph with synthetic edge labels realizing an adjacency
    matrix with multiplicities; handy for working directly on matrices."""
    n = len(rows)
    edges = []
    for i in range(n):
        if len(rows[i]) != n:
            raise ValueError("adjacency matrix must be square")
        tag = 0
        for j in range(n):
            count = rows[i][j]
            if count < 0:
                raise ValueError("adjacency entries must be non-negative")
            for _ in range(count):
                edges.append((i, f"e{tag}", j))
                tag += 1
    return LabeledGraph(tuple(range(n)), tuple(edges), "trim")


def matrix_spectral_radius(rows) -> float:
    """Spectral radius of a non-negative integer matrix: the maximum of
    the component radii of the induced graph (0 for nilpotent)."""
    return analyze_graph(graph_from_matrix(rows)).spectral_radius


def entropies_equal(h1: float, h2: float, eps: float = ENTROPY_EPS) -> bool:
    return abs(h1 - h2) < eps
