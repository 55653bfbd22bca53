"""Structural analysis of labeled graphs: strongly connected components,
cyclic periods, primitivity, and the global residue period used when
estimating limits along arithmetic progressions of word lengths.
"""

from dataclasses import dataclass
from math import gcd, lcm

from .automata import LabeledGraph
from .errors import TrivialComponentError


@dataclass(frozen=True)
class ComponentReport:
    """SCC decomposition of a labeled graph.

    Components partition the vertex set.  A component is trivial when it
    is a single vertex without a self-loop (no cycle at all); trivial
    components carry period 1 by convention and are excluded from the
    residue-period lcm.  `internal` holds each component's internal edges
    as (src, dst) pairs in the graph's edge order.
    """

    components: tuple  # of frozenset of vertices
    periods: tuple  # of int, aligned with components
    trivial: tuple  # of bool, aligned with components
    residue_period: int
    internal: tuple  # of tuples of (src, dst), aligned with components


def _tarjan(vertices, successors) -> list:
    """Iterative Tarjan; components returned as frozensets."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                out.append(frozenset(component))
    return out


def _is_trivial(graph: LabeledGraph, component) -> bool:
    vertex, *others = component
    return not others and vertex not in graph.successors[vertex]


def component_period(graph: LabeledGraph, component) -> int:
    """gcd of cycle lengths inside a strongly connected component.

    Computed as the gcd of (level[u] + 1 - level[v]) over internal edges
    u -> v, with levels from a BFS inside the component.  Undefined for
    trivial components.
    """
    comp = set(component)
    if _is_trivial(graph, comp):
        raise TrivialComponentError(
            f"component {sorted(comp)} has no cycle; period undefined"
        )
    return _period(comp, [(s, d) for s, _sym, d in graph.edges if s in comp and d in comp])


def _period(component, internal) -> int:
    """The period of a nontrivial component with the given internal edges."""
    root = min(component)
    level = {root: 0}
    frontier = [root]
    adjacency = {}
    for s, d in internal:
        adjacency.setdefault(s, set()).add(d)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    period = 0
    for u, v in internal:
        period = gcd(period, level[u] + 1 - level[v])
    return period


def is_primitive(graph: LabeledGraph, component) -> bool:
    """True iff the component is aperiodic (period 1)."""
    return component_period(graph, component) == 1


def scc_decompose(graph: LabeledGraph) -> ComponentReport:
    """Maximal strongly connected components, ordered by smallest vertex,
    with per-component period and the global residue period.  One pass
    over the edges groups each component's internal edges, which give
    the periods (and the spectra of `spectral.Decomposition`)."""
    succ = graph.successors
    components = _tarjan(graph.vertices, lambda v: succ.get(v, ()))
    components.sort(key=min)
    component_of = {v: c for c, comp in enumerate(components) for v in comp}
    internal = [[] for _ in components]
    for s, _sym, d in graph.edges:
        c = component_of[s]
        if c == component_of[d]:
            internal[c].append((s, d))
    trivial = tuple(not edges for edges in internal)
    periods = tuple(
        1 if t else _period(c, edges) for c, t, edges in zip(components, trivial, internal)
    )
    internal = tuple(map(tuple, internal))
    report = ComponentReport(tuple(components), periods, trivial, 1, internal)
    q = residue_period(report)
    return ComponentReport(tuple(components), periods, trivial, q, internal)


def residue_period(report: ComponentReport) -> int:
    """lcm of the periods of the nontrivial components (1 if none).

    Word counts taken along any arithmetic progression with this modulus
    have convergent normalized behaviour, which is all the limit
    estimation downstream needs.
    """
    q = 1
    for period, trivial in zip(report.periods, report.trivial):
        if not trivial:
            q = lcm(q, period)
    return q
