"""Structural analysis of labeled graphs: strongly connected components,
cyclic periods, primitivity, and the global residue period used when
estimating limits along arithmetic progressions of word lengths.

Every structural question is answered by one iterative Tarjan search
(Tarjan, "Depth-first search and linear graph algorithms", SIAM J.
Comput. 1972) over integer successor rows: the components, which of them
reach a target vertex set, each component's internal edges and period,
and the condensation DAG, which `_reversed` turns around for the
essential graph and the spectral layer.  A `Dfa` (whose trim graph
`automata.trim` builds from it), a `Product` table or any other graph
runs it the first time either is read, and keeps them; `spectral` keeps
its spectra beside the report, which a DFA shares with its trim graph.
This module imports nothing from `automata`.
"""

from math import gcd, lcm

from ._record import record
from .errors import TrivialComponentError


@record(frozen=True)
class ComponentReport:
    """SCC decomposition of a labeled graph.

    Components partition the vertex set and are ordered by smallest
    vertex.  A component is trivial when it is a single vertex without a
    self-loop (no cycle at all); trivial components carry period 1 by
    convention and are excluded from the residue-period lcm.  `internal`
    holds each component's internal edges as (src, dst) pairs, by source
    in the graph's vertex order and then in edge order (state then
    symbol, for the graphs `trim` builds).
    """

    components: tuple  # of frozenset of vertices
    periods: tuple  # of int, aligned with components
    trivial: tuple  # of bool, aligned with components
    residue_period: int
    internal: tuple  # of tuples of (src, dst), aligned with components

    def __init__(self, components, periods, trivial, residue_period, internal):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "trivial", trivial)
        object.__setattr__(self, "residue_period", residue_period)
        object.__setattr__(self, "internal", internal)


def _strong_components(rows, roots, target=None, names=None) -> tuple:
    """(report, dag) from one Tarjan search over the vertices 0, 1,
    ... reachable from `roots`, where `rows[v]` lists v's successors once
    per edge.

    A component is kept when it reaches the vertex set `target` (always,
    when `target` is None).  That is decided as the component is popped,
    since every component it leads to is finished by then; the same scan
    of its rows collects its internal edges and the kept components it
    enters, and gives its period as the gcd of depth(u) + 1 - depth(v)
    over its internal edges u -> v, with depths in the DFS tree (a
    component is a subtree of it, so a depth less the root's is a path
    length inside the component).  The report covers the kept
    components, its vertices renamed by `names` when given; `dag` is
    their condensation DAG, for each component the sorted numbers of
    those its outgoing edges enter.
    A single vertex, the common case, makes no container unless it has a
    self-loop or enters a kept component.
    """
    n = len(rows)
    number = [0] * n  # DFS number, 0 while unvisited
    low = [0] * n
    depth = [0] * n
    component = [-1] * n  # set when the vertex's component is popped
    alive = []  # per popped component, whether it is kept
    stack = []  # visited vertices whose component is not yet popped
    path, work = [], []  # the DFS path and the iterator over each one's row
    found = []  # (smallest vertex, component, members, internal, period, entered)
    counter = 0
    for root in roots:
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        path.append(root)
        work.append(iter(rows[root]))
        while work:
            v = path[-1]
            for w in work[-1]:
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    depth[w] = len(path)
                    stack.append(w)
                    path.append(w)
                    work.append(iter(rows[w]))
                    break
                if component[w] < 0 and number[w] < low[v]:  # w is on the stack
                    low[v] = number[w]
            else:
                work.pop()
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] != number[v]:
                    continue
                c = len(alive)
                if stack[-1] == v:  # a single vertex
                    stack.pop()
                    component[v] = c
                    internal = entered = ()
                    for w in rows[v]:
                        e = component[w]
                        if e == c:
                            internal += ((v, v),)
                        elif alive[e] and e not in entered:
                            entered += (e,)
                    keep = target is None or bool(entered) or v in target
                    if keep:
                        found.append((v, c, None, internal, 1, entered))
                else:
                    i = len(stack) - 1
                    while stack[i] != v:
                        i -= 1
                    members = sorted(stack[i:])
                    del stack[i:]
                    for u in members:
                        component[u] = c
                    internal, entered = [], set()
                    for u in members:
                        for w in rows[u]:
                            e = component[w]
                            if e == c:
                                internal.append((u, w))
                            elif alive[e]:
                                entered.add(e)
                    keep = target is None or bool(entered) or not target.isdisjoint(members)
                    if keep:
                        period = gcd(*{depth[u] + 1 - depth[w] for u, w in internal})
                        found.append((members[0], c, members, internal, period, entered))
                alive.append(keep)
    return _report(found, len(alive), names)


def _report(found, popped, names) -> tuple:
    """The report and the condensation DAG of the kept components,
    ordered by smallest vertex."""
    if names is not None:
        found = [
            (
                min(names[u] for u in members or (key,)),
                c,
                [names[u] for u in members or (key,)],
                [(names[u], names[w]) for u, w in internal],
                period,
                entered,
            )
            for key, c, members, internal, period, entered in found
        ]
    found.sort()  # no two components share a smallest vertex
    position = [0] * popped
    for k, entry in enumerate(found):
        position[entry[1]] = k
    at = position.__getitem__
    components, trivial, internal, successors = [], [], [], []
    for key, _c, members, edges, _period, entered in found:
        components.append(frozenset(members or (key,)))
        trivial.append(not edges)
        internal.append(tuple(edges))
        successors.append(tuple(sorted(map(at, entered))))
    periods = tuple(entry[4] for entry in found)
    report = ComponentReport(
        components=tuple(components),
        periods=periods,
        trivial=tuple(trivial),
        residue_period=lcm(*(p for p, t in zip(periods, trivial) if not t)),
        internal=tuple(internal),
    )
    return report, tuple(successors)


def _reversed(dag) -> list:
    """The condensation DAG `dag` with its edges reversed: for each
    component, the numbers of those whose edges enter it, in order."""
    predecessors = [[] for _ in dag]
    for c, targets in enumerate(dag):
        for t in targets:
            predecessors[t].append(c)
    return predecessors


def _find_cyclic(report: ComponentReport, component) -> int:
    """The number of a component of the report that has a cycle."""
    try:
        c = report.components.index(frozenset(component))
    except ValueError:
        raise ValueError(
            f"{sorted(component)} is not a strongly connected component of the graph"
        ) from None
    if report.trivial[c]:
        raise TrivialComponentError(
            f"component {sorted(component)} has no cycle; period undefined"
        )
    return c


def component_period(graph, component) -> int:
    """gcd of cycle lengths inside a strongly connected component of the
    graph, as found by the search that decomposed it: the gcd of
    depth[u] + 1 - depth[v] over internal edges u -> v, with depths from
    the DFS.  Undefined for trivial components."""
    report = scc_decompose(graph)
    return report.periods[_find_cyclic(report, component)]


def is_primitive(graph, component) -> bool:
    """True iff the component is aperiodic (period 1)."""
    return component_period(graph, component) == 1


def scc_decompose(graph) -> ComponentReport:
    """Maximal strongly connected components of a `LabeledGraph`, a
    `Product` table or a `Dfa`'s trim graph, ordered by smallest vertex,
    with per-component period, internal edges and the global residue
    period, as kept from one search (see the module docstring)."""
    return graph._components[0]


def residue_period(report: ComponentReport) -> int:
    """lcm of the periods of the nontrivial components (1 if none).

    Word counts taken along any arithmetic progression with this modulus
    have convergent normalized behaviour, which is all the limit
    estimation downstream needs.  The report holds it from the search.
    """
    return report.residue_period
