from itertools import combinations, islice
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglang as rl
import reglang.automata
from reglang.counting import CountVectors, length_counts
from reglang.errors import TrivialComponentError
from reglang.automata import _separation, product
from reglang.spectral import analyze_graph, graph_from_matrix
from dense import matrix_power


def figure_graph():
    dfa = rl.minimize(rl.dfa_from_regex("((a|b){2})*"))
    return rl.essential(rl.trim(dfa))


# --- scc decomposition -------------------------------------------------------


def test_scc_of_period_two_graph_is_one_component():
    report = rl.scc_decompose(figure_graph())
    assert len(report.components) == 1
    assert len(report.components[0]) == 2
    assert report.periods == (2,)
    assert report.residue_period == 2


def test_scc_of_trimmed_tail_matrix():
    graph = graph_from_matrix([[0, 2, 2], [0, 2, 0], [0, 0, 2]])
    report = rl.scc_decompose(graph)
    assert [sorted(c) for c in report.components] == [[0], [1], [2]]
    assert report.trivial == (True, False, False)
    assert report.periods == (1, 1, 1)
    assert report.residue_period == 1


def test_scc_of_dag_is_all_trivial():
    graph = graph_from_matrix([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    report = rl.scc_decompose(graph)
    assert all(report.trivial)
    assert report.residue_period == 1


# --- periods -----------------------------------------------------------------


def test_period_of_figure_graph_is_two():
    graph = figure_graph()
    (component,) = rl.scc_decompose(graph).components
    assert rl.component_period(graph, component) == 2


def test_period_of_self_loop_is_one():
    graph = graph_from_matrix([[1]])
    assert rl.component_period(graph, {0}) == 1


def test_period_of_three_cycle():
    dfa = rl.minimize(rl.dfa_from_regex("(aaa)*"))
    graph = rl.trim(dfa)
    (component,) = rl.scc_decompose(graph).components
    assert rl.component_period(graph, component) == 3


def test_period_undefined_for_trivial_component():
    graph = graph_from_matrix([[0, 1], [0, 1]])
    with pytest.raises(TrivialComponentError):
        rl.component_period(graph, {0})


# --- primitivity -------------------------------------------------------------


def test_figure_component_is_not_primitive():
    graph = figure_graph()
    (component,) = rl.scc_decompose(graph).components
    assert not rl.is_primitive(graph, component)


def test_self_loop_is_primitive():
    graph = graph_from_matrix([[2]])
    assert rl.is_primitive(graph, {0})


def test_two_cycle_with_extra_self_loop_is_primitive():
    rows = [[1, 1], [1, 0]]
    graph = graph_from_matrix(rows)
    assert rl.is_primitive(graph, {0, 1})
    cube = matrix_power(rows, 3)
    assert all(entry > 0 for row in cube for entry in row)


# --- residue period ----------------------------------------------------------


def test_residue_period_single_period_two():
    report = rl.scc_decompose(figure_graph())
    assert rl.residue_period(report) == 2


def test_residue_period_all_aperiodic_is_one():
    report = rl.scc_decompose(graph_from_matrix([[1, 1], [1, 1]]))
    assert rl.residue_period(report) == 1


def test_residue_period_mixes_two_and_three():
    # disjoint 2-cycle and 3-cycle
    graph = graph_from_matrix(
        [
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0],
        ]
    )
    assert rl.scc_decompose(graph).residue_period == 6


# --- brute-force cross-checks -------------------------------------------------


def simple_cycle_lengths(graph, component):
    comp = set(component)
    succ = {v: [d for d in graph.successors.get(v, ()) if d in comp] for v in comp}
    lengths = set()

    def walk(start, current, depth, seen):
        for nxt in succ[current]:
            if nxt == start:
                lengths.add(depth + 1)
            elif nxt not in seen:
                walk(start, nxt, depth + 1, seen | {nxt})

    for v in comp:
        walk(v, v, 0, {v})
    return lengths


_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150, deadline=None)
@given(rows=_matrices)
def test_bfs_period_matches_cycle_enumeration(rows):
    graph = graph_from_matrix(rows)
    report = rl.scc_decompose(graph)
    for component, trivial in zip(report.components, report.trivial):
        if trivial:
            continue
        lengths = simple_cycle_lengths(graph, component)
        expected = 0
        for length in lengths:
            expected = gcd(expected, length)
        assert rl.component_period(graph, component) == expected


@settings(max_examples=150, deadline=None)
@given(rows=_matrices)
def test_primitivity_matches_power_positivity(rows):
    graph = graph_from_matrix(rows)
    report = rl.scc_decompose(graph)
    idx = graph.vertex_index
    for component, trivial in zip(report.components, report.trivial):
        if trivial:
            continue
        keep = sorted(idx[v] for v in component)
        sub = tuple(tuple(rows[i][j] for j in keep) for i in keep)
        k = len(keep)
        bound = (k - 1) ** 2 + 1
        positive = False
        for exponent in range(1, bound + 1):
            power = matrix_power(sub, exponent)
            if all(entry > 0 for row in power for entry in row):
                positive = True
                break
        assert rl.is_primitive(graph, component) == positive


# --- one search against the separate passes it replaces ---------------------


def tarjan_reference(graph):
    """(report, condensation DAG) as separate passes found them: a
    dict-based Tarjan over the distinct successors, one scan of the edges
    for the internal edges and the DAG, and each period from BFS levels."""
    succ = graph.successors
    index, low, on_stack, stack, components = {}, {}, set(), [], []
    for root in graph.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    component = set()
                    while v not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    components.append(frozenset(component))
    components.sort(key=min)
    component_of = {v: c for c, comp in enumerate(components) for v in comp}
    internal = [[] for _ in components]
    entered = [set() for _ in components]
    for s, _symbol, d in graph.edges:
        c = component_of[s]
        if c == component_of[d]:
            internal[c].append((s, d))
        else:
            entered[c].add(component_of[d])
    trivial = tuple(not edges for edges in internal)
    periods = tuple(1 if t else bfs_period(edges) for t, edges in zip(trivial, internal))
    q = 1
    for period, t in zip(periods, trivial):
        q = q if t else q * period // gcd(q, period)
    report = rl.ComponentReport(tuple(components), periods, trivial, q, tuple(map(tuple, internal)))
    return report, tuple(tuple(sorted(e)) for e in entered)


def bfs_period(internal):
    """gcd of level[u] + 1 - level[v] over the internal edges u -> v of a
    nontrivial component, with levels from a BFS from its smallest vertex."""
    adjacency = {}
    for s, d in internal:
        adjacency.setdefault(s, []).append(d)
    root = min(adjacency)
    level, frontier = {root: 0}, [root]
    while frontier:
        reached = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in level:
                    level[v] = level[u] + 1
                    reached.append(v)
        frontier = reached
    period = 0
    for u, v in internal:
        period = gcd(period, level[u] + 1 - level[v])
    return period


def reach(seeds, neighbours):
    seen, queue = set(seeds), list(seeds)
    while queue:
        for w in neighbours(queue.pop()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@st.composite
def _complete_dfas(draw, alphabet=None):
    n = draw(st.integers(1, 9))
    alphabet = alphabet or "abc"[: draw(st.integers(1, 3))]
    row = st.tuples(*(st.integers(0, n - 1) for _ in alphabet))
    return rl.Dfa(
        tuple(alphabet),
        tuple(draw(st.lists(row, min_size=n, max_size=n))),
        frozenset(draw(st.sets(st.integers(0, n - 1)))),
        draw(st.integers(0, n - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(dfa=_complete_dfas())
def test_one_search_matches_the_separate_passes(dfa):
    graph = rl.trim(dfa)
    forward = reach({dfa.initial}, dfa.transitions.__getitem__)
    live = reach(dfa.accepting, lambda v: [q for q in forward if v in dfa.transitions[q]])
    assert graph.vertices == tuple(sorted(forward & live))
    found = rl.scc_decompose(graph), graph.condensation
    rebuilt = rl.LabeledGraph(graph.vertices, graph.edges, graph.role)
    assert (rl.scc_decompose(rebuilt), rebuilt.condensation) == found
    assert found == tarjan_reference(graph)
    assert repr(rl.language_entropy(dfa)) == repr(analyze_graph(rebuilt))


def shortest_accepted_reference(dfa):
    """Length of a shortest accepted word, or None: a forward breadth-first
    search from the initial state, stopped at the first accepting state."""
    if dfa.initial in dfa.accepting:
        return 0
    seen, frontier, depth = {dfa.initial}, [dfa.initial], 0
    while frontier:
        depth += 1
        reached = []
        for q in frontier:
            for t in dfa.transitions[q]:
                if t in seen:
                    continue
                if t in dfa.accepting:
                    return depth
                seen.add(t)
                reached.append(t)
        frontier = reached
    return None


def separation_reference(d1, d2):
    """Length of a shortest word accepted by exactly one of two DFAs over
    one alphabet, or None: the unpruned breadth-first search over the
    pairs of states reached together, stopped at the first pair that
    differs in acceptance."""
    if (d1.initial in d1.accepting) != (d2.initial in d2.accepting):
        return 0
    seen, frontier, length = {(d1.initial, d2.initial)}, [(d1.initial, d2.initial)], 0
    while frontier:
        length += 1
        reached = []
        for p, q in frontier:
            for pair in zip(d1.transitions[p], d2.transitions[q]):
                if pair in seen:
                    continue
                if (pair[0] in d1.accepting) != (pair[1] in d2.accepting):
                    return length
                seen.add(pair)
                reached.append(pair)
        frontier = reached
    return None


def _table_graph(transitions):
    """Every state and edge of a transition table, as a graph."""
    edges = tuple((q, k, t) for q, row in enumerate(transitions) for k, t in enumerate(row))
    return rl.LabeledGraph(tuple(range(len(transitions))), edges, "trim")


@settings(max_examples=300, deadline=None)
@given(pair=st.tuples(_complete_dfas(), _complete_dfas()))
def test_separation_search_matches_the_symmetric_difference(pair):
    d1, d2 = pair
    prod = product(d1, d2)
    assert prod._components == tarjan_reference(_table_graph(prod.transitions))
    symdiff = rl.combine(d1, d2, "symdiff")
    witness = shortest_accepted_reference(symdiff)
    assert rl.shortest_accepted(symdiff) == witness
    assert rl.equivalent(d1, d2) == rl.is_empty(symdiff) == (witness is None)
    if witness is None:
        with pytest.raises(rl.DuplicateLanguageError):
            rl.separating_n([d1, d2])
    else:
        assert rl.separating_n([d1, d2]) == witness


def _random_dfa(rng, alphabet, n, density):
    """A complete DFA with n states, each accepting with the given
    probability: density 0 gives the empty language, and states the
    initial one does not reach are common."""
    rows = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < density)
    return rl.Dfa(tuple(alphabet), rows, accepting, rng.randrange(n))


def test_pruned_separation_matches_the_unpruned_search():
    # a seeded sweep: the pairs where a pruning rule goes wrong are rare,
    # about one in a thousand for an off-by-one in the bound; one pair in
    # three has two alphabets, which the reference reads harmonized
    rng = Random(1602)
    for _ in range(6000):
        alphabet = "abc"[: rng.randint(1, 3)]
        other = rng.choice((alphabet, alphabet, "b", "bc", "ac"))
        d1, d2 = (
            _random_dfa(rng, symbols, rng.randint(1, 12), rng.choice((0, 0.1, 0.3, 0.6)))
            for symbols in (alphabet, other)
        )
        expected = separation_reference(*rl.harmonize(d1, d2))
        assert _separation(d1, d2) == _separation(d2, d1) == expected, (d1, d2)


@settings(max_examples=200, deadline=None)
@given(family=st.lists(_complete_dfas(), min_size=3, max_size=5))
def test_separating_n_is_the_longest_unpruned_witness(family):
    # alphabets differ: the reference searches the harmonized copies
    common = rl.harmonize_all(family)
    union = tuple(sorted(set().union(*(d.alphabet for d in family))))
    assert {d.alphabet for d in common} == {union}
    witnesses = [separation_reference(x, y) for x, y in combinations(common, 2)]
    if None in witnesses:
        with pytest.raises(rl.DuplicateLanguageError):
            rl.separating_n(family)
    else:
        assert rl.separating_n(family) == max(witnesses)


def test_pruned_separation_matches_on_the_corpus_and_the_ladder_pairs(corpus):
    pairs = [rl.harmonize(x.dfa, y.dfa) for x, y in combinations(corpus, 2)]
    assert len(pairs) == 253
    for k in range(4, 13):  # the tie and disjoint pairs of the ladder
        left = rl.dfa_from_regex(f"(a|b)*a(a|b){{{k}}}")
        pairs.append((left, rl.dfa_from_regex(f"(a|b)*a(a|b){{{k - 1}}}")))
        pairs.append((left, rl.dfa_from_regex(f"(a|b)*b(a|b){{{k}}}")))
    for d1, d2 in pairs:
        assert _separation(d1, d2) == separation_reference(d1, d2)


def test_separation_counts_the_pairs_it_keeps(monkeypatch):
    # equal languages: no witness prunes, so every reachable pair is kept
    dfa = rl.dfa_from_regex("(a|b)*a(a|b){3}")
    doubled = rl.combine(dfa, dfa, "union")  # 16 states, each a pair (q, q)
    assert _separation(dfa, doubled) is None
    monkeypatch.setenv("REGLANG_MAX_STATES", "8")
    with pytest.raises(rl.StateLimitError):
        _separation(dfa, doubled)
    with pytest.raises(rl.StateLimitError):
        rl.equivalent(dfa, doubled)


def _count_search_set_up(monkeypatch) -> list:
    """The names of `_over` and `state_cap`, once per call of either."""
    calls = []
    for name in ("_over", "state_cap"):
        original = getattr(reglang.automata, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(reglang.automata, name, counted)
    return calls


@pytest.mark.parametrize(
    "p1, p2, alphabets, witness",
    [
        ("a{40}(a|b)*", "a{50}", ("ab", "ab"), 40),
        ("a{40}(a|b)*", "a{50}", ("ab", "a"), 40),
        ("(a|b)*b", "#", ("ab", "ab"), 1),  # one language empty
        ("#", "a#", ("ab", "a"), None),  # both empty
    ],
)
def test_a_pair_decided_at_its_initial_states_sets_up_no_search(
    monkeypatch, p1, p2, alphabets, witness
):
    d1, d2 = rl.dfa_from_regex(p1, alphabets[0]), rl.dfa_from_regex(p2, alphabets[1])
    calls = _count_search_set_up(monkeypatch)
    # no cap is read, so even a cap of one pair is never reached
    monkeypatch.setenv("REGLANG_MAX_STATES", "1")
    assert _separation(d1, d2) == _separation(d2, d1) == witness
    assert calls == []


def test_a_pair_at_equal_initial_distances_is_searched(monkeypatch):
    d1, d2 = rl.dfa_from_regex("(a|b)*a(a|b){3}"), rl.dfa_from_regex("(a|b)*b(a|b){3}")
    calls = _count_search_set_up(monkeypatch)
    assert _separation(d1, d2) == 4
    assert sorted(calls) == ["_over", "_over", "state_cap"]


@pytest.mark.parametrize("alphabets", [("ab", "ab"), ("a", "ab")])
def test_a_second_separation_computes_no_distances(monkeypatch, alphabets):
    family = [
        rl.dfa_from_regex("a{40}(a|b)*", alphabets[1]),
        rl.dfa_from_regex("a{50}", alphabets[0]),
    ]
    kept = reglang.automata.Dfa.__dict__["_to_accept"]
    original, calls = kept.func, []

    def counted(dfa):
        calls.append(dfa)
        return original(dfa)

    monkeypatch.setattr(kept, "func", counted)
    assert rl.separating_n(family) == 40
    # the DFAs themselves, not copies over the union alphabet, keep them
    assert len(calls) == 2 and all(x is y for x, y in zip(calls, family))
    calls.clear()
    assert rl.separating_n(family) == 40
    assert rl.equivalent(*family) is False
    assert calls == []


def _analysis(dfa, order) -> dict:
    """Every answer read off a DFA's kept analysis, by repr, the calls
    made in the given order."""
    calls = {
        "graph": lambda: rl.trim(dfa),
        "entropy": lambda: rl.language_entropy(dfa),
        "counts": lambda: list(islice(length_counts(CountVectors.from_dfa(dfa)), 9)),
    }
    found = {name: calls[name]() for name in order}
    graph = found.pop("graph")
    found["graph"] = (graph.vertices, graph.edges, graph.component_report, graph.condensation)
    return {name: repr(value) for name, value in found.items()}


@settings(max_examples=300, deadline=None)
@given(dfa=_complete_dfas(), order=st.permutations(["graph", "entropy", "counts"]))
def test_the_kept_analysis_never_changes_an_answer(dfa, order):
    first = _analysis(dfa, order)
    assert rl.trim(dfa) is rl.trim(dfa)
    assert rl.language_entropy(dfa) is rl.language_entropy(dfa)
    assert _analysis(dfa, reversed(order)) == first
    fresh = rl.Dfa(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.initial)
    assert fresh == dfa and rl.trim(fresh) is not rl.trim(dfa)
    assert _analysis(fresh, ["counts", "entropy", "graph"]) == first


def _behind_an_unreachable_accepting_state(dfa):
    """The DFA renumbered from 1, after a new accepting state 0 that no
    transition enters."""
    rows = ((0,) * len(dfa.alphabet),)
    rows += tuple(tuple(t + 1 for t in row) for row in dfa.transitions)
    accepting = frozenset({0} | {q + 1 for q in dfa.accepting})
    return rl.Dfa(dfa.alphabet, rows, accepting, dfa.initial + 1)


def _trim_graph(graph):
    return graph.vertices, graph.edges, graph.component_report, graph.condensation


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    dfa=st.one_of(_complete_dfas(), _complete_dfas().map(_behind_an_unreachable_accepting_state))
)
def test_entropy_read_off_the_table_matches_a_search_of_the_trim_graph(dfa):
    # the entropy of a DFA that has analysed nothing yet, against a graph
    # that runs its own search over the trim graph's edges
    copy = lambda: rl.Dfa(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.initial)
    first, second = copy(), copy()
    graph = rl.trim(first)
    rebuilt = rl.LabeledGraph(graph.vertices, graph.edges, "trim")
    assert repr(rl.language_entropy(second)) == repr(analyze_graph(rebuilt))
    assert _trim_graph(rl.trim(second)) == _trim_graph(graph)


# --- aperiodicity as a convergence detector -----------------------------------


def jprime_sequence(d1, d2, n_max):
    a, b = rl.harmonize(d1, d2)
    sym = length_counts(CountVectors.from_dfa(rl.combine(a, b, "symdiff")))
    uni = length_counts(CountVectors.from_dfa(rl.combine(a, b, "union")))
    values = []
    for _ in range(n_max + 1):
        num = next(sym)
        den = next(uni)
        values.append(num / den if den else 0.0)
    return values


def test_all_aperiodic_pairs_have_settled_jprime_tails(corpus):
    checked = 0
    for i, left in enumerate(corpus):
        for right in corpus[i + 1 :]:
            a, b = rl.harmonize(left.dfa, right.dfa)
            reports = [
                rl.scc_decompose(rl.trim(rl.combine(a, b, op)))
                for op in ("symdiff", "union")
            ]
            if any(
                not trivial and period != 1
                for rep in reports
                for period, trivial in zip(rep.periods, rep.trivial)
            ):
                continue
            values = jprime_sequence(left.dfa, right.dfa, 60)
            tail = values[-11:]
            oscillation = max(
                abs(y - x) for x, y in zip(tail, tail[1:])
            )
            assert oscillation < 1e-3, (left.name, right.name, oscillation)
            checked += 1
    assert checked >= 20
