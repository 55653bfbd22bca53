import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglang as rl
from reglang.automata import coarsest_partition
from reglang.counting import (
    CountVectors,
    _distances,
    _lumps_backward_first,
    _own_system,
    _reduced,
    block_count,
    count_len,
    count_upto,
    counts_at,
    cumulative_counts,
    final_counts,
    length_counts,
    residue_language,
    shared_system,
    trim_system,
)
from reglang.metrics import jaccard_cum_n, jaccard_exact_n
from reglang.oracle import DEFAULT_BUDGET, acceptance_by_length, oracle_counts, oracle_distance
from reglang.spectral import graph_from_matrix
from corpus import (
    SHOWCASE_FINAL_UNION,
    SHOWCASE_INITIAL,
    SHOWCASE_MATRIX,
    showcase_machine,
)
from dense import matrix_power
from test_graphs import _complete_dfas, _matrices
from test_spectral import _dfas


def system(pattern, alphabet=None):
    return CountVectors.from_dfa(rl.dfa_from_regex(pattern, alphabet))


# --- exact length counts -----------------------------------------------------


def test_count_len_full_binary():
    assert count_len(system("(a|b)*"), 3) == 8


def test_count_len_showcase_union_at_one():
    cv = CountVectors(SHOWCASE_MATRIX, SHOWCASE_INITIAL, SHOWCASE_FINAL_UNION)
    assert count_len(cv, 1) == 4  # the four one-letter tail words


def test_count_len_even_language_odd_length():
    assert count_len(system("(aa)*"), 5) == 0


def test_count_upto_unary_star():
    assert count_upto(system("a*"), 3) == 4


def test_count_upto_full_binary():
    assert count_upto(system("(a|b)*"), 4) == 31


def test_counts_match_enumeration_for_showcase_sym():
    dfa = showcase_machine({3, 4})
    cv = CountVectors.from_dfa(dfa)
    levels = acceptance_by_length(dfa, 7)
    total = 0
    gen = length_counts(cv)
    for n in range(8):
        exact = int(levels[n].sum())
        total += exact
        assert next(gen) == exact, n
    assert count_upto(cv, 7) == total


def test_counts_match_enumeration_for_corpus_sample(corpus):
    for lang in corpus:
        if len(lang.alphabet) > 2:
            continue
        cv = CountVectors.from_dfa(lang.dfa)
        levels = acceptance_by_length(lang.dfa, 8)
        for n, level in enumerate(levels):
            assert count_len(cv, n) == int(level.sum()), (lang.name, n)


def test_count_upto_monotone(corpus):
    for lang in corpus:
        cv = CountVectors.from_dfa(lang.dfa)
        values = []
        gen = cumulative_counts(cv)
        for _ in range(12):
            values.append(next(gen))
        assert values == sorted(values), lang.name


def _with_vectors(rows):
    vector = st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))
    return st.tuples(st.just(rows), vector, vector)


@settings(max_examples=150, deadline=None)
@given(system=_matrices.flatmap(_with_vectors))
def test_sparse_counts_match_dense_matrix_power(system):
    rows, initial, final = system
    cv = CountVectors(tuple(map(tuple, rows)), tuple(initial), tuple(final))
    for n in range(11):
        power = matrix_power(cv.matrix, n)
        dense = sum(
            initial[i] * power[i][j] * final[j]
            for i in range(cv.n)
            for j in range(cv.n)
        )
        assert count_len(cv, n) == dense, n
    # the rows of A^q by sparse steps, and the final vector A^k . f
    for q in range(1, 6):
        power = matrix_power(cv.matrix, q)
        for k in range(q):
            res = residue_language(cv, q, k)
            assert res.matrix == power, (q, k)
            assert res.initial == cv.initial
            tail = matrix_power(cv.matrix, k)
            assert res.final == tuple(sum(a * f for a, f in zip(row, final)) for row in tail)


def _with_finals(rows):
    vector = st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))
    return st.tuples(st.just(rows), vector, st.lists(vector, min_size=2, max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=_matrices.flatmap(_with_finals))
def test_counts_at_one_horizon_are_the_streams_term_and_its_running_sum(system):
    rows, initial, finals = system
    cv = CountVectors(rows, initial, finals[0])
    terms = list(islice(final_counts(cv, finals), 41))
    totals = list(accumulate(terms, lambda s, t: tuple(map(add, s, t))))
    for n in range(41):
        assert counts_at(cv, finals, n) == terms[n], n
        assert counts_at(cv, finals, n, cumulative=True) == totals[n], n


def test_counts_at_length_0_read_the_initial_vector():
    cv = CountVectors([[1, 1], [0, 1]], [1, 1], [0, 1])
    finals = ((0, 1), (1, 1), (2, 3))
    assert counts_at(cv, finals, 0) == counts_at(cv, finals, 0, cumulative=True) == (1, 2, 5)
    assert counts_at(cv, finals, 1) == (2, 3, 8)  # i . A = (1, 2)
    assert counts_at(cv, finals, 1, cumulative=True) == (3, 5, 13)
    for cumulative in (False, True):
        with pytest.raises(ValueError):
            counts_at(cv, finals, -1, cumulative)


@pytest.mark.parametrize(
    "p1, p2, horizon",
    [
        # the union is empty: no state reaches acceptance
        ("#", "a#", None),
        # acceptance 50 steps from state 0, past the horizon 20
        ("a{50}(a|b)*", "a{60}", 20),
    ],
    ids=["empty-union", "acceptance-past-the-horizon"],
)
def test_counts_at_on_a_system_with_no_state_are_0(p1, p2, horizon):
    a, b = rl.dfa_from_regex(p1, "ab"), rl.dfa_from_regex(p2, "ab")
    cv, finals = shared_system(*_union(a, b), horizon)
    assert cv.n == 0
    for n in (0, 1, 20):
        for cumulative in (False, True):
            assert counts_at(cv, finals, n, cumulative) == (0, 0), (n, cumulative)


@pytest.mark.parametrize(
    "matrix, initial, final",
    [
        ([[1, 1], [0, 1]], (1,), (1,)),  # vectors shorter than the matrix
        ([[1]], (1, 0), (1, 0)),  # vectors longer than the matrix
        ([[1, 1]], (1,), (1,)),  # not square
        ([[1, 1], [0]], (1, 0), (0, 1)),  # a short row
        ([[1, -1], [0, 1]], (1, 0), (0, 1)),  # a negative entry
        ([[1, 1], [0, 1]], (1, -1), (0, 1)),  # a negative initial entry
        ([[1, 1], [0, 1]], (1, 0), (0, 0.5)),  # a float final entry
        ([[1.0, 1], [0, 1]], (1, 0), (0, 1)),  # a float matrix entry
    ],
)
def test_count_vectors_reject_malformed_systems(matrix, initial, final):
    with pytest.raises(ValueError):
        CountVectors(matrix, initial, final)


def test_count_vectors_read_back_a_dense_matrix_as_tuples():
    cv = CountVectors([[1, 1], [0, 1]], [1, 0], [0, 1])
    assert cv.matrix == ((1, 1), (0, 1))
    assert [count_len(cv, n) for n in range(4)] == [0, 1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(a=_dfas, b=_dfas)
def test_one_product_stream_counts_every_combination(a, b):
    prod = rl.product(a, b)
    left, right = prod.left, prod.right
    combinations = [
        (rl.combine(a, b, "intersect"), left & right),
        (rl.combine(a, b, "union"), left | right),
        (rl.combine(a, b, "symdiff"), left ^ right),
        (rl.combine(a, b, "minus"), left - right),
        (rl.combine(b, a, "minus"), right - left),
    ]
    cv, finals = shared_system(prod.transitions, [part for _d, part in combinations])
    # 40 lengths pass every transient of these products of at most 36 states
    expected = zip(*(length_counts(CountVectors.from_dfa(d)) for d, _part in combinations))
    for n, (counts, want) in enumerate(zip(islice(final_counts(cv, finals), 40), expected)):
        assert counts == want, n


@pytest.mark.parametrize(
    "p1, p2, size, counts_at_30",
    [
        # union trim graph of 257 vertices; sym diff and union at n = 30
        ("(a|b)*a(a|b){7}", "(a|b)*a(a|b){6}", 9, (2**29, 3 * 2**28)),
        # 16,383 vertices; the languages are disjoint
        ("(a|b)*a(a|b){12}", "(a|b)*b(a|b){12}", 14, (2**30, 2**30)),
        # 5 vertices; the trash state has no accepting path and is dropped
        ("(ab)*", "(ba)*", 3, (2, 2)),
        # 8,193 vertices, lumped backward first
        ("(a|b)*a(a|b){12}", "(a|b)*a(a|b){11}", 14, (2**29, 3 * 2**28)),
    ],
    ids=["suffix-pair-k7", "disjoint-pair-k12", "alternating-pair", "tie-pair-k12"],
)
def test_shared_system_counts_on_the_lumped_quotient(p1, p2, size, counts_at_30):
    prod = rl.product(rl.dfa_from_regex(p1), rl.dfa_from_regex(p2))
    left, right = prod.left, prod.right
    cv, finals = shared_system(prod.transitions, (left ^ right, left | right))
    assert cv.n <= size
    assert next(islice(final_counts(cv, finals), 30, None)) == counts_at_30


def _union(a, b):
    """The product table of a pair and its (sym diff, union) parts."""
    prod = rl.product(a, b)
    left, right = prod.left, prod.right
    return prod.transitions, (left ^ right, left | right)


def _tie(k):
    return rl.dfa_from_regex(f"(a|b)*a(a|b){{{k}}}"), rl.dfa_from_regex(f"(a|b)*a(a|b){{{k - 1}}}")


def _check_both_orders(a, b):
    prod = rl.product(a, b)
    left, right = prod.left, prod.right
    parts = (left ^ right, left | right)
    unreduced = [CountVectors.from_dfa(prod.dfa(part)) for part in parts]
    system = _own_system(prod.transitions, parts, (0,))
    for backward_first in (False, True):
        cv, finals = _reduced(system, backward_first)
        for row in cv.rows:
            columns = [j for j, _a in row]
            assert len(set(columns)) == len(columns), row
        expected = zip(*map(length_counts, unreduced))
        for n, (counts, want) in enumerate(zip(islice(final_counts(cv, finals), 41), expected)):
            assert counts == want, (backward_first, n)


@settings(max_examples=100, deadline=None)
@given(a=_dfas, b=_dfas)
def test_both_lumping_orders_count_like_the_unreduced_systems(a, b):
    _check_both_orders(a, b)


@pytest.mark.parametrize("k", range(2, 7))
def test_both_lumping_orders_count_like_the_unreduced_systems_on_ties(k):
    _check_both_orders(*_tie(k))


@settings(max_examples=100, deadline=None)
@given(a=_dfas, b=_dfas)
def test_distances_to_the_keyed_support_leave_the_partition_unchanged(a, b):
    rows, columns, initial, finals = _own_system(*_union(a, b), (0,))
    for into, keyed in ((columns, finals), (rows, (initial,))):
        keys = list(zip(*keyed))
        seeds = {v for f in keyed for v, x in enumerate(f) if x}
        with_distances = list(zip(_distances(into, seeds), *keyed))
        assert coarsest_partition(with_distances, into) == coarsest_partition(keys, into)


def test_first_lumping_direction_has_more_exact_duplicates(by_name):
    def backward_first(a, b):
        return _lumps_backward_first(*_own_system(*_union(a, b), (0,)))

    # 33 states: 1 forward and 16 backward duplicates
    assert backward_first(*_tie(4))
    # 5 states: 3 forward and 1 backward duplicates
    assert not backward_first(by_name["a_star"].dfa, by_name["all_abc"].dfa)
    # 9 states: 2 duplicates each way, and ties go forward
    assert not backward_first(by_name["finite_a123"].dfa, by_name["b_prefix"].dfa)


def test_corpus_unions_lump_no_worse_than_forward_first(corpus):
    # the totals of lumping every union forward first
    vertices = nonzeros = 0
    for i, x in enumerate(corpus):
        for y in corpus[i + 1 :]:
            cv, _finals = shared_system(*_union(x.dfa, y.dfa))
            vertices += cv.n
            nonzeros += sum(map(len, cv.rows))
    assert vertices <= 1033
    assert nonzeros <= 1603


def test_counting_system_of_a_large_dfa_is_built_from_edges():
    # 8193 states: a dense matrix would hold 67 million entries.
    dfa = rl.dfa_from_regex("(a|b)*a(a|b){12}")
    assert dfa.n_states == 8193
    assert count_len(CountVectors.from_dfa(dfa), 20) == 2**19


@st.composite
def _dfas_with_an_unreachable_accepting_state(draw):
    dfa = draw(_complete_dfas())
    n = dfa.n_states  # the new state, which no transition enters
    row = draw(st.tuples(*(st.integers(0, n) for _ in dfa.alphabet)))
    return rl.Dfa(dfa.alphabet, (*dfa.transitions, row), dfa.accepting | {n}, dfa.initial)


def _trim_graph_system(dfa):
    """(rows, initial, final) of the DFA's system counted from its trim
    graph's edges, in the order of the graph's sorted vertices."""
    graph = rl.trim(dfa)
    index = {v: i for i, v in enumerate(graph.vertices)}
    rows = [Counter() for _ in graph.vertices]
    for src, _symbol, dst in graph.edges:
        rows[index[src]][index[dst]] += 1
    initial = tuple(int(v == dfa.initial) for v in graph.vertices)
    final = tuple(int(v in dfa.accepting) for v in graph.vertices)
    return tuple(tuple(sorted(row.items())) for row in rows), initial, final


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dfa=_dfas_with_an_unreachable_accepting_state())
def test_the_table_system_is_the_trim_graphs_system(dfa):
    cv = CountVectors.from_dfa(dfa)
    assert (cv.rows, cv.initial, cv.final) == _trim_graph_system(dfa)
    for n, exact, _total in oracle_counts(dfa, 8):
        assert count_len(cv, n) == exact, n


# --- systems trimmed to a horizon ---------------------------------------------


def _horizon_counts(a, b, n, horizon):
    """The (sym diff, union) counts of lengths 0..n on the pair's shared
    system, trimmed to `horizon` or whole when it is None."""
    return list(islice(final_counts(*shared_system(*_union(a, b), horizon)), n + 1))


def _depth(transitions) -> int:
    """The most steps a breadth-first search from state 0 takes to reach a state."""
    depth, queue = {0: 0}, [0]
    for q in queue:  # reached states are appended
        for t in transitions[q]:
            if t not in depth:
                depth[t] = depth[q] + 1
                queue.append(t)
    return max(depth.values())


@settings(max_examples=300, deadline=None)
@given(a=_complete_dfas(), b=_complete_dfas(), n=st.integers(0, 40))
def test_the_horizon_trim_keeps_every_count_up_to_the_horizon(a, b, n):
    # the bound that skips the trim reads the product's depth right
    prod = rl.product(a, b)
    depth = _depth(prod.transitions)
    assert prod._within(depth) and not prod._within(depth - 1)
    counts = _horizon_counts(a, b, n, None)
    assert _horizon_counts(a, b, n, n) == counts
    sym, uni = counts[n]
    assert jaccard_exact_n(a, b, n) == (Fraction(sym, uni) if uni else 0)
    sym, uni = map(sum, zip(*counts))
    assert jaccard_cum_n(a, b, n) == (Fraction(sym, uni) if uni else 0)
    if n <= DEFAULT_BUDGET.n_max:
        for kind, jaccard in (("jn_exact", jaccard_exact_n), ("jn_cum", jaccard_cum_n)):
            assert jaccard(a, b, n) == oracle_distance(kind, a, b, n)


def test_the_horizon_trim_at_length_0_keeps_state_0_only_if_it_accepts():
    star, prefix = rl.dfa_from_regex("a*", "ab"), rl.dfa_from_regex("b(a|b)*")
    cv, _finals = shared_system(*_union(star, prefix), 0)
    assert cv.n == 1
    assert jaccard_cum_n(star, prefix, 0) == jaccard_exact_n(star, prefix, 0) == 1
    cv, _finals = shared_system(*_union(prefix, prefix), 0)
    assert cv.n == 0
    assert jaccard_cum_n(prefix, prefix, 0) == 0


@pytest.mark.parametrize(
    "p1, p2",
    [
        # acceptance 10 steps from state 0: past the horizon, state 0 goes
        ("a{10}(a|b)*", "a{12}"),
        # the union is empty: no state reaches acceptance
        ("#", "a#"),
    ],
    ids=["acceptance-past-the-horizon", "empty-union"],
)
def test_a_system_that_loses_state_0_is_trimmed_to_nothing(p1, p2):
    a, b = rl.dfa_from_regex(p1, "ab"), rl.dfa_from_regex(p2, "ab")
    cv, finals = shared_system(*_union(a, b), 9)
    assert cv.n == 0 and cv.initial == () and finals == ((), ())
    assert set(islice(final_counts(cv, finals), 1000)) == {(0, 0)}
    assert jaccard_cum_n(a, b, 9) == jaccard_exact_n(a, b, 9) == 0
    if p1 == "a{10}(a|b)*":  # a^10 alone; then a^12 is in both
        assert jaccard_cum_n(a, b, 10) == 1
        assert jaccard_cum_n(a, b, 12) == Fraction(6, 7)


def test_the_ladder_chain_pair_is_trimmed_to_nothing_at_length_200():
    a, b = rl.dfa_from_regex("a{1000}(a|b)*"), rl.dfa_from_regex("a{2000}")
    cv, _finals = shared_system(*_union(a, b), 200)
    assert cv.n == 0
    assert jaccard_cum_n(a, b, 200) == jaccard_exact_n(a, b, 200) == Fraction(0)


# --- admissible-block path counts ---------------------------------------------


def brute_paths_and_blocks(graph, n):
    edges_from = {}
    for src, symbol, dst in graph.edges:
        edges_from.setdefault(src, []).append((symbol, dst))
    paths = 0
    blocks = set()
    stack = [(v, "") for v in graph.vertices]
    while stack:
        vertex, label = stack.pop()
        if len(label) == n:
            paths += 1
            blocks.add(label)
            continue
        for symbol, dst in edges_from.get(vertex, ()):
            stack.append((dst, label + symbol))
    return paths, blocks


def test_block_count_on_period_two_graph():
    graph = rl.essential(rl.trim(rl.minimize(rl.dfa_from_regex("((a|b){2})*"))))
    assert block_count(graph, 3) == 16
    paths, blocks = brute_paths_and_blocks(graph, 3)
    assert paths == 16
    assert len(blocks) == 8
    # right-resolving sandwich: paths / |V| <= distinct blocks <= paths
    assert paths / graph.n_vertices <= len(blocks) <= paths


def test_block_count_empty_graph():
    graph = rl.essential(rl.trim(rl.dfa_from_regex("#")))
    for n in range(1, 5):
        assert block_count(graph, n) == 0


def test_block_count_single_self_loop():
    graph = graph_from_matrix([[1]])
    assert block_count(graph, 5) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=_matrices, n=st.integers(0, 6))
def test_block_count_is_ones_times_the_power_times_ones(rows, n):
    assert block_count(graph_from_matrix(rows), n) == sum(map(sum, matrix_power(rows, n)))


# --- residue-class systems -----------------------------------------------------


def test_residue_system_of_showcase_matrix():
    cv = CountVectors(SHOWCASE_MATRIX, SHOWCASE_INITIAL, SHOWCASE_FINAL_UNION)
    res = residue_language(cv, 2, 1)
    assert res.matrix == matrix_power(SHOWCASE_MATRIX, 2)
    assert res.final == (4, 3, 0, 2, 2)
    trimmed = trim_system(res)
    assert trimmed.matrix == ((0, 4, 4), (0, 4, 0), (0, 0, 4))
    assert trimmed.initial == (1, 0, 0)
    assert trimmed.final == (4, 2, 2)
    for n in range(6):
        assert count_len(trimmed, n) == count_len(cv, 2 * n + 1)


def test_residue_identity_keeps_counts():
    cv = system("(a|bb)*")
    res = residue_language(cv, 1, 0)
    for n in range(10):
        assert count_len(res, n) == count_len(cv, n)


@pytest.mark.parametrize("pattern", ["(a|b)*", "((a|b){2})*", "(a|bb)*", "(ab)*"])
def test_residue_even_class_skips_odd_lengths(pattern):
    cv = system(pattern)
    res = residue_language(cv, 2, 0)
    assert count_len(res, 3) == count_len(cv, 6)
    assert count_len(res, 4) == count_len(cv, 8)


def test_residue_rejects_bad_arguments():
    cv = system("a*")
    with pytest.raises(ValueError):
        residue_language(cv, 0, 0)
    with pytest.raises(ValueError):
        residue_language(cv, 2, 2)


# --- asymptotic growth ----------------------------------------------------------


def test_growth_rate_tracks_entropy(corpus, entropy_of, infinite_names):
    for lang in corpus:
        if lang.name not in infinite_names:
            continue
        cv = CountVectors.from_dfa(lang.dfa)
        total = count_upto(cv, 200)
        rate = math.log2(total) / 200
        assert abs(rate - entropy_of[lang.name]) < 0.1, lang.name
