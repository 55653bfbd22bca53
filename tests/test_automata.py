import gc
import json
import pickle
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglang as rl
import reglang.automata
from reglang.automata import _canonical, _pair_product, _refining, coarsest_partition
from reglang.counting import CountVectors
from reglang.oracle import acceptance_by_length, all_strings
from reglang.spectral import graph_from_matrix
from corpus import SHOWCASE_MATRIX, showcase_machine
from test_graphs import _complete_dfas, _matrices


def language_table(dfa, alphabet, depth):
    return acceptance_by_length(dfa, depth, alphabet)


# --- determinize -----------------------------------------------------------


def test_determinize_a_star_over_two_symbols():
    dfa = rl.dfa_from_regex("a*", "ab")
    assert rl.minimize(dfa).n_states == 2  # one live state plus trash


def test_determinize_empty_language():
    dfa = rl.dfa_from_regex("#")
    assert rl.is_empty(dfa)
    assert rl.minimize(dfa).n_states == 1
    assert not rl.minimize(dfa).accepting


def test_determinize_universal_language():
    dfa = rl.minimize(rl.dfa_from_regex("(a|b)*"))
    assert dfa.n_states == 1
    assert dfa.accepting == frozenset({0})


def test_subset_construction_stops_at_the_state_cap(monkeypatch):
    # 16 NFA states and 129 reachable subsets: the cap bounds the DFA too
    nfa = rl.compile_to_nfa(rl.parse_regex("(a|b)*a(a|b){6}"))
    assert nfa.n_states == 16
    monkeypatch.setenv("REGLANG_MAX_STATES", "129")
    assert rl.determinize(nfa).n_states == 129
    monkeypatch.setenv("REGLANG_MAX_STATES", "128")
    with pytest.raises(rl.StateLimitError, match="subset construction exceeded 128 states"):
        rl.determinize(nfa)


def test_nfa_rejects_a_state_symbol_outside_its_alphabet():
    # the last symbol was read in place of any unknown one, so "b" was accepted
    with pytest.raises(rl.AlphabetError, match="outside the alphabet"):
        rl.Nfa(("a", "b"), (None, "c"), ((1, 1), (0, 0)), frozenset({1}))


# --- minimize --------------------------------------------------------------


def residual_class_count(dfa, depth=6):
    """Distinct acceptance signatures of reachable states over all words
    of length <= depth; a brute-force stand-in for state equivalence."""
    words = list(all_strings(dfa.alphabet, depth))
    idx = dfa.symbol_index
    signatures = set()
    reachable = {dfa.initial}
    frontier = [dfa.initial]
    while frontier:
        q = frontier.pop()
        for t in dfa.transitions[q]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    for q in sorted(reachable):
        signature = []
        for word in words:
            state = q
            for symbol in word:
                state = dfa.transitions[state][idx[symbol]]
            signature.append(state in dfa.accepting)
        signatures.add(tuple(signature))
    return len(signatures)


def test_minimize_one_state_for_unary_star():
    assert rl.minimize(rl.dfa_from_regex("a*")).n_states == 1


def test_minimize_even_lengths_two_states():
    dfa = rl.dfa_from_regex("(aa)*")
    assert rl.minimize(dfa).n_states == 2
    assert residual_class_count(dfa) == 2


def test_minimize_matches_residual_classes(corpus):
    for lang in corpus:
        minimal = rl.minimize(lang.dfa)
        assert minimal.n_states == residual_class_count(lang.dfa), lang.name


def test_minimize_idempotent(corpus):
    for lang in corpus:
        once = rl.minimize(lang.dfa)
        twice = rl.minimize(once)
        assert once == twice, lang.name
        assert once.n_states <= lang.dfa.n_states


def test_minimize_preserves_language(corpus):
    for lang in corpus:
        assert rl.equivalent(rl.minimize(lang.dfa), lang.dfa), lang.name


def minimize_by_rescanning(dfa):
    """Minimal DFA by the earlier refinement: each splitter rescans every
    block for each symbol, O(|alphabet| V^2); then the canonical order."""
    reach = set()
    frontier = [dfa.initial]
    while frontier:
        q = frontier.pop()
        if q not in reach:
            reach.add(q)
            frontier.extend(dfa.transitions[q])
    finals = frozenset(q for q in reach if q in dfa.accepting)
    partition = [s for s in (finals, frozenset(reach) - finals) if s]
    worklist = list(partition)
    preimage = {symbol: {} for symbol in dfa.alphabet}
    for q in reach:
        for symbol, t in zip(dfa.alphabet, dfa.transitions[q]):
            preimage[symbol].setdefault(t, set()).add(q)
    while worklist:
        splitter = worklist.pop()
        for symbol in dfa.alphabet:
            x = set().union(*(preimage[symbol].get(q, ()) for q in splitter))
            next_partition = []
            for block in partition:
                inside, outside = block & x, block - x
                if not (inside and outside):
                    next_partition.append(block)
                    continue
                next_partition.extend((inside, outside))
                if block in worklist:
                    worklist.remove(block)
                    worklist.extend((inside, outside))
                else:
                    worklist.append(min(inside, outside, key=len))
            partition = next_partition
    block_of = {q: i for i, block in enumerate(partition) for q in block}
    rows = tuple(
        tuple(block_of[t] for t in dfa.transitions[min(block)]) for block in partition
    )
    accepting = frozenset(i for i, block in enumerate(partition) if block & dfa.accepting)
    return _canonical(rl.Dfa(dfa.alphabet, rows, accepting, block_of[dfa.initial]))


@settings(max_examples=300, deadline=None)
@given(dfa=_complete_dfas())
def test_minimize_matches_rescanning_refinement(dfa):
    assert rl.minimize(dfa) == minimize_by_rescanning(dfa)


def partition_by_signatures(keys, rows):
    """Moore-style refinement: split every block by each vertex's weight
    into each block until no block splits; the blocks as a set of sets."""
    block = list(keys)
    while True:
        signature = []
        for v, row in enumerate(rows):
            into = {}
            for j, a in enumerate(row):
                if a:
                    into[block[j]] = into.get(block[j], 0) + a
            signature.append((block[v], tuple(sorted(into.items()))))
        numbers = {sig: i for i, sig in enumerate(dict.fromkeys(signature))}
        refined = [numbers[sig] for sig in signature]
        if len(numbers) == len(set(block)):
            return {frozenset(v for v, b in enumerate(refined) if b == c) for c in numbers.values()}
        block = refined


_weighted = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(graph=_weighted)
def test_coarsest_partition_matches_signature_refinement(graph):
    keys, rows = graph
    into = [[] for _ in rows]
    for u, row in enumerate(rows):
        for v, a in enumerate(row):
            into[v].extend([(u, 1)] * a)  # parallel edges, one entry each
    block_of = coarsest_partition(keys, into)
    blocks = {frozenset(v for v, b in enumerate(block_of) if b == c) for c in set(block_of)}
    assert blocks == partition_by_signatures(keys, rows)
    assert list(dict.fromkeys(block_of)) == sorted(set(block_of))  # numbered by smallest vertex


@pytest.mark.parametrize(
    "pattern, states",
    [("(a|b)*a(a|b){12}", 8192), ("a{16000}(a|b)*", 16002)],
)
def test_minimize_large_dfas(pattern, states):
    assert rl.minimize(rl.dfa_from_regex(pattern)).n_states == states


# --- harmonize -------------------------------------------------------------


def test_harmonize_extends_both_alphabets():
    a = rl.dfa_from_regex("a*")
    b = rl.dfa_from_regex("b*")
    ha, hb = rl.harmonize(a, b)
    assert ha.alphabet == hb.alphabet == ("a", "b")
    assert ha.accepts("aa") and not ha.accepts("ab")
    assert hb.accepts("bb") and not hb.accepts("ba")


def test_harmonize_identical_alphabets_returns_inputs():
    a = rl.dfa_from_regex("a*", "ab")
    b = rl.dfa_from_regex("b*", "ab")
    assert rl.harmonize(a, b) == (a, b)


def test_distances_to_acceptance_are_found_lazily():
    dfa = rl.dfa_from_regex("a{3}(a|b)*|b")
    assert "_to_accept" not in dfa.__dict__
    # states in breadth-first order: after "", a, b, aa, the trash state,
    # aaa, and the two accepting states past aaa
    assert dfa._to_accept == [1, 2, 0, 1, -1, 0, 0, 0]
    assert (rl.shortest_accepted(dfa), rl.is_empty(dfa)) == (1, False)
    empty = rl.dfa_from_regex("#", "ab")
    assert (rl.shortest_accepted(empty), rl.is_empty(empty)) == (None, True)


def test_harmonize_preserves_string_sets(corpus):
    for lang in corpus[:8]:
        other = rl.dfa_from_regex("(a|b|c|d)*")
        widened, _ = rl.harmonize(lang.dfa, other)
        for word in all_strings(lang.alphabet, 5):
            assert widened.accepts(word) == lang.dfa.accepts(word)
        assert not widened.accepts("d" * 3) or lang.dfa.alphabet == ("d",)


# --- combine / complement --------------------------------------------------


def test_combine_reads_both_operands_over_the_union_alphabet():
    union = rl.combine(rl.dfa_from_regex("a*"), rl.dfa_from_regex("b*"), "union")
    assert union.alphabet == ("a", "b")
    assert rl.equivalent(union, rl.dfa_from_regex("a*|b*", "ab"))
    for word in all_strings("ab", 6):
        assert union.accepts(word) == (set(word) <= {"a"} or set(word) <= {"b"}), word


def test_symdiff_of_all_and_even_is_odd_lengths():
    sym = rl.combine(
        rl.dfa_from_regex("(a|b)*"), rl.dfa_from_regex("((a|b){2})*"), "symdiff"
    )
    odd = rl.dfa_from_regex("(a|b)((a|b){2})*")
    assert rl.equivalent(sym, odd)
    for word in all_strings("ab", 7):
        assert sym.accepts(word) == (len(word) % 2 == 1)


def test_union_idempotent():
    dfa = rl.dfa_from_regex("(a|bb)*")
    assert rl.equivalent(rl.combine(dfa, dfa, "union"), dfa)


def test_intersection_of_disjoint_parities_is_empty():
    inter = rl.combine(
        rl.dfa_from_regex("(aa)*"), rl.dfa_from_regex("a(aa)*"), "intersect"
    )
    assert rl.is_empty(inter)


def test_complement_of_universal_is_empty():
    assert rl.is_empty(rl.complement(rl.dfa_from_regex("(a|b)*")))


def test_complement_is_involution(corpus):
    for lang in corpus:
        back = rl.complement(rl.complement(lang.dfa))
        for word in all_strings(lang.alphabet, 8 if len(lang.alphabet) < 3 else 5):
            assert back.accepts(word) == lang.dfa.accepts(word), lang.name


def test_complement_of_even_is_odd():
    comp = rl.complement(rl.dfa_from_regex("(aa)*"))
    for n in range(10):
        assert comp.accepts("a" * n) == (n % 2 == 1)
    assert rl.equivalent(comp, rl.dfa_from_regex("a(aa)*"))


def test_combined_membership_is_boolean_combination(corpus):
    # exhaustive up to length 8 over every pair's union alphabet
    ops = {
        "intersect": lambda x, y: x & y,
        "union": lambda x, y: x | y,
        "symdiff": lambda x, y: x ^ y,
        "minus": lambda x, y: x & ~y,
    }
    for i, left in enumerate(corpus):
        for right in corpus[i + 1 :]:
            a, b = rl.harmonize(left.dfa, right.dfa)
            t1 = language_table(a, a.alphabet, 8)
            t2 = language_table(b, a.alphabet, 8)
            for op, combine_bits in ops.items():
                combined = rl.combine(a, b, op)
                tc = language_table(combined, a.alphabet, 8)
                for n in range(9):
                    assert np.array_equal(tc[n], combine_bits(t1[n], t2[n])), (
                        left.name,
                        right.name,
                        op,
                        n,
                    )


# --- trim / essential ------------------------------------------------------


def test_trim_showcase_machine_drops_core_states():
    dfa = showcase_machine({3, 4})
    graph = rl.trim(dfa)
    assert graph.vertices == (0, 3, 4)
    assert CountVectors.from_dfa(dfa).matrix == ((0, 2, 2), (0, 2, 0), (0, 0, 2))
    assert graph.role == "trim"


def test_trim_showcase_machine_union_keeps_five():
    dfa = showcase_machine({2, 3, 4})
    assert rl.trim(dfa).vertices == (0, 1, 2, 3, 4)
    assert CountVectors.from_dfa(dfa).matrix == SHOWCASE_MATRIX


def test_trim_empty_language_gives_flagged_empty_graph():
    graph = rl.trim(rl.dfa_from_regex("#"))
    assert graph.is_empty
    assert graph.vertices == ()


def test_trim_of_all_useful_dfa_keeps_everything():
    dfa = rl.minimize(rl.dfa_from_regex("(aa)*"))
    graph = rl.trim(dfa)
    assert graph.vertices == tuple(range(dfa.n_states))


def test_essential_of_even_length_language():
    dfa = rl.minimize(rl.dfa_from_regex("((a|b){2})*"))
    graph = rl.essential(rl.trim(dfa))
    assert graph.vertices == rl.trim(dfa).vertices == (0, 1)
    assert CountVectors.from_dfa(dfa).matrix == ((0, 2), (2, 0))


def test_essential_of_finite_language_is_empty():
    graph = rl.essential(rl.trim(rl.dfa_from_regex("a|aa")))
    assert graph.is_empty


def test_essential_idempotent(corpus):
    for lang in corpus:
        once = rl.essential(rl.trim(lang.dfa))
        assert rl.essential(once) == once, lang.name


def essential_by_fixpoint(graph):
    """The essential graph by its definition: drop every vertex without
    an incoming or an outgoing edge among the rest, until none is left."""
    vertices = set(graph.vertices)
    edges = list(graph.edges)
    while True:
        has_out = {src for src, _s, _d in edges}
        has_in = {dst for _s, _sym, dst in edges}
        alive = {v for v in vertices if v in has_out and v in has_in}
        if alive == vertices:
            return rl.LabeledGraph(tuple(sorted(vertices)), tuple(edges), "essential")
        vertices = alive
        edges = [e for e in edges if e[0] in vertices and e[2] in vertices]


@settings(max_examples=150, deadline=None)
@given(rows=_matrices)
def test_essential_matches_fixpoint_definition(rows):
    graph = graph_from_matrix(rows)
    assert rl.essential(graph) == essential_by_fixpoint(graph)


@st.composite
def _chain_dfas(draw):
    """A complete DFA over "ab" whose cycles lie behind long chains: a
    head chain enters a random core on "a", and the core may enter a tail
    chain that ends in a trash state; every other move of a chain state
    goes forward."""
    head, core, tail = draw(st.integers(0, 30)), draw(st.integers(1, 5)), draw(st.integers(0, 30))
    trash = head + core + tail
    forward = lambda q: (q + 1, draw(st.integers(q + 1, trash)))
    into = st.sampled_from([*range(head, head + core), head + core, trash])
    rows = [forward(q) for q in range(head)]
    rows += [(draw(into), draw(into)) for _ in range(core)]
    rows += [forward(q) for q in range(head + core, trash)]
    rows.append((trash, trash))
    accepting = frozenset(draw(st.sets(st.integers(0, trash))))
    return rl.Dfa(("a", "b"), tuple(rows), accepting, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dfa=st.one_of(_complete_dfas(), _chain_dfas()))
def test_essential_of_a_trim_graph_matches_fixpoint_definition(dfa):
    # the trim graph shares its DFA's search, which covers only the
    # states reached from the initial one that reach acceptance
    graph = rl.trim(dfa)
    assert rl.essential(graph) == essential_by_fixpoint(graph)


def test_essential_of_an_analysed_dfa_reads_its_kept_search(monkeypatch):
    patterns = ("(a|b)*a(a|b){6}", "a{300}(a|b)*", "(aa)*b(a{3})*b", "a|aa")
    dfas = [rl.dfa_from_regex(x) for x in patterns]
    for dfa in dfas:
        rl.language_entropy(dfa)

    def refuse(*args, **kwargs):
        raise AssertionError("a search was made")

    for module in (reglang.automata, reglang.graphs):
        monkeypatch.setattr(module, "_strong_components", refuse)
    for dfa in dfas:
        assert rl.essential(rl.trim(dfa)) == essential_by_fixpoint(rl.trim(dfa))


def test_essential_of_long_chain_is_empty():
    graph = rl.trim(rl.dfa_from_regex("a{4000}"))
    assert graph.n_vertices == 4001
    assert rl.essential(graph).is_empty


# --- state budget ------------------------------------------------------------


def test_state_cap_env_var_limits_products(monkeypatch):
    a, b = rl.harmonize(
        rl.dfa_from_regex("(a|bb)*"), rl.dfa_from_regex("((a|b){3})*")
    )
    monkeypatch.setenv("REGLANG_MAX_STATES", "2")
    with pytest.raises(rl.StateLimitError):
        rl.combine(a, b, "symdiff")


def test_state_cap_env_var_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REGLANG_MAX_STATES", "many")
    with pytest.raises(rl.StateLimitError):
        rl.dfa_from_regex("(a|b)*")


@pytest.mark.parametrize(
    "left, right, refines",
    [
        ("(a|b)*a(a|b){4}", "(a|b)*a(a|b){3}", True),
        ("(a|b)*a(a|b){4}", "(a|b)*b(a|b){4}", False),
        ("shuffled", "(a|b)*a(a|b){3}", True),  # the finer table is renumbered
    ],
)
def test_state_cap_counts_the_product_states(monkeypatch, left, right, refines):
    # the cap, lowered after both DFAs are built, stops a refining pair's
    # product where the numbering of the pairs would stop
    d2 = rl.dfa_from_regex(right)
    if left == "shuffled":
        d1 = _shuffled(rl.dfa_from_regex("(a|b)*a(a|b){4}"), 5)
    else:
        d1 = rl.dfa_from_regex(left)
    assert (_refining(d1, d2) is not None) == refines
    size = len(rl.product(d1, d2).transitions)
    for a, b in ((d1, d2), (d2, d1), (_fresh(d1), _fresh(d2))):
        monkeypatch.setenv("REGLANG_MAX_STATES", str(size))
        assert len(rl.product(a, b).transitions) == size
    message = f"^product construction exceeded {size - 1} states$"
    for a, b in ((d1, d2), (d2, d1), (_fresh(d1), _fresh(d2))):
        monkeypatch.setenv("REGLANG_MAX_STATES", str(size - 1))
        with pytest.raises(rl.StateLimitError, match=message):
            rl.product(a, b)


# --- refining pairs ------------------------------------------------------------


def _fresh(dfa):
    """An equal DFA that has kept nothing yet."""
    return rl.Dfa(dfa.alphabet, dfa.transitions, dfa.accepting, dfa.initial)


def _shuffled(dfa, seed):
    """The DFA loaded from JSON with its states renumbered by a permutation."""
    rename = list(range(dfa.n_states))
    Random(seed).shuffle(rename)
    delta = [None] * dfa.n_states
    for q, row in enumerate(dfa.transitions):
        delta[rename[q]] = [rename[t] for t in row]
    doc = {
        **json.loads(dfa.to_json()),
        "delta": delta,
        "accepting": sorted(rename[q] for q in dfa.accepting),
        "initial": rename[dfa.initial],
    }
    return rl.Dfa.from_json(json.dumps(doc))


_UNIVERSAL = rl.Dfa(("a", "b"), ((0, 0),), frozenset({0}))
_NOTHING = rl.Dfa(("a", "b"), ((0, 0),), frozenset())


@st.composite
def _refining_pairs(draw):
    """(finer, coarser): a DFA over "ab" built to refine another, as the
    pair's product against one operand, a complement, Sigma* or the empty
    language, or the suffix windows k and k - 1; as built, harmonized with
    "c" (the new dead state out of breadth-first order), or each loaded
    from JSON in a shuffled numbering."""
    d = draw(_complete_dfas("ab"))
    kind = draw(st.sampled_from(("combine", "complement", "universal", "empty", "suffix")))
    if kind == "combine":
        op = draw(st.sampled_from(("intersect", "union", "symdiff", "minus")))
        pair = rl.combine(d, draw(_complete_dfas("ab")), op), d
    elif kind == "complement":
        pair = rl.complement(d), d
    elif kind in ("universal", "empty"):
        pair = d, _UNIVERSAL if kind == "universal" else _NOTHING
    else:
        k = draw(st.integers(2, 5))
        pair = tuple(rl.dfa_from_regex(f"(a|b)*a(a|b){{{m}}}") for m in (k, k - 1))
    view = draw(st.sampled_from(("as built", "harmonized", "shuffled")))
    if view == "harmonized":
        wide = rl.Dfa(("c",), ((0,),), frozenset())
        pair = tuple(rl.harmonize(x, wide)[0] for x in pair)
    elif view == "shuffled":
        pair = tuple(_shuffled(x, draw(st.integers(0, 99))) for x in pair)
    return pair


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=_refining_pairs())
def test_a_refining_pair_is_read_off_the_finer_table(pair):
    # in either order: the product is the one numbered over the pairs,
    # read off the table the finer DFA keeps
    for a, b in (pair, pair[::-1]):
        assert _refining(a, b) is not None
        prod = rl.product(a, b)
        assert prod == _pair_product(a, b)
        assert any(prod.transitions is d._numbered[0] for d in (a, b))


def _count_walks(monkeypatch) -> list:
    """Record each refinement walk (`automata._image`)."""
    walks, image = [], reglang.automata._image

    def counted(*args):
        walks.append(args)
        return image(*args)

    monkeypatch.setattr(reglang.automata, "_image", counted)
    return walks


@pytest.mark.parametrize(
    "left, right, refines",
    [
        ("(a|b)*a(a|b){4}", "(a|b)*a(a|b){3}", True),
        ("(a|b)*a(a|b){4}", "(a|b)*b(a|b){3}", False),
    ],
)
def test_a_refinement_outcome_is_walked_once(monkeypatch, left, right, refines):
    # the finer DFA keeps the outcome, success or failure, for either order
    d1, d2 = rl.dfa_from_regex(left), rl.dfa_from_regex(right)
    walks = _count_walks(monkeypatch)
    for _ in range(3):
        for a, b in ((d1, d2), (d2, d1)):
            assert (_refining(a, b) is not None) == refines
            assert rl.product(a, b) == _pair_product(a, b)
    assert len(walks) == 1
    assert rl.product(d1, d2) == rl.product(_fresh(d1), d2) and len(walks) == 2


def test_a_kept_outcome_is_dropped_with_the_coarser_dfa():
    fine = rl.dfa_from_regex("(a|b)*a(a|b){4}")
    coarser = [rl.dfa_from_regex("(a|b)*a(a|b){3}"), rl.dfa_from_regex("(a|b)*b(a|b){3}")]
    assert [_refining(fine, d) is not None for d in coarser] == [True, False]
    assert len(fine.__dict__["_refines"]) == 2
    del coarser
    gc.collect()
    assert fine.__dict__["_refines"] == {}


def test_a_kept_outcome_still_reads_the_state_cap(monkeypatch):
    fine, coarse = rl.dfa_from_regex("(a|b)*a(a|b){4}"), rl.dfa_from_regex("(a|b)*a(a|b){3}")
    assert _refining(fine, coarse) is not None
    walks = _count_walks(monkeypatch)
    monkeypatch.setenv("REGLANG_MAX_STATES", str(fine.n_states - 1))
    message = f"^product construction exceeded {fine.n_states - 1} states$"
    for a, b in ((fine, coarse), (coarse, fine)):
        with pytest.raises(rl.StateLimitError, match=message):
            rl.product(a, b)
    assert walks == []


def test_a_dfa_pickles_as_its_fields_after_a_refining_pair():
    # what a DFA keeps, the outcome's weak reference among it, is not pickled
    fine, coarse = rl.dfa_from_regex("(a|b)*a(a|b){4}"), rl.dfa_from_regex("(a|b)*a(a|b){3}")
    rl.jaccard_cum_n(fine, coarse, 9)
    again = pickle.loads(pickle.dumps(fine))
    assert again == fine and "_refines" not in again.__dict__
    assert rl.product(again, coarse) == rl.product(fine, coarse)


# two random DFAs over one alphabet
_same_alphabet_pairs = st.sampled_from(("a", "ab", "abc")).flatmap(
    lambda alphabet: st.tuples(_complete_dfas(alphabet), _complete_dfas(alphabet))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=_same_alphabet_pairs)
def test_a_product_is_numbered_as_over_the_pairs(pair):
    for a, b in (pair, pair[::-1]):
        assert rl.product(a, b) == _pair_product(a, b)


def test_a_table_numbered_breadth_first_is_kept_as_it_is(corpus):
    # determinize, minimize and combine number breadth first, so the
    # product of a DFA they built and one it refines is its own table, as
    # renumbering an equal DFA's table finds; any other is renumbered as
    # `_canonical` renumbers it
    for lang in corpus:
        for dfa in (lang.dfa, rl.minimize(lang.dfa), rl.combine(lang.dfa, lang.dfa, "minus")):
            assert dfa._numbered[0] is _fresh(dfa)._numbered[0] is dfa.transitions
            assert _fresh(dfa)._numbered == dfa._numbered
    for seed in range(20):
        dfa = _shuffled(rl.dfa_from_regex("(a|b)*a(a|b){3}|b*"), seed)
        rows, accepting = dfa._numbered
        assert (rows, accepting) == (_canonical(dfa).transitions, _canonical(dfa).accepting)


# --- serialization ----------------------------------------------------------


def test_dfa_json_round_trip(corpus):
    for lang in corpus[:6]:
        again = rl.Dfa.from_json(lang.dfa.to_json())
        assert again == lang.dfa


@pytest.mark.parametrize(
    "fields",
    [
        {"states": 5},  # more states than rows of delta
        {"states": None},
        {"states": 1.0},
        {"states": True},
        {"delta": [[0.0]]},
        {"delta": [[True]]},
        {"initial": 0.0},
        {"initial": False},
        {"accepting": [0.0]},
        {"accepting": [True]},
        {"alphabet": [1]},
        {"alphabet": ["ab"]},
        {"alphabet": []},
        {"alphabet": "a"},
        {"delta": [5]},
        {"accepting": 0},
        {"alphabet": ...},  # a missing key
        {"initial": ...},
    ],
    ids=lambda fields: repr(fields).replace(" ", ""),
)
def test_dfa_json_rejects_a_miscounted_or_non_int_state(fields):
    obj = {"alphabet": ["a"], "delta": [[0]], "accepting": [0], "initial": 0, "states": 1}
    assert rl.Dfa.from_json(json.dumps(obj)) == rl.Dfa(("a",), ((0,),), frozenset({0}))
    doc = {key: value for key, value in {**obj, **fields}.items() if value is not ...}
    with pytest.raises(ValueError):
        rl.Dfa.from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "0", "null", "{", '"dfa"'])
def test_dfa_json_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(ValueError):
        rl.Dfa.from_json(text)


# --- property: random pairs ---------------------------------------------


_patterns = st.sampled_from(
    ["a*", "(ab)*", "(a|b)*", "a(a|b)*", "(a|bb)*", "((a|b){2})*", "~", "#", "b(ab)*"]
)


@settings(max_examples=40, deadline=None)
@given(p1=_patterns, p2=_patterns, word=st.text(alphabet="ab", max_size=6))
def test_product_membership_random(p1, p2, word):
    a, b = rl.harmonize(rl.dfa_from_regex(p1, "ab"), rl.dfa_from_regex(p2, "ab"))
    assert rl.combine(a, b, "symdiff").accepts(word) == (
        a.accepts(word) != b.accepts(word)
    )
    assert rl.combine(a, b, "minus").accepts(word) == (
        a.accepts(word) and not b.accepts(word)
    )
