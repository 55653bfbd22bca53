import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reglang as rl
from reglang import spectral
from reglang.counting import CountVectors, count_len, count_upto
from reglang.spectral import (
    ENTROPY_EPS,
    Decomposition,
    analyze_graph,
    classify_radius,
    component_spectrum,
    graph_from_matrix,
    matrix_spectral_radius,
)
from corpus import SHOWCASE_MATRIX


# --- spectral radii ------------------------------------------------------------


def test_radius_of_period_two_matrix():
    assert abs(matrix_spectral_radius([[0, 2], [2, 0]]) - 2.0) < 1e-9


def test_radius_of_showcase_matrix():
    assert abs(matrix_spectral_radius(SHOWCASE_MATRIX) - 3.0) < 1e-9


def test_radius_of_trimmed_tail_matrix():
    assert abs(matrix_spectral_radius([[0, 2, 2], [0, 2, 0], [0, 0, 2]]) - 2.0) < 1e-9


def test_radius_of_golden_matrix():
    value = matrix_spectral_radius([[1, 1], [1, 0]])
    assert abs(value - (1 + math.sqrt(5)) / 2) < 1e-9


def test_radius_of_nilpotent_matrix_is_zero():
    assert matrix_spectral_radius([[0, 1], [0, 0]]) == 0.0


def test_component_radius_reports_diagnostics():
    graph = graph_from_matrix([[1, 1], [1, 0]])
    spectrum = component_spectrum(graph, {0, 1})
    assert spectrum.period == 1
    assert spectrum.iterations >= 1
    assert spectrum.residual <= 1e-12 * max(1.0, spectrum.radius)


def test_component_spectrum_rejects_a_set_that_is_not_a_component():
    graph = graph_from_matrix([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="not a strongly connected component"):
        component_spectrum(graph, {0})
    with pytest.raises(rl.TrivialComponentError):
        component_spectrum(graph_from_matrix([[0, 1], [0, 1]]), {0})
    # without a start vector, the spectrum is the one the graph's report holds
    spectrum = component_spectrum(graph, {0, 1})
    assert spectrum is component_spectrum(graph, [1, 0])
    assert analyze_graph(graph).components == (spectrum,)
    assert spectrum.radius == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def _constant_degree_matrix(data):
    """A strongly connected multigraph's matrix whose rows all sum to r
    (or, transposed, whose columns do), its period p and r.  Its m * p
    vertices form p classes of m, and every edge enters the next class: a
    cycle through all vertices carries one of each vertex's r out-edges,
    and the other r - 1 go to random vertices of the next class, but the
    first of vertex n - m goes to vertex 0 and closes a cycle of length p."""
    p = data.draw(st.integers(1, 4), label="period")
    r = data.draw(st.integers(1, 4), label="degree")
    m = data.draw(st.integers(1, 4), label="class size") if r > 1 else 1
    n = m * p
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        rows[v][(v + m) % n if v < n - m else (v + 1) % m] += 1
        first = (v // m + 1) % p * m
        for k in range(r - 1):
            j = 0 if (v, k) == (n - m, 0) else data.draw(st.integers(0, m - 1))
            rows[v][first + j] += 1
    if data.draw(st.booleans(), label="transposed"):
        rows = [list(column) for column in zip(*rows)]
    return rows, p, r


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_constant_degree_components_have_radius_r_without_iteration(data):
    rows, period, r = _constant_degree_matrix(data)
    graph = graph_from_matrix(rows)
    spectrum = component_spectrum(graph, graph.vertices)
    assert spectrum.period == period
    assert (spectrum.radius, spectrum.iterations, spectrum.residual) == (float(r), 0, 0.0)
    assert abs(spectrum.radius - max(abs(np.linalg.eigvals(np.array(rows, float))))) < 1e-9


# --- language entropy -----------------------------------------------------------


def test_entropy_of_full_binary_language():
    report = rl.language_entropy(rl.dfa_from_regex("(a|b)*"))
    assert report.entropy_bits == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_class == "expanding"
    # every vertex of the Sigma* loop has 2 out-edges: radius 2, not iterated
    assert [(c.radius, c.iterations) for c in report.components] == [(2.0, 0)]


def test_entropy_of_full_ternary_language():
    report = rl.language_entropy(rl.dfa_from_regex("(a|b|c)*"))
    assert report.entropy_bits == pytest.approx(math.log2(3), abs=1e-12)


def test_entropy_of_finite_language_is_zero():
    report = rl.language_entropy(rl.dfa_from_regex("a|aa|aaa"))
    assert report.entropy_bits == 0.0
    assert report.lambda_class == "finite"
    assert report.spectral_radius == 0.0


def test_entropy_of_empty_language_is_zero():
    report = rl.language_entropy(rl.dfa_from_regex("#"))
    assert report.entropy_bits == 0.0
    assert report.lambda_class == "finite"


def test_entropy_of_unary_star_is_exactly_zero():
    report = rl.language_entropy(rl.dfa_from_regex("a*"))
    assert report.lambda_class == "unit"
    assert report.entropy_bits == 0.0


def test_entropy_is_independent_of_minimization(corpus):
    for lang in corpus:
        raw = rl.language_entropy(lang.dfa).entropy_bits
        small = rl.language_entropy(rl.minimize(lang.dfa)).entropy_bits
        assert rl.entropies_equal(raw, small), lang.name


def test_lambda_classes_partition(corpus):
    for lang in corpus:
        report = rl.language_entropy(lang.dfa)
        assert report.lambda_class in ("finite", "unit", "expanding")
        if report.lambda_class == "finite":
            assert report.spectral_radius == 0.0
        else:
            assert report.spectral_radius >= 1.0 - 1e-9
        assert report.spectral_radius <= len(lang.alphabet) + 1e-9


def test_trim_and_essential_graphs_have_one_spectrum(corpus):
    for lang in corpus:
        graph = rl.trim(lang.dfa)
        assert analyze_graph(graph) == analyze_graph(rl.essential(graph)), lang.name


@pytest.mark.parametrize("views_first", [False, True])
@pytest.mark.parametrize("pattern, cycles", [("(a|bb)*c(a|bb)*", 2), ("(a|bb)*", 1)])
def test_a_dfa_and_its_trim_graph_compute_each_spectrum_once(monkeypatch, pattern, cycles,
                                                             views_first):
    computed = []

    def counted(component, internal, period, spectrum=spectral._spectrum):
        computed.append(component)
        return spectrum(component, internal, period)

    monkeypatch.setattr(spectral, "_spectrum", counted)
    dfa = rl.dfa_from_regex(pattern)
    reports = []

    def read_the_dfa():
        reports.append(rl.language_entropy(dfa))

    def read_the_trim_graph():
        graph = rl.trim(dfa)
        reports.append(analyze_graph(graph))
        assert rl.topological_entropy(graph) == reports[-1].entropy_bits
        scc = rl.scc_decompose(graph)
        for component, trivial in zip(scc.components, scc.trivial):
            if not trivial:
                assert component_spectrum(graph, component) in reports[-1].components

    order = (read_the_dfa, read_the_trim_graph)
    for read in order[::-1] if views_first else order:
        read()
    assert len(computed) == cycles
    assert reports[0] is reports[1]


def _dfas_upto(max_states):
    """Random complete DFAs over {a, b} with 1 to `max_states` states."""
    return st.integers(min_value=1, max_value=max_states).flatmap(
        lambda n: st.builds(
            rl.Dfa,
            st.just(("a", "b")),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=n,
                max_size=n,
            ).map(tuple),
            st.frozensets(st.integers(0, n - 1)),
            st.integers(0, n - 1),
        )
    )


_dfas = _dfas_upto(6)


@settings(max_examples=150, deadline=None)
@given(dfa=_dfas)
def test_trim_and_essential_graphs_have_one_spectrum_on_random_dfas(dfa):
    graph = rl.trim(dfa)
    assert analyze_graph(graph) == analyze_graph(rl.essential(graph))


@pytest.mark.parametrize(
    "pattern, index",
    [
        ("#", 0),
        ("a|aa", 0),
        ("a*", 1),
        ("a*b*", 2),
        ("a*b*c*", 3),
        ("a*b(a|b)*", 1),
        ("(a|b)*c(a|b)*", 2),
        ("(a|b)*c(a|b)*d(a|b)*", 3),
    ],
)
def test_index_counts_dominant_components_on_one_path(pattern, index):
    assert rl.language_entropy(rl.dfa_from_regex(pattern)).index == index


@settings(max_examples=100, deadline=None)
@given(a=_dfas_upto(7), b=_dfas_upto(7))
@example(a=rl.dfa_from_regex("a*b*"), b=rl.dfa_from_regex("(aa)*b*"))
@example(a=rl.dfa_from_regex("a*b*c*"), b=rl.dfa_from_regex("a*c*", "abc"))
def test_one_decomposition_reports_every_combination(a, b):
    # every product state is reachable, so each combination's trim graph
    # keeps or drops the product's components whole; the examples have
    # reports of index 2 and 3, which random DFAs this small rarely reach
    prod = rl.product(a, b)
    pair = Decomposition(*prod._components)
    left, right = prod.left, prod.right
    for part in (left ^ right, left | right, left & right, left - right, right - left):
        assert repr(pair.report(part)) == repr(rl.language_entropy(prod.dfa(part)))


def test_classify_radius_boundaries():
    assert classify_radius(0.0) == "finite"
    assert classify_radius(1.0) == "unit"
    assert classify_radius(1.0 + 1e-12) == "unit"
    assert classify_radius(2.0) == "expanding"


# --- topological entropy ---------------------------------------------------------


def test_topological_entropy_of_period_two_graph():
    graph = rl.essential(rl.trim(rl.minimize(rl.dfa_from_regex("((a|b){2})*"))))
    assert rl.topological_entropy(graph) == pytest.approx(1.0, abs=1e-12)


def test_topological_entropy_of_showcase_union():
    graph = graph_from_matrix(SHOWCASE_MATRIX)
    assert rl.topological_entropy(graph) == pytest.approx(math.log2(3), abs=1e-12)


def test_topological_entropy_of_empty_graph():
    graph = rl.essential(rl.trim(rl.dfa_from_regex("#")))
    assert rl.topological_entropy(graph) == 0.0


# --- equality helper --------------------------------------------------------------


def test_entropies_equal_tolerance():
    assert rl.entropies_equal(1.0, 1.0)
    assert rl.entropies_equal(1.0, 1.0 + ENTROPY_EPS / 2)
    assert not rl.entropies_equal(math.log2(3), 1.0)


# --- growth-rate checks at moderate horizon ---------------------------------------


def test_cumulative_rate_near_entropy(corpus, entropy_of, infinite_names):
    for lang in corpus:
        if lang.name not in infinite_names:
            continue
        cv = CountVectors.from_dfa(lang.dfa)
        rate = math.log2(count_upto(cv, 200)) / 200
        assert abs(rate - entropy_of[lang.name]) < 0.1, lang.name


def test_exact_length_rate_on_a_nearby_subsequence(corpus, entropy_of, infinite_names):
    # the exact-count rate approaches the entropy along a subsequence with
    # gaps at most twice the state count, so a window of that width below
    # n = 400 must contain a good length
    for lang in corpus:
        if lang.name not in infinite_names:
            continue
        cv = CountVectors.from_dfa(lang.dfa)
        width = 2 * lang.dfa.n_states
        target = 400
        best = None
        for n in range(max(1, target - width), target + 1):
            count = count_len(cv, n)
            if count > 0:
                gap = abs(math.log2(count) / n - entropy_of[lang.name])
                best = gap if best is None else min(best, gap)
        assert best is not None and best < 0.05, lang.name


# --- cold start -------------------------------------------------------------------

# Prints, after the suffix pair's metrics, whether numpy was loaded, and
# then whether it was after an entropy that needs power iteration.
COLD_START = """
import sys
import reglang as rl
import reglang.cli
a = rl.dfa_from_regex("(a|b)*a(a|b){7}")
b = rl.dfa_from_regex("(a|b)*a(a|b){6}")
rl.jaccard_cum_n(a, b, 200)
rl.jaccard_exact_n(a, b, 200)
rl.entropy_distance(a, b)
rl.entropy_sum(a, b)
rl.language_entropy(a)
rl.language_entropy(b)
print("numpy" in sys.modules)
rl.language_entropy(rl.dfa_from_regex("(a|bb)*"))
print("numpy" in sys.modules)
"""


def test_numpy_loads_only_for_a_component_that_needs_iteration():
    src = str(Path(rl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "True"]


# Which of the modules that no import needs are loaded by `import reglang`,
# then by `import reglang.cli`, counting only those the interpreter had not
# loaded before.
IMPORT_ONLY = """
import sys
late = {"dataclasses", "inspect", "json", "numpy"} - set(sys.modules)
import reglang
print(",".join(sorted(late & set(sys.modules))))
import reglang.cli
print(",".join(sorted(late & set(sys.modules))))
"""


def test_import_loads_no_dataclasses_inspect_json_or_numpy():
    src = str(Path(rl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", IMPORT_ONLY], env=env,
                         capture_output=True, text=True, check=True)
    package, cli = run.stdout.split("\n")[:2]
    assert package == ""
    assert cli in ("", "json")  # the command line prints JSON
