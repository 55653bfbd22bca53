import json
import math
import sys
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reglang as rl
import reglang.automata
import reglang.counting
import reglang.graphs
import reglang.metrics
from reglang import cli
from reglang.counting import CountVectors, count_upto, cumulative_counts
from reglang.errors import ConvergenceError, DuplicateLanguageError
from reglang.metrics import CesaroConfig
from reglang.oracle import oracle_distance
from dense import leading_limits
from test_graphs import _complete_dfas


# --- fixed-length Jaccard -------------------------------------------------------


def test_exact_jaccard_zero_on_even_lengths(by_name):
    a_star = by_name["a_star"].dfa
    even_a = by_name["even_a"].dfa
    for n in (0, 2, 4, 6):
        assert rl.jaccard_exact_n(a_star, even_a, n) == 0


def test_exact_jaccard_one_when_difference_owns_the_length(by_name):
    value = rl.jaccard_exact_n(by_name["all_ab"].dfa, by_name["even_ab"].dfa, 3)
    assert value == 1


def test_exact_jaccard_diagonal_is_zero(by_name):
    dfa = by_name["golden"].dfa
    for n in range(5):
        assert rl.jaccard_exact_n(dfa, dfa, n) == 0


# --- cumulative Jaccard ------------------------------------------------------------


def test_cumulative_jaccard_parity_limits(by_name):
    # the two parity classes settle at 2/3 (odd horizons, exactly) and 1/3
    all_ab = by_name["all_ab"].dfa
    even_ab = by_name["even_ab"].dfa
    assert rl.jaccard_cum_n(all_ab, even_ab, 3) == Fraction(2, 3)
    assert rl.jaccard_cum_n(all_ab, even_ab, 41) == Fraction(2, 3)
    assert abs(float(rl.jaccard_cum_n(all_ab, even_ab, 40)) - 1 / 3) < 1e-3


def test_cumulative_jaccard_diagonal_is_zero(by_name):
    dfa = by_name["swap_pairs"].dfa
    for n in range(5):
        assert rl.jaccard_cum_n(dfa, dfa, n) == 0


def test_cumulative_jaccard_blind_to_longer_padding():
    # adding one word longer than the horizon, over a fresh symbol, leaves
    # the distance at zero once the alphabets are harmonized
    base = rl.dfa_from_regex("(a|b)*")
    padded = rl.dfa_from_regex("(a|b)*|zzzz", "abz")
    widened, _ = rl.harmonize(base, padded)
    assert widened.alphabet == ("a", "b", "z")
    assert rl.jaccard_cum_n(base, padded, 3) == 0
    assert rl.jaccard_cum_n(base, padded, 4) > 0


def test_finite_jaccard_matches_enumeration(by_name):
    pairs = [
        ("all_ab", "even_ab"),
        ("a_star", "even_a"),
        ("golden", "swap_pairs"),
        ("one_c", "bc_star"),
        ("epsilon", "finite_a123"),
    ]
    for left, right in pairs:
        d1 = by_name[left].dfa
        d2 = by_name[right].dfa
        for n in range(7):
            assert rl.jaccard_exact_n(d1, d2, n) == oracle_distance(
                "jn_exact", d1, d2, n
            ), (left, right, n)
            assert rl.jaccard_cum_n(d1, d2, n) == oracle_distance(
                "jn_cum", d1, d2, n
            ), (left, right, n)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_jaccard_on_empty_union_is_zero(n, by_name):
    empty = by_name["empty"].dfa
    assert rl.jaccard_exact_n(empty, empty, n) == 0
    assert rl.jaccard_cum_n(empty, empty, n) == 0


@pytest.mark.parametrize("jaccard", [rl.jaccard_exact_n, rl.jaccard_cum_n])
def test_jaccard_rejects_negative_horizon(jaccard, by_name):
    with pytest.raises(ValueError):
        jaccard(by_name["a_star"].dfa, by_name["even_a"].dfa, -1)


# --- Cesaro Jaccard ------------------------------------------------------------------


def test_cesaro_parity_pair(by_name):
    result = rl.cesaro_jaccard(by_name["all_ab"].dfa, by_name["even_ab"].dfa)
    assert result.mode == "per-residue"
    assert abs(result.value - 0.5) < 1e-6
    limits = sorted(result.diagnostics["residue_limits"])
    assert abs(limits[0] - 1 / 3) < 1e-6
    assert abs(limits[1] - 2 / 3) < 1e-6


def test_cesaro_shortcut_fires_on_slower_difference():
    left = rl.dfa_from_regex("((a|b|c){2})*|(d|e)*")
    right = rl.dfa_from_regex("((a|b|c){2})*|(f|g)*")
    result = rl.cesaro_jaccard(left, right)
    assert result.mode == "analytic-shortcut"
    assert result.value == 0.0
    diag = result.diagnostics
    assert diag["entropy_sym_diff"] == pytest.approx(1.0, abs=1e-9)
    assert diag["entropy_union"] == pytest.approx(math.log2(3), abs=1e-9)


def test_cesaro_exact_sequence_disagrees_on_showcase_pair():
    # averaging the fixed-length distances instead of the cumulative ones
    # lands at one half on the same pair: the even lengths are decided by
    # the slower difference, the odd ones by the empty intersection
    left = rl.dfa_from_regex("((a|b|c){2})*|(d|e)*")
    right = rl.dfa_from_regex("((a|b|c){2})*|(f|g)*")
    result = rl.cesaro_jaccard(left, right, CesaroConfig(sequence="exact"))
    assert result.mode == "per-residue"
    assert result.value == 0.5
    assert result.diagnostics["residue_limits"] == [0.0, 1.0]


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ("((a|b){2})*|a(aa)*", "a(aa)*", 0.5),
        ("((a|b){2})*", "a(aa)*", 1.0),
    ],
)
def test_cesaro_exact_sequence_with_a_polynomial_class(left, right, expected):
    # the odd lengths of the union hold one word each: a class with radius
    # one beside an exponential one
    d1, d2 = rl.dfa_from_regex(left, "ab"), rl.dfa_from_regex(right, "ab")
    result = rl.cesaro_jaccard(d1, d2, CesaroConfig(sequence="exact"))
    assert result.value == expected


def _dead_cycle_a_star() -> rl.Dfa:
    """a* over ab, a b leading into a rejecting 2-cycle (not minimal)."""
    return rl.Dfa(("a", "b"), ((0, 1), (2, 2), (1, 1)), frozenset({0}))


@pytest.mark.parametrize(
    "left, right, q, mode, expected",
    [
        # the pair's 2-cycle reaches neither language: the union's period is 1
        ("a(a)*", _dead_cycle_a_star(), 1, "exact", 0.0),
        # the difference a(aa)* grows polynomially, the union exponentially
        ("((a|b){2})*", "((a|b){2})*|a(aa)*", 2, "per-residue", 0.5),
    ],
)
def test_fixed_length_period_and_radius_class_are_the_unions(left, right, q, mode, expected):
    d1, d2 = (x if isinstance(x, rl.Dfa) else rl.dfa_from_regex(x, "ab") for x in (left, right))
    result = rl.cesaro_jaccard(d1, d2, CesaroConfig(sequence="exact"))
    assert (result.diagnostics["residue_period"], result.mode) == (q, mode)
    assert result.value == pytest.approx(expected, abs=1e-12)


def test_cesaro_diagonal_is_zero(by_name):
    infinite = rl.cesaro_jaccard(by_name["all_ab"].dfa, by_name["all_ab"].dfa)
    assert infinite.value == 0.0
    assert infinite.mode == "analytic-shortcut"
    finite = rl.cesaro_jaccard(by_name["finite_a123"].dfa, by_name["finite_a123"].dfa)
    assert finite.value == 0.0


def test_cesaro_intersection_shortcut(by_name):
    # intersection thinner than the union forces the limit to one
    result = rl.cesaro_jaccard(by_name["all_ab"].dfa, by_name["golden"].dfa)
    assert result.mode == "analytic-shortcut"
    assert result.value == 1.0


@pytest.mark.parametrize("k", [4, 7, 10, 12])
def test_cesaro_suffix_tie_is_two_thirds(k):
    # of the words of length n > k, 2^(n-1) end in a(a|b){k}, 2^(n-1) in
    # a(a|b){k-1}, and 2^(n-2) in both; at k = 12 the union has 8,193 states
    left = rl.dfa_from_regex(f"(a|b)*a(a|b){{{k}}}")
    right = rl.dfa_from_regex(f"(a|b)*a(a|b){{{k - 1}}}")
    result = rl.cesaro_jaccard(left, right)
    assert result.mode == "per-residue"
    assert result.value == pytest.approx(2 / 3, abs=1e-12)
    assert result.diagnostics["residual"] <= 1e-10


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ("(a|b)*a(a|b){4}", "(a|b)*", 0.5),
        ("(a|b){5}(a|b)*", "(a|b)*a", 0.5),
        ("(a|b)*a(a|b){7}", "(a|b)*a(a|b){6}", 2 / 3),
        ("c{1200}(a|b)*", "c{1200}a(a|b)*", 0.5),
    ],
)
def test_cesaro_sees_past_the_short_length_plateau(left, right, expected):
    # the Jaccard sequence sits still over the lengths shorter than the
    # suffix (or prefix) window, far from its limit; past a prefix of 1200
    # the stream's vector would underflow if it were not rescaled
    result = rl.cesaro_jaccard(rl.dfa_from_regex(left), rl.dfa_from_regex(right))
    assert result.mode == "per-residue"
    assert result.value == pytest.approx(expected, abs=1e-6)


def test_cesaro_analytic_mode_errors_when_inapplicable(by_name):
    config = CesaroConfig(mode="analytic")
    with pytest.raises(ConvergenceError):
        rl.cesaro_jaccard(by_name["all_ab"].dfa, by_name["even_ab"].dfa, config)


def test_cesaro_slow_polynomial_pair_is_exact(by_name):
    # unary star against even lengths drifts like 1/n, too slowly for the
    # per-residue stage; the exact tie rule gives one half outright
    result = rl.cesaro_jaccard(by_name["a_star"].dfa, by_name["even_a"].dfa)
    assert result.mode == "exact"
    assert result.value == 0.5
    assert (result.diagnostics["numerator"], result.diagnostics["denominator"]) == (1, 2)
    analytic = CesaroConfig(mode="analytic")  # no iteration is needed
    assert rl.cesaro_jaccard(by_name["a_star"].dfa, by_name["even_a"].dfa, analytic) == result


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ("epsilon", "a_star", 1),
        ("finite_a123", "odd_a", 1),
        ("empty", "epsilon", 1),
        ("epsilon", "finite_a123", 1),
        ("a_star", "even_a", 1 / 2),
        ("a_star", "triple_a", 2 / 3),
        ("even_a", "triple_a", 3 / 4),
        ("odd_a", "triple_a", 3 / 4),
        ("a*b*", "(aa)*b*", 1 / 2),
        ("a*b*c*", "(aa)*b*c*", 1 / 2),
    ],
)
def test_cesaro_polynomial_and_finite_limits_are_exact(left, right, expected, by_name):
    # growth orders decide the first two; the rest are ties with radius
    # at most one (the next two with a finite union), taken exactly
    d1, d2 = (
        by_name[x].dfa if x in by_name else rl.dfa_from_regex(x) for x in (left, right)
    )
    assert rl.cesaro_jaccard(d1, d2).value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "left, right, expected",
    [
        ("a*b*", "(aa)*b*", 1 / 2),
        ("a*", "(aaa)*", 2 / 3),
        ("(aa)*", "(aaa)*", 1 / 2),
        ("(ab)*", "(ab)*|(ba)*", 1 / 4),
    ],
)
def test_cesaro_fixed_length_ties_are_exact(left, right, expected):
    # radius at most one: each residue class of the fixed-length terms
    # tends to a ratio of leading coefficients, and the limit is their mean
    d1, d2 = rl.dfa_from_regex(left, "ab"), rl.dfa_from_regex(right, "ab")
    result = rl.cesaro_jaccard(d1, d2, CesaroConfig(sequence="exact"))
    assert result.mode == "exact"
    assert result.value == pytest.approx(expected, abs=1e-12)
    ratio = result.diagnostics["numerator"] / result.diagnostics["denominator"]
    assert ratio == pytest.approx(expected, abs=1e-12)


def _length_class(alphabet, q: int, k: int) -> rl.Dfa:
    """The words whose length is k modulo q, by a q-state length counter."""
    rows = tuple(((i + 1) % q,) * len(alphabet) for i in range(q))
    return rl.Dfa(alphabet, rows, frozenset({k}))


def test_fixed_length_limit_is_the_mean_of_the_class_pairs(corpus):
    # reference: each residue class of lengths as a pair of its own, both
    # operands intersected with a length counter, averaged cumulatively
    exact = CesaroConfig(sequence="exact")
    periodic = 0
    for i, x in enumerate(corpus):
        for y in corpus[i + 1 :]:
            a, b = rl.harmonize(x.dfa, y.dfa)
            union = rl.language_entropy(rl.combine(a, b, "union"))
            q = math.lcm(*(c.period for c in union.components))
            if q == 1:
                continue
            periodic += 1
            classes = []
            for k in range(q):
                length_k = _length_class(a.alphabet, q, k)
                pair = (rl.combine(d, length_k, "intersect") for d in (a, b))
                found = rl.cesaro_jaccard(*pair)
                classes.append(found.value if found.diagnostics["index_union"] else 0.0)
            result = rl.cesaro_jaccard(x.dfa, y.dfa, exact)
            assert result.diagnostics["residue_period"] == q, (x.name, y.name)
            assert result.value == pytest.approx(sum(classes) / q, abs=1e-12), (x.name, y.name)
            expanding = union.lambda_class == "expanding"
            assert result.mode == ("per-residue" if expanding else "exact"), (x.name, y.name)
            if expanding:
                assert result.diagnostics["residue_limits"] == pytest.approx(classes, abs=1e-12)
    assert periodic >= 100


def test_cesaro_growth_index_two_tie_is_one_half():
    # radius 2 with two dominant components in a row: the fixed-length
    # terms are (n + 1) / (2 n), approaching one half like 1/n, and the
    # leading vector of the stream gives one half outright
    left = rl.dfa_from_regex("(a|b)*c(a|b)*")
    right = rl.dfa_from_regex("a(a|b)*c(a|b)*")
    result = rl.cesaro_jaccard(left, right)
    assert result.mode == "per-residue"
    assert result.value == 0.5
    assert result.diagnostics["index_union"] == 2


_unary_dfas = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        rl.Dfa,
        st.just(("a",)),
        st.lists(st.tuples(st.integers(0, n - 1)), min_size=n, max_size=n).map(tuple),
        st.frozensets(st.integers(0, n - 1)),
        st.integers(0, n - 1),
    )
)


@settings(max_examples=150, deadline=None)
@given(d1=_unary_dfas, d2=_unary_dfas)
def test_cesaro_matches_membership_oracle_on_unary_pairs(d1, d2):
    # a unary DFA of at most 6 states is periodic past length 5 with a
    # cycle length dividing 60, so one window of 60 lengths gives the
    # limit; a union without words there is finite
    def tally(lengths):
        either = sum(d1.accepts("a" * n) or d2.accepts("a" * n) for n in lengths)
        both = sum(d1.accepts("a" * n) and d2.accepts("a" * n) for n in lengths)
        return either, both

    either, both = tally(range(6, 66))
    if not either:
        either, both = tally(range(7))
    expected = 1 - Fraction(both, either) if either else Fraction(0)
    assert rl.cesaro_jaccard(d1, d2).value == pytest.approx(float(expected), abs=1e-12)


# Random DFAs over "ab" whose a-edges run through every state in one
# cycle: strongly connected with radius 2, so most pairs tie above radius 1.
_cyclic_dfas = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.builds(
        lambda b_edges, accepting, initial: rl.Dfa(
            ("a", "b"),
            tuple(((i + 1) % n, t) for i, t in enumerate(b_edges)),
            accepting,
            initial,
        ),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.frozensets(st.integers(0, n - 1), min_size=1),
        st.integers(0, n - 1),
    )
)


@settings(max_examples=100, deadline=None)
@given(d1=_cyclic_dfas, d2=_cyclic_dfas)
def test_cesaro_stream_matches_exact_terms_at_a_long_horizon(d1, d2):
    # the running mean of the exact cumulative terms over one period of
    # lengths tends to the Cesaro limit; pairs whose means still move
    # between the horizons 300 and 600 are dropped
    result = rl.cesaro_jaccard(d1, d2)
    assume(result.mode == "per-residue")
    q = result.diagnostics["residue_period"]
    sym, uni = (
        list(islice(cumulative_counts(CountVectors.from_dfa(rl.combine(d1, d2, op))), 601))
        for op in ("symdiff", "union")
    )

    def window_mean(end):
        return sum(sym[n] / uni[n] for n in range(end - q + 1, end + 1)) / q

    assume(abs(window_mean(600) - window_mean(300)) < 1e-9)
    assert result.value == pytest.approx(window_mean(600), abs=1e-6)


# Random DFAs over "abc" of one or two blocks in a row, each a multiple of
# p states long: the a- and b-edges of a state i of a block lead to states
# i + 1 mod p of that block, so each block has radius 2 and a period that
# p divides, and the c-edges lead into the next block (out of the last
# one, to a dead state).  Pairs of them tie with periods and indices above 1.
@st.composite
def _layered_dfas(draw):
    p = draw(st.integers(1, 3))
    sizes = [p * r for r in draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))]
    starts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    dead = starts[-1]
    rows = []
    for k, size in enumerate(sizes):
        start, end = starts[k], starts[k + 1]
        for i in range(size):
            b = draw(st.sampled_from(range((i + 1) % p, size, p)))
            c = draw(st.integers(end, starts[k + 2] - 1)) if k + 1 < len(sizes) else dead
            rows.append((start + (i + 1) % size, start + b, c))
    rows.append((dead,) * 3)
    accepting = draw(st.frozensets(st.integers(0, dead - 1), min_size=1))
    return rl.Dfa(("a", "b", "c"), tuple(rows), accepting, 0)


def _suffix_pair():
    return rl.dfa_from_regex("(a|b)*a(a|b){7}"), rl.dfa_from_regex("(a|b)*a(a|b){6}")


def _check_against_reference(monkeypatch) -> list:
    """Make each run of the Cesaro power stream run the list-built
    reference on the same trim graph too, assert that both outcomes are
    equal by repr, and list them."""
    kernel = reglang.metrics._leading_limits
    outcomes = []

    def checked(transitions, trim, parts, radius, q, d):
        vertices = sorted(chain.from_iterable(trim))
        kept = set(vertices)
        edges = [(s, t) for s in vertices for t in transitions[s] if t in kept]
        expected = _outcome(leading_limits, vertices, edges, parts, radius, q, d)
        outcomes.append(_outcome(kernel, transitions, trim, parts, radius, q, d))
        assert outcomes[-1] == expected
        return kernel(transitions, trim, parts, radius, q, d)

    monkeypatch.setattr(reglang.metrics, "_leading_limits", checked)
    return outcomes


_some_dfas = st.one_of(_cyclic_dfas, _layered_dfas())


@settings(max_examples=150, deadline=None)
@given(d1=_some_dfas, d2=_some_dfas)
@example(rl.dfa_from_regex("(a|b)*c(a|b)*"), rl.dfa_from_regex("a(a|b)*c(a|b)*"))
@example(
    rl.dfa_from_regex("((a|b){2})*c((a|b){2})*"),
    rl.dfa_from_regex("a(a|b){3}((a|b){2})*c((a|b){2})*"),
)
@example(*_suffix_pair())
def test_leading_limits_match_the_list_built_reference(d1, d2):
    # every run of the stream, in both sequences, gives the reference's
    # limits, residual and blocks by repr
    with pytest.MonkeyPatch.context() as monkeypatch:
        outcomes = _check_against_reference(monkeypatch)
        for sequence in ("cum", "exact"):
            rl.cesaro_jaccard(d1, d2, CesaroConfig(sequence=sequence))
    assume(outcomes)


def test_suffix_pair_stream_is_pinned():
    left, right = _suffix_pair()
    result = rl.cesaro_jaccard(left, right)
    assert (result.value, result.mode) == (0.6666666666666666, "per-residue")
    found = [result.diagnostics[key] for key in ("residue_limits", "residual", "blocks")]
    assert found == [[0.6666666666666666], 0.0, 9]
    exact = rl.cesaro_jaccard(left, right, CesaroConfig(sequence="exact"))
    assert repr(exact) == (
        "DistanceResult(metric='cesaro', value=0.6666666666666666, mode='per-residue', "
        "diagnostics={'sequence': 'exact', 'residue_period': 1, "
        "'residue_limits': [0.6666666666666666], 'residual': 0.0, 'blocks': 9})"
    )


def test_leading_limits_fail_as_the_reference_does(monkeypatch):
    # the suffix pair's stream settles at block 9; capped at 9 blocks it
    # stops one short, and the kernel raises the reference's message,
    # partial value and residual
    monkeypatch.setattr(reglang.metrics, "POWER_MAX_ITER", 9)
    outcomes = _check_against_reference(monkeypatch)
    with pytest.raises(ConvergenceError, match="after 9 blocks") as caught:
        rl.cesaro_jaccard(*_suffix_pair())
    error = caught.value
    assert outcomes == [repr((error, error.partial, error.diagnostics))]
    assert error.partial is not None and error.diagnostics["residual"] > reglang.metrics.LIMIT_TOL


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cap", range(1, 8))
def test_leading_limits_give_no_partial_value_before_every_class_has_union_words(
    monkeypatch, cap
):
    # capped at 1 the stream stops before its first residual, which stays
    # inf; capped at 2-7 some class's union sum is still 0: no partial
    # value either way, as in the reference, and no division by 0
    monkeypatch.setattr(reglang.metrics, "POWER_MAX_ITER", cap)
    outcomes = _check_against_reference(monkeypatch)
    with pytest.raises(ConvergenceError, match=f"after {cap} blocks") as caught:
        rl.cesaro_jaccard(*_suffix_pair())
    error = caught.value
    assert outcomes == [repr((error, error.partial, error.diagnostics))]
    assert error.partial is None
    assert error.diagnostics["residual"] > reglang.metrics.LIMIT_TOL


# --- entropy distance -----------------------------------------------------------------


def test_entropy_distance_diagonal(by_name):
    assert rl.entropy_distance(by_name["golden"].dfa, by_name["golden"].dfa).value == 0.0


def test_entropy_distance_is_one_for_different_entropies(by_name):
    result = rl.entropy_distance(by_name["a_star"].dfa, by_name["all_ab"].dfa)
    assert abs(result.value - 1.0) < 1e-9


def test_entropy_distance_on_parity_pair(by_name):
    result = rl.entropy_distance(by_name["all_ab"].dfa, by_name["even_ab"].dfa)
    assert abs(result.value - 1.0) < 1e-9


def test_entropy_distance_log_ratio_estimate(by_name):
    # the ratio of cumulative-count logs approaches the entropy ratio
    a, b = rl.harmonize(by_name["all_ab"].dfa, by_name["even_ab"].dfa)
    sym = count_upto(CountVectors.from_dfa(rl.combine(a, b, "symdiff")), 200)
    uni = count_upto(CountVectors.from_dfa(rl.combine(a, b, "union")), 200)
    estimate = math.log2(sym) / math.log2(uni)
    value = rl.entropy_distance(a, b).value
    assert abs(estimate - value) < 0.02


def test_entropy_distance_zero_denominator_convention(by_name):
    result = rl.entropy_distance(by_name["even_a"].dfa, by_name["odd_a"].dfa)
    assert result.value == 0.0  # all unary combinations have entropy zero


def test_entropy_distance_log_ratio_sweep(corpus):
    # the count-based estimate converges to H; a horizon of 200 is enough
    # except when the difference is infinite yet entropy-free, where the
    # estimate still decays like log(n)/n and needs far longer
    checked = 0
    for i, left in enumerate(corpus):
        for right in corpus[i + 1 :]:
            a, b = rl.harmonize(left.dfa, right.dfa)
            sym = rl.combine(a, b, "symdiff")
            uni = rl.combine(a, b, "union")
            if rl.language_entropy(uni).entropy_bits <= 0.0:
                continue
            slow_regime = (
                rl.language_entropy(sym).entropy_bits == 0.0
                and not rl.essential(rl.trim(sym)).is_empty
            )
            if slow_regime:
                continue
            count_sym = count_upto(CountVectors.from_dfa(sym), 200)
            count_uni = count_upto(CountVectors.from_dfa(uni), 200)
            estimate = (
                math.log2(count_sym) / math.log2(count_uni) if count_sym else 0.0
            )
            value = rl.entropy_distance(a, b).value
            assert abs(estimate - value) < 0.02, (left.name, right.name)
            checked += 1
    assert checked >= 150


# --- entropy sum ------------------------------------------------------------------------


def test_entropy_sum_diagonal(by_name):
    assert rl.entropy_sum(by_name["one_c"].dfa, by_name["one_c"].dfa).value == 0.0


def test_entropy_sum_on_parity_pair(by_name):
    result = rl.entropy_sum(by_name["all_ab"].dfa, by_name["even_ab"].dfa)
    assert abs(result.value - 1.0) < 1e-9
    assert result.diagnostics["entropy_left_only"] == pytest.approx(1.0, abs=1e-9)
    assert result.diagnostics["entropy_right_only"] == 0.0


def test_entropy_sum_midpoint_identity(by_name):
    # the union midpoint keeps exactly the one-sided entropy
    left = by_name["a_prefix"].dfa
    right = by_name["b_prefix"].dfa
    union = rl.combine(*rl.harmonize(left, right), "union")
    a, b = rl.harmonize(left, right)
    right_only = rl.language_entropy(rl.combine(b, a, "minus")).entropy_bits
    assert rl.entropy_sum(left, union).value == pytest.approx(right_only, abs=1e-9)


# --- separating horizon -----------------------------------------------------------------


def test_separating_n_for_unary_family(by_name):
    dfas = [by_name[k].dfa for k in ("a_star", "even_a", "odd_a")]
    assert rl.separating_n(dfas) == 1
    assert rl.separating_bound(dfas) == 8


def test_separating_n_singleton(by_name):
    assert rl.separating_n([by_name["a_star"].dfa]) == 0


def test_separating_n_rejects_duplicates(by_name):
    with pytest.raises(DuplicateLanguageError):
        rl.separating_n([by_name["a_star"].dfa, rl.dfa_from_regex("a*")])


# --- axiom checking ----------------------------------------------------------------------


def test_axiom_checker_passes_entropy_metric(corpus):
    dfas = [lang.dfa for lang in corpus[:8]]
    report = rl.check_metric_axioms("entropy", dfas, kind="ultra-pseudo")
    assert report.passed, report.violations
    assert report.n_triples == 56


def test_axiom_checker_passes_entropy_sum(corpus):
    dfas = [lang.dfa for lang in corpus[:8]]
    report = rl.check_metric_axioms("entropy_sum", dfas, kind="pseudo")
    assert report.passed, report.violations


def test_axiom_checker_passes_cesaro_on_the_whole_corpus(corpus):
    # the Cesaro Jaccard distance is a pseudo-metric (distinct languages
    # may lie 0 apart): symmetry and the triangle inequality hold over
    # all 1,771 triples of the corpus
    report = rl.check_metric_axioms("cesaro", [lang.dfa for lang in corpus], kind="pseudo")
    assert report.passed, report.violations
    assert (report.n_languages, report.n_pairs, report.n_triples) == (23, 253, 1771)


def test_axiom_checker_flags_violations(by_name):
    dfas = [by_name[k].dfa for k in ("a_star", "even_a", "odd_a")]
    calls = {}

    def broken(d1, d2):
        if d1 is d2:
            return 0.0
        key = (id(d1), id(d2))
        # asymmetric and triangle-breaking on purpose
        return calls.setdefault(key, 1.0 if len(calls) % 3 else 5.0)

    report = rl.check_metric_axioms(broken, dfas, kind="pseudo")
    assert not report.passed


def test_axiom_checker_needs_three_languages(by_name):
    with pytest.raises(ValueError):
        rl.check_metric_axioms("entropy", [by_name["a_star"].dfa] * 2)


def test_axiom_checker_rejects_an_unknown_metric_name(by_name):
    dfas = [by_name[name].dfa for name in ("a_star", "even_a", "odd_a")]
    with pytest.raises(ValueError, match="unknown metric 'nope'; known: cesaro, entropy, entropy_sum"):
        rl.check_metric_axioms("nope", dfas)


def test_axiom_checker_diagonal_passes_on_duplicates(by_name):
    dfas = [by_name["a_star"].dfa, by_name["a_star"].dfa, by_name["even_a"].dfa]
    report = rl.check_metric_axioms("entropy", dfas, kind="ultra-pseudo")
    assert report.passed  # pseudo-metrics tolerate equal languages


# --- work per call ----------------------------------------------------------------------


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of `module.name`, at every reglang binding of it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("reglang") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


@pytest.mark.parametrize(
    "left, right",
    [("(a|b)*a(a|b){4}", "(a|b)*a(a|b){3}"), ("(a|b)*c(a|b)*", "a(a|b)*c(a|b)*")],
)
def test_each_pair_is_decomposed_once(monkeypatch, left, right):
    # every boolean combination's report is read from the one search that
    # built the pair's product; the finite horizons need no search
    d1, d2 = rl.dfa_from_regex(left, "abc"), rl.dfa_from_regex(right, "abc")
    searches = _count_calls(monkeypatch, reglang.graphs, "_strong_components")
    trims = _count_calls(monkeypatch, reglang.automata, "trim")
    for metric, runs, most_trims in (
        (rl.cesaro_jaccard, 1, 0),
        # residue period 1: the one class of lengths is the pair itself
        (lambda a, b: rl.cesaro_jaccard(a, b, rl.CesaroConfig(sequence="exact")), 1, 0),
        (rl.entropy_distance, 1, 0),
        (rl.entropy_sum, 1, 0),
        (lambda a, b: rl.jaccard_cum_n(a, b, 9), 0, 1),
        (lambda a, b: rl.jaccard_exact_n(a, b, 9), 0, 1),
    ):
        searches.clear()
        trims.clear()
        metric(d1, d2)
        assert len(searches) == runs, metric
        assert len(trims) <= most_trims, metric


def _count_constructions(monkeypatch, cls) -> list:
    """Record each construction of an instance of `cls`."""
    original, made = cls.__init__, []

    def counted(self, *args, **kwargs):
        made.append(cls.__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_a_pair_is_read_from_its_product_table(monkeypatch):
    # the suffix pair: every metric reads the pair's one product table as
    # it is, and those that need components search it once
    d1, d2 = rl.dfa_from_regex("(a|b)*a(a|b){7}"), rl.dfa_from_regex("(a|b)*a(a|b){6}")
    dfas = _count_constructions(monkeypatch, rl.Dfa)
    graphs = _count_constructions(monkeypatch, rl.LabeledGraph)
    copies = _count_calls(monkeypatch, reglang.automata, "harmonize")
    searches = _count_calls(monkeypatch, reglang.graphs, "_strong_components")
    for metric, runs in (
        (lambda a, b: rl.jaccard_cum_n(a, b, 20), 0),
        (lambda a, b: rl.jaccard_exact_n(a, b, 20), 0),
        (rl.cesaro_jaccard, 1),
        (rl.entropy_distance, 1),
        (rl.entropy_sum, 1),
    ):
        searches.clear()
        metric(d1, d2)
        assert (dfas, graphs, copies) == ([], [], []), metric
        assert len(searches) == runs, metric


def _outcome(metric, *args) -> str:
    """The repr of a metric's result, or of the error it raised."""
    try:
        return repr(metric(*args))
    except ConvergenceError as exc:
        return repr((exc, exc.partial, exc.diagnostics))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=_complete_dfas(),
    b=st.sampled_from(("b", "c", "ac", "bc")).flatmap(_complete_dfas),
)
def test_pairs_over_different_alphabets_read_as_their_harmonized_copies(a, b):
    # every alphabet of `a` differs from every one of `b`
    wide = rl.harmonize(a, b)
    assert rl.product(a, b) == rl.product(*wide)
    exact = CesaroConfig(sequence="exact")
    for metric in (
        lambda x, y: rl.jaccard_cum_n(x, y, 7),
        lambda x, y: rl.jaccard_exact_n(x, y, 7),
        rl.cesaro_jaccard,
        lambda x, y: rl.cesaro_jaccard(x, y, exact),
        rl.entropy_distance,
        rl.entropy_sum,
    ):
        assert _outcome(metric, a, b) == _outcome(metric, *wide)


@pytest.mark.parametrize(
    "left, right, q",
    [("((a|b){2})*|a(aa)*", "a(aa)*", 2), ("even_ab", "triple_ab", 6)],
)
def test_fixed_length_classes_share_one_product(monkeypatch, by_name, left, right, q):
    # one search of the pair's product finds the residue period q, one of
    # the product with lengths counted modulo q serves every class
    d1, d2 = (
        by_name[x].dfa if x in by_name else rl.dfa_from_regex(x, "ab") for x in (left, right)
    )
    searches = _count_calls(monkeypatch, reglang.graphs, "_strong_components")
    combines = _count_calls(monkeypatch, reglang.automata, "combine")
    result = rl.cesaro_jaccard(d1, d2, CesaroConfig(sequence="exact"))
    assert result.diagnostics["residue_period"] == q
    assert (len(searches), len(combines)) == (2, 0)


def test_each_automaton_is_searched_once(monkeypatch, capsys):
    # the DFA keeps its trim graph, and the graph its components and report
    dfa = rl.dfa_from_regex("(a|b)*ab")
    searches = _count_calls(monkeypatch, reglang.graphs, "_strong_components")
    rl.language_entropy(dfa)
    rl.scc_decompose(rl.trim(dfa))
    CountVectors.from_dfa(dfa)
    assert len(searches) == 1
    searches.clear()
    streams = _count_calls(monkeypatch, reglang.counting, "length_counts")
    assert cli.main(["analyze", "(a|b)*ab", "--counts", "4", "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["match"] is True
    # one count stream serves both the counts and their verification
    assert (len(searches), len(streams)) == (1, 1)


def test_a_dfa_is_read_from_its_table(monkeypatch):
    # the entropy reads the DFA's one search over its table, with no
    # labeled graph; a later trim builds its graph from that search
    dfa = rl.dfa_from_regex("(a|b)*a(a|b){7}")
    graphs = _count_constructions(monkeypatch, rl.LabeledGraph)
    searches = _count_calls(monkeypatch, reglang.graphs, "_strong_components")
    report = rl.language_entropy(dfa)
    assert (graphs, len(searches)) == ([], 1)
    graph = rl.trim(dfa)
    assert (graphs, len(searches)) == (["LabeledGraph"], 1)
    assert rl.scc_decompose(graph) is rl.scc_decompose(dfa)
    assert rl.language_entropy(dfa) is report and len(searches) == 1


# --- dispatch ---------------------------------------------------------------------------


def test_distance_result_dispatch(by_name):
    d1 = by_name["all_ab"].dfa
    d2 = by_name["even_ab"].dfa
    jn = rl.distance_result("jn_cum", d1, d2, n=3)
    assert jn.value == pytest.approx(2 / 3)
    assert (jn.diagnostics["numerator"], jn.diagnostics["denominator"]) == (2, 3)
    with pytest.raises(ValueError):
        rl.distance_result("jn_exact", d1, d2)
    with pytest.raises(ValueError):
        rl.distance_result("nope", d1, d2)
