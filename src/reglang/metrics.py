"""The five distance functions between regular languages.

Finite-horizon Jaccard distances (at a fixed length, or cumulative up to
a length) are exact rationals.  The Cesaro Jaccard distance, the limit
of running averages of the cumulative distances, is decided in stages:

1. Growth orders.  A language grows like n^(d-1) radius^n, d being the
   index of the radius (see `spectral`).  The limit is 0 if the
   symmetric difference has a lower order (radius, d) than the union,
   and 1 if the intersection does.  No iteration needed.
2. Exact ties.  If all three share an order with radius at most 1, the
   limit is an exact ratio of word counts taken past the transient (for
   the fixed-length sequence, the mean of such ratios over the residue
   classes).
3. Per-residue estimation.  A tie with radius above 1 and d = 1 has
   convergent Jaccard terms along each residue class modulo the graph
   period; their limits are iterated until they settle, then averaged.
   With d > 1 they converge like 1/n, too slowly: ConvergenceError.

The entropy distance and the entropy-sum distance are ratios and sums of
spectral entropies of boolean combinations.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import comb, lcm

from .automata import (
    Dfa,
    Product,
    combine,
    harmonize,
    harmonize_all,
    minimize,
    product,
    shortest_accepted,
)
from .counting import CountVectors, final_counts, shared_system
from .errors import ConvergenceError, DuplicateLanguageError
from .spectral import ENTROPY_EPS, language_entropy

METRIC_NAMES = ("jn_exact", "jn_cum", "cesaro", "entropy", "entropy_sum")


CONSECUTIVE = 3  # successive agreeing values that settle a residue class
RESIDUE_M_CAP = 5000  # terms per residue class before the estimate gives up


@dataclass(frozen=True)
class CesaroConfig:
    """Settings of the staged Cesaro computation.

    `sequence` selects which Jaccard sequence is averaged: "cum" uses the
    cumulative distances (the default and the recommended definition),
    "exact" averages the fixed-length distances instead, which is useful
    as a diagnostic because the two can disagree.  Growth orders only
    apply to the cumulative sequence; exact ties (radius at most 1) apply
    to both.
    """

    tol: float = 1e-9
    mode: str = "auto"  # "auto" | "analytic" (decided without iteration)
    sequence: str = "cum"  # "cum" | "exact"


@dataclass
class DistanceResult:
    metric: str
    value: float
    mode: str  # "exact" | "analytic-shortcut" | "per-residue"
    diagnostics: dict = field(default_factory=dict)


def _pair(d1: Dfa, d2: Dfa) -> Product:
    return product(*harmonize(d1, d2))


def _pair_counts(cv: CountVectors, finals, cumulative: bool):
    """Yield the (sym diff, union) word counts for n = 0, 1, ...: of
    length exactly n, or at most n when `cumulative`."""
    total_sym = total_uni = 0
    for w_sym, w_uni in final_counts(cv, finals):
        total_sym += w_sym
        total_uni += w_uni
        yield (total_sym, total_uni) if cumulative else (w_sym, w_uni)


def _jaccard_n(d1: Dfa, d2: Dfa, n: int, cumulative: bool) -> Fraction:
    if n < 0:
        raise ValueError("length must be non-negative")
    prod = _pair(d1, d2)
    left, right = prod.left, prod.right
    cv, finals = shared_system(prod.dfa(left | right), (left ^ right, left | right))
    num, den = next(islice(_pair_counts(cv, finals, cumulative), n, None))
    return Fraction(num, den) if den else Fraction(0)


def jaccard_exact_n(d1: Dfa, d2: Dfa, n: int) -> Fraction:
    """Jaccard distance restricted to words of length exactly n,
    |W_n(sym diff)| / |W_n(union)|, and 0 when the denominator is 0."""
    return _jaccard_n(d1, d2, n, cumulative=False)


def jaccard_cum_n(d1: Dfa, d2: Dfa, n: int) -> Fraction:
    """Jaccard distance over words of length at most n."""
    return _jaccard_n(d1, d2, n, cumulative=True)


def cesaro_jaccard(d1: Dfa, d2: Dfa, config: CesaroConfig | None = None) -> DistanceResult:
    config = config or CesaroConfig()
    if config.mode not in ("auto", "analytic"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.sequence not in ("cum", "exact"):
        raise ValueError(f"unknown sequence {config.sequence!r}")
    if config.mode == "analytic" and config.sequence != "cum":
        raise ValueError("analytic mode requires the cumulative sequence")
    prod = _pair(d1, d2)
    left, right = prod.left, prod.right
    sym, uni = prod.dfa(left ^ right), prod.dfa(left | right)
    metric = "cesaro"
    diagnostics = {"sequence": config.sequence}
    cumulative = config.sequence == "cum"

    sym_report, uni_report = language_entropy(sym), language_entropy(uni)
    if cumulative:
        reports = {"sym_diff": sym_report, "union": uni_report}
        reports["intersection"] = language_entropy(prod.dfa(left & right))
        for name, report in reports.items():
            diagnostics[f"entropy_{name}"] = report.entropy_bits
            diagnostics[f"index_{name}"] = report.index
        if _grows_slower(sym_report, uni_report):
            return DistanceResult(metric, 0.0, "analytic-shortcut", diagnostics)
        if _grows_slower(reports["intersection"], uni_report):
            return DistanceResult(metric, 1.0, "analytic-shortcut", diagnostics)

    cv, finals = shared_system(uni, (sym.accepting, uni.accepting))
    q = lcm(*(c.period for c in sym_report.components + uni_report.components))
    n0 = -(-cv.n // q) * q
    d = uni_report.index
    diagnostics["residue_period"] = q
    if uni_report.lambda_class != "expanding":
        limit = _exact_tie_limit(cv, finals, q, n0, d, cumulative)
        diagnostics.update(numerator=limit.numerator, denominator=limit.denominator)
        return DistanceResult(metric, float(limit), "exact", diagnostics)

    if config.mode == "analytic" or (cumulative and d > 1):
        order = f"radius {uni_report.spectral_radius:.6g}, index {d}"
        slow = "needs iteration" if d == 1 else "converges too slowly to certify"
        reason = f"sym, union and intersection all grow as ({order}); the limit {slow}"
    else:
        limits, deltas, terms = _per_residue_limits(
            cv, finals, q, config.tol, cumulative
        )
        if limits is not None:
            diagnostics.update(
                residue_limits=limits, residue_deltas=deltas, terms_used=terms
            )
            return DistanceResult(metric, sum(limits) / q, "per-residue", diagnostics)
        diagnostics.update(residue_cap_terms=terms)
        reason = f"a residue class still moves after {terms} terms"
    partial = next(islice(_ratio_stream(cv, finals, cumulative), n0 - 1, None))
    raise ConvergenceError(reason, partial=partial, diagnostics=diagnostics)


def _grows_slower(low, high) -> bool:
    """Whether the growth order (radius, index) of `low` is below `high`'s;
    radii within 10 * ENTROPY_EPS in log2 count as equal."""
    gap = high.entropy_bits - low.entropy_bits
    tie = abs(gap) <= 10 * ENTROPY_EPS
    return gap > 10 * ENTROPY_EPS or (tie and low.index < high.index)


def _exact_tie_limit(cv, finals, q, n0, d, cumulative) -> Fraction:
    """Cesaro limit of the Jaccard sequence for a tie with radius at most 1
    and index d.

    Past n0 (a multiple of q, at least the union's matrix size) the
    nilpotent part of a count matrix is spent, and its other eigenvalues
    are q-th roots of unity of index at most d.  So along each residue
    class k, the fixed-length count W(n0 + k + q m) is a polynomial in m
    of degree below d, and the cumulative count S(n0 + q m) one of degree
    d.  The cumulative sequence converges to the ratio of the leading
    coefficients of S (|sym| / |union| when d = 0, a finite union); the
    fixed-length one has such a limit per class, and its Cesaro limit is
    their mean.
    """
    counts = islice(_pair_counts(cv, finals, cumulative), n0 + q * (d + 1))
    sym, uni = zip(*counts)
    classes = range(1 if cumulative else q)
    limits = [_leading_ratio(sym[n0 + k :: q], uni[n0 + k :: q]) for k in classes]
    return sum(limits) / len(limits)


def _leading_ratio(sym, uni) -> Fraction:
    """lim sym(m) / uni(m) for polynomials in m given by their values at
    m = 0, 1, ..., with 0 <= sym <= uni: the ratio of their differences of
    the order of uni's degree (its highest nonzero difference), 0 when uni
    is zero."""
    for order in reversed(range(len(uni))):
        den = _difference(uni, order)
        if den:
            return Fraction(_difference(sym, order), den)
    return Fraction(0)


def _difference(values, order) -> int:
    """The order-th forward difference at 0 of the sequence `values`."""
    return sum(
        (-1) ** (order - k) * comb(order, k) * values[k] for k in range(order + 1)
    )


def _ratio_stream(cv: CountVectors, finals, cumulative: bool):
    """Yield the Jaccard sequence J_1, J_2, ... as floats.

    Counts are exact integers throughout; each term is converted by one
    correctly rounded big-integer division at the end.
    """
    for num, den in islice(_pair_counts(cv, finals, cumulative), 1, None):
        yield (num / den) if den else 0.0


def _per_residue_limits(cv, finals, q, tol, cumulative):
    """Estimate lim J_{q m + k} for each residue class k.

    A class counts as settled once CONSECUTIVE successive values agree
    within `tol` and the term index exceeds the union's state count, so
    that a plateau over the short lengths is not taken for the limit.  Returns
    (limits, last_deltas, terms), with limits None if any class is still
    moving after m has reached RESIDUE_M_CAP.
    """
    last = [None] * q
    delta = [None] * q
    streak = [0] * q
    settled = [False] * q
    cap_terms = q * RESIDUE_M_CAP
    transient = cv.n
    stream = _ratio_stream(cv, finals, cumulative)
    i = 0
    for value in stream:
        i += 1
        k = i % q
        previous = last[k]
        if previous is not None:
            delta[k] = abs(value - previous)
        if previous is not None and delta[k] < tol:
            streak[k] += 1
            settled[k] = streak[k] >= CONSECUTIVE and i > transient
        else:
            streak[k] = 0
            settled[k] = False
        last[k] = value
        if all(settled):
            return [last[k] for k in range(q)], [delta[k] for k in range(q)], i
        if i >= cap_terms:
            return None, delta, i


def entropy_distance(d1: Dfa, d2: Dfa) -> DistanceResult:
    """Ratio of entropies h(sym diff) / h(union); 0 when the union has
    entropy 0.  Always lands in [0, 1]."""
    prod = _pair(d1, d2)
    left, right = prod.left, prod.right
    h_sym = language_entropy(prod.dfa(left ^ right)).entropy_bits
    h_uni = language_entropy(prod.dfa(left | right)).entropy_bits
    value = 0.0 if h_uni == 0.0 else min(1.0, h_sym / h_uni)
    return DistanceResult(
        "entropy",
        value,
        "exact",
        {"entropy_sym_diff": h_sym, "entropy_union": h_uni},
    )


def entropy_sum(d1: Dfa, d2: Dfa) -> DistanceResult:
    """Sum of the two one-sided entropies h(L1 minus L2) + h(L2 minus L1).

    Reported unnormalized, so the range is [0, 2 log2 |alphabet|].
    """
    prod = _pair(d1, d2)
    left = language_entropy(prod.dfa(prod.left - prod.right)).entropy_bits
    right = language_entropy(prod.dfa(prod.right - prod.left)).entropy_bits
    return DistanceResult(
        "entropy_sum",
        left + right,
        "exact",
        {"entropy_left_only": left, "entropy_right_only": right},
    )


def separating_bound(dfas) -> int:
    """(s_i + 1)(s_j + 1) - 1 maximized over pairs, where s is the state
    count of the minimal DFA over the common alphabet."""
    if len(dfas) < 2:
        return 0
    sizes = [minimize(d).n_states for d in harmonize_all(dfas)]
    return max(
        (si + 1) * (sj + 1) - 1
        for x, si in enumerate(sizes)
        for sj in sizes[x + 1 :]
    )


def separating_n(dfas) -> int:
    """Smallest n at which the cumulative Jaccard distance is positive for
    every pair of the given languages, i.e. the horizon beyond which the
    pseudo-metric separates the whole set.

    Equals the longest among the shortest witnesses of pairwise symmetric
    differences; never exceeds `separating_bound` for distinct inputs
    (the tests check that bound).
    """
    if len(dfas) < 2:
        return 0
    common = harmonize_all(dfas)
    worst = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            witness = shortest_accepted(combine(common[i], common[j], "symdiff"))
            if witness is None:
                raise DuplicateLanguageError(
                    f"languages {i} and {j} are equal; separation is impossible"
                )
            worst = max(worst, witness)
    return worst


@dataclass
class AxiomReport:
    kind: str
    n_languages: int
    n_pairs: int
    n_triples: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


_NAMED_METRICS = {
    "cesaro": lambda a, b: cesaro_jaccard(a, b).value,
    "entropy": lambda a, b: entropy_distance(a, b).value,
    "entropy_sum": lambda a, b: entropy_sum(a, b).value,
}


def check_metric_axioms(metric, dfas, kind: str = "pseudo", tol: float = 1e-9) -> AxiomReport:
    """Verify symmetry, zero diagonal, and the triangle (pseudo) or max
    (ultra-pseudo) inequality over every triple of the given languages.

    `metric` is a callable (dfa, dfa) -> float or one of the names
    "cesaro", "entropy", "entropy_sum".  Violations are report content,
    not exceptions.
    """
    if kind not in ("pseudo", "ultra-pseudo"):
        raise ValueError(f"unknown kind {kind!r}")
    if len(dfas) < 3:
        raise ValueError("axiom checking needs at least three languages")
    fn = _NAMED_METRICS[metric] if isinstance(metric, str) else metric

    n = len(dfas)
    table = [[0.0] * n for _ in range(n)]
    violations = []
    for i in range(n):
        value = fn(dfas[i], dfas[i])
        if abs(value) > tol:
            violations.append(("diagonal", i, value))
    for i in range(n):
        for j in range(i + 1, n):
            forward = fn(dfas[i], dfas[j])
            backward = fn(dfas[j], dfas[i])
            if abs(forward - backward) > tol:
                violations.append(("symmetry", i, j, forward, backward))
            if forward < -tol:
                violations.append(("negative", i, j, forward))
            table[i][j] = table[j][i] = forward

    n_triples = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                n_triples += 1
                for x, y, z in ((i, j, k), (j, i, k), (i, k, j)):
                    lhs = table[x][z]
                    if kind == "ultra-pseudo":
                        rhs = max(table[x][y], table[y][z])
                    else:
                        rhs = table[x][y] + table[y][z]
                    if lhs > rhs + tol:
                        violations.append(("inequality", x, y, z, lhs, rhs))
    return AxiomReport(kind, n, n * (n - 1) // 2, n_triples, violations)


def distance_result(
    metric: str,
    d1: Dfa,
    d2: Dfa,
    n: int | None = None,
    config: CesaroConfig | None = None,
) -> DistanceResult:
    """Uniform entry point used by the command-line surface."""
    if metric == "jn_exact" or metric == "jn_cum":
        if n is None:
            raise ValueError(f"metric {metric!r} needs a horizon n")
        fraction = (
            jaccard_exact_n(d1, d2, n)
            if metric == "jn_exact"
            else jaccard_cum_n(d1, d2, n)
        )
        return DistanceResult(
            metric,
            float(fraction),
            "exact",
            {
                "n": n,
                "numerator": fraction.numerator,
                "denominator": fraction.denominator,
            },
        )
    if metric == "cesaro":
        return cesaro_jaccard(d1, d2, config)
    if metric == "entropy":
        return entropy_distance(d1, d2)
    if metric == "entropy_sum":
        return entropy_sum(d1, d2)
    raise ValueError(f"unknown metric {metric!r}")
