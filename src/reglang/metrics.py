"""The five distance functions between regular languages.

Finite-horizon Jaccard distances (at a fixed length, or cumulative up to
a length) are exact rationals.  The Cesaro Jaccard distance, the limit
of running averages of the cumulative distances, is decided in stages:

1. Growth orders.  A language grows like n^(d-1) radius^n, d being the
   index of the radius (see `spectral`).  The limit is 0 if the
   symmetric difference has a lower order (radius, d) than the union,
   and 1 if the intersection does.  No iteration needed.  Two languages
   that grow at different orders are the paper's trivial case: their
   symmetric difference and union grow like the faster one, their
   intersection no faster than the slower one, so the limit is 1.  That
   is read off each operand's kept report (`language_entropy`, one
   search per DFA for its life) before any product is built; only when
   the orders tie is the pair's product searched for the three reports.
2. Exact ties.  If all three share an order with radius at most 1, the
   limit is an exact ratio of word counts taken past the transient.
3. Leading coefficients.  A tie with radius above 1, of any index, has
   a limit along each residue class modulo the graph period, read off the
   leading vector of one power stream stopped on a stated residual; the
   value is the mean over the classes.  The stream runs on numpy edge
   arrays of the union's trim graph, read off the product table whole.

The fixed-length sequence is averaged through the same stages, applied
to the words of each residue class of lengths modulo the union's period
q.  The classes are accepting sets of one product, the pair's own with
lengths counted modulo q, decomposed once for all of them.

The entropy distance and the entropy-sum distance are ratios and sums of
spectral entropies of boolean combinations.  A pair is read as its one
`automata.Product` table, and each combination as a set of its states:
the counts run on the table itself (`counting.shared_system`), and
`cesaro_jaccard`, `entropy_distance` and `entropy_sum` read every
combination's report from the table's one search, whenever the
operands' own reports do not decide the value.  When one DFA of the pair
refines the other, as on the north-star tie `(a|b)*a(a|b){k}` against
`(a|b)*a(a|b){k-1}`, that table and that search are the finer DFA's own,
kept for its life: no pair is numbered, and after the first call only
the fixed-length average at a period above 1 searches, its product with
lengths counted modulo q.  The finite horizons never search.  On a pair
that does not refine they step the union's one vector to n and read the
two counts once (`counting.counts_at`), and the exact ties read the
stream of counts at every length (`counting.final_counts`).  A
refining pair keeps its counts beside its refinement outcome
(`counting.pair_counts`): its lumped system, built by its first finite
horizon past the product's depth plus the farthest distance to
acceptance, or by its exact tie, and the linear recurrence of each
count sequence.  Its later finite horizons read that record first,
with no O(V) work: any n is read off the recurrence's first terms, or
powered to in O(log n) squarings where that costs fewer operations
than n steps of the stream.  A first call below that depth trims the
table to the horizon and lumps what is left in the call, keeping
nothing.  The finer DFA also keeps the refinement outcome, so a
repeated call on the pair walks no table.
"""

from fractions import Fraction
from itertools import accumulate, chain, islice
from math import comb, inf

from ._record import record
from .automata import (
    Dfa,
    Product,
    _lengths_mod,
    _separation,
    combine,  # unused; perfbench/test_smoke.py checks that its tracer restores this binding
    harmonize_all,
    minimize,
    product,
)
from .counting import counts_at, final_counts, pair_counts, shared_system
from .errors import ConvergenceError, DuplicateLanguageError
from .spectral import POWER_MAX_ITER, _decomposition, _tied, language_entropy

# Residual that settles the leading vector.  The float radius it is
# normalized by leaves a floor of about 5e-13.
LIMIT_TOL = 1e-10


@record(frozen=True)
class CesaroConfig:
    """Settings of the staged Cesaro computation.

    `sequence` selects which Jaccard sequence is averaged: "cum" uses the
    cumulative distances (the default and the recommended definition),
    "exact" averages the fixed-length distances instead, which is useful
    as a diagnostic because the two can disagree.  `mode="analytic"` runs
    no power stream, so a tie with radius above 1 raises ConvergenceError.
    """

    mode: str = "auto"  # "auto" | "analytic" (decided without iteration)
    sequence: str = "cum"  # "cum" | "exact"

    def __init__(self, mode="auto", sequence="cum"):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "sequence", sequence)


@record
class DistanceResult:
    """A distance, the stage that decided it, and its evidence: an "exact"
    Cesaro value has `numerator` and `denominator`; a "per-residue" one has
    the `residue_limits` per residue class, the stopping `residual` and the
    power-stream `blocks` taken."""

    metric: str
    value: float
    mode: str  # "exact" | "analytic-shortcut" | "per-residue"
    diagnostics: dict

    def __init__(self, metric, value, mode, diagnostics=None):
        self.metric = metric
        self.value = value
        self.mode = mode
        self.diagnostics = {} if diagnostics is None else diagnostics


def _jaccard_n(d1: Dfa, d2: Dfa, n: int, cumulative: bool) -> Fraction:
    if n < 0:
        raise ValueError("length must be non-negative")
    prod = product(d1, d2)
    counts = pair_counts(prod, build=False)  # exact at every n: no horizon to check
    horizon = None
    if counts is None:
        # A union state (p, q) is min(d1(p), d2(q)) steps from acceptance: if
        # that plus its depth is within n for every state, the trim drops none.
        far = max(max(d1._to_accept), max(d2._to_accept))
        if prod._within(n - far):
            counts = pair_counts(prod)  # None unless one DFA refines the other
        else:
            horizon = n
    if counts is None:
        left, right = prod.left, prod.right
        cv, finals = shared_system(prod.transitions, (left ^ right, left | right), horizon)
        num, den = counts_at(cv, finals, n, cumulative)
    else:
        num, den = counts.at(n, cumulative)
    return Fraction(num, den) if den else Fraction(0)


def jaccard_exact_n(d1: Dfa, d2: Dfa, n: int) -> Fraction:
    """Jaccard distance restricted to words of length exactly n,
    |W_n(sym diff)| / |W_n(union)|, and 0 when the denominator is 0."""
    return _jaccard_n(d1, d2, n, cumulative=False)


def jaccard_cum_n(d1: Dfa, d2: Dfa, n: int) -> Fraction:
    """Jaccard distance over words of length at most n."""
    return _jaccard_n(d1, d2, n, cumulative=True)


def cesaro_jaccard(d1: Dfa, d2: Dfa, config: CesaroConfig | None = None) -> DistanceResult:
    """Cesaro limit of the cumulative (or, with `sequence="exact"`, the
    fixed-length) Jaccard distances, decided in the stages of the module
    docstring.

    On the cumulative sequence, operands whose growth orders differ give
    1, mode "analytic-shortcut", from their kept reports alone: the
    diagnostics hold the faster order as the sym/union orders and each
    operand's (`entropy_left`, `index_left`, `entropy_right`,
    `index_right`), no intersection's.  Otherwise the pair's product
    reports the sym/union/intersection orders.  The first call on a DFA
    pays one search of its table, which `language_entropy` and every
    later pair on it reuse, also when the orders tie and the product is
    searched too.  The fixed-length average always reads the product: it
    can differ from 1 there, as on `((a|b){2})*` / `(aaaa)*`, whose odd
    lengths have an empty union.
    """
    config = config or CesaroConfig()
    if config.mode not in ("auto", "analytic"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.sequence not in ("cum", "exact"):
        raise ValueError(f"unknown sequence {config.sequence!r}")
    if config.mode == "analytic" and config.sequence != "cum":
        raise ValueError("analytic mode requires the cumulative sequence")
    diagnostics = {"sequence": config.sequence}
    if config.sequence == "exact":
        limit, mode = _fixed_length_limit(d1, d2, diagnostics)
    elif _orders_differ(d1, d2, diagnostics):
        limit, mode = Fraction(1), "analytic-shortcut"
    else:
        analytic = config.mode == "analytic"
        prod = product(d1, d2)
        limit, mode = _cumulative_limit(prod, prod.left, prod.right, diagnostics, analytic)
    if mode == "exact":
        diagnostics.update(numerator=limit.numerator, denominator=limit.denominator)
    return DistanceResult("cesaro", float(limit), mode, diagnostics)


def _orders_differ(d1: Dfa, d2: Dfa, diagnostics) -> bool:
    """Whether the two languages grow at different orders, read off each
    DFA's kept report: if so, their symmetric difference and union grow
    at the faster order, whose entropy and index go into `diagnostics` for
    both, followed by each operand's."""
    left, right = language_entropy(d1), language_entropy(d2)
    if _grows_slower(left, right):
        faster = right
    elif _grows_slower(right, left):
        faster = left
    else:
        return False
    for name, report in (("sym_diff", faster), ("union", faster), ("left", left), ("right", right)):
        diagnostics[f"entropy_{name}"] = report.entropy_bits
        diagnostics[f"index_{name}"] = report.index
    return True


def _cumulative_limit(prod: Product, left, right, diagnostics, analytic=False):
    """(limit, mode) of the cumulative Jaccard sequence of the languages
    accepted at the states `left` and `right` of a product, the limit a
    Fraction unless the power stream ran; the growth orders and the
    evidence go into `diagnostics`."""
    pair = _decomposition(prod)
    parts = (left ^ right, left | right)
    reports = {
        "sym_diff": pair.report(left ^ right),
        "union": pair.report(left | right),
        "intersection": pair.report(left & right),
    }
    for name, report in reports.items():
        diagnostics[f"entropy_{name}"] = report.entropy_bits
        diagnostics[f"index_{name}"] = report.index
    uni_report = reports["union"]
    if _grows_slower(reports["sym_diff"], uni_report):
        return Fraction(0), "analytic-shortcut"
    if _grows_slower(reports["intersection"], uni_report):
        return Fraction(1), "analytic-shortcut"

    # sym's nontrivial components lie inside union ones: same periods
    q = pair.period(left | right)
    radius, d = uni_report.spectral_radius, uni_report.index
    diagnostics["residue_period"] = q
    if uni_report.lambda_class != "expanding":
        # the pair's record counts its own sym and union, not a residue class's
        counts = pair_counts(prod) if (left, right) == (prod.left, prod.right) else None
        system = shared_system(prod.transitions, parts) if counts is None else counts.system
        return _exact_tie_limit(*system, q, d), "exact"
    if analytic:
        order = f"radius {radius:.6g}, index {d}"
        reason = f"sym, union and intersection all grow as ({order}); the limit needs iteration"
        raise ConvergenceError(reason, diagnostics=diagnostics)
    # the union's trim graph: the components that reach the union
    trim = [pair.components[c] for c in pair.reaching(left | right)]
    limits, residual, blocks = _leading_limits(prod.transitions, trim, parts, radius, q, d)
    diagnostics.update(residue_limits=limits, residual=residual, blocks=blocks)
    return sum(limits) / q, "per-residue"


def _fixed_length_limit(d1: Dfa, d2: Dfa, diagnostics: dict):
    """(limit, mode) of the fixed-length Jaccard sequence.

    Along a residue class k modulo the union's period q, the terms tend to
    the cumulative limit of the words of length k modulo q: the newest
    length dominates a cumulative count that grows exponentially, and has
    the leading coefficient of one that grows polynomially.  A class with
    a finite union has terms 0.  Class k accepts at the states of one
    product, the pair's own with lengths counted modulo q, that are reached
    at lengths k mod q; its one decomposition serves every class.  q is
    the union's period, read without a spectrum; its radius class is that
    of the lifted union, whose spectra the classes compute anyway.
    """
    prod = product(d1, d2)
    q = _decomposition(prod).period(prod.left | prod.right)
    diagnostics["residue_period"] = q
    lifted, at = _lengths_mod(prod, q)
    pair = _decomposition(lifted)
    limits, residual, blocks = [], 0.0, 0
    for at_k in at:
        found = {}
        left, right = lifted.left & at_k, lifted.right & at_k
        limit, _mode = _cumulative_limit(lifted, left, right, found)
        limits.append(limit if found["index_union"] else Fraction(0))
        residual = max(residual, found.get("residual", 0.0))
        blocks += found.get("blocks", 0)
    if pair.report(lifted.left | lifted.right).lambda_class != "expanding":
        return sum(limits) / q, "exact"
    diagnostics.update(residue_limits=list(map(float, limits)), residual=residual, blocks=blocks)
    return sum(limits) / q, "per-residue"


def _grows_slower(low, high) -> bool:
    """Whether the growth order (radius, index) of `low` is below `high`'s;
    radii in one band of equal growth (`spectral._tied`) count as equal."""
    gap = high.entropy_bits - low.entropy_bits
    return low.index < high.index if _tied(gap) else gap > 0


def _exact_tie_limit(cv, finals, q, d) -> Fraction:
    """Cesaro limit of the cumulative Jaccard sequence for a tie with
    radius at most 1 and index d.  Past n0 (a multiple of q, at least the
    size of the lumped matrix that `shared_system` counts on) the
    nilpotent part of that matrix is spent.  Its other eigenvalues, and
    their Jordan blocks, are among those of the union's trim-graph
    matrix: q-th roots of unity of index at most d.
    So the cumulative count S(n0 + q m) is a polynomial in m of degree at
    most d, exactly d for the union, and the sequence tends to the ratio
    of the d-th differences (|sym| / |union| when d = 0, a finite union).
    """
    n0 = -(-cv.n // q) * q
    counts = islice(final_counts(cv, finals), n0 + q * (d + 1))
    sym, uni = (
        sum((-1) ** (d - k) * comb(d, k) * s for k, s in enumerate(totals[n0::q]))
        for totals in (list(accumulate(terms)) for terms in zip(*counts))
    )
    return Fraction(sym, uni) if uni else Fraction(0)


def _leading_limits(transitions, trim, parts, radius, q, d):
    """(limits, residual, blocks) of the cumulative Jaccard sequence along
    each residue class k mod q, for a tie with radius above 1 and index d,
    on the union's trim graph: the states of the components `trim` of the
    product table `transitions`, numbered in order from the initial state
    0, and the edges among them in state then symbol order.  The edge
    arrays, the final columns of `parts` and the start vector are read
    off the table with numpy, no Python loop over states or edges.

    The eigenvalues of A of modulus `radius` are `radius` times q-th roots
    of unity, so b_m = u A^(q m) / radius^(q m) tends to a polynomial in m
    of degree d - 1, whose (d-1)-th difference l leads the counts: words
    of length q m + j in f number about m^(d-1) radius^(q m + j) c_j(f),
    c_j(f) = l A^j f / radius^j.  A cumulative count weighs length n - r
    by radius^-r, so class k tends to the ratio of the sums of
    c_(k-r) radius^-r over r < q for sym and union.  The stream stops once
    the d-th difference is at most LIMIT_TOL times the (d-1)-th, the
    residual; a stationary vector is the limit, never a transient.
    """
    import numpy as np

    n, k = len(transitions), len(transitions[0])
    table = np.fromiter(chain.from_iterable(transitions), int, n * k).reshape(n, k)
    kept = np.zeros(n, bool)
    kept[np.fromiter(chain.from_iterable(trim), int)] = True
    vertices = np.flatnonzero(kept)
    targets = table[vertices]
    inside = kept[targets]
    src = inside.nonzero()[0]  # row-major: state then symbol order
    dst = (kept.cumsum() - 1)[targets[inside]]
    member = np.zeros((n, len(parts)))
    for j, part in enumerate(parts):
        member[np.fromiter(part, int, len(part)), j] = 1.0
    finals = member[vertices]

    def step(v):
        return np.bincount(dst, weights=v[src], minlength=len(v)) / radius

    def limits(lead):
        c = []
        for _ in range(q):
            c.append(lead @ finals)
            lead = step(lead)
        r = np.arange(q)
        sums = radius ** -r @ np.array(c)[(r[:, None] - r) % q]
        if not sums[:, 1].all():  # a class with no union words yet
            return None
        return [float(s / u) for s, u in sums]

    b = (vertices == 0).astype(float)
    diffs, residual = [], inf
    for blocks in range(POWER_MAX_ITER):
        diffs = [b, *diffs[:d]]  # backward differences of b_m, orders 0 to d
        for j in range(1, len(diffs)):
            diffs[j] = diffs[j - 1] - diffs[j]
        if len(diffs) > d:
            lead = np.abs(diffs[d - 1]).max()
            residual = float(np.abs(diffs[d]).max() / lead) if lead else inf
            if residual <= LIMIT_TOL:
                return limits(diffs[d - 1]), residual, blocks
        for _ in range(q):
            b = step(b)
        # one scale for all stored vectors: exact differences, no underflow
        scale = np.abs(b).max()
        b, diffs = b / scale, [x / scale for x in diffs]
    reason = f"the leading vector's residual is {residual:.3g} after {POWER_MAX_ITER} blocks"
    found = limits(diffs[d - 1]) if residual < inf else None
    partial = None if found is None else sum(found) / q
    raise ConvergenceError(reason, partial=partial, diagnostics={"residual": residual})


def entropy_distance(d1: Dfa, d2: Dfa) -> DistanceResult:
    """Ratio of entropies h(sym diff) / h(union); 0 when the union has
    entropy 0.  Always lands in [0, 1].

    It is trivial, 1, when the two entropies differ (not `spectral._tied`):
    the symmetric difference and the union both have the larger one, which
    is read off each operand's kept report with no product, and reported
    as both.  Only tied entropies read the pair's product, where the first
    call on fresh DFAs also pays one search of each operand's table, kept
    for its life."""
    h1, h2 = language_entropy(d1).entropy_bits, language_entropy(d2).entropy_bits
    if not _tied(h1 - h2):
        h_uni = max(h1, h2)
        diagnostics = {"entropy_sym_diff": h_uni, "entropy_union": h_uni}
        return DistanceResult("entropy", 1.0, "exact", diagnostics)
    prod = product(d1, d2)
    pair = _decomposition(prod)
    left, right = prod.left, prod.right
    h_sym = pair.report(left ^ right).entropy_bits
    h_uni = pair.report(left | right).entropy_bits
    value = 0.0 if h_uni == 0.0 else min(1.0, h_sym / h_uni)
    diagnostics = {"entropy_sym_diff": h_sym, "entropy_union": h_uni}
    return DistanceResult("entropy", value, "exact", diagnostics)


def entropy_sum(d1: Dfa, d2: Dfa) -> DistanceResult:
    """Sum of the two one-sided entropies h(L1 minus L2) + h(L2 minus L1).

    Reported unnormalized, so the range is [0, 2 log2 |alphabet|].

    When one operand's entropy is 0, as in the paper's trivial case, the
    sum is the other's, read off the operands' kept reports with no
    product: if h2 = 0, then h(L1 minus L2) = h1, since L1 is the union of
    L1 minus L2 and of L1 and L2, whose entropy is at most h2 = 0, and
    h(L2 minus L1) <= h2 = 0.  Only otherwise is the pair's product read,
    the finer DFA's own table and search when one DFA refines the other.
    """
    h1, h2 = language_entropy(d1).entropy_bits, language_entropy(d2).entropy_bits
    if h1 == 0.0 or h2 == 0.0:
        left, right = (h1, 0.0) if h2 == 0.0 else (0.0, h2)
    else:
        prod = product(d1, d2)
        pair = _decomposition(prod)
        left = pair.report(prod.left - prod.right).entropy_bits
        right = pair.report(prod.right - prod.left).entropy_bits
    diagnostics = {"entropy_left_only": left, "entropy_right_only": right}
    return DistanceResult("entropy_sum", left + right, "exact", diagnostics)


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
    differences; never exceeds `separating_bound` for distinct inputs (the
    tests check that bound).  Each witness comes from each state's
    distance to acceptance (`automata._separation`): two DFAs whose
    initial states lie at different distances are told apart at the
    nearer one, with no search set up.  Otherwise a breadth-first search
    over the pair's states gives it, in which a pair whose states lie at
    different distances gives its witness without being expanded, and a
    pair that cannot beat the best witness so far is dropped; it reads
    each pair over the union of its alphabets with no harmonized copy.
    The DFAs keep their distances, so only the first call on a DFA pays
    the O(V |alphabet|) pass for them; a second call on the same DFA
    objects reads them and searches only the pairs it keeps.
    """
    if len(dfas) < 2:
        return 0
    worst = 0
    for i in range(len(dfas)):
        for j in range(i + 1, len(dfas)):
            witness = _separation(dfas[i], dfas[j])
            if witness is None:
                raise DuplicateLanguageError(
                    f"languages {i} and {j} are equal; separation is impossible"
                )
            worst = max(worst, witness)
    return worst


@record
class AxiomReport:
    kind: str
    n_languages: int
    n_pairs: int
    n_triples: int
    violations: list

    def __init__(self, kind, n_languages, n_pairs, n_triples, violations):
        self.kind = kind
        self.n_languages = n_languages
        self.n_pairs = n_pairs
        self.n_triples = n_triples
        self.violations = violations

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
    if isinstance(metric, str) and metric not in _NAMED_METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {', '.join(_NAMED_METRICS)}")
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

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for x, y, z in ((i, j, k), (j, i, k), (i, k, j)):
                    lhs = table[x][z]
                    if kind == "ultra-pseudo":
                        rhs = max(table[x][y], table[y][z])
                    else:
                        rhs = table[x][y] + table[y][z]
                    if lhs > rhs + tol:
                        violations.append(("inequality", x, y, z, lhs, rhs))
    return AxiomReport(kind, n, comb(n, 2), comb(n, 3), violations)


def distance_result(
    metric: str,
    d1: Dfa,
    d2: Dfa,
    n: int | None = None,
    config: CesaroConfig | None = None,
) -> DistanceResult:
    """Uniform entry point used by the command-line surface."""
    if metric in ("jn_exact", "jn_cum"):
        if n is None:
            raise ValueError(f"metric {metric!r} needs a horizon n")
        jaccard = jaccard_exact_n if metric == "jn_exact" else jaccard_cum_n
        fraction = jaccard(d1, d2, n)
        diagnostics = dict(n=n, numerator=fraction.numerator, denominator=fraction.denominator)
        return DistanceResult(metric, float(fraction), "exact", diagnostics)
    if metric == "cesaro":
        return cesaro_jaccard(d1, d2, config)
    if metric == "entropy":
        return entropy_distance(d1, d2)
    if metric == "entropy_sum":
        return entropy_sum(d1, d2)
    raise ValueError(f"unknown metric {metric!r}")
