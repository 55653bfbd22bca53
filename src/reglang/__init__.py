"""Entropy and distance computations for regular languages.

The pipeline: regular-expression text parses to a syntax tree, compiles
to an NFA, determinizes to a complete DFA; boolean combinations of DFAs
feed exact big-integer word counting and spectral analysis; on top sit
the five distance functions (fixed-length Jaccard, cumulative Jaccard,
their Cesaro limit, the entropy ratio, and the entropy sum).
"""

from .automata import (
    Dfa,
    LabeledGraph,
    Nfa,
    Product,
    combine,
    complement,
    determinize,
    equivalent,
    essential,
    harmonize,
    harmonize_all,
    is_empty,
    minimize,
    product,
    shortest_accepted,
    trim,
)
from .counting import (
    CountVectors,
    block_count,
    count_len,
    count_upto,
    residue_language,
    trim_system,
)
from .errors import (
    AlphabetError,
    BudgetError,
    ConvergenceError,
    DuplicateLanguageError,
    RegexSyntaxError,
    ReglangError,
    StateLimitError,
    TrivialComponentError,
)
from .graphs import ComponentReport, component_period, is_primitive, residue_period, scc_decompose
from .metrics import (
    CesaroConfig,
    DistanceResult,
    cesaro_jaccard,
    check_metric_axioms,
    distance_result,
    entropy_distance,
    entropy_sum,
    jaccard_cum_n,
    jaccard_exact_n,
    separating_bound,
    separating_n,
)
from .regex import RegexAst, compile_to_nfa, literal_set, parse_regex
from .spectral import (
    SpectralReport,
    entropies_equal,
    language_entropy,
    matrix_spectral_radius,
    topological_entropy,
)

__version__ = "0.1.0"


def dfa_from_regex(text: str, alphabet=None) -> Dfa:
    """Parse, compile, and determinize in one step.

    The alphabet defaults to the literals appearing in the expression;
    degenerate expressions without literals (just `~` or `#`) fall back
    to a one-symbol alphabet, which leaves their string sets unchanged.
    """
    symbols = set(alphabet) if alphabet is not None else None
    ast = parse_regex(text, symbols)
    if symbols is None:
        symbols = literal_set(ast) or {"a"}
    return determinize(compile_to_nfa(ast, symbols))
