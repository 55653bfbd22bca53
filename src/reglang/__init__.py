"""Entropy and distance computations for regular languages.

The pipeline: regular-expression text parses to a syntax tree, compiles
to an NFA, determinizes to a complete DFA; boolean combinations of DFAs
feed exact big-integer word counting and spectral analysis; on top sit
the five distance functions (fixed-length Jaccard, cumulative Jaccard,
their Cesaro limit, the entropy ratio, and the entropy sum).

`import reglang` loads only the front end: `errors`, `automata` with
`graphs`, and `regex`.  The analysis layers `counting`, `spectral` and
`metrics` load on the first access to one of their names, or to the
submodule itself, through `__getattr__`; a process that only builds and
harmonizes DFAs never compiles them, nor the `fractions` that `metrics`
imports.  Each first access binds the names of every layer loaded by
then as plain attributes of the package, and once all are bound the
package drops its `__getattr__`.
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
from .regex import RegexAst, compile_to_nfa, literal_set, parse_regex

__version__ = "0.1.0"

# name -> the analysis submodule that defines it, imported on first access
_LAZY = {
    "counting": "counting",
    "CountVectors": "counting",
    "block_count": "counting",
    "count_len": "counting",
    "count_upto": "counting",
    "residue_language": "counting",
    "trim_system": "counting",
    "metrics": "metrics",
    "CesaroConfig": "metrics",
    "DistanceResult": "metrics",
    "cesaro_jaccard": "metrics",
    "check_metric_axioms": "metrics",
    "distance_result": "metrics",
    "entropy_distance": "metrics",
    "entropy_sum": "metrics",
    "jaccard_cum_n": "metrics",
    "jaccard_exact_n": "metrics",
    "separating_bound": "metrics",
    "separating_n": "metrics",
    "spectral": "spectral",
    "SpectralReport": "spectral",
    "entropies_equal": "spectral",
    "language_entropy": "spectral",
    "matrix_spectral_radius": "spectral",
    "topological_entropy": "spectral",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # relative to this package's own name, which a second checkout
    # loaded beside the first does not share
    import_module(f"{__name__}.{_LAZY[name]}")
    package = globals()
    for lazy, source in _LAZY.items():
        module = package.get(source)  # each submodule loaded so far, `metrics` loading all
        if module is not None:
            package[lazy] = module if lazy == source else getattr(module, lazy)
    if _LAZY.keys() <= package.keys():
        # CPython caches no attribute load on a module that defines
        # `__getattr__`, which makes each one about twice as slow
        package.pop("__getattr__", None)
    return package[name]


def __dir__():
    return sorted({*globals(), *_LAZY})


def dfa_from_regex(text: str, alphabet=None) -> Dfa:
    """Parse, compile, and determinize in one step.

    The alphabet defaults to the literals appearing in the expression;
    degenerate expressions without literals (just `~` or `#`) fall back
    to a one-symbol alphabet, which leaves their string sets unchanged.
    """
    symbols = set(alphabet) if alphabet is not None else None
    nfa = compile_to_nfa(parse_regex(text, symbols), symbols)
    if symbols is None and not nfa.alphabet:  # no literal: no state reads a symbol
        nfa = Nfa(("a",), nfa.symbols, nfa.follow, nfa.accepting)
    return determinize(nfa)


# `from reglang import *` binds the analysis names too, loading their layers
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))
