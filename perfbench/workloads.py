"""The benchmark's workloads: their inputs, operations and output checks.

Each workload is a fixed list of regular expressions and a fixed list of
operations on the automata built from them; the seed only shuffles the
order of operations within a pass.  `small=True` gives the smallest sizes,
used by the smoke test.

Every output is checked against a reference that does not use reglang's
algebra (see `references.py`): exact counts of a lockstep walk, numpy
eigenvalues, an independent component decomposition, the frozen Cesaro
window means, or closed forms.
"""

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import references as ref

NAMES = ("corpus_matrix", "suffix_pair", "chain")
SRC = Path(__file__).resolve().parent.parent / "src"

# Frozen copy of the 23-language test corpus: (name, pattern, alphabet).
CORPUS = (
    ("empty", "#", "a"),
    ("epsilon", "~", "a"),
    ("finite_a123", "a|aa|aaa", "a"),
    ("a_star", "a*", "a"),
    ("even_a", "(aa)*", "a"),
    ("odd_a", "a(aa)*", "a"),
    ("triple_a", "(aaa)*", "a"),
    ("ab_cycle", "(ab)*", "ab"),
    ("all_ab", "(a|b)*", "ab"),
    ("even_ab", "((a|b){2})*", "ab"),
    ("triple_ab", "((a|b){3})*", "ab"),
    ("a_prefix", "a(a|b)*", "ab"),
    ("b_prefix", "b(a|b)*", "ab"),
    ("a_suffix", "(a|b)*a", "ab"),
    ("contains_ab", "(a|b)*ab(a|b)*", "ab"),
    ("golden", "(a|bb)*", "ab"),
    ("swap_pairs", "(ab|ba)*", "ab"),
    ("all_abc", "(a|b|c)*", "abc"),
    ("even_abc", "((a|b|c){2})*", "abc"),
    ("one_c", "(a|b)*c(a|b)*", "abc"),
    ("bc_star", "(b|c)*", "bc"),
    ("all_abcd", "(a|b|c|d)*", "abcd"),
    ("even_abcd", "((a|b|c|d){2})*", "abcd"),
)
SMALL_CORPUS = 5  # languages kept by the smoke size

HORIZON = 200  # n of jn and jnp
SMALL_HORIZON = 8
SUFFIX_K = 7  # (a|b)*a(a|b){k} against (a|b)*a(a|b){k-1}
SMALL_SUFFIX_K = 2
CHAIN = (2000, 1000, 3000)  # a{n1}(a|b)*, (a|b){n2}, a{n3} with n2 < n1 < n3
SMALL_CHAIN = (4, 2, 6)

# Closed forms are exact; this admits float rounding in reglang's log2.
CLOSED_FORM_TOL = 1e-9
# Kinds whose wrong outputs are counted in `failed` but do not clear
# `correct`: cesaro_jaccard has a known defect (ROADMAP item 3).
LIMIT_KINDS = {"jc"}


@dataclass(frozen=True)
class Op:
    kind: str  # reported as the end-to-end metric <kind>_s
    label: str
    call: object  # no-argument callable into reglang
    expected: object
    tol: float = 0.0


def specs(name, small=False):
    """(label, pattern, alphabet) of each input language."""
    if name == "corpus_matrix":
        return CORPUS[:SMALL_CORPUS] if small else CORPUS
    if name == "suffix_pair":
        k = SMALL_SUFFIX_K if small else SUFFIX_K
        return (
            (f"suffix{k}", f"(a|b)*a(a|b){{{k}}}", "ab"),
            (f"suffix{k - 1}", f"(a|b)*a(a|b){{{k - 1}}}", "ab"),
        )
    if name == "chain":
        n1, n2, n3 = SMALL_CHAIN if small else CHAIN
        return (
            (f"prefix{n1}", f"a{{{n1}}}(a|b)*", "ab"),
            (f"all{n2}", f"(a|b){{{n2}}}", "ab"),
            (f"only{n3}", f"a{{{n3}}}", "ab"),
        )
    raise ValueError(f"unknown workload {name!r}")


def build(rl, name, small=False):
    """The set-up every CLI call pays: build each DFA, harmonize them all."""
    return rl.harmonize_all(
        [rl.dfa_from_regex(pattern, alphabet) for _l, pattern, alphabet in specs(name, small)]
    )


def import_reglang():
    """Import reglang from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "reglang" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no reglang sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reglang

    return reglang


def corpus_dfas():
    """Names and harmonized DFAs of the full corpus (for `references.py`)."""
    return [label for label, _p, _a in CORPUS], build(import_reglang(), "corpus_matrix")


def operations(rl, name, dfas, small=False):
    """One pass of the workload, each operation with its reference."""
    labels = [label for label, _p, _a in specs(name, small)]
    n = SMALL_HORIZON if small else HORIZON
    if name == "corpus_matrix":
        cesaro = ref.load_cesaro()
        ops = []
        for (i, a), (j, b) in itertools.combinations(enumerate(dfas), 2):
            pair = f"{labels[i]}|{labels[j]}"
            jnp, jn = ref.jaccard_pair(a, b, n)
            h, hs = ref.pair_entropies(a, b)
            jc, jc_tol = cesaro[pair]
            ops += _pair_ops(rl, a, b, n, pair, jn, jnp, (jc, jc_tol), h, hs, ref.ENTROPY_TOL)
        return ops
    if name == "suffix_pair":
        # L1 has 2^(m-1) words of each length m > k, L2 one more length, k;
        # they share 2^(m-2), so |sym| = 2^(m-1) and |union| = 3 * 2^(m-2).
        k = SMALL_SUFFIX_K if small else SUFFIX_K
        jn = Fraction(2**n - 2 ** (k - 1), 3 * 2 ** (n - 1) - 2**k)
        a, b = dfas
        return _pair_ops(
            rl, a, b, n, "|".join(labels), jn, Fraction(2, 3),
            (2 / 3, CLOSED_FORM_TOL), 1.0, 2.0, CLOSED_FORM_TOL,
        )
    if name == "chain":
        n1 = (SMALL_CHAIN if small else CHAIN)[0]
        ops = []
        for label, dfa, entropy in zip(labels, dfas, (1.0, 0.0, 0.0)):
            ops.append(Op("entropy", label, lambda d=dfa: rl.language_entropy(d), entropy, CLOSED_FORM_TOL))
            ops.append(Op("analyze", label, lambda d=dfa: rl.scc_decompose(rl.trim(d)), ref.components(dfa)))
        # The shortest word telling prefix{n1} from the others is a^n1 or
        # shorter, and all{n2} against either other is told at length n2.
        ops.append(Op("separate", "all", lambda: rl.separating_n(dfas), n1))
        return ops
    raise ValueError(f"unknown workload {name!r}")


def _pair_ops(rl, a, b, n, pair, jn, jnp, jc, h, hs, entropy_tol):
    return [
        Op("jn", pair, lambda: rl.jaccard_cum_n(a, b, n), jn),
        Op("jnp", pair, lambda: rl.jaccard_exact_n(a, b, n), jnp),
        Op("jc", pair, lambda: rl.cesaro_jaccard(a, b), *jc),
        Op("h", pair, lambda: rl.entropy_distance(a, b), h, entropy_tol),
        Op("hs", pair, lambda: rl.entropy_sum(a, b), hs, entropy_tol),
    ]


def agrees(op, output):
    """Whether an operation's output matches its reference."""
    if op.kind in ("jn", "jnp", "separate"):
        return output == op.expected
    if op.kind == "analyze":
        found = (output.components, output.periods, output.trivial, output.residue_period)
        return found == op.expected
    value = output.entropy_bits if op.kind == "entropy" else output.value
    return abs(value - op.expected) <= op.tol


def inputs_agree(name, dfas, small=False, max_words=2000):
    """Whether each DFA accepts exactly what Python's `re` matches, on all
    words over the common alphabet up to the longest length that keeps the
    word count within `max_words`."""
    alphabet = dfas[0].alphabet
    length = 0
    while sum(len(alphabet) ** m for m in range(length + 2)) <= max_words:
        length += 1
    words = [
        "".join(w) for m in range(length + 1) for w in itertools.product(alphabet, repeat=m)
    ]
    for (_label, pattern, _alphabet), dfa in zip(specs(name, small), dfas):
        matcher = re.compile(_python_regex(pattern))
        if any(dfa.accepts(w) != bool(matcher.fullmatch(w)) for w in words):
            return False
    return True


def _python_regex(pattern):
    """Translate reglang's syntax (`~` empty word, `#` empty set) to `re`."""
    table = {"(": "(?:", "~": "(?:)", "#": "(?!)"}
    return "".join(table.get(c, c) for c in pattern)
