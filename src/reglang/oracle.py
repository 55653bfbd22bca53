"""Brute-force ground truth: exhaustive enumeration and direct matching.

Everything here deliberately avoids the matrix and product machinery so
it can stand as an independent check on it.  Word counts come from
walking every string through a DFA; syntax-tree membership comes from a
recursive matcher and from plain set semantics on the tree.  Budgets
keep the exhaustive modes at desk scale.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from ._record import record
from .automata import Dfa
from .errors import BudgetError
from .regex import Alt, Concat, Empty, Epsilon, Literal, Repeat, Star

ENUMERATION_LIMIT = 10**9


@record(frozen=True)
class OracleBudget:
    """Bounds on exhaustive enumeration: maximum word length and maximum
    alphabet size, with the total string count capped below a billion."""

    n_max: int = 8
    max_alphabet: int = 7

    def __init__(self, n_max=8, max_alphabet=7):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "max_alphabet", max_alphabet)

    def validate(self, alphabet_size: int, n_max: int) -> None:
        if n_max > self.n_max:
            raise BudgetError(f"length {n_max} exceeds oracle budget {self.n_max}")
        if alphabet_size > self.max_alphabet:
            raise BudgetError(
                f"alphabet size {alphabet_size} exceeds oracle budget "
                f"{self.max_alphabet}"
            )
        if alphabet_size ** (n_max + 1) >= ENUMERATION_LIMIT:
            raise BudgetError("enumeration would exceed the string-count cap")


DEFAULT_BUDGET = OracleBudget()


def strings_of_length(alphabet, n: int):
    for combo in product(sorted(alphabet), repeat=n):
        yield "".join(combo)


def all_strings(alphabet, n_max: int):
    """Every string over the alphabet of length 0..n_max, shortest first."""
    for n in range(n_max + 1):
        yield from strings_of_length(alphabet, n)


def acceptance_by_length(dfa: Dfa, n_max: int, alphabet=None):
    """Run every string over `alphabet` (default: the DFA's own) through
    the DFA, sharing prefixes level by level.

    Returns one boolean array per length n, indexed by the string's rank
    in lexicographic order, so entry r of level n answers membership of
    the r-th string of length n.
    """
    import numpy as np

    symbols = tuple(sorted(alphabet)) if alphabet is not None else dfa.alphabet
    dead = dfa.n_states  # sink for symbols the DFA does not know
    columns = [dfa.symbol_index.get(s) for s in symbols]

    table = np.empty((dfa.n_states + 1, len(symbols)), dtype=np.int64)
    for q in range(dfa.n_states):
        for c, k in enumerate(columns):
            table[q, c] = dfa.transitions[q][k] if k is not None else dead
    table[dead, :] = dead

    accept_mask = np.zeros(dfa.n_states + 1, dtype=bool)
    for q in dfa.accepting:
        accept_mask[q] = True

    states = np.array([dfa.initial], dtype=np.int64)
    levels = [accept_mask[states].copy()]
    for _ in range(n_max):
        states = table[states].reshape(-1)
        levels.append(accept_mask[states])
    return levels


def oracle_counts(dfa: Dfa, n_max: int = 8, budget: OracleBudget = DEFAULT_BUDGET):
    """Word counts (n, |W_n|, |W_<=n|) for n = 0..n_max by enumeration."""
    budget.validate(len(dfa.alphabet), n_max)
    rows = []
    total = 0
    for n, level in enumerate(acceptance_by_length(dfa, n_max)):
        exact = int(level.sum())
        total += exact
        rows.append((n, exact, total))
    return rows


def oracle_distance(
    kind: str,
    d1: Dfa,
    d2: Dfa,
    n: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Fraction:
    """Finite-horizon Jaccard distance straight from the definition:
    enumerate strings over the union alphabet, test membership in both
    languages, and tally the symmetric difference against the union.

    `kind` is "jn_exact" (length exactly n) or "jn_cum" (length up to n).
    """
    if kind not in ("jn_exact", "jn_cum"):
        raise ValueError(f"unknown kind {kind!r}")
    union = sorted(set(d1.alphabet) | set(d2.alphabet))
    budget.validate(len(union), n)
    in1 = acceptance_by_length(d1, n, union)
    in2 = acceptance_by_length(d2, n, union)
    lengths = [n] if kind == "jn_exact" else range(n + 1)
    sym = 0
    uni = 0
    for m in lengths:
        sym += int((in1[m] ^ in2[m]).sum())
        uni += int((in1[m] | in2[m]).sum())
    return Fraction(sym, uni) if uni else Fraction(0)


@lru_cache(maxsize=None)
def ast_matches(node, word: str) -> bool:
    """Recursive syntax-tree matcher, independent of any automaton."""
    if isinstance(node, Empty):
        return False
    if isinstance(node, Epsilon):
        return word == ""
    if isinstance(node, Literal):
        return word == node.symbol
    if isinstance(node, Alt):
        return any(ast_matches(option, word) for option in node.options)
    if isinstance(node, Concat):
        return _match_sequence(node.parts, word)
    if isinstance(node, Repeat):
        return _match_sequence((node.child,) * node.count, word)
    if isinstance(node, Star):
        if word == "":
            return True
        # consume a non-empty prefix per round to guarantee progress
        return any(
            ast_matches(node.child, word[:i]) and ast_matches(node, word[i:])
            for i in range(1, len(word) + 1)
        )
    raise TypeError(f"not a regex node: {node!r}")


@lru_cache(maxsize=None)
def _match_sequence(parts, word: str) -> bool:
    if not parts:
        return word == ""
    head, rest = parts[0], parts[1:]
    return any(
        ast_matches(head, word[:i]) and _match_sequence(rest, word[i:])
        for i in range(len(word) + 1)
    )


def ast_language_upto(node, n_max: int) -> frozenset:
    """The set of words of length <= n_max denoted by a syntax tree,
    computed by plain set semantics (no automata, no matrices)."""
    if isinstance(node, Empty):
        return frozenset()
    if isinstance(node, Epsilon):
        return frozenset({""})
    if isinstance(node, Literal):
        return frozenset({node.symbol} if n_max >= 1 else ())
    if isinstance(node, Alt):
        return frozenset().union(
            *(ast_language_upto(option, n_max) for option in node.options)
        )
    if isinstance(node, Concat):
        result = frozenset({""})
        for part in node.parts:
            step = ast_language_upto(part, n_max)
            result = _concat_sets(result, step, n_max)
        return result
    if isinstance(node, Repeat):
        return ast_language_upto(Concat((node.child,) * node.count), n_max)
    if isinstance(node, Star):
        base = ast_language_upto(node.child, n_max)
        result = frozenset({""})
        while True:
            grown = result | _concat_sets(result, base, n_max)
            if grown == result:
                return result
            result = grown
    raise TypeError(f"not a regex node: {node!r}")


def _concat_sets(left, right, n_max: int):
    return frozenset(
        a + b for a in left for b in right if len(a) + len(b) <= n_max
    )
