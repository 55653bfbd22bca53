"""Exact word counting by big-integer vector-matrix products.

A counting system is (A, i, f): the adjacency matrix of a trimmed
automaton graph, an initial indicator row vector, and a final column
vector (possibly with multiplicities).  The number of words of length n
is then i . A^n . f, with A^0 the identity, so the length-0 term is just
i . f.  Each step walks the nonzero entries of A, kept per row as
(column, entry) pairs, so it costs O(edges) rather than O(states^2).
Exactness is the point: everything here is arbitrary-precision integer
arithmetic, off-limits to floating point.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .automata import Dfa, LabeledGraph, trim


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    return tuple(
        tuple(sum(a[i][x] * b[x][j] for x in range(k)) for j in range(m))
        for i in range(n)
    )


def matrix_power(matrix, exponent: int):
    """Exact integer matrix power by repeated squaring."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = _identity(len(matrix))
    base = matrix
    e = exponent
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


@dataclass(frozen=True)
class CountVectors:
    """Counting system (matrix, initial row, final column)."""

    matrix: tuple
    initial: tuple
    final: tuple

    @property
    def n(self) -> int:
        return len(self.initial)

    @cached_property
    def rows(self) -> tuple:
        """Per matrix row, the (column, entry) pairs of its nonzero entries."""
        return tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in self.matrix
        )

    @classmethod
    def from_dfa(cls, dfa: Dfa) -> "CountVectors":
        """Counting system for a DFA's language, on its trim graph: the
        discarded states would only contribute zero terms."""
        graph = trim(dfa)
        initial = tuple(1 if v == dfa.initial else 0 for v in graph.vertices)
        final = tuple(1 if v in dfa.accepting else 0 for v in graph.vertices)
        return cls(graph.matrix, initial, final)


def length_counts(cv: CountVectors):
    """Yield |W_0|, |W_1|, ... forever; one vector-matrix product per step."""
    rows = cv.rows
    vector = cv.initial
    while True:
        yield sum(x * f for x, f in zip(vector, cv.final))
        nxt = [0] * len(vector)
        for x, row in zip(vector, rows):
            if x:
                for j, a in row:
                    nxt[j] += x * a
        vector = nxt


def cumulative_counts(cv: CountVectors):
    """Yield |W_<=0|, |W_<=1|, ... forever."""
    total = 0
    for count in length_counts(cv):
        total += count
        yield total


def count_len(cv: CountVectors, n: int) -> int:
    """Exact number of words of length exactly n."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return next(islice(length_counts(cv), n, None))


def count_upto(cv: CountVectors, n: int) -> int:
    """Exact number of words of length at most n, epsilon included."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return next(islice(cumulative_counts(cv), n, None))


def block_count(graph: LabeledGraph, n: int) -> int:
    """Number of labeled paths of length n in the graph (all start and
    end vertices), i.e. ones . A^n . ones.

    For a right-resolving graph with V vertices this sandwiches the
    number of distinct admissible label blocks b_n:

        block_count / V  <=  b_n  <=  block_count

    which is tight enough that growth rates are unaffected.
    """
    if n < 0:
        raise ValueError("length must be non-negative")
    ones = tuple(1 for _ in graph.vertices)
    cv = CountVectors(graph.matrix, ones, ones)
    return count_len(cv, n)


def residue_language(cv: CountVectors, q: int, k: int) -> CountVectors:
    """Counting system for words w with |w| a multiple of q such that
    some continuation v of length exactly k has wv in the language.

    The matrix becomes A^q, the initial vector is unchanged, and the
    final vector gains multiplicities as A^k . f, so that the new
    length-n count equals the original length-(q n + k) count.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if not (0 <= k < q):
        raise ValueError("k must satisfy 0 <= k < q")
    new_final = cv.final
    for _ in range(k):
        new_final = tuple(sum(a * new_final[j] for j, a in row) for row in cv.rows)
    return CountVectors(matrix_power(cv.matrix, q), cv.initial, new_final)


def _reach(seeds, neighbours) -> set:
    seen = set(seeds)
    queue = list(seen)
    while queue:
        for j in neighbours[queue.pop()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


def trim_system(cv: CountVectors) -> CountVectors:
    """Drop states that cannot contribute: unreachable from the support
    of the initial vector or unable to reach the support of the final
    vector through nonzero matrix entries."""
    succ = [[j for j, _a in row] for row in cv.rows]
    pred = [[] for _ in succ]
    for i, targets in enumerate(succ):
        for j in targets:
            pred[j].append(i)
    forward = _reach((i for i, x in enumerate(cv.initial) if x), succ)
    backward = _reach((i for i, x in enumerate(cv.final) if x), pred)

    keep = sorted(forward & backward)
    matrix = tuple(tuple(cv.matrix[i][j] for j in keep) for i in keep)
    return CountVectors(
        matrix,
        tuple(cv.initial[i] for i in keep),
        tuple(cv.final[i] for i in keep),
    )
