"""Exact word counting by sparse big-integer vector-matrix steps.

A counting system is (A, i, f): the adjacency matrix of an automaton's
states on some accepting path, an initial indicator row vector, and a
final column vector (possibly with multiplicities).  The number of words
of length n is then i . A^n . f, with A^0 the identity, so the length-0
term is just i . f.

A is kept as sparse rows of (column, entry) pairs.  One builder,
`_own_system`, forms them in O(E) from integer rows that list each
state's successors once per edge: a DFA's table for `from_dfa`, a pair's
product table for `shared_system`, a labeled graph's rows for
`block_count`.  `CountVectors(matrix, ...)` takes a dense matrix instead,
and `CountVectors.matrix` forms one only when it is read.
One stepping loop advances the single vector i . A^n at O(E) per
length, and two readers sit on top of it.  `final_counts` reads one count
per final vector at every length, a stream; `counts_at` reads each final
vector once, at one horizon n: from the vector of length n, or for the
counts up to n from a running sum of the vectors of lengths 0..n, kept
only at the coordinates that a final vector reads.  The lengths on the
way cost one step each and no read.  A symmetric
difference lies inside the union of the same pair, so `shared_system`
counts both over the union, on the pair's product table.  The loop runs
on the lumped quotient of the union's system,
which has the same word counts and often far fewer vertices (257 -> 9 for the suffix pair
`(a|b)*a(a|b){7}` / `(a|b)*a(a|b){6}`).  The quotient takes one
partition-refinement pass in each direction, the first in the direction
where one round of merging exact duplicates merges more states: backward
for that suffix pair, where a forward pass would only merge one state,
and forward for most small unions.  Counts up to a horizon n need only
the states on some path of at most n steps from the initial state to
acceptance, so `shared_system` given n drops the others before lumping:
a chain whose acceptance lies past n loses every state.  The finite
horizons (`metrics._jaccard_n`) give it n unless the product's depth
plus the farthest finite distance to acceptance in either DFA is within
n, which shows that no state would be dropped; the Cesaro ties count
with no horizon, on the stream.  `length_counts` is the one-final case
of the stream, and `count_len` and `count_upto` the one-final cases of
`counts_at`.  Exactness is the point:
everything here is arbitrary-precision integer arithmetic, off-limits to
floating point.
"""

from functools import cached_property
from itertools import chain, compress, islice
from math import inf
from operator import add, mul

from .automata import Dfa, LabeledGraph, coarsest_partition


class CountVectors:
    """Counting system (A, i, f) with A kept as sparse rows: `rows[i]`
    holds the (column, entry) pairs of the nonzero entries of row i.  The
    columns, which the stepping loop steps on, are kept as they were built.

    `CountVectors(matrix, initial, final)` takes A as a square dense
    matrix, and the vectors of its size, of non-negative ints, the form in
    which the paper's worked example states a system; `from_dfa` builds
    the rows from the DFA's table.
    Either way the dense `matrix` is formed only if it is read.
    """

    def __init__(self, matrix, initial, final):
        n = len(matrix)
        if any(len(row) != n for row in matrix) or not len(initial) == len(final) == n:
            raise ValueError("the matrix must be square and the vectors of its size")
        if not all(isinstance(x, int) and x >= 0 for x in chain(initial, final, *matrix)):
            raise ValueError("every entry must be a non-negative int")
        self.rows = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in matrix
        )
        self._columns = _transpose(self.rows)
        self.initial = tuple(initial)
        self.final = tuple(final)

    @property
    def n(self) -> int:
        return len(self.initial)

    @cached_property
    def matrix(self) -> tuple:
        """A as a dense matrix."""
        dense = [[0] * self.n for _ in self.rows]
        for out, row in zip(dense, self.rows):
            for j, a in row:
                out[j] = a
        return tuple(map(tuple, dense))

    @classmethod
    def from_dfa(cls, dfa: Dfa) -> "CountVectors":
        """Counting system for a DFA's language: its table's own system
        from the initial state, restricted to the states on some accepting
        path, which are the trim graph's vertices in the same order; the
        discarded states would only contribute zero terms."""
        system = _own_system(dfa.transitions, (dfa.accepting,), (dfa.initial,))
        rows, columns, initial, finals = _trimmed(*system)
        return cls._from_rows(rows, initial, finals[0], columns)

    @classmethod
    def _from_rows(cls, rows, initial, final, columns) -> "CountVectors":
        cv = cls.__new__(cls)
        cv.rows, cv.initial, cv.final = tuple(rows), tuple(initial), tuple(final)
        cv._columns = columns
        return cv


def shared_system(transitions, parts, horizon=None) -> tuple[CountVectors, tuple]:
    """The counting system of the words leading from state 0 of a
    transition table into some part, and the final vector of each part
    over the same vertices; with a `horizon`, of the words of length at
    most `horizon` only.

    The parts are sets of states, such as those of a pair's `Product`
    for its symmetric difference and its union, so one stepping loop
    over the system counts the words of every part.

    The system is a quotient of the table's own (A, i, f) with the same
    word counts (exact and ordinary lumpability: Buchholz, "Bisimulation
    relations for weighted automata", TCS 2008).  Forward, the states
    with equal final values and the same number of edges into each block
    are merged and the initial vector summed per block; backward, on the
    reversed edges, the states with equal initial values and the same
    number of edges from each block, the final vectors summed per block.
    One pass is made in each direction, and the blocks off every
    accepting path are dropped after the first.  The first pass runs on
    the whole system and costs the most, and the two orders need not end
    on the same quotient.  So it goes the way in which more states are
    exact duplicates (`_lumps_backward_first`), forward when the two
    rounds merge as many.  The union of the tie pair `(a|b)*a(a|b){12}` /
    `(a|b)*a(a|b){11}` has one forward duplicate and 4,096 backward ones:
    its 8,193 states lump backward to 14 at once, where forward they only
    lump to 8,192 and the backward pass must follow on those.

    With a horizon, every state v with dist(0, v) + dist(v, union) above
    it is dropped before the first pass: no word of length at most the
    horizon passes through v, so the counts of those lengths stay exact,
    and the later ones are not asked for.  A chain whose acceptance lies
    past the horizon loses every state this way instead of being lumped
    and stepped with counts that are all 0.  A caller that knows no
    state lies that far gives no horizon and saves the two searches.
    """
    system = _own_system(transitions, parts, (0,))
    if horizon is not None:
        system = _trimmed(*system, horizon)
    return _reduced(system, _lumps_backward_first(*system))


def _reduced(system, backward_first: bool) -> tuple[CountVectors, tuple]:
    """The counting system and part vectors of `shared_system` from the
    table's own system: one pass in each direction, the first one
    backward or forward, and the vertices off every accepting path
    dropped after it."""
    first, second = (_backward, _forward) if backward_first else (_forward, _backward)
    rows, columns, initial, finals = second(*_trimmed(*first(*system)))
    return CountVectors._from_rows(rows, initial, finals[0], columns), finals[1:]


def _own_system(successors, parts, starts) -> tuple:
    """(rows, columns, initial, finals) of the counting system of a table
    whose row `successors[q]` lists q's successors once per edge, as a
    DFA's or product's transition row or a `LabeledGraph`'s integer row
    does: the sparse rows and columns of A, each in index order with
    parallel edges merged, i over the states `starts`, and the final
    vectors of the union of the parts and of each part."""
    n = len(successors)
    columns = [[] for _ in range(n)]
    for q, targets in enumerate(successors):
        edge = (q, 1)
        for t in targets:
            column = columns[t]
            if column and column[-1][0] == q:  # a parallel edge
                column[-1] = (q, column[-1][1] + 1)
            else:
                column.append(edge)
    columns = list(map(tuple, columns))
    initial = [0] * n
    for q in starts:
        initial[q] = 1
    finals = []
    for part in (frozenset().union(*parts), *parts):
        final = [0] * n
        for q in part:
            final[q] = 1
        finals.append(tuple(final))
    return _transpose(columns), columns, tuple(initial), tuple(finals)


def _lumps_backward_first(rows, columns, initial, finals) -> bool:
    """Whether one round of merging exact duplicates merges more states
    backward (equal initial values and equal columns) than forward (equal
    final values and equal rows); rows and columns in index order.

    Each state's key is counted by its hash, so that `zip` reuses one
    tuple for all states; equal hashes of unequal keys could only change
    the order of the passes, never the quotient's counts."""
    backward = set(map(hash, zip(columns, initial)))
    return len(backward) < len(set(map(hash, zip(rows, *finals))))


def _forward(rows, columns, initial, finals) -> tuple:
    """The forward quotient of a system: the final vectors keyed."""
    quotient, finals, (initial,) = _lump(rows, columns, finals, (initial,))
    if quotient is rows:
        return rows, columns, initial, finals
    return quotient, _transpose(quotient), initial, finals


def _backward(rows, columns, initial, finals) -> tuple:
    """The backward quotient of a system: the initial vector keyed."""
    quotient, (initial,), finals = _lump(columns, rows, (initial,), finals)
    if quotient is columns:
        return rows, columns, initial, finals
    return _transpose(quotient), quotient, initial, finals


def _transpose(rows) -> list:
    """The sparse rows of the transposed matrix, in index order."""
    columns = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row:
            columns[j].append((i, a))
    return list(map(tuple, columns))


def _lump(rows, into, keyed, summed) -> tuple:
    """(rows, keyed, summed) of the quotient of the matrix `rows`, whose
    transpose is `into`, by its coarsest partition in which the vertices of
    a block have equal `keyed` values and the same weight into each block.
    A keyed vector takes its blocks' values and a summed one its sums over
    the blocks, so s . A^n . f is unchanged for every summed s and keyed f.

    In such a partition (A^n f)[v] is the same for all vertices v of a
    block, for every keyed f and every n, and so is the least n at which
    one of them is positive: v's distance to the keyed vectors' support.
    The refinement starts from the keys and these distances and ends on
    the same partition, with less splitting where the distances already
    tell vertices apart, as along a chain."""
    keys = list(zip(_distances(into, _support(keyed)), *keyed))
    block_of = coarsest_partition(keys, into)
    first = {}  # block -> its first vertex, in block order
    for v, b in enumerate(block_of):
        first.setdefault(b, v)
    if len(first) == len(rows):  # every block one vertex, numbered as before
        return rows, keyed, summed
    quotient = []
    for v in first.values():
        row = {}
        for j, a in rows[v]:
            c = block_of[j]
            row[c] = row.get(c, 0) + a
        quotient.append(tuple(row.items()))
    keyed = tuple(tuple(f[v] for v in first.values()) for f in keyed)
    sums = [[0] * len(first) for _ in summed]
    for total, s in zip(sums, summed):
        for b, x in zip(block_of, s):
            total[b] += x
    return quotient, keyed, tuple(map(tuple, sums))


def _distances(adjacent, seeds, limit=inf) -> list:
    """Each vertex's least number of steps from a seed, a step going from
    v to each u of the (u, weight) pairs in `adjacent[v]`; -1 where no
    seed leads within `limit` steps."""
    distance = [-1] * len(adjacent)
    queue = list(seeds)
    for v in queue:
        distance[v] = 0
    for v in queue:  # in order of distance, the queue growing as it is read
        step = distance[v] + 1
        if step > limit:
            break
        for u, _a in adjacent[v]:
            if distance[u] < 0:
                distance[u] = step
                queue.append(u)
    return distance


def _support(vectors) -> set:
    """The vertices at which some vector is nonzero."""
    return set(chain.from_iterable(compress(range(len(v)), v) for v in vectors))


def _trimmed(rows, columns, initial, finals, horizon=inf) -> tuple:
    """The system (rows, columns, initial, finals) restricted to the
    vertices on some path of at most `horizon` steps from the support of
    `initial` to the support of a final vector."""
    reached = _distances(rows, _support((initial,)), horizon)
    reaching = _distances(columns, _support(finals), horizon)
    keep = [
        v for v, (x, y) in enumerate(zip(reached, reaching))
        if x >= 0 and y >= 0 and x + y <= horizon
    ]
    if len(keep) == len(rows):
        return rows, columns, initial, finals
    new = [-1] * len(rows)
    for k, v in enumerate(keep):
        new[v] = k
    rows = [tuple([(new[j], a) for j, a in rows[v] if new[j] >= 0]) for v in keep]
    initial = tuple(initial[v] for v in keep)
    return rows, _transpose(rows), initial, tuple(tuple(f[v] for v in keep) for f in finals)


def _vectors(cv: CountVectors) -> tuple:
    """(position, vectors): the coordinate at which the stepped vector
    holds each state, and the one stepping loop, an iterator over the
    vectors i . A^n for n = 0, 1, ... in that layout; one O(E) step per
    length."""
    n = cv.n
    columns = cv._columns  # column j of A as (row, entry) pairs
    # The vector's coordinates are held in order of decreasing column
    # length, so the k-th entries of the columns that have one form the
    # layer k over a prefix of the coordinates.  A step sums the layers
    # coordinate by coordinate in `map` calls: O(E) work, no Python loop
    # over the vertices.
    order = sorted(range(n), key=lambda j: -len(columns[j]))
    position = [0] * n
    for p, j in enumerate(order):
        position[j] = p
    layers = [[] for _ in range(max(1, max(map(len, columns), default=0)))]
    for j in order:
        for layer, (i, a) in zip(layers, columns[j]):
            layer.append((position[i], a))
    return position, _steps([cv.initial[j] for j in order], list(map(_split, layers)))


def _steps(vector, layers):
    """Yield `vector`, then each next one: the first layer's products,
    padded with zeros to the vector's length, with each other layer's
    products added to its prefix.  A yielded vector is never changed."""
    (first, first_weights), *rest = layers
    padding = [0] * (len(vector) - len(first))
    while True:
        yield vector
        get = vector.__getitem__
        values = map(get, first)
        if first_weights is not None:
            values = map(mul, values, first_weights)
        vector = [*values, *padding]
        for indices, weights in rest:
            values = map(get, indices)
            if weights is not None:
                values = map(mul, values, weights)
            vector[: len(indices)] = map(add, vector, values)


def _split(entries):
    """(indices, weights) of (index, weight) pairs; weights None if all 1."""
    indices = tuple(i for i, _a in entries)
    weights = tuple(a for _i, a in entries)
    return indices, None if all(a == 1 for a in weights) else weights


def final_counts(cv: CountVectors, finals):
    """Yield, for n = 0, 1, ..., the tuple of i . A^n . f over the final
    vectors f: the stepping loop's vector read once per final vector at
    every length."""
    position, vectors = _vectors(cv)
    reads = [
        _split([(position[j], f) for j, f in enumerate(final) if f]) for final in finals
    ]
    for vector in vectors:
        get = vector.__getitem__
        yield tuple(
            [sum(map(get, i) if w is None else map(mul, map(get, i), w)) for i, w in reads]
        )


def counts_at(cv: CountVectors, finals, n: int, cumulative: bool = False) -> tuple:
    """The tuple of i . A^n . f over the final vectors f, or with
    `cumulative` of their sums over the lengths 0..n: n steps of the
    loop, and each final vector read once, at the end.  Only the
    coordinates that some final vector reads are kept, and summed when
    `cumulative`, so the sum costs O(|support|) per length, not O(V)."""
    if n < 0:
        raise ValueError("length must be non-negative")
    position, vectors = _vectors(cv)
    states = sorted(_support(finals))
    read = [position[j] for j in states]
    if cumulative:
        kept = [0] * len(read)
        for vector in islice(vectors, n + 1):
            kept = list(map(add, kept, map(vector.__getitem__, read)))
    else:
        kept = list(map(next(islice(vectors, n, None)).__getitem__, read))
    return tuple(sum(map(mul, kept, [final[j] for j in states])) for final in finals)


def length_counts(cv: CountVectors):
    """Yield |W_0|, |W_1|, ... forever; one sparse step per length."""
    for (count,) in final_counts(cv, (cv.final,)):
        yield count


def cumulative_counts(cv: CountVectors):
    """Yield |W_<=0|, |W_<=1|, ... forever."""
    total = 0
    for count in length_counts(cv):
        total += count
        yield total


def count_len(cv: CountVectors, n: int) -> int:
    """Exact number of words of length exactly n: n steps of the loop and
    one read (`counts_at`)."""
    return counts_at(cv, (cv.final,), n)[0]


def count_upto(cv: CountVectors, n: int) -> int:
    """Exact number of words of length at most n, epsilon included: the
    sum of the vectors of lengths 0..n, read once (`counts_at`)."""
    return counts_at(cv, (cv.final,), n, cumulative=True)[0]


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
    everything = range(graph.n_vertices)
    rows, columns, initial, finals = _own_system(graph._rows, (everything,), everything)
    return count_len(CountVectors._from_rows(rows, initial, finals[0], columns), n)


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
    power = cv.rows  # the rows of A^q, by q - 1 sparse steps each
    for _ in range(q - 1):
        power = [_times(row, cv.rows) for row in power]
    return CountVectors._from_rows(power, cv.initial, new_final, _transpose(power))


def _times(row, rows) -> tuple:
    """The sparse row vector `row` times the matrix of the sparse `rows`."""
    product = {}
    for j, a in row:
        for c, b in rows[j]:
            product[c] = product.get(c, 0) + a * b
    return tuple(sorted(product.items()))


def trim_system(cv: CountVectors) -> CountVectors:
    """Drop states that cannot contribute: unreachable from the support
    of the initial vector or unable to reach the support of the final
    vector through nonzero matrix entries."""
    rows, columns, initial, (final,) = _trimmed(cv.rows, cv._columns, cv.initial, (cv.final,))
    return CountVectors._from_rows(rows, initial, final, columns)
