"""Exact word counting by sparse big-integer vector-matrix steps, and
by linear recurrences for the pairs that keep them.

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
with no horizon, on the stream.

Each of those count sequences satisfies a linear recurrence with
integer coefficients: the generating function of the word counts of a
regular language is rational.  When one DFA of a pair refines the
other, the pair's table is the finer DFA's own (see
`automata.product`), and the pair keeps its counts beside its
refinement outcome (`pair_counts`).  Its first call with no horizon,
as the suffix pair at n = 200 or an exact Cesaro tie, keeps the lumped
system; the first call that the stream would take longer over keeps
the minimal recurrence of each count sequence and its first terms
(`PairCounts`).  A later horizon n of that pair reads its counts off
those terms, or for a longer n powers t to n modulo the recurrence's
polynomial in O(log n) squarings, in place of n steps.  An estimate of
both routes' operations picks the cheaper, so a large system asked for
a horizon near its size stays on the stream.  No later count of the
pair lumps its table.  `length_counts`
is the one-final case of the stream, and `count_len` and `count_upto`
the one-final cases of `counts_at`.  Exactness is the point:
everything here is arbitrary-precision integer arithmetic, off-limits to
floating point.
"""

from functools import cached_property
from itertools import accumulate, chain, compress, islice
from math import gcd, inf
from operator import add, mul

from .automata import Dfa, LabeledGraph, Product, coarsest_partition


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
    transition table into some part, with the last part's final vector,
    and the final vector of each part over the same vertices; with a
    `horizon`, of the words of length at most `horizon` only.

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


class PairCounts:
    """The word counts of a refining pair's symmetric difference and
    union, kept beside the pair's refinement outcome (`pair_counts`).

    `system` is the pair's lumped counting system and its two final
    vectors, built with no horizon (see `pair_counts`).  The counts of
    the two parts at each length, and their running sums, are four
    integer sequences, each satisfying a linear recurrence: one of order
    at most m, the system's vertex count, for each part, and one of
    order at most m + 1 for each running sum.  `recurrences` is None
    until a call finds them, and then the 2(m + 1) first terms of each
    sequence, the window, and each sequence's minimal recurrence (see
    `_recurrence`).  A recurrence of characteristic polynomial t^j Q(t),
    Q(0) != 0, gives the term at any n >= j as the window's terms j,
    j + 1, ... weighted by the coefficients of t^(n - j) mod Q(t),
    which repeated squaring finds in O(log n) products of polynomials
    of degree below deg Q (Fiduccia, SIAM J. Comput. 14, 1985).

    `at` reads a length below the window off it.  Past it, the stream
    of `counts_at` takes n steps of O(E + m) each, E the system's
    nonzero entries, where powering takes O(log n) squarings of
    O(deg Q^2) each; finding the recurrences first steps the stream
    over the window and runs Berlekamp-Massey, O(m^2), on each
    sequence.  Each call compares these operation counts and takes
    the cheaper route, so a system of hundreds of vertices asked for a
    horizon a little past its size stays on the stream and finds no
    recurrence.
    """

    __slots__ = ("system", "edges", "recurrences")

    def __init__(self, cv: CountVectors, finals):
        self.system = cv, finals
        self.edges = sum(map(len, cv.rows))
        self.recurrences = None

    def at(self, n: int, cumulative: bool = False) -> tuple:
        """(sym, union): the counts of the two parts at length n, or with
        `cumulative` their sums over the lengths 0..n."""
        cv, finals = self.system
        stream = _stream_ops(cv.n, self.edges, n)
        found = self.recurrences
        if found is None:
            if stream <= _search_ops(cv.n, self.edges):
                return counts_at(cv, finals, n, cumulative)
            found = self.recurrences = _recurrences(cv, finals)
        window, recurrences = found
        picked = (2, 3) if cumulative else (0, 1)
        if n < len(window[0]):
            return tuple(window[k][n] for k in picked)
        if stream <= sum(_power_ops(recurrences[k], n) for k in picked):
            return counts_at(cv, finals, n, cumulative)
        return tuple(_term(recurrences[k], window[k], n) for k in picked)


def pair_counts(prod: Product, build: bool = True) -> PairCounts | None:
    """The counts of the symmetric difference and union of a pair one of
    whose DFAs refines the other, kept beside the pair's refinement
    outcome (see `automata._refining`) for as long as both DFAs live,
    built on the first call that asks with `build`; None for any other
    pair, or before the first such call.  The operands pickle without
    it.

    The system is `shared_system`'s with no horizon, lumped backward
    first with no count of duplicates each way: that count costs about
    a tenth of the lumping on the tie family's tables, which it would
    send backward anyway, and either order is cheap on a small table."""
    kept = prod.__dict__.get("_kept")
    if kept is None:
        return None
    counts = kept.get("counts")
    if counts is None and build:
        parts = (prod.left ^ prod.right, prod.left | prod.right)
        system = _reduced(_own_system(prod.transitions, parts, (0,)), backward_first=True)
        counts = kept.setdefault("counts", PairCounts(*system))
    return counts


def _stream_ops(m: int, edges: int, n: int) -> int:
    """Operations to step a system's stream to length n, counted in
    products of one entry: each step takes one per nonzero entry and
    vertex, and its `map` calls and new list about 40 more."""
    return (n + 1) * (edges + m + 40)


def _search_ops(m: int, edges: int) -> int:
    """Operations to find a system's recurrences: the stream over a
    window of N = 2(m + 1) lengths, and Berlekamp-Massey on each of the
    four sequences, N steps of up to N products and about 45 more."""
    terms = 2 * (m + 1)
    return _stream_ops(m, edges, terms - 1) + 4 * terms * (terms + 45)


def _power_ops(recurrence, n: int) -> int:
    """Operations to power t to about n modulo a recurrence's Q of degree
    D: per bit of n, one squaring and reduction, 2 D^2 products, and
    about 24 D + 72 more for its 3 D sums and its lists; one power of an
    int when D is 1."""
    degree = len(recurrence[1])
    return n.bit_length() * 2 * (degree + 6) ** 2 if degree > 1 else 1


def _recurrences(cv: CountVectors, finals) -> tuple:
    """(window, recurrences) of `PairCounts.recurrences`: the first
    2(m + 1) terms of the two parts' counts and of their running sums,
    read off the stream, and each sequence's minimal recurrence.  A
    sequence of linear complexity L is determined, and its minimal
    recurrence found, by 2L of its terms; these have L <= m + 1, so the
    window is enough whatever the system."""
    terms = list(zip(*islice(final_counts(cv, finals), 2 * (cv.n + 1))))
    window = (*terms, *(tuple(accumulate(t)) for t in terms))
    return window, tuple(map(_recurrence, window))


def _recurrence(terms) -> tuple:
    """(j, low, columns) of the minimal linear recurrence of an integer
    sequence given by enough terms, whose characteristic polynomial is
    t^j Q(t) with Q(0) != 0 and Q = t^D + low[D - 1] t^(D - 1) + ... +
    low[0]: Berlekamp-Massey over the rationals (Massey, IEEE Trans. Inf.
    Theory 15, 1969).  Each connection polynomial is kept as an integer
    multiple of itself with its content divided out, so the arithmetic is
    exact and on integers, not on `Fraction`s.  The polynomial found
    divides the characteristic polynomial of an integer matrix, both
    monic, so by Gauss's lemma it is integral: the last division by its
    constant term is exact.  `columns` are those of the reductions of
    t^D, ..., t^(2D - 2) modulo Q (`_square`)."""
    c, before, length, gap, last = [1], [1], 0, 1, 1
    for k in range(len(terms)):
        discrepancy = sum(map(mul, c, terms[k::-1]))
        if not discrepancy:
            gap += 1
            continue
        new = [last * x for x in c]
        new += [0] * (len(before) + gap - len(new))
        for i, y in enumerate(before, gap):
            new[i] -= discrepancy * y
        content = gcd(*new)
        if content != 1:
            new = [x // content for x in new]
        if 2 * length <= k:
            length, before, last, gap = k + 1 - length, c, discrepancy, 1
        else:
            gap += 1
        c = new
        while not c[-1]:
            c.pop()
    lead = c[0]
    low = [x // lead for x in reversed(c[1:])]
    return length - len(low), low, _reduction_columns(low)


def _reduction_columns(low) -> list:
    """The columns of the matrix whose row i holds t^(D + i) modulo Q,
    for i < D - 1, Q = t^D + sum(low[i] t^i)."""
    rows, reduced = [], [-q for q in low]
    for _ in range(len(low) - 1):
        rows.append(reduced)
        reduced = _times_t(reduced, low)
    return list(zip(*rows))


def _times_t(r, low) -> list:
    """The polynomial r, of degree below D, times t modulo Q."""
    top = r[-1]
    r = [0, *r[:-1]]
    return [x - top * q for x, q in zip(r, low)] if top else r


def _square(r, columns) -> list:
    """The polynomial r squared modulo Q: the squares of its coefficients
    and twice each product of two, 2D - 1 sums in all, and each sum of
    degree D and above folded in by `columns`."""
    d = len(r)
    product = [0] * (2 * d - 1)
    product[::2] = [x * x for x in r]
    for i, x in enumerate(r[:-1]):
        if x:
            cross = slice(2 * i + 1, i + d)
            product[cross] = map(add, product[cross], map((2 * x).__mul__, r[i + 1 :]))
    high = product[d:]
    return [x + sum(map(mul, high, column)) for x, column in zip(product, columns)]


def _term(recurrence, window, n: int) -> int:
    """The sequence's term n, for n at least the recurrence's j: the
    window's terms from j weighted by the coefficients of t^(n - j)
    modulo Q, found by squaring from the longest leading bits of n - j
    whose power of t needs no reduction."""
    j, low, columns = recurrence
    d, e = len(low), n - j
    if d <= 1:
        return window[j] * (-low[0]) ** e if d else 0
    bits = e.bit_length()
    while bits and e >> (bits - 1) < d:
        bits -= 1
    r = [0] * d
    r[e >> bits] = 1
    for bit in reversed(range(bits)):
        r = _square(r, columns)
        if e >> bit & 1:
            r = _times_t(r, low)
    return sum(map(mul, r, window[j:]))


def _reduced(system, backward_first: bool) -> tuple[CountVectors, tuple]:
    """The counting system and part vectors of `shared_system` from the
    table's own system: one pass in each direction, the first one
    backward or forward, and the vertices off every accepting path
    dropped after it."""
    first, second = (_backward, _forward) if backward_first else (_forward, _backward)
    return _counted(*second(*_trimmed(*first(*system))))


def _counted(rows, columns, initial, finals) -> tuple[CountVectors, tuple]:
    """The counting system of the last final vector, and every final vector."""
    return CountVectors._from_rows(rows, initial, finals[-1], columns), finals


def _own_system(successors, parts, starts) -> tuple:
    """(rows, columns, initial, finals) of the counting system of a table
    whose row `successors[q]` lists q's successors once per edge, as a
    DFA's or product's transition row or a `LabeledGraph`'s integer row
    does: the sparse rows and columns of A, each in index order with
    parallel edges merged, i over the states `starts`, and the final
    vector of each part."""
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
    for part in parts:
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
    transpose is `into`, by its coarsest partition in which the vertices
    of a block have equal `keyed` values and the same weight into each
    block.  A keyed vector takes its blocks' values and a
    summed one its sums over the blocks, so s . A^n . f is unchanged for
    every summed s and keyed f.

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
