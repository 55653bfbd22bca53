"""Complete deterministic automata and the boolean algebra over them.

DFAs are built from the regex compiler's position automaton (`Nfa`) by
`determinize`.  The positions of a one-unambiguous expression are
numbered directly, since each subset they reach is one position or
empty; any other automaton goes on from its first position followed by
two of one symbol by a subset construction over int bitsets.  Every DFA
here is total: each state has a transition on every symbol of its
alphabet, with a trash state absorbing dead inputs where needed.
Completeness makes complement a flip of the accepting set and keeps the
product constructions closed.  Trimming then discards the states that
cannot lie on an accepting path (the trash state among them) and yields
the labeled graph that the spectral layer reads.

All operations are pure; the returned automata and graphs are immutable
and safe to share across threads.  Each also keeps what has been read off
it, so that every automaton is analysed once.  A `Dfa`, like a pair's
`Product`, keeps the components and condensation DAG of one search over
its transition table, found the first time `language_entropy`,
`scc_decompose`, `trim` or a product it refines asks for them; `trim`
builds its labeled graph from that search, and the DFA keeps the graph
too, and `essential` reads the trim graph's essential part off the same
search's condensation DAG.  A DFA also keeps its distances to
acceptance, found by one breadth-first pass over its reversed table the
first time a separation, a finite-horizon Jaccard distance, `is_empty`
or `shortest_accepted` asks for them, and holds all of these as long as
it lives.  Any other `LabeledGraph` keeps the integer rows of its edges
and the components and condensation DAG of its own search over them,
which its essential graph reads too; `spectral` keeps one
decomposition per search beside its report.  A kept value is built
whole before it is stored, so two threads racing to read it may both
compute it, but neither sees a partial result.

Language equality and separation search the pairs of states reached
together, pruned by those distances: a word telling two states apart is
accepted from one of them, so it is at least as long as the nearer
state's distance, and exactly that long when the two distances differ
(see `_separation`): two DFAs whose initial states lie at different
distances are told apart with no search.  The search and `product` read
two DFAs over different alphabets through one row reader (`_reader`),
with no harmonized copy.

One DFA refines another over its alphabet when the state it reaches on
a word determines the state the other reaches on it.  Their product is
then the finer DFA, numbered breadth first: `product` finds that in one
pass over the finer DFA's rows, whose outcome that DFA keeps, and reads
the table and search it keeps for its life, its own when it is already so numbered, as `determinize`
and `minimize` number it, so the pair's metrics number and search no
pair at all.
"""

import os
import weakref
from functools import cached_property, partial
from itertools import chain, compress, count, islice
from math import inf
from operator import itemgetter

from ._record import record
from .errors import AlphabetError, StateLimitError
from .graphs import _reversed, _strong_components

DEFAULT_MAX_STATES = 1_000_000


def state_cap() -> int:
    """Construction size limit; the REGLANG_MAX_STATES env var overrides."""
    raw = os.environ.get("REGLANG_MAX_STATES")
    if not raw:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise StateLimitError(f"REGLANG_MAX_STATES is not an integer: {raw!r}") from exc
    if cap <= 0:
        raise StateLimitError("REGLANG_MAX_STATES must be positive")
    return cap


EMPTY = (0, 0)  # the window of the empty set


def _window(positions) -> tuple[int, int]:
    """The window of a set of positions: its lowest position lo and the
    mask whose bit i stands for position lo + i, so bit 0 is set; (0, 0)
    for the empty set."""
    if not positions:
        return EMPTY
    lo = min(positions)
    mask = 0
    for p in positions:
        mask |= 1 << (p - lo)
    return lo, mask


def _members(window) -> list:
    """The positions of a window, in increasing order."""
    lo, mask = window
    if mask <= 1:
        return [lo] if mask else []
    return list(compress(count(lo), bin(mask)[:1:-1].encode().translate(_BITS)))


_BITS = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its bit


def _union(a, b) -> tuple[int, int]:
    """The window of the union of two windows."""
    (alo, amask), (blo, bmask) = a, b
    if not amask:
        return b
    if not bmask:
        return a
    if alo <= blo:
        return alo, amask | bmask << (blo - alo)
    return blo, bmask | amask << (alo - blo)


def _meets(a, b) -> bool:
    """Whether two windows share a position."""
    (alo, amask), (blo, bmask) = a, b
    if alo <= blo:
        return bool(amask >> (blo - alo) & bmask)
    return bool(bmask >> (alo - blo) & amask)


@record
class Nfa:
    """Position automaton without epsilon moves, as the regex compiler
    builds it (Glushkov, McNaughton-Yamada): state 0 is initial, and every
    edge into a state p reads the one symbol `symbols[p]`, so the states
    entered from a set S are the union of the follow sets of S's states,
    split by symbol.

    A set of states is held as a window, an int bitset shifted down to
    its lowest member (see `_window`): `follow[p]` is the window of the
    states that may come right after p.  Every state but 0 has a symbol
    of the alphabet, or the constructor raises AlphabetError, and no
    state is followed by 0.  Consumed by `determinize`; treated as
    immutable after construction.
    """

    alphabet: tuple[str, ...]
    symbols: tuple  # the symbol read entering each state; None for state 0
    follow: tuple  # the window of the states that may follow each state
    accepting: frozenset
    initial = 0

    def __init__(self, alphabet, symbols, follow, accepting):
        if not set(symbols[1:]).issubset(alphabet):
            raise AlphabetError(f"a state reads a symbol outside the alphabet {alphabet!r}")
        self.alphabet = alphabet
        self.symbols = symbols
        self.follow = follow
        self.accepting = accepting

    @property
    def n_states(self) -> int:
        return len(self.symbols)

    def accepts(self, word: str) -> bool:
        """Membership test; symbols outside the alphabet reject."""
        index = {s: k for k, s in enumerate(self.alphabet)}
        moves = _subset_moves(self, self.alphabet)
        current = (self.initial, 1)
        for symbol in word:
            if symbol not in index:
                return False
            current = moves(current)[index[symbol]]
        return _meets(current, _window(self.accepting))


@record(frozen=True)
class Dfa:
    """Complete DFA: alphabet, total transition table, accepting set.

    `transitions[state][k]` is the successor on the k-th symbol of the
    (sorted) alphabet.  The alphabet must be non-empty and the table total,
    so membership is a straight walk with no partiality.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset
    initial: int = 0

    def __init__(self, alphabet, transitions, accepting, initial=0):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "initial", initial)
        self.__post_init__()

    def __hash__(self):  # `record`'s generic one reads the fields a quarter slower
        return hash((self.alphabet, self.transitions, self.accepting, self.initial))

    def __reduce__(self):  # the fields alone: what it keeps holds weak references
        return self.__class__, (self.alphabet, self.transitions, self.accepting, self.initial)

    def __post_init__(self):
        if not self.alphabet:
            raise AlphabetError("DFA alphabet must be non-empty")
        if tuple(sorted(set(self.alphabet))) != self.alphabet:
            raise AlphabetError("DFA alphabet must be sorted and duplicate-free")
        n = len(self.transitions)
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        for row in self.transitions:
            if len(row) != len(self.alphabet):
                raise ValueError("transition row width must match alphabet size")
            for t in row:
                if not (0 <= t < n):
                    raise ValueError("transition target out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise ValueError("accepting state out of range")

    @cached_property
    def symbol_index(self) -> dict:
        return {s: k for k, s in enumerate(self.alphabet)}

    @cached_property
    def _components(self) -> tuple:
        """(report, DAG) of one search over the table from the initial
        state, keeping the components that reach an accepting state, kept.
        They are the components of the trim graph (see `trim`)."""
        return _strong_components(self.transitions, (self.initial,), self.accepting)

    @cached_property
    def _numbered(self) -> tuple:
        """(rows, accepting) of the reachable states renumbered as `_explore`
        numbers them, breadth first from the initial state in symbol order,
        kept: the table of every product this DFA refines (see `product`).
        A table already so numbered is `transitions` itself, as the DFAs
        that `determinize`, `minimize` and `combine` build keep it from the
        start (see `_numbered_dfa`)."""
        rows = self.transitions
        order, renumbered = _explore([self.initial], [], rows.__getitem__, "product construction")
        if order == list(range(len(rows))):
            return rows, self.accepting
        return renumbered, frozenset(i for i, q in enumerate(order) if q in self.accepting)

    @cached_property
    def _table_search(self) -> tuple:
        """(report, DAG) of one search over `_numbered`'s table from state 0
        keeping every component, kept: that of every product this DFA
        refines.  When the table is `transitions` and the DFA's own search
        (`_components`) kept every state, it is that search, so the table
        is searched once for the DFA's life and the spectra read off it are
        shared; a table with a state on no accepting path, such as a trash
        state, is searched once more, keeping it."""
        rows = self._numbered[0]
        if rows is self.transitions:
            own = self._components
            if sum(map(len, own[0].components)) == len(rows):
                return own
        return _strong_components(rows, (0,))

    @cached_property
    def _trim(self) -> "LabeledGraph":
        """The trim graph, built from the kept search (see `trim`), kept."""
        vertices = tuple(sorted(chain.from_iterable(self._components[0].components)))
        kept = [False] * len(self.transitions)
        for q in vertices:
            kept[q] = True
        edges = [
            (q, symbol, t)
            for q in vertices
            for symbol, t in zip(self.alphabet, self.transitions[q])
            if kept[t]
        ]
        graph = LabeledGraph(vertices, tuple(edges), "trim")
        graph.__dict__["_components"] = self._components  # the cached property's value
        return graph

    @cached_property
    def _to_accept(self) -> list:
        """Each state's least number of steps to an accepting state, -1
        where none leads: one breadth-first pass over the reversed table,
        its queue a list that grows as it is read, kept.

        The reversed table holds each predecessor as a plain int.  The
        (vertex, weight) pairs `counting._distances` walks would cost one
        tuple per state here, and with the collector's work on them that
        is about a third of the pass on the ladder's chain and periodic
        DFAs."""
        into = [[] for _ in self.transitions]
        for q, row in enumerate(self.transitions):
            for t in row:
                into[t].append(q)
        distance = [-1] * len(into)
        queue = list(self.accepting)
        for q in queue:
            distance[q] = 0
        for t in queue:
            step = distance[t] + 1
            for q in into[t]:
                if distance[q] < 0:
                    distance[q] = step
                    queue.append(q)
        return distance

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts(self, word: str) -> bool:
        """Membership test.  Symbols outside the alphabet reject (a string
        using foreign symbols is simply not in the language)."""
        idx = self.symbol_index
        state = self.initial
        for symbol in word:
            k = idx.get(symbol)
            if k is None:
                return False
            state = self.transitions[state][k]
        return state in self.accepting

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "alphabet": list(self.alphabet),
                "states": self.n_states,
                "initial": self.initial,
                "accepting": sorted(self.accepting),
                "delta": [list(row) for row in self.transitions],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        """The DFA that `to_json` wrote.  Raises ValueError on any other
        document: unless it is an object whose `alphabet` is a list of
        one-character strings, `delta` a list of lists and `accepting` a
        list, whose `states` is the int number of rows of `delta`, and
        whose every state number is an int (a bool is not one), and
        unless these make a `Dfa`."""
        import json

        obj = json.loads(text)
        if type(obj) is not dict or not _JSON_FIELDS <= obj.keys():
            raise ValueError(f"a DFA document is an object with the keys {sorted(_JSON_FIELDS)}")
        alphabet, delta, accepting = obj["alphabet"], obj["delta"], obj["accepting"]
        if type(alphabet) is not list or not all(type(a) is str and len(a) == 1 for a in alphabet):
            raise ValueError("'alphabet' must be a list of one-character strings")
        if type(delta) is not list or not all(type(row) is list for row in delta):
            raise ValueError("'delta' must be a list of rows, each a list")
        if type(accepting) is not list:
            raise ValueError("'accepting' must be a list")
        transitions = tuple(map(tuple, delta))
        states = obj["states"]
        if type(states) is not int or states != len(transitions):
            raise ValueError("'states' must be the number of rows of 'delta'")
        numbers = chain((obj["initial"],), accepting, *transitions)
        if not all(type(q) is int for q in numbers):
            raise ValueError("every state number must be an int")
        try:
            return cls(tuple(alphabet), transitions, frozenset(accepting), obj["initial"])
        except AlphabetError as exc:
            raise ValueError(str(exc)) from exc


_JSON_FIELDS = frozenset({"alphabet", "states", "initial", "accepting", "delta"})


def _numbered_dfa(alphabet, rows, accepting: frozenset) -> Dfa:
    """The DFA of a table numbered breadth first from state 0 in symbol
    order, as `_explore` numbers it, keeping that table as its `_numbered`
    one without renumbering it."""
    dfa = Dfa(alphabet, rows, accepting, 0)
    dfa.__dict__["_numbered"] = rows, accepting  # the cached property's value
    return dfa


@record(frozen=True)
class LabeledGraph:
    """Symbol-labeled directed multigraph over surviving DFA states.

    Vertices keep their original state ids.  `role` records whether the
    graph is merely trimmed or also essential (every vertex has at least
    one incoming and one outgoing edge).  The graph's `component_report`
    and `condensation` are found once and kept.
    """

    vertices: tuple[int, ...]
    edges: tuple  # of (src, symbol, dst)
    role: str  # "trim" | "essential"

    def __init__(self, vertices, edges, role):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "role", role)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def successors(self) -> dict:
        """vertex -> sorted tuple of distinct successor vertices."""
        out = {v: set() for v in self.vertices}
        for src, _symbol, dst in self.edges:
            out[src].add(dst)
        return {v: tuple(sorted(ts)) for v, ts in out.items()}

    @cached_property
    def _rows(self) -> list:
        """Each vertex's successors by index, once per edge, in vertex
        order: the integer rows that `_components` searches and
        `counting.block_count` counts over, kept."""
        index = self.vertex_index
        rows = [[] for _ in self.vertices]
        for src, _symbol, dst in self.edges:
            rows[index[src]].append(index[dst])
        return rows

    @cached_property
    def _components(self) -> tuple:
        """(report, DAG) of `graphs._strong_components`.  `trim` sets it
        to the DFA's own; any other graph runs that search over its own
        rows here, once."""
        rows = self._rows
        return _strong_components(rows, range(len(rows)), names=self.vertices)

    @property
    def component_report(self):
        """The graph's `graphs.ComponentReport`."""
        return self._components[0]

    @property
    def condensation(self) -> tuple:
        """The condensation DAG: for each component of `component_report`,
        the sorted numbers of the components its outgoing edges enter."""
        return self._components[1]


def determinize(nfa: Nfa) -> Dfa:
    """The subsets of the NFA's states reachable from {0}, numbered
    breadth first in symbol order.  Always yields a complete DFA; the
    empty subset plays the trash state when it is reachable.

    While every reached state's follow window holds at most one state per
    symbol, as in the position automaton of a one-unambiguous expression
    (Brüggemann-Klein and Wood, 1998), every reached subset is one state
    or empty, and the states are numbered directly (see `_one_state`).  At
    the first follow window that holds two states of one symbol, the
    subset construction takes over that numbering where it stands: a
    subset's successors are one union of its states' follow windows, split
    by symbol with one AND per symbol mask (see `_subset_moves`), and each
    subset is keyed by its window, which is unique.  It starts at once,
    with no numbering set up, when that window is the initial state's."""
    alphabet = tuple(sorted(set(nfa.alphabet)))
    if not alphabet:
        raise AlphabetError("cannot determinize over an empty alphabet")
    order, rows = [0], []
    first = [nfa.symbols[p] for p in _members(nfa.follow[0])]
    if len(set(first)) == len(first):  # at most one state per symbol
        ids, order, rows = _one_state(nfa, alphabet)
        if len(rows) == len(order):
            # sorted: the set is built, and so printed, as the subset construction builds it
            accepting = frozenset(sorted(ids[p] for p in nfa.accepting if ids[p] >= 0))
            return _numbered_dfa(alphabet, tuple(rows), accepting)
    subsets = [(p, 1) if p < len(nfa.follow) else EMPTY for p in order]
    subsets, rows = _explore(subsets, rows, _subset_moves(nfa, alphabet), "subset construction")
    final = _window(nfa.accepting)
    accepting = frozenset(i for i, subset in enumerate(subsets) if _meets(subset, final))
    return _numbered_dfa(alphabet, tuple(rows), accepting)


def _one_state(nfa: Nfa, alphabet: tuple[str, ...]) -> tuple[list, list, list]:
    """The subset construction's numbering while each subset it reaches
    holds at most one state: (ids, order, rows), where `ids[p]` is the
    number of state p or -1, the position past the last state stands for
    the empty subset, `order` lists the states in number order and `rows`
    the transition rows of the first of them.  Each row is read off the
    state's follow window, one set bit at a time, and the numbering stops
    before the first state whose window holds two states of one symbol,
    so that `rows` is shorter than `order`.  Raises StateLimitError where
    the subset construction would."""
    symbols, follow = nfa.symbols, nfa.follow
    index = {symbol: k for k, symbol in enumerate(alphabet)}
    empty = len(follow)
    ids = [0] + [-1] * empty
    order, rows, nowhere, cap = [0], [], [empty] * len(alphabet), state_cap()
    for p in order:  # a queue: numbered states are appended
        targets = nowhere.copy()
        if p != empty:
            lo, mask = follow[p]
            if mask == 1:  # one state, as along a chain: no bits to walk
                targets[index[symbols[lo]]] = lo
            else:
                while mask:
                    bit = mask & -mask
                    q = lo + bit.bit_length() - 1
                    k = index[symbols[q]]
                    if targets[k] != empty:
                        return ids, order, rows
                    targets[k] = q
                    mask ^= bit
        row = []
        for q in targets:
            k = ids[q]
            if k < 0:
                k = ids[q] = len(order)
                order.append(q)
            row.append(k)
        if len(order) > cap:
            raise StateLimitError(f"subset construction exceeded {cap} states")
        rows.append(tuple(row))
    return ids, order, rows


def _subset_moves(nfa: Nfa, alphabet: tuple[str, ...]):
    """`moves(subset)`: the windows of the subsets entered from the window
    `subset` on each symbol of `alphabet`, in its order.  The follow
    windows of the subset's states are ORed into one union, shifted to
    the lowest of them; the part on each symbol but the last is the union
    ANDed with that symbol's mask of states, and the last symbol's part is
    what the others leave.  A single state's union is its follow window.
    A symbol's mask is kept as little-endian bytes, so the AND reads only
    the bytes under the union's window, however long the automaton."""
    follow = nfa.follow
    beyond = len(follow)  # the low end of an empty follow window, past every state
    los = [lo if mask else beyond for lo, mask in follow]
    follow_masks = [mask for _lo, mask in follow]
    masks = [
        int("".join("1" if s == symbol else "0" for s in reversed(nfa.symbols)), 2)
        .to_bytes(beyond // 8 + 1, "little")
        for symbol in alphabet[:-1]
    ]
    empty_row = [EMPTY] * len(alphabet)

    def moves(subset):
        lo, mask = subset
        if mask == 1:
            base, union = follow[lo]
        else:
            members = _members(subset)
            base = min(map(los.__getitem__, members), default=beyond)
            union = 0
            for p in members:
                union |= follow_masks[p] << (los[p] - base)
        if not union:
            return empty_row
        row = []
        start, end, shift = base >> 3, (base + union.bit_length() + 7) >> 3, base & 7
        for symbol_mask in masks:
            part = int.from_bytes(symbol_mask[start:end], "little") >> shift & union
            union ^= part
            row.append(_normal(base, part))
        row.append(_normal(base, union))
        return row

    return moves


def _normal(base: int, mask: int) -> tuple[int, int]:
    """The window of the positions base + i for the bits i of `mask`."""
    if not mask:
        return EMPTY
    shift = (mask & -mask).bit_length() - 1
    return base + shift, mask >> shift


def _explore(order: list, rows: list, moves, what: str) -> tuple[list, tuple]:
    """Number the states reachable from `order[0]` breadth first, where
    `moves(state)` lists a state's successors in symbol order, going on
    from the states numbered in `order` and the rows of the first of them
    in `rows`: `[start]` and `[]` number from the start.  Returns the
    states in number order and the transition rows over the numbers;
    raises StateLimitError when a state past `state_cap()` appears.  Each
    edge costs one dict lookup: a target not yet numbered takes the next
    number."""
    cap = state_cap()
    ids = dict(zip(order, count()))
    number = ids.setdefault
    states = iter(order)  # a queue: numbered states are appended
    next(islice(states, len(rows), len(rows)), None)  # past the states with rows
    for state in states:
        row = []
        for target in moves(state):
            n = len(order)
            k = number(target, n)
            if k == n:
                order.append(target)
            row.append(k)
        if len(order) > cap:
            raise StateLimitError(f"{what} exceeded {cap} states")
        rows.append(tuple(row))
    return order, tuple(rows)


def _reach(seeds, neighbours) -> set:
    """The vertices reachable from `seeds`; `neighbours[v]` lists v's successors."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        for w in neighbours[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _canonical(dfa: Dfa) -> Dfa:
    """Renumber states in BFS order from the initial state (symbol order),
    making equal-language minimal DFAs structurally identical."""
    order, rows = _explore([dfa.initial], [], dfa.transitions.__getitem__, "minimization")
    accepting = frozenset(i for i, q in enumerate(order) if q in dfa.accepting)
    return _numbered_dfa(dfa.alphabet, rows, accepting)


def coarsest_partition(keys, into) -> list:
    """The block number of each vertex 0, 1, ... in the coarsest partition
    that refines `keys` (vertices in one block have equal keys) and in
    which all vertices of a block send the same total weight into each
    block; blocks are numbered in the order of their smallest vertex.
    `into[v]` lists the (u, weight) pairs of the edges u -> v, a vertex u
    with several edges into v once per edge; weights are positive.

    Splits by Valmari and Franceschinis' rule ("Simple O(m log n) time
    Markov chain lumping", TACAS 2010): a splitter block's predecessors
    are grouped by their weight into it, only those touched vertices
    leave their blocks, and of the parts of a split block every one but
    the largest becomes a splitter (all of them if the block still waits
    to be one).  A vertex is thus in a splitter at most log2 V times
    after the initial blocks: O(E log V) with hashed weights.
    """
    numbers = {}
    block_of = [numbers.setdefault(key, len(numbers)) for key in keys]
    members = [set() for _ in numbers]
    for v, b in enumerate(block_of):
        members[b].add(v)
    queue = list(range(len(members)))
    waiting = set(queue)
    while queue:
        splitter = queue.pop()
        waiting.discard(splitter)
        weight = {}
        for v in members[splitter]:
            for u, w in into[v]:
                weight[u] = weight.get(u, 0) + w
        touched = {}  # block of more than one vertex -> weight -> its touched vertices
        for u, w in weight.items():
            b = block_of[u]
            if len(members[b]) > 1:
                touched.setdefault(b, {}).setdefault(w, []).append(u)
        for b, groups in touched.items():
            block = members[b]
            parts = list(groups.values())
            if sum(map(len, parts)) == len(block):  # no untouched remainder
                if len(parts) == 1:
                    continue
                parts.remove(max(parts, key=len))  # it stays block b
            new = []
            for part in parts:
                block.difference_update(part)
                c = len(members)
                members.append(set(part))
                for u in part:
                    block_of[u] = c
                new.append(c)
            if b not in waiting:
                sizes = list(map(len, parts))
                k = sizes.index(max(sizes))
                if sizes[k] > len(block):  # queue block b instead of the largest part
                    new[k] = b
            waiting.update(new)
            queue.extend(new)
    number = {}
    return [number.setdefault(b, len(number)) for b in block_of]


def minimize(dfa: Dfa) -> Dfa:
    """The unique minimal complete DFA in canonical state order.

    Two reachable states are equivalent when `coarsest_partition` puts
    them in one block, where the key is acceptance and the edge on the
    k-th symbol weighs 2^k: a state's weight into a block is then the set
    of symbols that lead into it.  O(|alphabet| V log V) for V reachable
    states.
    """
    reach = sorted(_reach({dfa.initial}, dfa.transitions))
    index = {q: i for i, q in enumerate(reach)}
    into = [[] for _ in reach]
    for i, q in enumerate(reach):
        for k, t in enumerate(dfa.transitions[q]):
            into[index[t]].append((i, 1 << k))
    block_of = coarsest_partition([q in dfa.accepting for q in reach], into)
    rows = {}
    for i, q in enumerate(reach):
        rows.setdefault(block_of[i], tuple(block_of[index[t]] for t in dfa.transitions[q]))
    accepting = frozenset(block_of[i] for i, q in enumerate(reach) if q in dfa.accepting)
    rows = tuple(rows.values())
    return _canonical(Dfa(dfa.alphabet, rows, accepting, block_of[index[dfa.initial]]))


def harmonize(d1: Dfa, d2: Dfa) -> tuple[Dfa, Dfa]:
    """Re-express both automata over the union alphabet.

    Languages are unchanged as string sets; automata gain a trash state
    for the symbols they did not previously know.  Inputs already sharing
    an alphabet are returned as-is.
    """
    union = _alphabet_of(d1, d2)
    return _with_alphabet(d1, union), _with_alphabet(d2, union)


def harmonize_all(dfas) -> list[Dfa]:
    """Re-express a family of automata over their union alphabet."""
    union = tuple(sorted(set().union(*(set(d.alphabet) for d in dfas))))
    return [_with_alphabet(d, union) for d in dfas]


def _alphabet_of(d1: Dfa, d2: Dfa) -> tuple[str, ...]:
    """The union of two DFAs' alphabets, sorted."""
    if d1.alphabet == d2.alphabet:
        return d1.alphabet
    return tuple(sorted(set(d1.alphabet) | set(d2.alphabet)))


def _with_alphabet(dfa: Dfa, alphabet: tuple[str, ...]) -> Dfa:
    if alphabet == dfa.alphabet:
        return dfa
    if not set(dfa.alphabet) <= set(alphabet):
        raise AlphabetError("target alphabet must contain the DFA's alphabet")
    rows = tuple(map(_reader(dfa, alphabet), range(dfa.n_states + 1)))
    return Dfa(alphabet, rows, dfa.accepting, dfa.initial)


def _reader(dfa: Dfa, symbols: tuple[str, ...]):
    """The DFA's rows over `symbols`, a sorted alphabet containing its
    own: `read(p)` is state p's successors in the order of `symbols`.  A
    symbol the DFA lacks leads to state n_states, a dead state whose own
    row is all dead, as in the copy `harmonize` makes; over the DFA's own
    alphabet the reader is its table's."""
    if symbols == dfa.alphabet:
        return dfa.transitions.__getitem__
    # at least two symbols here, so the getter returns a tuple
    pick = itemgetter(*(dfa.symbol_index.get(a, -1) for a in symbols))
    rows, n = dfa.transitions, dfa.n_states
    dead, all_dead = (n,), (n,) * len(symbols)
    return lambda p: pick(rows[p] + dead) if p < n else all_dead


@record(frozen=True)
class Product:
    """Reachable part of the product of two DFAs over their union alphabet.

    Product state 0 is the pair of initial states.  A boolean combination
    of the two languages is the set of product states that combines
    `left` and `right` by the same set operation: `left ^ right` for the
    symmetric difference, `right - left` for the second language minus
    the first.  All combinations share one transition table, and the
    components of its one search from state 0.  When one DFA refines the
    other (see `product`), the table and the search are those the finer
    DFA keeps, shared by every product of that pair for its life.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    left: frozenset  # product states whose first component accepts
    right: frozenset  # product states whose second component accepts

    def __init__(self, alphabet, transitions, left, right):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def dfa(self, accepting) -> Dfa:
        """The product DFA with the given set of accepting product states."""
        return _numbered_dfa(self.alphabet, self.transitions, frozenset(accepting))

    @cached_property
    def _components(self) -> tuple:
        """(report, DAG) of one search from state 0, kept.  All states are
        reachable, so a combination's trim graph is the part reaching its
        accepting states.  The product of a pair one of whose DFAs refines
        the other reads the search that DFA keeps (see `product`)."""
        finer = self.__dict__.get("_finer")
        if finer is not None:
            return finer._table_search
        return _strong_components(self.transitions, (0,))

    def _within(self, steps: int) -> bool:
        """Whether every state is at most `steps` steps from state 0, read
        off the breadth-first numbering (see `_explore`) without a search:
        the states one step farther than those of [start, end) follow
        them, up to the largest state they lead to, one `max` over their
        rows.  Each step reaches at least one new state, so the reading
        stops once no more states are left than steps."""
        rows = self.transitions
        start, end = 0, 1
        while len(rows) - end > steps:
            if steps <= 0:
                return False
            start, end = end, max(chain.from_iterable(rows[start:end])) + 1
            steps -= 1
        return True


def product(d1: Dfa, d2: Dfa) -> Product:
    """The reachable product of two DFAs read over their union alphabet,
    numbered as that of their harmonized copies (see `_reader`) and built
    once for any number of boolean combinations.

    Over one alphabet, one DFA refines the other when the state it reaches
    on a word determines the state the other reaches on it, as
    `(a|b)*a(a|b){k}` refines `(a|b)*a(a|b){k-1}`, any DFA refines Sigma*
    and `complement(d)` refines d.  The product is then the finer DFA
    itself (see `_refining`): no pair is numbered, and its table, its
    search and the outcome of the check are those the finer DFA keeps for
    its life.  Raises
    StateLimitError when the product has more than `state_cap()` states."""
    refined = _refining(d1, d2)
    return _pair_product(d1, d2) if refined is None else refined


def _pair_product(d1: Dfa, d2: Dfa) -> Product:
    """The product numbered over the pairs of states reached together, as
    `_explore` numbers them."""
    symbols = _alphabet_of(d1, d2)
    read1, read2 = _reader(d1, symbols), _reader(d2, symbols)
    order, rows = _explore(
        [(d1.initial, d2.initial)],
        [],
        lambda pair: zip(read1(pair[0]), read2(pair[1])),
        "product construction",
    )
    left = frozenset(i for i, (p, _q) in enumerate(order) if p in d1.accepting)
    right = frozenset(i for i, (_p, q) in enumerate(order) if q in d2.accepting)
    return Product(symbols, rows, left, right)


def _refining(d1: Dfa, d2: Dfa) -> Product | None:
    """The product of two DFAs when they share an alphabet and one refines
    the other, else None.

    Only the DFA with more reachable states can be the finer one; with
    equally many, either refines the other if one does.  Its reachable
    states are walked in the numbering that `Dfa._numbered` keeps, each
    assigned the other DFA's state reached with it, and the walk stops at
    the first edge that contradicts an assignment (see `_image`).  When
    none does, the pairs reached together are (p, image[p]), numbered as
    the finer DFA numbers p: the product's table is the finer DFA's, and
    its search the one `Dfa._table_search` keeps.

    The finer DFA keeps the outcome against the other for its life, keyed
    by the other's identity (no hash of its table), and a weak reference
    to the other drops the entry when the other is collected, before its
    identity can be reused: the coarser side's accepting states in the
    finer numbering, or None when the walk failed, so a pair is walked
    once.  The state cap is read on every call."""
    if d1.alphabet != d2.alphabet:
        return None
    fine, coarse = (d2, d1) if len(d2._numbered[0]) > len(d1._numbered[0]) else (d1, d2)
    rows, accepting = fine._numbered
    outcomes = fine.__dict__.setdefault("_refines", {})
    kept = outcomes.get(id(coarse))
    if kept is None:
        image = _image(rows, coarse.transitions, coarse.initial)
        other = None if image is None else frozenset(
            compress(count(), map(coarse.accepting.__contains__, image))
        )
        forget = partial(outcomes.pop, id(coarse))  # called with the dead reference
        kept = outcomes[id(coarse)] = weakref.ref(coarse, forget), other
    other = kept[1]
    if other is None:
        return None
    cap = state_cap()
    if len(rows) > cap:
        raise StateLimitError(f"product construction exceeded {cap} states")
    left, right = (accepting, other) if fine is d1 else (other, accepting)
    prod = Product(fine.alphabet, rows, left, right)
    prod.__dict__["_finer"] = fine  # read by `Product._components`, `counting.product_system`
    return prod


def _image(rows, other, start) -> list | None:
    """For a table `rows` numbered breadth first from state 0, the state of
    the table `other` reached from `start` on the words that reach each
    state, or None at the first edge where two words reaching one state
    reach two states of `other`.  Each state's image is assigned before
    its row is read, since an earlier row enters it."""
    image = [-1] * len(rows)
    image[0] = start
    for row, q in zip(rows, image):  # reads each image as assigned by then
        for t, u in zip(row, other[q]):
            seen = image[t]
            if seen != u:
                if seen >= 0:
                    return None
                image[t] = u
    return image


def _lengths_mod(prod: Product, q: int) -> tuple[Product, list]:
    """The product with word lengths counted modulo q, numbered as `product`
    numbers the product of both operands each intersected with a q-state
    length counter, and for each k < q its states at lengths k mod q.
    With q = 1 it is `prod` itself."""
    if q == 1:
        return prod, [frozenset(range(len(prod.transitions)))]
    order, rows = _explore(
        [(0, 0)],
        [],
        lambda state: ((t, (state[1] + 1) % q) for t in prod.transitions[state[0]]),
        "product construction",
    )
    left = frozenset(i for i, (s, _k) in enumerate(order) if s in prod.left)
    right = frozenset(i for i, (s, _k) in enumerate(order) if s in prod.right)
    at = [frozenset(i for i, (_s, j) in enumerate(order) if j == k) for k in range(q)]
    return Product(prod.alphabet, rows, left, right), at


_COMBINE = {
    "intersect": frozenset.__and__,
    "union": frozenset.__or__,
    "symdiff": frozenset.__xor__,
    "minus": frozenset.__sub__,
}


def combine(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Product automaton for a boolean set combination of two languages,
    over the union of their alphabets.

    Only the reachable part of the product is built.  Callers needing
    several combinations of one pair build the `product` once instead.
    """
    if op not in _COMBINE:
        raise ValueError(f"unknown combination {op!r}")
    prod = product(d1, d2)
    return prod.dfa(_COMBINE[op](prod.left, prod.right))


def complement(dfa: Dfa) -> Dfa:
    """Flip the accepting set.  Sound because every DFA here is complete."""
    full = frozenset(range(dfa.n_states))
    return Dfa(dfa.alphabet, dfa.transitions, full - dfa.accepting, dfa.initial)


def trim(dfa: Dfa) -> LabeledGraph:
    """Restrict to states lying on some accepting path.

    The DFA's one search from its initial state
    (`graphs._strong_components`) visits the reachable states and keeps
    each strongly connected component that reaches an accepting state.
    The graph's vertices are the states of those components, its edges
    the table's transitions between them, and it shares the components,
    periods, internal edges and condensation DAG the DFA keeps from that
    search, which runs only if nothing has read them yet, and the
    spectra computed from it.  The DFA keeps its trim graph too, so
    `trim(dfa) is trim(dfa)`.
    The result can be empty (empty language); that is a flagged graph,
    not an error, because the distance definitions assign 0 to empty
    denominators downstream.
    """
    return dfa._trim


def essential(graph: LabeledGraph) -> LabeledGraph:
    """The graph restricted to its vertices on a path from a cycle to a
    cycle: those left when every vertex lacking an incoming or an outgoing
    edge is dropped, again and again.

    Read off the graph's one search (`_components`, which a trim graph
    shares with its DFA): a vertex is kept when its component is reached
    from a cyclic component along the condensation DAG and reaches one,
    and the edges among the kept vertices stay in the graph's order.
    Once the search is kept that is one pass over the DAG each way and
    one over the edges, O(C + E) for C components and E edges.
    Idempotent; finite languages end up with the empty graph.
    """
    report, dag = graph._components
    cyclic = [c for c, trivial in enumerate(report.trivial) if not trivial]
    live = _reach(cyclic, dag) & _reach(cyclic, _reversed(dag))
    kept = frozenset().union(*map(report.components.__getitem__, live))
    edges = tuple(e for e in graph.edges if e[0] in kept and e[2] in kept)
    return LabeledGraph(tuple(sorted(kept)), edges, "essential")


def is_empty(dfa: Dfa) -> bool:
    """Whether the DFA accepts no word: its initial state leads to no
    accepting state (see `shortest_accepted`)."""
    return dfa._to_accept[dfa.initial] < 0


def shortest_accepted(dfa: Dfa) -> int | None:
    """Length of a shortest accepted word, or None for the empty language:
    the initial state's distance to acceptance, which the DFA keeps."""
    distance = dfa._to_accept[dfa.initial]
    return None if distance < 0 else distance


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality as string sets: no word tells them apart."""
    return _separation(d1, d2) is None


def _separation(d1: Dfa, d2: Dfa) -> int | None:
    """Length of a shortest word accepted by exactly one of two DFAs, or
    None when their languages are equal.

    A breadth-first search over the pairs of states reached together,
    built as it goes and pruned by each DFA's kept distances to
    acceptance.  A word telling states p and q apart is accepted from one
    of them, so it is at least min(dp, dq) long, dp and dq being their
    distances; if dp != dq the nearer state's shortest word is one, and
    the pair, reached after `length` symbols, gives exactly length +
    min(dp, dq) (a distance of -1, no accepting state, counting as
    infinite) without being expanded.  A pair with dp = dq = -1 accepts
    nothing from either state and is dropped, as is one whose bound
    length + dp is no less than the best witness so far; the search stops
    at the first length that cannot beat it.  Only the length-0 check
    precedes the distances, which the DFAs then keep, and the initial
    pair's distances come next, before anything of the search is set
    up: if they differ they give the witness, and if both are -1 the
    languages are empty and equal.  Only then are the DFAs read over the
    union of their alphabets (see `_over`) and `state_cap()` read; a
    pair holding a dead state is never expanded.  Raises StateLimitError
    when the search keeps more than `state_cap()` pairs.
    """
    if (d1.initial in d1.accepting) != (d2.initial in d2.accepting):
        return 0
    ds, dt = d1._to_accept[d1.initial], d2._to_accept[d2.initial]
    if ds != dt:
        return dt if ds < 0 else ds if dt < 0 else min(ds, dt)
    if ds < 0:
        return None
    symbols = _alphabet_of(d1, d2)
    (row1, near1), (row2, near2) = _over(d1, symbols), _over(d2, symbols)
    cap, width = state_cap(), len(near2)
    best = inf
    seen = set()
    reached = [(d1.initial, d2.initial)]
    length = 0
    while reached:
        frontier = []
        for s, t in reached:
            key = s * width + t
            if key in seen:
                continue
            ds, dt = near1[s], near2[t]
            if ds != dt:
                best = min(best, length + (dt if ds < 0 else ds if dt < 0 else min(ds, dt)))
            elif ds >= 0 and length + ds < best:
                if len(seen) >= cap:
                    raise StateLimitError(f"product construction exceeded {cap} states")
                seen.add(key)
                frontier.append((s, t))
        length += 1
        if length >= best:
            break
        reached = [pair for p, q in frontier for pair in zip(row1(p), row2(q))]
    return None if best == inf else best


def _over(dfa: Dfa, symbols: tuple[str, ...]) -> tuple:
    """(rows, distances) of the DFA read over `symbols`: its `_reader`,
    and its kept distances to acceptance, the dead state, when the reader
    has one, at distance -1."""
    if symbols == dfa.alphabet:
        return dfa.transitions.__getitem__, dfa._to_accept
    return _reader(dfa, symbols), [*dfa._to_accept, -1]
