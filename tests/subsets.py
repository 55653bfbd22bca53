"""The position automaton over Python sets and the subset construction
over frozensets: the reference that the windowed int-bitset compiler
and `determinize` are checked against.  Bounded repeats are expanded by
visiting the child once per copy, with no shifting."""

from reglang import Dfa
from reglang.regex import Alt, Concat, Empty, Epsilon, Literal, Repeat, Star


class _Positions:
    """State 0 is initial, state p > 0 the p-th literal occurrence."""

    def __init__(self):
        self.symbols = [None]
        self.follow = [set()]

    def link(self, last, first):
        for p in last:
            self.follow[p] |= first

    def concat(self, parts):
        nullable, first, last = True, set(), set()
        for part_nullable, part_first, part_last in parts:
            self.link(last, part_first)
            first = first | part_first if nullable else first
            last = last | part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last

    def visit(self, node):
        """(nullable, first, last) of the node."""
        if isinstance(node, (Empty, Epsilon)):
            return isinstance(node, Epsilon), set(), set()
        if isinstance(node, Literal):
            p = len(self.symbols)
            self.symbols.append(node.symbol)
            self.follow.append(set())
            return False, {p}, {p}
        if isinstance(node, Concat):
            return self.concat(self.visit(part) for part in node.parts)
        if isinstance(node, Alt):
            nullable, first, last = zip(*(self.visit(o) for o in node.options))
            return any(nullable), set().union(*first), set().union(*last)
        if isinstance(node, Star):
            _nullable, first, last = self.visit(node.child)
            self.link(last, first)
            return True, first, last
        if isinstance(node, Repeat):
            return self.concat(self.visit(node.child) for _ in range(node.count))
        raise TypeError(f"not a regex node: {node!r}")


def reference_positions(ast) -> tuple[list, list, set]:
    """(symbols, follow, final) of the tree's position automaton: the
    literal of each position (None for 0), the set of positions that may
    follow each one, and the set of accepting positions."""
    builder = _Positions()
    nullable, first, last = builder.visit(ast)
    builder.link({0}, first)
    return builder.symbols, builder.follow, last | {0} if nullable else last


def reference_dfa(ast, alphabet) -> Dfa:
    """The complete DFA of the tree over `alphabet`, its states numbered
    breadth first in symbol order from the initial subset {0}."""
    symbols, follow, final = reference_positions(ast)
    steps = {}
    for p, targets in enumerate(follow):
        for t in targets:
            steps.setdefault((p, symbols[t]), set()).add(t)
    symbols = tuple(sorted(set(alphabet)))
    start = frozenset({0})
    ids, order, rows = {start: 0}, [start], []
    for subset in order:
        row = []
        for symbol in symbols:
            target = frozenset().union(*(steps.get((p, symbol), ()) for p in subset))
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    accepting = frozenset(i for i, subset in enumerate(order) if subset & final)
    return Dfa(symbols, tuple(rows), accepting, 0)
