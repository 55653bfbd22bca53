"""Regular-expression front end: parser, syntax tree, and a compiler to
the Glushkov position automaton, an NFA without epsilon moves.

Grammar (EBNF):

    expr := alt
    alt  := cat ('|' cat)*
    cat  := rep+
    rep  := atom ('*' | '{' digits '}')*
    atom := literal | '~' | '#' | '(' expr ')'

`~` is the empty string, `#` the empty language.  A literal is any
non-reserved character; reserved characters are written with a leading
backslash.  Precedence is star/repeat over concatenation over
alternation, the usual convention.  Bounded repetition `e{n}` is kept in
the tree.  The compiler visits `e` once and makes the other n - 1 copies
of its positions by shifting them, their follow sets with them.  When `e`
is not nullable, its last positions are linked to the next copy's first
once, before the copies are made, so each copy inherits that link by the
shift; a nullable `e`'s copies are linked as a concatenation.  The
automaton is the one of the n-fold concatenation, so the automaton layer
never sees powers.  Sets of positions are windowed int bitsets (see
`automata.Nfa`).

Groups and postfix operators may nest at most MAX_NESTING deep along any
path of the tree, which keeps the recursive parser, `literal_set` and
the compiler well inside Python's recursion limit.
"""

from ._record import record
from .automata import EMPTY, Nfa, _members, _union, state_cap
from .errors import AlphabetError, RegexSyntaxError, StateLimitError

RESERVED = set("|*(){}~#\\")
MAX_NESTING = 100


@record(frozen=True)
class Empty:
    """The empty language (no strings)."""


@record(frozen=True)
class Epsilon:
    """The language containing exactly the empty string."""


@record(frozen=True)
class Literal:
    symbol: str

    def __init__(self, symbol):
        object.__setattr__(self, "symbol", symbol)


@record(frozen=True)
class Concat:
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", parts)


@record(frozen=True)
class Alt:
    options: tuple

    def __init__(self, options):
        object.__setattr__(self, "options", options)


@record(frozen=True)
class Star:
    child: object

    def __init__(self, child):
        object.__setattr__(self, "child", child)


@record(frozen=True)
class Repeat:
    child: object
    count: int

    def __init__(self, child, count):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "count", count)


RegexAst = Empty | Epsilon | Literal | Concat | Alt | Star | Repeat


class _Parser:
    def __init__(self, text: str, alphabet=None):
        self.text = text
        self.pos = 0
        self.alphabet = set(alphabet) if alphabet is not None else None
        self.groups = 0  # groups open at the current position
        self.deepest = 0  # nesting of the deepest node parsed in this rep

    def deeper(self, level: int) -> int:
        if level > MAX_NESTING:
            self.error(f"groups and repetitions nest deeper than {MAX_NESTING}")
        return level

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def error(self, message):
        raise RegexSyntaxError(message, self.pos)

    def parse(self) -> RegexAst:
        node = self.alt()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def alt(self) -> RegexAst:
        options = [self.cat()]
        while self.peek() == "|":
            self.pos += 1
            options.append(self.cat())
        return options[0] if len(options) == 1 else Alt(tuple(options))

    def cat(self) -> RegexAst:
        parts = [self.rep()]
        while (c := self.peek()) is not None and c not in "|)":
            parts.append(self.rep())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def rep(self) -> RegexAst:
        outer, self.deepest = self.deepest, 0
        node = self.atom()
        level = self.deepest
        while True:
            c = self.peek()
            if c in ("*", "{"):
                level = self.deeper(level + 1)
            if c == "*":
                self.pos += 1
                node = Star(node)
            elif c == "{":
                self.pos += 1
                digits = ""
                while (d := self.peek()) is not None and d.isdigit():
                    digits += d
                    self.pos += 1
                if not digits:
                    self.error("expected a count after '{'")
                if self.peek() != "}":
                    self.error("expected '}' closing the count")
                self.pos += 1
                node = Repeat(node, int(digits))
            else:
                self.deepest = max(outer, level)
                return node

    def atom(self) -> RegexAst:
        c = self.peek()
        if c is None:
            self.error("unexpected end of expression")
        if c == "(":
            self.groups = self.deeper(self.groups + 1)
            self.pos += 1
            node = self.alt()
            if self.peek() != ")":
                self.error("expected ')'")
            self.deepest = self.deeper(self.deepest + 1)
            self.groups -= 1
            self.pos += 1
            return node
        if c == "~":
            self.pos += 1
            return Epsilon()
        if c == "#":
            self.pos += 1
            return Empty()
        if c == "\\":
            if self.pos + 1 >= len(self.text):
                self.error("dangling escape")
            symbol = self.text[self.pos + 1]
            self.pos += 2
            return self._literal(symbol)
        if c in RESERVED:
            self.error(f"unexpected {c!r}")
        self.pos += 1
        return self._literal(c)

    def _literal(self, symbol):
        if self.alphabet is not None and symbol not in self.alphabet:
            raise AlphabetError(
                f"literal {symbol!r} is outside the declared alphabet "
                f"{''.join(sorted(self.alphabet))!r}"
            )
        return Literal(symbol)


def parse_regex(text: str, alphabet=None) -> RegexAst:
    """Parse expression text; literals are checked against `alphabet`
    when one is declared."""
    return _Parser(text, alphabet).parse()


def _children(node: RegexAst) -> tuple:
    if isinstance(node, Concat):
        return node.parts
    if isinstance(node, Alt):
        return node.options
    if isinstance(node, (Star, Repeat)):
        return (node.child,)
    return ()


def literal_set(node: RegexAst) -> set:
    """Symbols appearing as literals; the inferred alphabet of the tree."""
    if isinstance(node, Literal):
        return {node.symbol}
    return set().union(*map(literal_set, _children(node)))


def _shifted(window, shift: int) -> tuple[int, int]:
    lo, mask = window
    return (lo + shift, mask) if mask else EMPTY


class _Glushkov:
    """Position automaton: state 0 is initial, state p > 0 is the p-th
    literal occurrence and is entered by reading that literal.  Sets of
    positions are windows (see `automata._window`).  The states are
    counted against `cap` before each is added, and a repeat's copies
    before they are made."""

    def __init__(self, cap: int):
        self.cap = cap
        self.symbols = [None]  # literal of each position
        self.follow = [EMPTY]  # positions that may come right after each one

    def check(self, states: int):
        """Raise StateLimitError if `states` states would pass the cap."""
        if states > self.cap:
            raise StateLimitError(f"position automaton would exceed {self.cap} states")

    def link(self, last, first):
        if first[1]:
            follow = self.follow
            for p in _members(last):
                follow[p] = _union(follow[p], first)

    def concat(self, parts) -> tuple[bool, tuple, tuple]:
        nullable, first, last = True, EMPTY, EMPTY
        for part_nullable, part_first, part_last in parts:
            self.link(last, part_first)
            first = _union(first, part_first) if nullable else first
            last = _union(last, part_last) if part_nullable else part_last
            nullable = nullable and part_nullable
        return nullable, first, last

    def visit(self, node) -> tuple[bool, tuple, tuple]:
        """(nullable, first, last) of the node; numbers its positions and
        adds the follow pairs inside it."""
        if isinstance(node, (Empty, Epsilon)):
            return isinstance(node, Epsilon), EMPTY, EMPTY
        if isinstance(node, Literal):
            p = len(self.symbols)
            self.check(p + 1)
            self.symbols.append(node.symbol)
            self.follow.append(EMPTY)
            return False, (p, 1), (p, 1)
        if isinstance(node, Concat):
            return self.concat(self.visit(part) for part in node.parts)
        if isinstance(node, Alt):
            nullable, first, last = False, EMPTY, EMPTY
            for option_nullable, option_first, option_last in map(self.visit, node.options):
                nullable = nullable or option_nullable
                first, last = _union(first, option_first), _union(last, option_last)
            return nullable, first, last
        if isinstance(node, Star):
            _nullable, first, last = self.visit(node.child)
            self.link(last, first)
            return True, first, last
        if isinstance(node, Repeat):
            return self.repeat(node.child, node.count)
        raise TypeError(f"not a regex node: {node!r}")

    def repeat(self, child, count: int) -> tuple[bool, tuple, tuple]:
        """The child visited once, then copied count - 1 times: each copy
        is the first one's positions shifted past the copy before it, the
        follow pairs inside the child shifted with them.  A child that is
        not nullable is linked to the next copy once, before the copies
        are made, so each copy inherits its link by the shift, and the
        last copy gets its own follow windows back; the copies of a
        nullable child are linked as a concatenation."""
        if count == 0:
            return True, EMPTY, EMPTY
        start = len(self.symbols)
        nullable, first, last = self.visit(child)
        width = len(self.symbols) - start
        if not width:
            # without positions the child denotes at most the empty word,
            # so one copy stands for any positive count
            return nullable, first, last
        self.check(start + count * width)
        shifts = range(0, count * width, width)
        follow = self.follow
        if not nullable:
            ends = _members(last)
            own = [follow[p] for p in ends]
            self.link(last, _shifted(first, width))
        copied = follow[start:]
        self.symbols += self.symbols[start:] * (count - 1)
        follow += [_shifted(window, shift) for shift in shifts[1:] for window in copied]
        if nullable:
            return self.concat(
                (nullable, _shifted(first, shift), _shifted(last, shift)) for shift in shifts
            )
        final = shifts[-1]
        for p, window in zip(ends, own):
            follow[p + final] = _shifted(window, final)
        return False, first, _shifted(last, final)


def compile_to_nfa(ast: RegexAst, alphabet=None) -> Nfa:
    """Glushkov (McNaughton-Yamada) position automaton, free of epsilon
    moves: one state per literal occurrence plus the initial state 0.

    A bounded repetition's child is compiled once and its positions copied
    by shifting (see `_Glushkov.repeat`).  Raises StateLimitError as soon
    as a literal's position or a repeat's copies would take the state
    count past `state_cap()`, before the copies are made.
    """
    literals = literal_set(ast)
    symbols = set(alphabet) if alphabet is not None else literals
    missing = literals - symbols
    if missing:
        raise AlphabetError(
            f"literals {sorted(missing)!r} are outside the declared alphabet"
        )
    builder = _Glushkov(state_cap())
    nullable, first, last = builder.visit(ast)
    builder.link((0, 1), first)
    accepting = _members(last) + [0] if nullable else _members(last)
    return Nfa(
        alphabet=tuple(sorted(symbols)),
        symbols=tuple(builder.symbols),
        follow=tuple(builder.follow),
        accepting=frozenset(accepting),
    )
