"""Regular-expression front end: parser, syntax tree, NFA compiler.

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
the tree and expanded into n-fold concatenation when compiling, so the
automaton layer never sees powers.

Groups and postfix operators may nest at most MAX_NESTING deep along any
path of the tree, which keeps the recursive parser, `literal_set` and
the NFA compiler well inside Python's recursion limit.
"""

from dataclasses import dataclass

from .automata import Nfa
from .errors import AlphabetError, RegexSyntaxError

RESERVED = set("|*(){}~#\\")
MAX_NESTING = 100


@dataclass(frozen=True)
class Empty:
    """The empty language (no strings)."""


@dataclass(frozen=True)
class Epsilon:
    """The language containing exactly the empty string."""


@dataclass(frozen=True)
class Literal:
    symbol: str


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    options: tuple


@dataclass(frozen=True)
class Star:
    child: object


@dataclass(frozen=True)
class Repeat:
    child: object
    count: int


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
        while self.peek() is not None and self.peek() not in "|)":
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
                while self.peek() is not None and self.peek().isdigit():
                    digits += self.text[self.pos]
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


def literal_set(node: RegexAst) -> set:
    """Symbols appearing as literals; the inferred alphabet of the tree."""
    if isinstance(node, Literal):
        return {node.symbol}
    if isinstance(node, Concat):
        return set().union(*(literal_set(p) for p in node.parts))
    if isinstance(node, Alt):
        return set().union(*(literal_set(o) for o in node.options))
    if isinstance(node, (Star, Repeat)):
        return literal_set(node.child)
    return set()


class _NfaBuilder:
    def __init__(self):
        self.n = 0
        self.transitions = {}
        self.epsilon = {}

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, src, symbol, dst):
        key = (src, symbol)
        self.transitions[key] = self.transitions.get(key, frozenset()) | {dst}

    def eps(self, src, dst):
        self.epsilon[src] = self.epsilon.get(src, frozenset()) | {dst}

    def fragment(self, node) -> tuple[int, int]:
        start, end = self.state(), self.state()
        if isinstance(node, Empty):
            pass  # no path from start to end
        elif isinstance(node, Epsilon):
            self.eps(start, end)
        elif isinstance(node, Literal):
            self.edge(start, node.symbol, end)
        elif isinstance(node, Concat):
            prev = start
            for part in node.parts:
                s, e = self.fragment(part)
                self.eps(prev, s)
                prev = e
            self.eps(prev, end)
        elif isinstance(node, Alt):
            for option in node.options:
                s, e = self.fragment(option)
                self.eps(start, s)
                self.eps(e, end)
        elif isinstance(node, Star):
            s, e = self.fragment(node.child)
            self.eps(start, end)
            self.eps(start, s)
            self.eps(e, s)
            self.eps(e, end)
        elif isinstance(node, Repeat):
            if node.count == 0:
                self.eps(start, end)
            else:
                prev = start
                for _ in range(node.count):
                    s, e = self.fragment(node.child)
                    self.eps(prev, s)
                    prev = e
                self.eps(prev, end)
        else:
            raise TypeError(f"not a regex node: {node!r}")
        return start, end


def compile_to_nfa(ast: RegexAst, alphabet=None) -> Nfa:
    """Thompson-style construction with epsilon moves.

    The NFA accepts exactly the tree's language; bounded repetition is
    expanded by concatenation.
    """
    symbols = set(alphabet) if alphabet is not None else literal_set(ast)
    missing = literal_set(ast) - symbols
    if missing:
        raise AlphabetError(
            f"literals {sorted(missing)!r} are outside the declared alphabet"
        )
    builder = _NfaBuilder()
    start, end = builder.fragment(ast)
    return Nfa(
        alphabet=tuple(sorted(symbols)),
        n_states=builder.n,
        transitions=builder.transitions,
        epsilon=builder.epsilon,
        initial=start,
        accepting=frozenset({end}),
    )
