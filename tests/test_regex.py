import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglang as rl
from reglang.counting import CountVectors, count_len
from reglang.errors import AlphabetError, RegexSyntaxError
from reglang.oracle import ast_language_upto, ast_matches, all_strings
from reglang.regex import literal_set
from reglang.automata import _members
from subsets import reference_dfa, reference_positions
from reglang.regex import (
    MAX_NESTING,
    Alt,
    Concat,
    Empty,
    Epsilon,
    Literal,
    Repeat,
    Star,
)


def test_parse_star_of_alternation():
    assert rl.parse_regex("(a|b)*") == Star(Alt((Literal("a"), Literal("b"))))


def test_parse_bounded_repeat_is_preserved():
    ast = rl.parse_regex("((a|b){2})*")
    assert ast == Star(Repeat(Alt((Literal("a"), Literal("b"))), 2))


def test_parse_reserved_epsilon_token():
    assert rl.parse_regex("~") == Epsilon()


def test_parse_reserved_empty_token():
    assert rl.parse_regex("#") == Empty()


def test_precedence_star_concat_alternation():
    assert rl.parse_regex("ab|c") == Alt(
        (Concat((Literal("a"), Literal("b"))), Literal("c"))
    )
    assert rl.parse_regex("a|bc*") == Alt(
        (Literal("a"), Concat((Literal("b"), Star(Literal("c")))))
    )


def test_escaped_reserved_characters_are_literals():
    assert rl.parse_regex(r"\*") == Literal("*")
    assert rl.parse_regex(r"\\") == Literal("\\")
    assert rl.parse_regex(r"a\|b") == Concat(
        (Literal("a"), Literal("|"), Literal("b"))
    )


@pytest.mark.parametrize(
    "text", ["", "a|", "(", ")", "(a", "a{", "a{}", "a{2", "*", "a\\", "()"]
)
def test_syntax_errors_carry_position(text):
    with pytest.raises(RegexSyntaxError) as info:
        rl.parse_regex(text)
    assert info.value.position >= 0


def _groups(depth):
    return "(" * depth + "a" + ")" * depth


def _stars(depth):
    return "a" + "*" * depth


def _mixed(depth):
    # each level is a group and a star around the previous one
    text = "a"
    for _ in range(depth // 2):
        text = f"({text})*"
    return text


@pytest.mark.parametrize("build", [_groups, _stars, _mixed])
def test_nesting_at_the_limit_compiles(build):
    dfa = rl.dfa_from_regex(build(MAX_NESTING))
    assert dfa.accepts("a")
    assert dfa.accepts("aa") == (build is not _groups)


@pytest.mark.parametrize(
    "text, position",
    [
        # the first '(' or '*' past the limit, and the ')' closing the
        # group whose nesting, star included, passes it
        (_groups(MAX_NESTING + 1), MAX_NESTING),
        (_stars(MAX_NESTING + 1), MAX_NESTING + 1),
        (_mixed(MAX_NESTING + 2), len(_mixed(MAX_NESTING + 2)) - 2),
    ],
    ids=["groups", "stars", "mixed"],
)
def test_nesting_past_the_limit_is_a_syntax_error(text, position):
    with pytest.raises(RegexSyntaxError) as caught:
        rl.parse_regex(text)
    assert caught.value.position == position


def test_literal_outside_declared_alphabet():
    with pytest.raises(AlphabetError):
        rl.parse_regex("abc", alphabet={"a", "b"})


def test_repeat_zero_means_empty_string():
    dfa = rl.dfa_from_regex("a{0}", "a")
    assert dfa.accepts("")
    assert not dfa.accepts("a")


@pytest.mark.parametrize(
    "text, states",
    [("a{3}", 4), ("(a|b)*a(a|b){7}", 18), ("~", 1), ("#", 1)],
)
def test_nfa_has_one_state_per_literal_occurrence(text, states):
    # the position automaton: the initial state plus one per literal
    # occurrence once bounded repeats are expanded
    assert rl.compile_to_nfa(rl.parse_regex(text)).n_states == states


@pytest.mark.parametrize(
    "text, states",
    [
        ("(a|b)*a(a|b){7}", 257),
        ("(a|b)*a(a|b){6}", 129),
        ("a{2000}(a|b)*", 2004),
        ("(a|b){1000}", 2002),
        ("a{3000}", 3002),
    ],
)
def test_dfa_sizes_of_benchmark_inputs(text, states):
    assert rl.dfa_from_regex(text, "ab").n_states == states


@pytest.mark.parametrize("text", ["a{200000}", "((a|b){300}){300}"])
def test_nfa_budget_is_checked_before_building(text, monkeypatch):
    monkeypatch.setenv("REGLANG_MAX_STATES", "1000")
    with pytest.raises(rl.StateLimitError):
        rl.compile_to_nfa(rl.parse_regex(text))


def test_epsilon_nfa_membership():
    nfa = rl.compile_to_nfa(Epsilon(), {"a"})
    assert nfa.accepts("")
    assert not nfa.accepts("a")


def test_star_nfa_membership():
    nfa = rl.compile_to_nfa(rl.parse_regex("a*"))
    assert nfa.accepts("")
    assert nfa.accepts("a")
    assert nfa.accepts("aa")
    assert not nfa.accepts("b")


def test_even_length_language_up_to_eight():
    # the two-symbol repeat under a star accepts exactly even lengths
    nfa = rl.compile_to_nfa(rl.parse_regex("((a|b){2})*"))
    for word in all_strings("ab", 8):
        assert nfa.accepts(word) == (len(word) % 2 == 0)


_DEPTH_BY_ALPHABET = {1: 8, 2: 8, 3: 6, 4: 5}


def test_round_trip_tree_semantics_vs_automata(corpus):
    # set semantics on the tree vs the compiled NFA and DFA, exhaustively
    for lang in corpus:
        depth = _DEPTH_BY_ALPHABET[len(lang.alphabet)]
        ast = lang.ast
        denoted = ast_language_upto(ast, depth)
        nfa = rl.compile_to_nfa(ast, set(lang.alphabet))
        for word in all_strings(lang.alphabet, depth):
            expected = word in denoted
            assert nfa.accepts(word) == expected, (lang.name, word)
            assert lang.dfa.accepts(word) == expected, (lang.name, word)


def _asts_over(symbols, max_leaves=8, max_copies=3):
    """Random syntax trees over the given literals, of at most
    `max_leaves` leaves and with repeats of at most `max_copies` copies."""
    return st.recursive(
        st.one_of(
            st.builds(Literal, st.sampled_from(symbols)),
            st.just(Epsilon()),
            st.just(Empty()),
        ),
        lambda children: st.one_of(
            st.builds(Star, children),
            st.builds(lambda x, y: Alt((x, y)), children, children),
            st.builds(lambda x, y: Concat((x, y)), children, children),
            st.builds(Repeat, children, st.integers(min_value=0, max_value=max_copies)),
        ),
        max_leaves=max_leaves,
    )


_asts = _asts_over("ab")


@settings(max_examples=120, deadline=None)
@given(ast=_asts, word=st.text(alphabet="ab", max_size=7))
def test_matcher_agrees_with_nfa(ast, word):
    nfa = rl.compile_to_nfa(ast, {"a", "b"})
    assert ast_matches(ast, word) == nfa.accepts(word)
    assert rl.determinize(nfa).accepts(word) == nfa.accepts(word)


@settings(max_examples=150, deadline=None)
@given(ast=_asts_over("abc"))
def test_compiled_counts_match_set_semantics(ast):
    # exact counting on the compiled DFA against the tree's word sets
    cv = CountVectors.from_dfa(rl.determinize(rl.compile_to_nfa(ast, "abc")))
    words = ast_language_upto(ast, 8)
    for n in range(9):
        assert count_len(cv, n) == sum(len(w) == n for w in words), n


# --- the windowed build against the frozenset reference --------------------


@settings(max_examples=300, deadline=None)
@given(ast=_asts_over("abc", max_leaves=12, max_copies=4), alphabet=st.sampled_from(["abc", "abcd"]))
def test_determinize_matches_the_frozenset_reference(ast, alphabet):
    assert rl.determinize(rl.compile_to_nfa(ast, alphabet)) == reference_dfa(ast, alphabet)


@settings(max_examples=300, deadline=None)
@given(ast=_asts_over("abc", max_leaves=12, max_copies=4))
def test_compiled_positions_match_the_set_reference(ast):
    # the windows, shifted copies and once-linked repeats against plain sets
    nfa = rl.compile_to_nfa(ast, "abc")
    symbols, follow, final = reference_positions(ast)
    assert nfa.symbols == tuple(symbols)
    assert [set(_members(window)) for window in nfa.follow] == follow
    assert nfa.accepting == final


def _periodic(m):
    """The ladder's periodic pattern P(m): m starred parts of periods 2, 3, 4, 2, ..."""
    return "b".join(f"(a{{{2 + i % 3}}})*" for i in range(m))


def _fixed_cases():
    yield from (f"(~|a){{{n}}}" for n in range(61))
    yield from (f"a{{{n}}}(a|b)*" for n in (0, 1, 2, 3, 10, 100))
    yield "((a|b){3}c*){5}"
    for k in range(9):
        yield f"(a|b)*a(a|b){{{k}}}"
        yield f"(a|b)*b(a|b){{{k}}}"
    # one-unambiguous: every subset reached holds at most one position
    yield from ("a{300}", "(a|b){50}", "((a|b)c){30}", "(ab*c){20}", _periodic(20))
    # a position followed by two of one symbol only after a long prefix
    yield from ("a{300}(a|b)*a", "((a|b)c){30}(a|c)*a", "(ab){40}(a|b)*b(a|b){3}")


def test_determinize_matches_the_frozenset_reference_on_fixed_cases():
    for text in _fixed_cases():
        ast = rl.parse_regex(text)
        alphabet = literal_set(ast)
        assert rl.dfa_from_regex(text) == reference_dfa(ast, alphabet), text


@pytest.mark.parametrize("text", ["a{200}", "a{100}(a|b)*a(a|b){3}"])
def test_state_cap_binds_where_the_subset_construction_stops(text, monkeypatch):
    # numbered one position at a time, and resumed after a late conflict
    nfa = rl.compile_to_nfa(rl.parse_regex(text))
    states = reference_dfa(rl.parse_regex(text), nfa.alphabet).n_states
    monkeypatch.setenv("REGLANG_MAX_STATES", str(states))
    assert rl.determinize(nfa).n_states == states
    monkeypatch.setenv("REGLANG_MAX_STATES", str(states - 1))
    with pytest.raises(rl.StateLimitError, match=f"subset construction exceeded {states - 1} states"):
        rl.determinize(nfa)


@pytest.mark.parametrize("text, subsets", [("a{3000}", False), ("(a|b)*a(a|b){7}", True)])
def test_only_a_position_followed_by_two_of_one_symbol_runs_the_subset_construction(
    text, subsets, monkeypatch
):
    calls = []
    moves = rl.automata._subset_moves
    monkeypatch.setattr(rl.automata, "_subset_moves", lambda *args: calls.append(args) or moves(*args))
    dfa = rl.dfa_from_regex(text, "ab")
    assert bool(calls) == subsets
    assert dfa == reference_dfa(rl.parse_regex(text), "ab")
