"""Grammar engine: parsing, CNF conversion, CYK, enumeration, DFAs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab import grammars
from langlab.corpus import L2_ALPHABET, grammar_l2_1, grammar_l2_2, l2_2_members
from langlab.grammars import (
    AutomatonError,
    Cfg,
    CnfGrammar,
    Dfa,
    GrammarError,
    cyk_chart,
    cyk_derivation,
    cyk_filter,
    cyk_member,
    dfa_accepts,
    dfa_from_json,
    dfa_run,
    enumerate_language,
    grammar_text,
    parse_grammar,
    pumping_constant,
    to_cnf,
)
from langlab.guards import CostGuardError
from langlab.words import EMPTY_WORD, SYMBOL_TABLE, Word

PALINDROME_TEXT = """
# nonempty even-length binary palindromes
S -> '0' S '0' | '1' S '1'
S -> '0' '0' | '1' '1'
"""

BLOCKS_TEXT = """
# a^m b^m c^t (m, t >= 1)
S -> A C
A -> 'a' A 'b' | 'a' 'b'
C -> 'c' C | 'c'
"""


def even_palindrome(w):
    return len(w) >= 2 and len(w) % 2 == 0 and w.letters == w.letters[::-1]


def brute_words(alphabet, max_len):
    for n in range(max_len + 1):
        for t in itertools.product(sorted(alphabet), repeat=n):
            yield Word(t)


# -- text format --------------------------------------------------------------


def test_parse_merges_heads_and_strips_comments():
    g = parse_grammar(PALINDROME_TEXT)
    assert g.start == "S"
    assert g.nonterminals == {"S"}
    assert g.terminals == {0, 1}
    assert len(g.productions) == 4


def test_parse_symbol_names_and_lambda():
    g = parse_grammar("S -> 'a' S 'b' | ()")
    assert (("S", ()) in g.productions) and (("S", (1, "S", 2)) in g.productions)


def test_parse_hash_terminal_survives_comment_stripping():
    g = parse_grammar("S -> '0' S '0' | '#'  # the centre marker")
    assert 4 in g.terminals


def test_parse_errors():
    with pytest.raises(GrammarError):
        parse_grammar("S -> 'quux'")
    with pytest.raises(GrammarError):
        parse_grammar("S -> A")  # A has no productions
    with pytest.raises(GrammarError):
        parse_grammar("S 'a'")
    with pytest.raises(GrammarError):
        parse_grammar("")
    with pytest.raises(GrammarError):
        parse_grammar("S -> 'a | 'b'")
    # a superscript digit passes str.isdigit but is no letter int() reads
    with pytest.raises(GrammarError, match="unknown terminal name '²'"):
        parse_grammar("S -> '²'")


def test_grammar_text_roundtrip():
    g = parse_grammar(PALINDROME_TEXT)
    assert parse_grammar(grammar_text(g)) == g


def test_cfg_validation():
    with pytest.raises(GrammarError):
        Cfg(frozenset({"S"}), frozenset({1}), (("S", ("T",)),), "S")
    with pytest.raises(GrammarError):
        Cfg(frozenset({"S"}), frozenset({1}), (), "T")
    with pytest.raises(GrammarError):
        Cfg(frozenset({"S"}), frozenset({-3}), (), "S")


def test_cfg_rejects_bool_terminals():
    # True == 1, so a bool would otherwise pass for the letter 1
    with pytest.raises(GrammarError, match="True"):
        Cfg.from_rules("S", {"S": [(True,)]})
    with pytest.raises(GrammarError, match="False"):
        Cfg.from_rules("S", {"S": [(1, "S"), (False,)]})
    with pytest.raises(GrammarError, match="True"):
        Cfg(frozenset({"S"}), frozenset({1}), (("S", (True,)),), "S")


def test_enumerated_words_hold_valid_letters():
    g = parse_grammar(PALINDROME_TEXT)
    for w in enumerate_language(g, 6):
        assert all(type(a) is int and a >= 0 for a in w.letters) and w == Word(w.letters)


# -- CNF conversion ------------------------------------------------------------


def test_cnf_of_single_lexical_rule_is_untouched():
    g = Cfg.from_rules("S", {"S": [(1,)]})
    cnf = to_cnf(g)
    assert cnf.binary == ()
    assert cnf.lexical == (("S", 1),)
    assert cnf.nonterminals == {"S"}
    assert not cnf.empty


def test_cnf_preserves_unary_repetition_language():
    g = Cfg.from_rules("S", {"S": [("S", "S"), (1,)]})
    expected = {Word((1,) * k) for k in range(1, 5)}
    assert set(enumerate_language(g, 4)) == expected
    cnf = to_cnf(g)
    for n in range(5):
        for letters in itertools.product((1,), repeat=n):
            assert cyk_member(cnf, Word(letters)) == (Word(letters) in expected)


def test_cnf_preserves_palindrome_membership():
    cnf = to_cnf(parse_grammar(PALINDROME_TEXT))
    w = Word.of(0, 1, 1, 0)
    assert cyk_member(cnf, w) == even_palindrome(w) == True  # noqa: E712


def test_cnf_of_empty_language_has_no_productions():
    g = Cfg.from_rules("S", {"S": [("S",)], "T": [(1,)]})
    cnf = to_cnf(g)
    assert cnf.binary == () and cnf.lexical == ()
    assert not cnf.empty
    assert enumerate_language(g, 5) == ()


def test_cnf_lambda_only_language():
    cnf = to_cnf(parse_grammar("S -> ()"))
    assert cnf.empty
    assert cnf.binary == () and cnf.lexical == ()
    assert cyk_member(cnf, EMPTY_WORD)
    assert not cyk_member(cnf, Word.of(1))


def test_cnf_nullable_start_in_body_gets_fresh_start():
    # S derives the empty word and occurs on a right-hand side
    g = parse_grammar("S -> '1' S | ()")
    cnf = to_cnf(g)
    assert cnf.empty
    for _, b, c in cnf.binary:
        assert cnf.start not in (b, c)
    expected = {Word((1,) * k) for k in range(0, 5)}
    assert set(enumerate_language(g, 4)) == expected
    assert {w for w in brute_words({1}, 4) if cyk_member(cnf, w)} == expected


# -- CYK -----------------------------------------------------------------------


def test_cyk_palindrome_examples():
    cnf = to_cnf(parse_grammar(PALINDROME_TEXT))
    assert cyk_member(cnf, Word.of(0, 1, 1, 0))
    assert not cyk_member(cnf, Word.of(0, 1, 1, 1))
    assert not cyk_member(cnf, EMPTY_WORD)


def refuse_chart(g, w):
    raise AssertionError(f"a chart was built for {w}")


def test_cyk_foreign_letters_are_false_not_errors(monkeypatch):
    cnf = to_cnf(parse_grammar(PALINDROME_TEXT))
    monkeypatch.setattr(grammars, "cyk_chart", refuse_chart)
    assert not cyk_member(cnf, Word.of(0, 7, 7, 0))


def test_cyk_is_deterministic():
    cnf = to_cnf(parse_grammar(PALINDROME_TEXT))
    w = Word.of(1, 0, 0, 1)
    assert cyk_member(cnf, w) == cyk_member(cnf, w)


def reference_chart(g, letters):
    # set-based CYK: chart[i, l] holds the nonterminals deriving the
    # length-l factor at offset i
    n = len(letters)
    chart = {(i, 1): {a for a, t in g.lexical if t == x} for i, x in enumerate(letters)}
    for l in range(2, n + 1):
        for i in range(n - l + 1):
            chart[i, l] = {
                a
                for s in range(1, l)
                for a, b, c in g.binary
                if b in chart[i, s] and c in chart[i + s, l - s]
            }
    return chart


def reference_walk(g, w):
    # first split, then the first rule in g.binary order, then the wider
    # child (ties to the left)
    if len(w) == 0:
        return [(g.start, 0, 0)] if g.empty else None
    chart = reference_chart(g, w.letters)
    if g.start not in chart[0, len(w)]:
        return None
    path = [(g.start, 0, len(w))]
    while path[-1][2] > 1:
        label, i, l = path[-1]
        s, b, c = next(
            (s, b, c)
            for s in range(1, l)
            for a, b, c in g.binary
            if a == label and b in chart[i, s] and c in chart[i + s, l - s]
        )
        path.append((c, i + s, l - s) if l - s > s else (b, i, s))
    return path


NAMES = ("A", "B", "S", "S0", "T1")
# small letters pack as bytes of themselves, letters of 256 or more as str
# code points of their ranks; 0 and 4 stay foreign to both
TERMINAL_POOLS = ((1, 2, 3), (1, 300, 70000))


@st.composite
def cnf_grammars(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    terminals = frozenset(draw(st.sampled_from(TERMINAL_POOLS))[: draw(st.integers(1, 3))])
    symbol = st.sampled_from(names)
    binary = draw(st.lists(st.tuples(symbol, symbol, symbol), max_size=8))
    lexical = draw(st.lists(st.tuples(symbol, st.sampled_from(sorted(terminals))), max_size=5))
    start = draw(symbol)
    empty = all(start not in (b, c) for _, b, c in binary) and draw(st.booleans())
    return CnfGrammar(frozenset(names), terminals, tuple(binary), tuple(lexical), start, empty)


def assert_chart_matches_the_reference(g, w):
    # every cell against the set chart, no end bit at or below its offset or
    # past the word, the path against the reference walk
    names = sorted(g.nonterminals)
    n = len(w)
    ends = cyk_chart(g, w)
    ref = reference_chart(g, w.letters)
    assert len(ends) == len(names)
    for row in ends:
        for i, bits in enumerate(row):
            assert bits & ((1 << (i + 1)) - 1) == 0 and bits >> (n + 1) == 0
    for (i, l), heads in ref.items():
        assert {a for k, a in enumerate(names) if ends[k][i] >> (i + l) & 1} == heads
    path = cyk_derivation(g, w)
    assert path == reference_walk(g, w)
    assert cyk_member(g, w) == (path is not None)
    return ref, path


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cnf_grammars())
def test_mask_chart_agrees_with_the_set_chart(g):
    names = sorted(g.nonterminals)
    for w in brute_words(g.terminals, 6):
        ref, path = assert_chart_matches_the_reference(g, w)
        if path is None or not w:
            continue
        for (a, i, l), (d, j, m) in zip(path, path[1:]):
            # each step is a rule a -> b c whose other child derives the rest
            assert 2 * m >= l
            if j == i:
                assert any((a, d, c) in g.binary and c in ref[i + m, l - m] for c in names)
            else:
                assert j + m == i + l
                assert any((a, b, d) in g.binary and b in ref[i, l - m] for b in names)
        label, i, _ = path[-1]
        assert (label, w.letters[i]) in g.lexical


def derivable_lengths(g, max_len):
    lengths = {a: set() for a in g.nonterminals}
    for a, _ in g.lexical:
        lengths[a].add(1)
    for l in range(2, max_len + 1):
        for a, b, c in g.binary:
            if any(s in lengths[b] and l - s in lengths[c] for s in range(1, l)):
                lengths[a].add(l)
    return lengths


def draw_member(data, g, lengths, label, l):
    # the letters of a drawn derivation of a length-l word from label
    if l == 1:
        return [data.draw(st.sampled_from(sorted(t for a, t in g.lexical if a == label)))]
    b, c, s = data.draw(
        st.sampled_from(
            [
                (b, c, s)
                for a, b, c in g.binary
                if a == label
                for s in range(1, l)
                if s in lengths[b] and l - s in lengths[c]
            ]
        )
    )
    return draw_member(data, g, lengths, b, s) + draw_member(data, g, lengths, c, l - s)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cnf_grammars(), st.data())
def test_long_word_charts_agree_with_the_set_chart(g, data):
    # 15-40 letters: the per-nonterminal bitsets span several machine words;
    # members come from drawn derivations, so that paths descend both ways
    lengths = derivable_lengths(g, 40)
    long = sorted(l for l in lengths[g.start] if l >= 15)
    if long and data.draw(st.booleans()):
        letters = draw_member(data, g, lengths, g.start, data.draw(st.sampled_from(long)))
    else:
        alphabet = sorted({t for _, t in g.lexical} or g.terminals)
        letters = data.draw(st.lists(st.sampled_from(alphabet), min_size=15, max_size=40))
    assert_chart_matches_the_reference(g, Word(letters))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cnf_grammars(), st.data())
def test_word_parallel_filter_agrees_with_cyk_member(g, data):
    # one chart per length for all the words against one chart per word:
    # lengths mixed, 0 and 4 foreign to every drawn terminal set, members
    # from drawn derivations, duplicates, the empty word, and every word of
    # one length, so that a length's bitsets span several machine words;
    # drawn bodies get further heads, so that one AND feeds several heads
    if g.binary:
        heads = st.sampled_from(sorted(g.nonterminals))
        shared = data.draw(st.lists(st.tuples(heads, st.sampled_from(g.binary)), max_size=3))
        binary = g.binary + tuple((a, b, c) for a, (_, b, c) in shared)
        g = CnfGrammar(g.nonterminals, g.terminals, binary, g.lexical, g.start, g.empty)
    lengths = derivable_lengths(g, 12)
    letters = st.sampled_from(sorted(g.terminals | {0, 4}))
    words = data.draw(st.lists(st.lists(letters, max_size=10).map(Word), max_size=30))
    if lengths[g.start]:
        for l in data.draw(st.lists(st.sampled_from(sorted(lengths[g.start])), max_size=6)):
            words.append(Word(draw_member(data, g, lengths, g.start, l)))
    words += brute_words(g.terminals, data.draw(st.integers(0, 5)))
    words += words[: data.draw(st.integers(0, 8))] + [EMPTY_WORD]
    words = data.draw(st.permutations(words))
    assert cyk_filter(g, words) == [w for w in words if cyk_member(g, w)]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cnf_grammars(), st.data())
def test_member_agrees_with_the_word_parallel_filter_on_longer_words(g, data):
    # 7-24 letters, drawn words beside members from drawn derivations: each
    # word's own closure against the one chart per length of cyk_filter
    lengths = derivable_lengths(g, 24)
    alphabet = st.sampled_from(sorted({t for _, t in g.lexical} or g.terminals))
    words = data.draw(st.lists(st.lists(alphabet, min_size=7, max_size=24).map(Word), max_size=6))
    long = sorted(l for l in lengths[g.start] if l >= 7)
    if long:
        for l in data.draw(st.lists(st.sampled_from(long), max_size=4)):
            words.append(Word(draw_member(data, g, lengths, g.start, l)))
    assert cyk_filter(g, words) == [w for w in words if cyk_member(g, w)]


@pytest.mark.parametrize("grammar", (grammar_l2_1, grammar_l2_2), ids=("L2_1", "L2_2"))
def test_word_parallel_filter_on_the_covering_grammars(grammar):
    # enumerated members of both covering languages and seeded random words
    # over their alphabet and one foreign letter, through each grammar
    rng = random.Random(1729)
    alphabet = sorted(L2_ALPHABET | {4})
    words = list(enumerate_language(grammar_l2_1(), 8) + enumerate_language(grammar_l2_2(), 8))
    words += [Word(rng.choices(alphabet, k=rng.randint(0, 12))) for _ in range(500)]
    rng.shuffle(words)
    cnf = to_cnf(grammar())
    kept = cyk_filter(cnf, words)
    assert kept == [w for w in words if cyk_member(cnf, w)]
    assert len(kept) > 100


def blocks_word(i, j, k):
    a, b, c = (SYMBOL_TABLE[x] for x in "abc")
    return Word((a,) * i + (b,) * j + (c,) * k)


def test_blocks_grammar_on_400_letter_words():
    cnf = to_cnf(parse_grammar(BLOCKS_TEXT))
    assert cyk_member(cnf, blocks_word(100, 100, 200))
    assert not cyk_member(cnf, blocks_word(100, 99, 201))
    assert not cyk_member(cnf, blocks_word(99, 100, 201))
    assert_chart_matches_the_reference(cnf, blocks_word(20, 20, 30))
    assert_chart_matches_the_reference(cnf, blocks_word(20, 19, 31))


def in_blocks(w):
    # a^m b^m c^t with m, t >= 1, read off the letters directly
    m = w.letters.count(SYMBOL_TABLE["a"])
    return m >= 1 and len(w) > 2 * m and w == blocks_word(m, m, len(w) - 2 * m)


@st.composite
def blocks_words(draw):
    # a^m b^m' c^t with m, m', t <= 60 and m' mostly m or next to it; half
    # get a near miss: one letter dropped, doubled or swapped with the next
    m, t = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    m2 = draw(st.one_of(st.just(m), st.integers(max(m - 1, 0), min(m + 1, 60)), st.integers(0, 60)))
    letters = list(blocks_word(m, m2, t).letters)
    if letters and draw(st.booleans()):
        p = draw(st.integers(0, len(letters) - 1))
        edit = draw(st.sampled_from(("drop", "double", "swap")))
        if edit == "drop":
            del letters[p]
        elif edit == "double":
            letters.insert(p, letters[p])
        else:
            letters[p : p + 2] = letters[p : p + 2][::-1]
    return Word(letters)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(blocks_words())
def test_blocks_membership_matches_the_plain_predicate(w):
    assert cyk_member(to_cnf(parse_grammar(BLOCKS_TEXT)), w) == in_blocks(w)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(blocks_words())
def test_blocks_derivations_match_the_reference_walk(w):
    cnf = to_cnf(parse_grammar(BLOCKS_TEXT))
    path = cyk_derivation(cnf, w)
    assert path == reference_walk(cnf, w)
    assert (path is not None) == in_blocks(w)


def test_foreign_letters_have_no_derivation(monkeypatch):
    cnf = to_cnf(parse_grammar(PALINDROME_TEXT))
    monkeypatch.setattr(grammars, "cyk_chart", refuse_chart)
    assert cyk_derivation(cnf, Word.of(0, 7, 7, 0)) is None
    assert cyk_derivation(cnf, EMPTY_WORD) is None


# -- enumeration ---------------------------------------------------------------


def test_enumerate_even_palindromes_up_to_4():
    got = enumerate_language(parse_grammar(PALINDROME_TEXT), 4)
    want = sorted(w for w in brute_words({0, 1}, 4) if even_palindrome(w))
    assert list(got) == want
    assert len(got) == 6


def test_enumerate_empty_language():
    g = Cfg.from_rules("S", {"S": [("S", "S")]})
    assert enumerate_language(g, 6) == ()


def test_enumerate_single_word():
    g = Cfg.from_rules("S", {"S": [(1,)]})
    assert enumerate_language(g, 3) == (Word.of(1),)


def test_enumerate_handles_unit_cycles_and_lambda():
    g = parse_grammar(
        """
        S -> A | '1' S
        A -> B | ()
        B -> A | '0'
        """
    )
    got = set(enumerate_language(g, 3))
    # 1* followed by an optional 0
    want = {Word((1,) * k) for k in range(4)} | {Word((1,) * k + (0,)) for k in range(3)}
    assert got == want


def test_enumeration_is_canonically_ordered():
    got = enumerate_language(parse_grammar(PALINDROME_TEXT), 6)
    assert list(got) == sorted(got)


def reference_body_words(body, length, table):
    # the terminal tuples of exactly `length` letters the body derives
    if not body:
        return {()} if length == 0 else set()
    first, rest = body[0], body[1:]
    if isinstance(first, int):
        return {(first,) + t for t in reference_body_words(rest, length - 1, table)} if length else set()
    return {
        u + t
        for k in range(length + 1)
        for u in table[first][k]
        for t in reference_body_words(rest, length - k, table)
    }


def reference_enumeration(g, max_len, budget=None):
    # every production runs until nothing changes, at every length
    table = {a: [set() for _ in range(max_len + 1)] for a in g.nonterminals}
    stored = 0
    for length in range(max_len + 1):
        changed = True
        while changed:
            changed = False
            for head, body in g.productions:
                fresh = reference_body_words(body, length, table) - table[head][length]
                if fresh:
                    table[head][length] |= fresh
                    stored += len(fresh)
                    changed = True
    if budget is not None and stored > budget:
        raise CostGuardError(f"enumeration stored more than {budget} factor words")
    return tuple(Word(t) for t in sorted((t for ts in table[g.start] for t in ts), key=lambda t: (len(t), t)))


# terminal sets for the two packings: bytes of the letters themselves, and
# str code points of the ranks, for a few letters of 256 or more and for 300
# terminals whose ranks pass 255; words use the first and the last letter
ALPHABETS = ((0, 1), (300, 70000), tuple(range(0, 600, 2)))


@st.composite
def body_tables(draw):
    # a few words of up to 8 letters for each of A, B and C, set out by
    # length: most lengths stay empty, and a nullable owner has the empty word
    alphabet = draw(st.sampled_from(ALPHABETS))
    letters = st.sampled_from((alphabet[0], alphabet[-1]))
    table = {}
    for a in ("A", "B", "C"):
        words = draw(st.lists(st.lists(letters, max_size=8).map(tuple), max_size=4))
        if draw(st.booleans()):
            words.append(())
        table[a] = [{w for w in words if len(w) == l} for l in range(9)]
    symbols = st.one_of(st.sampled_from(("A", "B", "C")), letters)
    return alphabet, tuple(draw(st.lists(symbols, max_size=4))), draw(st.integers(0, 8)), table


@settings(max_examples=200, derandomize=True, deadline=None)
@given(body_tables())
def test_body_walk_agrees_with_the_recursive_reference(case):
    # the walk over packed tables, its splits' words unpacked, against the
    # tuple reference
    alphabet, body, length, table = case
    pack, unpack = grammars._packing(alphabet)
    packed = {a: [set(map(pack, ws)) for ws in rows] for a, rows in table.items()}
    got = list(itertools.chain.from_iterable(grammars._body_words(body, length, packed, pack)))
    assert {type(p) for p in got} <= {type(pack(()))}
    assert set(map(unpack, got)) == reference_body_words(body, length, table)


def test_body_walk_builds_only_partials_that_reach_the_length():
    # every word is joined from a whole split's factors; the empty packed
    # word records the length of each word it joins
    built = []

    class Factor(bytes):
        def join(self, parts):
            built.append(sum(map(len, parts)))
            return bytes(self).join(parts)

    def pack(ws):
        return Factor(bytes(ws))

    table = {"A": [{bytes((1,) * l)} if l in (1, 3) else set() for l in range(8)]}
    # A '0' A fills 5 as 1 + 1 + 3 or 3 + 1 + 1, one split and one word each
    splits = [list(words) for words in grammars._body_words(("A", 0, "A"), 5, table, pack)]
    assert sorted(splits) == [[bytes((1, 0, 1, 1, 1))], [bytes((1, 1, 1, 0, 1))]]
    assert built == [5, 5]
    # no split fills 4 (or 6), so nothing at all is built
    built.clear()
    assert list(grammars._body_words(("A", 0, "A"), 4, table, pack)) == []
    assert list(grammars._body_words(("A", 0, "A"), 6, table, pack)) == []
    assert built == []


def test_enumeration_of_l2_2_reads_the_position_map_length_by_length():
    # the grammar's closure against the generator's position map, order included
    want = tuple(itertools.chain.from_iterable(l2_2_members(n) for n in range(15)))
    assert enumerate_language(grammar_l2_2(), 14) == want


def test_scaled_letters_enumerate_as_ranks_in_the_same_order():
    # every terminal times 1000 is past 255, so the closure packs ranks as
    # str code points; scaling keeps the letter order, so the listing is
    # the bytes-packed one scaled letter by letter, order included
    g = grammar_l2_2()
    scaled = Cfg(
        g.nonterminals,
        frozenset(a * 1000 for a in g.terminals),
        tuple((h, tuple(s * 1000 if isinstance(s, int) else s for s in body)) for h, body in g.productions),
        g.start,
    )
    assert min(scaled.terminals) >= 256
    want = tuple(Word(a * 1000 for a in w.letters) for w in enumerate_language(g, 14))
    assert len(want) == 21844
    assert enumerate_language(scaled, 14) == want


@st.composite
def cfgs(draw):
    # empty productions, unit chains and unit cycles are all likely; the
    # letters are 0 and 1, or 300 and 70000 (a few terminals, packed as ranks)
    names = draw(st.lists(st.sampled_from(("S", "A", "B", "C")), min_size=1, max_size=4, unique=True))
    letters = draw(st.sampled_from(ALPHABETS[:2]))
    symbol = st.one_of(st.sampled_from(names), st.sampled_from(letters))
    body = st.one_of(
        st.just(()),
        st.sampled_from(names).map(lambda a: (a,)),
        st.lists(st.sampled_from(names), min_size=2, max_size=3).map(tuple),
        st.lists(symbol, min_size=1, max_size=3).map(tuple),
    )
    rules = {a: draw(st.lists(body, max_size=4)) for a in names}
    return Cfg.from_rules(draw(st.sampled_from(names)), rules)


def outcome(enumerate_fn, g, max_len, budget):
    try:
        return enumerate_fn(g, max_len, budget=budget)
    except CostGuardError as exc:
        return str(exc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cfgs(), st.one_of(st.none(), st.integers(0, 80)))
def test_one_pass_enumeration_agrees_with_the_full_fixpoint(g, budget):
    got = outcome(enumerate_language, g, 6, budget)
    assert got == outcome(reference_enumeration, g, 6, budget)


def count_body_words(monkeypatch):
    calls = []
    body_words = grammars._body_words
    monkeypatch.setattr(grammars, "_body_words", lambda *args: calls.append(1) or body_words(*args))
    return calls


def test_enumeration_runs_each_nonlooping_body_once_per_length(monkeypatch):
    # neither grammar has a body that can read its own length, so each of
    # its productions runs once per length (a full fixpoint ran 1,325 and 176)
    calls = count_body_words(monkeypatch)
    assert len(enumerate_language(parse_grammar(BLOCKS_TEXT), 132)) == 4290
    assert len(calls) == 5 * 133 == 665
    calls.clear()
    enumerate_language(grammar_l2_2(), 14)
    assert len(calls) == 8 * 15 == 120


def test_looping_bodies_repeat_until_nothing_changes(monkeypatch):
    # S -> A is a unit chain read at its own length: the first pass misses
    # A's word, which comes later in production order, so S's body repeats
    calls = count_body_words(monkeypatch)
    g = Cfg.from_rules("S", {"S": [("Z",)], "Z": [(1,)]})
    assert enumerate_language(g, 2) == (Word.of(1),)
    # lengths 0 and 2: one pass of 2; length 1: 2, then S -> Z twice more
    assert len(calls) == 2 + 4 + 2


GRAMMAR_BATTERY = [
    PALINDROME_TEXT,
    "S -> 'a' S 'b' | 'a' 'b'",
    "S -> S S | 'a'",
    "S -> '1' S | ()",
    "S -> A B\nA -> 'a' A | ()\nB -> 'b' B | 'b'",
    "S -> A | B\nA -> '0' A '0' | '1'\nB -> B '0' | '1' '1'",
]


@pytest.mark.parametrize("text", GRAMMAR_BATTERY)
def test_enumeration_agrees_with_cyk_oracle(text):
    # brute_words lists in canonical order, so the order is checked too:
    # in S -> A B, the splits of a length list A's shortest factor first,
    # and their words come out unsorted until the length is closed
    g = parse_grammar(text)
    cnf = to_cnf(g)
    filtered = tuple(w for w in brute_words(g.terminals, 8) if cyk_member(cnf, w))
    assert enumerate_language(g, 8) == filtered


# letters of 256 or more, and 300 terminals whose ranks pass 255, both packed
# as str code points of ranks; the unreachable U leaves a terminal with no
# lexical head in CNF
WIDE_GRAMMARS = {
    "wide letters": {
        "S": [(300, "S", 70000), (300, 70000), ("A",)],
        "A": [(), (256, "A")],
        "U": [(9,)],
    },
    "300 terminals": {
        "S": [(k, k) for k in range(300)] + [(0, "S", 299), (299, "S", 0)],
        "U": [(5000,)],
    },
}


@pytest.mark.parametrize("rules", WIDE_GRAMMARS.values(), ids=WIDE_GRAMMARS)
def test_packed_routes_on_wide_alphabets(rules):
    g = Cfg.from_rules("S", rules)
    # the two grammars store 29 and 2,101 factor words: each trips below that
    for budget in (None, 0, 28, 29, 299, 2100, 2101):
        got = outcome(enumerate_language, g, 7, budget)
        assert got == outcome(reference_enumeration, g, 7, budget)
    members = enumerate_language(g, 7)
    assert len(members) > 10
    # members, near misses with foreign letters, repeats and the empty word
    rng = random.Random(1729)
    alphabet = sorted(g.terminals | {1, 4, 70001})
    words = list(members) + [Word(rng.choices(alphabet, k=rng.randint(0, 8))) for _ in range(300)]
    words += [w[:-1] + Word.of(70001) for w in members if w]
    words += list(members[:20]) + [EMPTY_WORD]
    rng.shuffle(words)
    cnf = to_cnf(g)
    kept = cyk_filter(cnf, words)
    assert kept == [w for w in words if cyk_member(cnf, w)]
    assert set(kept) == set(members)


def test_pumping_constant_is_two_to_nonterminal_count():
    cnf = to_cnf(parse_grammar("S -> S S | 'a'"))
    assert pumping_constant(cnf) == 2 ** len(cnf.nonterminals) == 2


# -- DFAs ----------------------------------------------------------------------


def parity_dfa():
    return Dfa(
        states=frozenset({"even", "odd"}),
        alphabet=frozenset({0, 1}),
        transitions={
            ("even", 0): "even",
            ("even", 1): "odd",
            ("odd", 0): "odd",
            ("odd", 1): "even",
        },
        start="even",
        accepting=frozenset({"odd"}),
    )


def test_dfa_run_fixes_state_on_empty_word():
    m = parity_dfa()
    assert dfa_run(m, "odd", EMPTY_WORD) == "odd"


def test_parity_dfa_counts_ones_mod_2():
    m = parity_dfa()
    for n in range(7):
        for t in itertools.product((0, 1), repeat=n):
            assert dfa_accepts(m, Word(t)) == (sum(t) % 2 == 1)


def test_zero_star_dfa():
    m = Dfa(
        states=frozenset({"ok", "dead"}),
        alphabet=frozenset({0, 1}),
        transitions={("ok", 0): "ok", ("ok", 1): "dead", ("dead", 0): "dead", ("dead", 1): "dead"},
        start="ok",
        accepting=frozenset({"ok"}),
    )
    assert dfa_accepts(m, Word.of(0, 0, 0))
    assert not dfa_accepts(m, Word.of(0, 1))


def test_dfa_foreign_letter_is_an_error():
    with pytest.raises(AutomatonError):
        dfa_accepts(parity_dfa(), Word.of(0, 5))


@pytest.mark.parametrize("bad", [True, -1])
def test_dfa_and_cnf_constructors_reject_a_letter_that_is_a_bool_or_negative(bad):
    with pytest.raises(AutomatonError, match=f"got {bad!r}"):
        Dfa(frozenset({"a"}), frozenset({bad}), {("a", bad): "a"}, "a", frozenset())
    with pytest.raises(AutomatonError, match=f"\\('a', {bad!r}\\)"):
        Dfa(frozenset({"a"}), frozenset({0}), {("a", 0): "a", ("a", bad): "a"}, "a", frozenset())
    with pytest.raises(GrammarError, match=f"got {bad!r}"):
        CnfGrammar(frozenset({"S"}), frozenset({bad}), (), (("S", bad),), "S")
    with pytest.raises(GrammarError, match=f"terminal {bad!r}"):
        CnfGrammar(frozenset({"S"}), frozenset({0}), (), (("S", 0), ("S", bad)), "S")


def test_dfa_totality_is_validated():
    with pytest.raises(AutomatonError):
        Dfa(
            states=frozenset({"a"}),
            alphabet=frozenset({0, 1}),
            transitions={("a", 0): "a"},
            start="a",
            accepting=frozenset(),
        )


def test_dfa_json_roundtrip():
    doc = {
        "states": ["even", "odd"],
        "alphabet": [0, 1],
        "start": "even",
        "accepting": ["odd"],
        "transitions": [["even", 0, "even"], ["even", 1, "odd"], ["odd", 0, "odd"], ["odd", 1, "even"]],
    }
    assert dfa_from_json(doc) == parity_dfa()
    assert dfa_accepts(dfa_from_json(doc), Word.of(1, 1, 1))
    with pytest.raises(AutomatonError):
        dfa_from_json({"states": ["a"], "alphabet": [0]})
    # a letter is an int >= 0 and not a bool, in the alphabet and in the
    # transitions alike: none is coerced
    for bad in (1.9, True, "2", -1):
        with pytest.raises(AutomatonError, match=f"got {bad!r}"):
            dfa_from_json({**doc, "alphabet": [0, 1, bad]})
        with pytest.raises(AutomatonError, match=f"\\('odd', {bad!r}\\)"):
            dfa_from_json({**doc, "transitions": doc["transitions"][:3] + [["odd", bad, "even"]]})


def random_dfa(rng, alphabet=(0, 1)):
    # built the way acceptance._random_dfa builds the suite's automata
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    return Dfa(
        states=frozenset(states),
        alphabet=frozenset(alphabet),
        transitions={(q, a): rng.choice(states) for q in states for a in alphabet},
        start="q0",
        accepting=frozenset(q for q in states if rng.random() < 0.5),
    )


def reference_run(m, q, letters):
    for a in letters:
        q = m.transitions[(q, a)]
    return q


def test_dfa_run_matches_a_fold_over_the_transition_map():
    rng = random.Random(18)
    for alphabet in ((0, 1), (0, 1, 2), (3, 7)):
        for _ in range(10):
            m = random_dfa(rng, alphabet)
            for n in range(6):
                for t in itertools.product(alphabet, repeat=n):
                    for q in sorted(m.states):
                        assert dfa_run(m, q, Word(t)) == reference_run(m, q, t)
                    assert dfa_accepts(m, Word(t)) == (reference_run(m, m.start, t) in m.accepting)


def test_dfa_run_rejects_foreign_letters_and_unknown_states():
    rng = random.Random(19)
    for _ in range(10):
        m = random_dfa(rng)
        for t in ((5,), (0, 1, 5), (1, 1, 0, 2)):
            with pytest.raises(AutomatonError, match="outside the automaton's alphabet"):
                dfa_run(m, m.start, Word(t))
        with pytest.raises(AutomatonError, match="unknown state"):
            dfa_run(m, "nowhere", EMPTY_WORD)
        with pytest.raises(AutomatonError, match="unknown state"):
            dfa_run(m, "nowhere", Word.of(0, 1))


def test_dfa_row_table_stays_out_of_equality_and_repr():
    m = parity_dfa()
    assert m == parity_dfa()
    assert "_rows" not in repr(m)
