import gc
import hashlib
import itertools
import random
import types
from collections import Counter

import pytest

from ucst import regdata
from ucst.errors import InputError
from ucst.fileformat import _Alternation, _cat, _render, _star, nfa_to_regex
from ucst.model import (
    emptiness_test,
    even_length_test,
    head_test,
    nonemptiness_test,
    odd_length_test,
)
from ucst.randomgen import random_z1l_instance
from ucst.reductions import ucst_to_pep
from ucst.regdata import (
    Dfa,
    Nfa,
    language_equal,
    parse_regex,
    subword,
)

import support
from support import (
    dfa_accepts,
    dfa_distances,
    combinator_parse_regex,
    dfa_run,
    downward_closure,
    is_downward_closed,
    is_upward_closed,
    has_word_longer_than,
    language_subset,
    nothing,
    quotient,
    subword_one,
    total_minimal_dfa,
    union,
    upward_closure,
)

AB = ("a", "b")


def words_over(alphabet, max_len):
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield w


def brute_interleavings(w1, w2):
    """Oracle: all interleavings of two words, by recursive splitting."""
    if not w1:
        return {tuple(w2)}
    if not w2:
        return {tuple(w1)}
    out = set()
    out |= {(w1[0],) + rest for rest in brute_interleavings(w1[1:], w2)}
    out |= {(w2[0],) + rest for rest in brute_interleavings(w1, w2[1:])}
    return out


def brute_subwords(w):
    out = set()
    for r in range(len(w) + 1):
        for picks in itertools.combinations(range(len(w)), r):
            out.add(tuple(w[i] for i in picks))
    return out


def t(s):
    return tuple(s)


class TestMembership:
    def test_nonempty_word_in_plus(self):
        nplus = parse_regex("ANY+", AB)
        assert nplus.accepts(t("ab"))

    def test_empty_word_in_eps(self):
        eps = parse_regex("EPS", AB)
        assert eps.accepts(())
        assert not eps.accepts(t("a"))

    def test_even_rejects_odd_length(self):
        even = parse_regex("(ANY ANY)*", AB)
        assert not even.accepts(t("aba"))
        assert even.accepts(t("ab"))
        assert even.accepts(())

    def test_symbol_outside_alphabet(self):
        eps = parse_regex("EPS", AB)
        with pytest.raises(InputError):
            eps.accepts(t("x"))


class TestMembershipMemo:
    """`accepts` memoizes subset steps on the automaton."""

    def test_agrees_with_determinized(self, random_nfa):
        langs = [emptiness_test(AB), nonemptiness_test(AB),
                 even_length_test(AB), odd_length_test(AB),
                 head_test("a", AB), head_test("b", AB)]
        rng = random.Random(4417)
        langs += [random_nfa(rng, AB) for _ in range(60)]
        assert sum(any(sym is None for _, sym, _ in lang.transitions)
                   for lang in langs[6:]) >= 20
        for lang in langs:
            dfa = lang.determinize()
            for word in words_over(AB, 6):
                assert lang.accepts(word) == dfa_accepts(dfa, word), (lang, word)
            # a second pass answers from the warm memo
            for word in words_over(AB, 6):
                assert lang.accepts(word) == dfa_accepts(dfa, word), (lang, word)

    def test_symbol_outside_alphabet_cold_and_warm(self):
        lang = parse_regex("a b*", AB)
        with pytest.raises(InputError):
            lang.accepts(t("c"))
        for word in words_over(AB, 4):
            lang.accepts(word)
        for bad in [t("c"), t("ac"), t("abc"), t("bc"), t("bbc"), (None,)]:
            with pytest.raises(InputError):
                lang.accepts(bad)

    def test_symbol_outside_alphabet_after_dead_prefix(self):
        lang = Nfa.literal(t("a"), AB)
        assert not lang.accepts(t("bb"))  # warms the dead state set on b
        with pytest.raises(InputError):
            lang.accepts(t("bbc"))


class TestSubsetQueries:
    """`live_moves` and `distance` against the subset DFA and `accepts`."""

    def test_agree_with_determinized(self, random_nfa):
        rng = random.Random(5120)
        abc = ("a", "b", "c")
        for _ in range(80):
            lang = random_nfa(rng, abc, 6)
            eps = lang._eps_map()
            dfa = lang.determinize()
            dist = dfa_distances(dfa)
            for word in words_over(abc, 3):
                cur = lang.initial_subset()
                for sym in word:
                    cur = lang.live_moves(cur).get(sym, frozenset())
                assert (not cur.isdisjoint(lang.accepting)) == dfa_accepts(dfa, word)
                assert lang.distance(cur) == dist[dfa_run(dfa, word)], (lang, word)
                # each step by a scan of every transition
                steps = {a: lang._eps_closure(
                    {dst for src, sym, dst in lang.transitions
                     if sym == a and src in cur}, eps) for a in abc}
                assert list(lang.live_moves(cur).items()) == [
                    (a, nxt) for a, nxt in steps.items() if nxt]

    def test_epsilon_moves_cost_nothing(self):
        lang = Nfa(AB, 4, {0}, {3},
                   [(0, None, 1), (1, "a", 2), (2, None, 3), (0, "b", 3)])
        start = lang.initial_subset()
        assert start == {0, 1}
        assert lang.distance(start) == 1
        assert lang.live_moves(start) == {"a": {2, 3}, "b": {3}}
        assert lang.distance(frozenset()) is None

    def test_one_memo_for_accepts_and_live_moves(self, random_nfa):
        rng = random.Random(5121)
        for _ in range(40):
            lang = random_nfa(rng, AB, 5)
            frontier = [lang.initial_subset()]
            seen = set(frontier)
            while frontier:
                for nxt in lang.live_moves(frontier.pop()).values():
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            _, steps, _ = lang._steps
            taken = set(steps)
            for word in words_over(AB, 5):
                lang.accepts(word)
            # accepts added only the dead steps, which live_moves leaves out
            assert all(not steps[key] for key in set(steps) - taken)
            # and live_moves answers a fresh automaton from accepts' steps
            fresh = Nfa(AB, lang.n_states, lang.initial, lang.accepting,
                        lang.transitions)
            fresh.accepts(t("ab"))
            start = fresh.initial_subset()
            _, steps, _ = fresh._steps
            for a, nxt in fresh.live_moves(start).items():
                assert steps[(start, a)] is nxt


class TestBooleanOps:
    def test_intersect(self):
        astar = parse_regex("a*", AB)
        nplus = parse_regex("ANY+", AB)
        both = astar.intersect(nplus)
        assert both.accepts(t("a"))
        assert not both.accepts(())
        assert not both.accepts(t("b"))

    def test_complement_of_eps_is_plus(self):
        eps = Nfa.literal((), ("a",))
        comp = eps.complement()
        assert comp.accepts(t("a"))
        assert not comp.accepts(())

    def test_concat_marker_prefix(self):
        marker = Nfa.literal(("#",), ("#", "a"))
        up = parse_regex("a a*", ("#", "a"))
        joined = marker.concat(up.with_alphabet(("#", "a")))
        assert joined.accepts(("#", "a"))
        assert joined.accepts(("#", "a", "a"))
        assert not joined.accepts(("a",))

    def test_alphabet_mismatch(self):
        for op in (union, Nfa.concat):
            with pytest.raises(InputError):
                op(Nfa.literal(t("a"), ("a",)), Nfa.literal(t("b"), ("b",)))


class TestShuffle:
    def test_two_words(self):
        sh = Nfa.literal(t("ab"), ("a", "b", "c")).shuffle(
            Nfa.literal(t("c"), ("a", "b", "c")))
        expected = {t("abc"), t("acb"), t("cab")}
        accepted = {w for w in words_over(("a", "b", "c"), 3) if sh.accepts(w)}
        assert accepted == expected

    def test_eps_is_identity(self):
        b = parse_regex("a b* | b a", AB)
        sh = Nfa.literal((), AB).shuffle(b)
        assert language_equal(sh, b)

    def test_counts_match_brute_force(self):
        for w1 in [t("a"), t("ab"), t("aba"), t("abab")]:
            for w2 in [t("b"), t("ba"), t("bb"), t("abba")]:
                sh = Nfa.literal(w1, AB).shuffle(Nfa.literal(w2, AB))
                alln = len(w1) + len(w2)
                got = {w for w in words_over(AB, alln) if sh.accepts(w)}
                assert got == brute_interleavings(w1, w2)


class TestPadClosure:
    def test_pad_of_eps_is_eps(self):
        padded = Nfa.literal((), ("a",)).pad_closure("n")
        assert padded.accepts(())
        assert not padded.accepts(t("n"))

    def test_pad_of_ab(self):
        padded = Nfa.literal(t("ab"), AB).pad_closure("n")
        for good in ["nab", "anb", "nnanb", "ab"]:
            assert padded.accepts(t(good)), good
        for bad in ["abn", "ba", "nanbn", "n"]:
            assert not padded.accepts(t(bad)), bad

    def test_membership_stable(self):
        lang = parse_regex("a b | a a b*", AB)
        padded = lang.pad_closure("n")
        for w in words_over(AB, 4):
            if lang.accepts(w):
                assert padded.accepts(w)

    def test_no_trailing_pad(self):
        # language with an accepting state that still has outgoing letters
        lang = parse_regex("a | a b", AB)
        padded = lang.pad_closure("n")
        assert not padded.accepts(t("an"))
        assert padded.accepts(t("anb"))
        for w in words_over(("a", "b", "n"), 4):
            if padded.accepts(w):
                assert not (w and w[-1] == "n")

    def test_pad_symbol_clash(self):
        with pytest.raises(InputError):
            Nfa.literal(t("a"), AB).pad_closure("a")


class TestSubword:
    def test_single_deletion(self):
        assert subword_one(t("aba"), t("abba"))

    def test_scattered(self):
        assert subword(t("aa"), t("abba"))

    def test_reflexive_and_least(self):
        for w in words_over(AB, 3):
            assert subword((), w)
            assert subword(w, w)

    def test_exhaustive_order_properties(self):
        small = list(words_over(AB, 5))
        rel = {(x, y) for x in small for y in small if subword(x, y)}
        for x in small:
            assert (x, x) in rel
        for (x, y) in rel:
            for z in small:
                if (y, z) in rel:
                    assert (x, z) in rel
        for x in small:
            for y in small:
                if subword_one(x, y):
                    assert len(x) == len(y) - 1 and (x, y) in rel


class TestClosures:
    def test_upward_of_a(self):
        up = upward_closure(Nfa.literal(t("a"), AB))
        for good in ["ba", "ab", "bab", "a"]:
            assert up.accepts(t(good))
        for bad in ["b", ""]:
            assert not up.accepts(t(bad))

    def test_downward_of_ab(self):
        down = downward_closure(Nfa.literal(t("ab"), AB))
        accepted = {w for w in words_over(AB, 3) if down.accepts(w)}
        assert accepted == {(), t("a"), t("b"), t("ab")}

    def test_upward_idempotent(self):
        lang = parse_regex("a b* | b b", AB)
        once = upward_closure(lang)
        assert language_equal(upward_closure(once), once)

    def test_against_brute_force(self):
        corpus = ["EPS", "a", "a b", "(a | b) a*", "(ANY ANY)*", "b+"]
        small = list(words_over(AB, 5))
        for rex in corpus:
            lang = parse_regex(rex, AB)
            up, down = upward_closure(lang), downward_closure(lang)
            members = [w for w in small if lang.accepts(w)]
            for w in small:
                in_up = any(subword(m, w) for m in members) or any(
                    lang.accepts(m) and subword(m, w)
                    for m in brute_subwords(w))
                assert up.accepts(w) == in_up, (rex, w)
                in_down = any(lang.accepts(sup) for sup in small
                              if subword(w, sup))
                # downward membership may come from longer supersets too;
                # only check the implication both ways on this bounded window
                if in_down:
                    assert down.accepts(w)
                if not down.accepts(w):
                    assert not in_down


class TestQuotient:
    def test_against_membership(self):
        corpus = ["EPS", "a b*", "(a | b) a*", "(ANY ANY)*", "a EPS b | b+"]
        for rex in corpus:
            lang = parse_regex(rex, AB)
            for sym in AB:
                after = quotient(lang, sym)
                for w in words_over(AB, 4):
                    assert after.accepts(w) == lang.accepts((sym,) + w), (rex, sym, w)


class TestLanguageEqual:
    def test_eps_variants(self):
        one = Nfa.literal((), AB)
        other = Nfa(AB, 1, {0}, {0}, ())
        assert language_equal(one, other)

    def test_plus_vs_star(self):
        plus = parse_regex("ANY+", ("a",))
        star = parse_regex("ANY*", ("a",))
        assert not language_equal(plus, star)
        assert star.accepts(()) and not plus.accepts(())

    def test_same_language_two_builds(self):
        built1 = parse_regex("a ANY*", AB)
        built2 = Nfa.literal(t("a"), AB).concat(Nfa.all_words(AB))
        assert language_equal(built1, built2)
        for w in words_over(AB, 4):
            assert built1.accepts(w) == built2.accepts(w)

    def test_subset(self):
        assert language_subset(parse_regex("a a", AB), parse_regex("a*", AB))
        assert not language_subset(parse_regex("b", AB), parse_regex("a*", AB))


class TestComplementExhaustive:
    def test_matches_negated_membership(self):
        corpus = ["EPS", "a", "a b | b", "(ANY ANY)*", "a* b a*", "ANY+"]
        for alphabet in [("a", "b"), ("a", "b", "c")]:
            for rex in corpus:
                lang = parse_regex(rex, alphabet)
                comp = lang.complement()
                for w in words_over(alphabet, 6 if len(alphabet) == 2 else 4):
                    assert comp.accepts(w) == (not lang.accepts(w))


# -- the one-pass compiler against the combinator parser it replaced ----------

# every regex text that perfbench's corpora write, as `perfbench/corpus.py`
# lists them, and literal words as its Figure 1 targets write them
CORPUS_REGEXES = (
    "EPS", "ANY", "ANY*", "ANY ANY*", "(ANY ANY)*", "ANY (ANY ANY)*",
    "a | EPS", "a b | b", "EPS | b a", "a ANY*", "ANY* b", "b*", "a", "b",
    "a b c a b c", "c a b b a c a")

REGEX_PUNCT = ("(", ")", "|", "*", "+")


def random_regex_tokens(rng, letters, depth):
    """Tokens of a random tree of letters, EPS, NONE, ANY, alternation,
    concatenation and stacked `*`/`+`, parenthesised at random."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        tokens = [rng.choice(letters + ("EPS", "NONE", "ANY"))]
    else:
        parts = [random_regex_tokens(rng, letters, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        sep = ["|"] if roll < 0.6 else []
        tokens = parts[0]
        for part in parts[1:]:
            tokens = tokens + sep + part
    if rng.random() < 0.35:
        tokens = ["(", *tokens, ")"]
    if tokens[-1] in (")", "EPS", "NONE", "ANY") or len(tokens) == 1:
        while rng.random() < 0.3:
            tokens.append(rng.choice("*+"))
    return tokens


def regex_text(rng, tokens):
    """`tokens` joined with random spacing; adjacent words keep a space."""
    out = tokens[0]
    for prev, tok in zip(tokens, tokens[1:]):
        words = prev not in REGEX_PUNCT and tok not in REGEX_PUNCT
        out += (" " if words or rng.random() < 0.5 else "") + tok
    return out


def compile_both(text, alphabet):
    """(fields or error message) of `parse_regex` and of the reference."""
    def outcome(parse):
        try:
            return fields(parse(text, alphabet))
        except InputError as exc:
            return str(exc)
    return outcome(parse_regex), outcome(combinator_parse_regex)


class TestOnePassCompile:
    """`parse_regex` builds, field for field, the automaton that the
    combinator parser of `support` builds, and raises its messages."""

    def test_corpus_regexes(self):
        for alphabet in (("a", "b", "c"), ("c", "b", "a"), ("a", "b", "c", "b")):
            for text in CORPUS_REGEXES:
                new, ref = compile_both(text, alphabet)
                assert not isinstance(new, str) and new == ref, text

    def test_random_trees(self):
        rng = random.Random(3001)
        alphabets = (AB, ("b", "a", "c"), ("a", "b", "a"))
        for i in range(2400):
            alphabet = alphabets[i % 3]
            tokens = random_regex_tokens(rng, tuple(dict.fromkeys(alphabet)),
                                         rng.randint(1, 4))
            text = regex_text(rng, tokens)
            new, ref = compile_both(text, alphabet)
            assert not isinstance(ref, str), (text, ref)
            assert new == ref, text

    def test_malformed_texts_raise_the_same_message(self):
        rng = random.Random(3002)
        extra = REGEX_PUNCT + ("a", "z", "EPS")
        messages = set()
        for _ in range(1500):
            tokens = random_regex_tokens(rng, AB, rng.randint(1, 3))
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(tokens) + 1)
                if tokens and rng.random() < 0.5:
                    del tokens[min(i, len(tokens) - 1)]
                else:
                    tokens.insert(i, rng.choice(extra))
            text = regex_text(rng, tokens) if tokens else " "
            new, ref = compile_both(text, AB)
            assert new == ref, text
            if isinstance(ref, str):
                messages.add(ref.split(" at ")[0].split(" '")[0])
        assert messages == {
            "empty regular expression", "empty alternative in regular expression",
            "unbalanced parenthesis in regular expression",
            "unexpected token", "regex literal", "trailing regex tokens"}

    def test_reparsed_embedding_languages(self):
        rng = random.Random(3003)
        for _ in range(50):
            pep = ucst_to_pep(random_z1l_instance(rng))
            for lang in (pep.R, pep.Rp):
                text = nfa_to_regex(lang)
                new, ref = compile_both(text, pep.sigma)
                assert not isinstance(new, str) and new == ref, text

    def test_one_automaton_per_call(self, monkeypatch):
        built = []
        init = Nfa.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Nfa, "__init__", counted)
        sigma = ("a", "b", "c")
        for text in ("a", "NONE", "ANY ANY*", "((a | b)+ c)* | NONE EPS"):
            built.clear()
            parse_regex(text, sigma)
            assert len(built) == 1, text
        combinator_parse_regex("((a | b)+ c)* | NONE EPS", sigma)
        assert len(built) > 2

    def test_deep_nesting(self):
        deep = "(" * 5000 + "a" + ")" * 5000
        assert fields(parse_regex(deep, AB)) == fields(parse_regex("a", AB))
        with pytest.raises(InputError, match="unbalanced parenthesis"):
            parse_regex(deep[:-1], AB)


class TestEnumeration:
    def test_words_up_to(self):
        lang = parse_regex("a* b", AB)
        assert lang.words_up_to(3) == ([t("b"), t("ab"), t("aab")], True)

    def test_longer_word_detection(self):
        for rex, k, longer in [("a*", 10, True), ("a | a b", 2, False),
                               ("a | a b", 1, True), ("(a a)*", 2, True),
                               ("EPS", 0, False), ("NONE", 0, False),
                               ("a (b | NONE)", 0, True),
                               ("a (b NONE)*", 1, False)]:
            lang = parse_regex(rex, AB)
            assert lang.words_up_to(k)[1] == longer, (rex, k)
            assert has_word_longer_than(lang, k) == longer, (rex, k)

    def test_normalize_invariants(self):
        lang = parse_regex("(a | EPS) b*", AB).normalize()
        assert all(sym is not None for _, sym, _ in lang.transitions)


def reachable_states(nfa):
    """States some path from an initial state reaches, by any move."""
    seen = set(nfa.initial)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for src, _, dst in nfa.transitions:
            if src == s and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def dense_intersect(x, y):
    """The product `Nfa.intersect` builds, stepped densely: from each pair,
    every move of `x`'s normal form in stored order, each looked up in the
    moves of `y`'s normal form; pairs numbered breadth-first from the
    initial pairs."""
    a, b = x.normalize(), y.normalize()
    starts = [(i, j) for i in sorted(a.initial) for j in sorted(b.initial)]
    ids = {}
    for pair in starts:
        ids.setdefault(pair, len(ids))
    queue, trans = list(ids), []
    for i, j in queue:
        for src, sym, k in a.transitions:
            for src2, sym2, m in b.transitions:
                if (src, src2, sym2) == (i, j, sym):
                    if (k, m) not in ids:
                        ids[(k, m)] = len(ids)
                        queue.append((k, m))
                    trans.append((ids[(i, j)], sym, ids[(k, m)]))
    accepting = {n for (i, j), n in ids.items()
                 if i in a.accepting and j in b.accepting}
    return Nfa(a.alphabet, len(ids), range(len(starts)), accepting, trans)


class TestProducts:
    def test_intersect_matches_dense_stepping(self, random_nfa):
        rng = random.Random(7103)
        abc = ("a", "b", "c")
        drawn = Counter()
        for _ in range(150):
            x = random_nfa(rng, abc, 5)
            if rng.random() < 0.4:
                x = random_nfa(rng, AB, 5).with_alphabet(abc)  # never reads c
                drawn["unread letter"] += 1
            y = random_nfa(rng, abc, 5)
            if rng.random() < 0.4:
                y = Nfa(abc, y.n_states, y.initial | {rng.randrange(y.n_states)},
                        y.accepting, y.transitions)
                drawn["extra initial"] += len(y.initial) > 1
            drawn["epsilon"] += any(sym is None for _, sym, _ in
                                    x.transitions + y.transitions)
            for a, b in ((x, y), (y, x)):
                assert pin(a.intersect(b)) == pin(dense_intersect(a, b)), (a, b)
        assert min(drawn.values()) >= 30, drawn

    def test_against_definitions_and_reachable_only(self, random_nfa):
        rng = random.Random(6047)
        for _ in range(60):
            a, b = random_nfa(rng, AB), random_nfa(rng, AB)
            both = a.intersect(b)
            for w in words_over(AB, 5):
                assert both.accepts(w) == (a.accepts(w) and b.accepts(w)), w
            mixed = a.shuffle(b)
            want = set()
            for w1 in a.words_up_to(4)[0]:
                for w2 in b.words_up_to(4 - len(w1))[0]:
                    want |= brute_interleavings(w1, w2)
            assert {w for w in words_over(AB, 4) if mixed.accepts(w)} == want
            for product in (both, mixed):
                assert reachable_states(product) == set(range(product.n_states))


def pin(nfa):
    return nfa.n_states, nfa.initial, nfa.accepting, nfa.transitions


class TestCanonicalNumbering:
    """Exact outputs of `normalize` and of the total minimal DFA, whose trim
    form is `minimal_dfa`: instance printing and the writer state names of
    the reductions depend on them."""

    def test_standard_tests(self):
        one, two = {0}, {1}
        to_1 = [(0, "a", 1), (0, "b", 1)]
        cases = [
            (emptiness_test(AB), (1, one, one, ()),
             (2, 0, one, {(0, "a"): 1, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1})),
            (nonemptiness_test(AB),
             (3, one, {1, 2}, tuple(to_1 + [(1, "a", 2), (1, "b", 2),
                                           (2, "a", 2), (2, "b", 2)])),
             (2, 0, two, {(0, "a"): 1, (0, "b"): 1, (1, "a"): 1, (1, "b"): 1})),
            (even_length_test(AB),
             (3, one, {0, 2}, tuple(to_1 + [(1, "a", 2), (1, "b", 2),
                                           (2, "a", 1), (2, "b", 1)])),
             (2, 0, one, {(0, "a"): 1, (0, "b"): 1, (1, "a"): 0, (1, "b"): 0})),
            (head_test("a", AB),
             (3, one, {1, 2}, ((0, "a", 1), (1, "a", 2), (1, "b", 2),
                               (2, "a", 2), (2, "b", 2))),
             (3, 0, two, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 1,
                          (2, "a"): 2, (2, "b"): 2})),
        ]
        for lang, normal, minimal in cases:
            assert pin(lang.normalize()) == normal
            assert pin(total_minimal_dfa(lang)) == minimal

    def test_fig6_constraint(self, fig6_instance):
        big_r = ucst_to_pep(fig6_instance).R
        path = [(0, "d0", 1), (0, "d4", 2), (1, "d1", 3), (1, "d4", 4),
                (2, "d0", 4), (4, "d1", 5), (5, "d5", 6), (6, "d2", 7),
                (7, "d3", 8)]
        assert pin(big_r.normalize()) == (9, {0}, {8}, tuple(path))
        # the minimal DFA: one path to the accepting state 8, everything
        # else falls into the dead state 2
        live = {(0, "d0"): 1, (0, "d4"): 3, (1, "d4"): 4, (3, "d0"): 4,
                (4, "d1"): 5, (5, "d5"): 6, (6, "d2"): 7, (7, "d3"): 8}
        letters = ("d0", "d1", "d2", "d3", "d4", "d5")
        moves = {(s, a): live.get((s, a), 2) for s in range(9) for a in letters}
        assert pin(total_minimal_dfa(big_r)) == (9, 0, {8}, moves)


def dense_minimize(dfa):
    """Reference Moore refinement: every round signs each state by its class
    and the classes of its targets on every letter."""
    classes = [1 if s in dfa.accepting else 0 for s in range(dfa.n_states)]
    while True:
        signatures = {}
        renumbered = [signatures.setdefault(
            (classes[s], tuple(classes[dfa.transitions[(s, a)]]
                               for a in dfa.alphabet)),
            len(signatures)) for s in range(dfa.n_states)]
        if renumbered == classes:
            break
        classes = renumbered
    raw = {(classes[s], a): classes[t] for (s, a), t in dfa.transitions.items()}
    ids, trans = regdata._explore(
        [classes[dfa.initial]], lambda c: [(a, raw[(c, a)]) for a in dfa.alphabet])
    return Dfa(dfa.alphabet, len(ids), 0,
               {ids[classes[s]] for s in dfa.accepting if classes[s] in ids},
               {(src, a): dst for src, a, dst in trans})


class TestSparseMinimize:
    def test_same_output_as_dense_refinement(self, random_nfa):
        rng = random.Random(6062)
        for _ in range(200):
            sigma = tuple("abcdef"[: rng.randint(1, 6)])
            n = rng.randint(1, 8)
            # subset DFAs, where most moves go to the empty subset, and
            # random total DFAs, which have no dead state
            nfa = random_nfa(rng, sigma, 6)
            dfa = Dfa(sigma, n, rng.randrange(n),
                      {s for s in range(n) if rng.random() < 0.4},
                      {(s, a): rng.randrange(n) for s in range(n) for a in sigma})
            for lang, total in ((nfa, nfa.determinize()), (dfa.as_nfa(), dfa)):
                assert pin(total_minimal_dfa(lang)) == pin(dense_minimize(total))


def chained_minimal_dfa(nfa):
    """The construction the total minimal DFA replaced: the subset DFA, Moore
    refinement (`dense_minimize`, whose output the sparse refinement matched
    exactly), then a normal form, which renumbers letters in `symkey` order."""
    return dense_minimize(nfa.determinize()).as_nfa().normalize()


def chained_nfa_to_regex(nfa):
    """`nfa_to_regex` as it read before the minimal DFA was built from the
    subset memo: the same state elimination over the transitions of
    `chained_minimal_dfa`, dead state included."""
    a = chained_minimal_dfa(nfa)
    start, end = -1, -2
    edges = {}

    def add(i, j, node):
        edges.setdefault((i, j), _Alternation()).add(node)

    for src, sym, dst in a.transitions:
        add(src, dst, ("sym", sym))
    for i in sorted(a.initial):
        add(start, i, ("eps",))
    for i in sorted(a.accepting):
        add(i, end, ("eps",))
    remaining = set(range(a.n_states))
    while remaining:
        def degree(k):
            into = sum(1 for (i, j) in edges if j == k and i != k)
            out = sum(1 for (i, j) in edges if i == k and j != k)
            return (into * out, k)

        k = min(remaining, key=degree)
        remaining.discard(k)
        loop = _star(edges.pop((k, k), _Alternation()).node)
        into = [(i, alt.node) for (i, j), alt in edges.items()
                if j == k and i != k]
        out = [(j, alt.node) for (i, j), alt in edges.items()
               if i == k and j != k]
        for (i, _) in into:
            edges.pop((i, k))
        for (j, _) in out:
            edges.pop((k, j))
        for i, rin in into:
            for j, rout in out:
                add(i, j, _cat(rin, _cat(loop, rout)))
    result = edges.get((start, end), _Alternation()).node
    return "NONE" if result is None else _render(result)


def trim_of(dfa):
    """`dfa` without its dead states and the moves into them, the live states
    keeping their order: what `minimal_dfa` is of the total reference."""
    live = [s for s, d in enumerate(dfa_distances(dfa)) if d is not None]
    rank = {s: k for k, s in enumerate(live)}
    return Dfa(dfa.alphabet, len(live), rank.get(dfa.initial),
               {rank[s] for s in dfa.accepting},
               {(rank[src], a): rank[dst]
                for (src, a), dst in dfa.transitions.items() if dst in rank})


class TestMinimalDfa:
    """`minimal_dfa` walks the automaton's own subset memo and leaves out the
    dead state; it must give exactly the trim of the total minimal DFA
    (`total_minimal_dfa`), which in turn is exactly the automaton of the
    chain of constructions it replaced, and `nfa_to_regex` exactly that
    chain's text."""

    @staticmethod
    def assert_same(nfa):
        want = chained_minimal_dfa(nfa)
        total = total_minimal_dfa(nfa)
        assert total.alphabet == nfa.alphabet
        assert pin(total.as_nfa()) == pin(want)
        got, trim = nfa.minimal_dfa(), trim_of(total)
        assert got.alphabet == nfa.alphabet
        assert pin(got) == pin(trim)
        # the elimination adds edges in this order
        assert list(got.transitions.items()) == list(trim.transitions.items())
        assert nfa_to_regex(nfa) == chained_nfa_to_regex(nfa)

    def test_random_automata(self, random_nfa):
        # epsilon moves, extra initial states, a letter never read
        for nfa in drawn_automata(random_nfa, random.Random(1401), 300):
            self.assert_same(nfa)

    def test_text_is_pinned(self, random_nfa):
        # one sha256 prefix over the texts of the random battery
        digest = hashlib.sha256()
        for nfa in drawn_automata(random_nfa, random.Random(1404), 300):
            digest.update(nfa_to_regex(nfa).encode() + b"\n")
        assert digest.hexdigest()[:16] == "38ccce4d9df950d6"

    def test_empty_language_and_empty_alphabet(self, random_nfa):
        rng = random.Random(1402)
        for sigma in (AB, ()):
            self.assert_same(nothing(sigma))
            self.assert_same(Nfa(sigma, 2, (), {0}, ()))  # no initial state
            for _ in range(40):
                nfa = random_nfa(rng, sigma, 5)
                self.assert_same(nfa)
                self.assert_same(Nfa(sigma, nfa.n_states, nfa.initial, (),
                                     nfa.transitions))
        assert nfa_to_regex(nothing(())) == "NONE"
        assert nfa_to_regex(Nfa.literal((), ())) == "EPS"

    def test_trim_edge_cases(self):
        # a total automaton: no dead class, so trim and total agree
        every = Nfa.all_words(AB)
        self.assert_same(every)
        assert pin(every.minimal_dfa()) == pin(total_minimal_dfa(every)) == (
            1, 0, {0}, {(0, "a"): 0, (0, "b"): 0})
        # an empty language, and no initial state: no states at all
        for empty in (nothing(AB), Nfa(AB, 2, (), {0}, [(0, "a", 1)])):
            self.assert_same(empty)
            assert pin(empty.minimal_dfa()) == (0, None, set(), {})
            assert pin(total_minimal_dfa(empty)) == (
                1, 0, set(), {(0, "a"): 0, (0, "b"): 0})
            assert nfa_to_regex(empty) == "NONE"

    def test_dead_class_between_live_classes(self, fig6_instance):
        # the total form numbers fig6's dead class 2, so every live class
        # after it moves down by one in the trim form
        big_r = ucst_to_pep(fig6_instance).R
        self.assert_same(big_r)
        total = total_minimal_dfa(big_r)
        assert [s for s, d in enumerate(dfa_distances(total)) if d is None] == [2]
        moves = {(0, "d0"): 1, (0, "d4"): 2, (1, "d4"): 3, (2, "d0"): 3,
                 (3, "d1"): 4, (4, "d5"): 5, (5, "d2"): 6, (6, "d3"): 7}
        assert pin(big_r.minimal_dfa()) == (8, 0, {7}, moves)

    def test_alphabets_out_of_symkey_order(self, random_nfa):
        rng = random.Random(1403)
        twelve = tuple(f"d{i}" for i in range(12))  # d10 sorts before d2
        shuffled = list(twelve)
        rng.shuffle(shuffled)
        for sigma in (twelve, tuple(shuffled), ("b", 2, "a", 10, 1),
                      (3, "c", 1)):
            assert list(sigma) != sorted(sigma, key=regdata.symkey)
            for _ in range(40):
                nfa = random_nfa(rng, sigma, 6)
                initial = set(nfa.initial) | {rng.randrange(nfa.n_states)}
                self.assert_same(Nfa(sigma, nfa.n_states, initial,
                                     nfa.accepting, nfa.transitions))

    def test_needs_neither_normal_form_nor_subset_dfa(self, monkeypatch):
        def refuse(self):
            raise AssertionError("nfa_to_regex built a copy of the automaton")

        built = []

        def recorded(self):
            built.append(minimal_dfa(self))
            return built[-1]

        lang = parse_regex("a (b | a)* | b", AB)
        minimal_dfa = Nfa.minimal_dfa
        monkeypatch.setattr(Nfa, "normalize", refuse)
        monkeypatch.setattr(Nfa, "determinize", refuse)
        monkeypatch.setattr(Nfa, "minimal_dfa", recorded)
        assert nfa_to_regex(lang) == "a (a | b)* | b"
        # the walk stepped the automaton's own memo
        assert lang.initial_subset() in lang._subsets()[2]
        # and the elimination ran on the trim form, not on the total one,
        # where every letter after the word "b" leads to a dead state
        (dfa,) = built
        assert None not in dfa_distances(dfa)
        assert total_minimal_dfa(lang).n_states == dfa.n_states + 1


def fields(nfa):
    return nfa.alphabet, nfa.n_states, nfa.initial, nfa.accepting, nfa.transitions


class TestCachedNormalize:
    def test_second_call_returns_the_same_copy(self, random_nfa):
        rng = random.Random(89)
        for _ in range(400):
            nfa = random_nfa(rng, AB)
            once = nfa.normalize()
            assert nfa.normalize() is once
            assert fields(once) == fields(Nfa(*fields(nfa)).normalize())

    def test_normal_form_of_a_normal_form(self, random_nfa):
        # normalize is not idempotent on the numbering, so a copy must not
        # stand for its own normal form
        uncached = Nfa.normalize.__wrapped__
        rng = random.Random(89)
        renumbered = 0
        for _ in range(3000):
            nfa = random_nfa(rng, AB)
            once, twice = nfa.normalize(), nfa.normalize().normalize()
            if fields(twice) != fields(once):
                renumbered += 1
                assert fields(twice) == fields(uncached(uncached(nfa)))
        assert renumbered >= 10


class TestClosureCaches:
    def test_each_answer_is_computed_once(self, count_language_equal):
        calls = count_language_equal(support)
        for rex, up, down in [("ANY+", True, False), ("EPS", False, True),
                              ("a b*", False, False), ("ANY*", True, True)]:
            lang = parse_regex(rex, AB)
            assert (is_upward_closed(lang), is_downward_closed(lang)) == (up, down)
            assert len(calls) == 2
            calls.clear()
            assert (is_upward_closed(lang), is_downward_closed(lang)) == (up, down)
            assert calls == [], rex

    def test_no_automaton_outlives_its_last_reference(self):
        def live_automata():
            gc.collect()
            return sum(isinstance(o, Nfa) for o in gc.get_objects())

        before = live_automata()
        lang = parse_regex("(a | b) a*", AB)
        lang.normalize()
        is_upward_closed(lang)
        is_downward_closed(lang)
        assert [r for r in gc.get_referrers(lang)
                if not isinstance(r, types.FrameType)] == []
        del lang
        assert live_automata() == before


# -- the lazy subset queries against the eager constructions they replaced ----

def eager_determinize(nfa):
    """Subset construction with its own queue over the normal form's
    (state, letter) index; letters in alphabet order, empty subset kept."""
    a = nfa.normalize()
    step = {}
    for src, sym, dst in a.transitions:
        step.setdefault((src, sym), []).append(dst)
    start = frozenset(a.initial)
    ids, queue, trans, accepting = {start: 0}, [start], {}, set()
    for cur in queue:
        if cur & a.accepting:
            accepting.add(ids[cur])
        for sym in a.alphabet:
            nxt = frozenset(t for s in cur for t in step.get((s, sym), ()))
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            trans[(ids[cur], sym)] = ids[nxt]
    return Dfa(a.alphabet, len(ids), 0, accepting, trans)


def eager_words_up_to(nfa, max_len):
    a = nfa.normalize()
    level, out = [((), frozenset(a.initial))], []
    for length in range(max_len + 1):
        out += [word for word, states in level if states & a.accepting]
        level = [(word + (sym,), moved) for word, states in level
                 for sym in sorted(set(a.alphabet), key=regdata.symkey)
                 for moved in [frozenset(d for s, x, d in a.transitions
                                         if s in states and x == sym)]
                 if moved]
    return out


def eager_reach(nfa, starts):
    """States reachable from `starts` over every move, epsilon included."""
    seen, todo = set(starts), list(starts)
    while todo:
        s = todo.pop()
        for src, _, dst in nfa.transitions:
            if src == s and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def eager_has_word_longer_than(nfa, k):
    a = nfa.normalize()
    layer = set(a.initial)
    for _ in range(k + 1):
        layer = {d for s, _, d in a.transitions if s in layer}
    return not a.accepting.isdisjoint(eager_reach(a, layer))


def eager_language_equal(a, b):
    """Emptiness of both difference languages, complements by
    `eager_determinize`."""
    def complement(x):
        dfa = eager_determinize(x)
        return Dfa(dfa.alphabet, dfa.n_states, 0,
                   set(range(dfa.n_states)) - dfa.accepting,
                   dfa.transitions).as_nfa()

    def is_empty(x):
        return x.accepting.isdisjoint(eager_reach(x, x.initial))
    return (is_empty(a.intersect(complement(b)))
            and is_empty(b.intersect(complement(a))))


def drawn_automata(random_nfa, rng, count):
    """Random automata with epsilon moves, sometimes several initial states,
    and sometimes a letter that no transition reads."""
    for _ in range(count):
        sigma = ("a", "b", "c")[: rng.randint(1, 3)]
        nfa = random_nfa(rng, sigma, 5)
        initial = set(nfa.initial) | {s for s in range(nfa.n_states)
                                      if rng.random() < 0.2}
        alphabet = sigma + ("z",) if rng.random() < 0.5 else sigma
        yield Nfa(alphabet, nfa.n_states, initial, nfa.accepting,
                  nfa.transitions)


class TestLazySubsetQueries:
    """`determinize`, `words_up_to` (with its longer-word flag) and
    `language_equal` step the lazy subset memo; each must give exactly what
    the eager construction it replaced gives, and so must the layer walk of
    `support.has_word_longer_than`."""

    def test_determinize_is_the_same_dfa(self, random_nfa):
        for nfa in drawn_automata(random_nfa, random.Random(1201), 500):
            lazy, eager = nfa.determinize(), eager_determinize(nfa)
            assert (lazy.alphabet, pin(lazy)) == (eager.alphabet, pin(eager))

    def test_words_and_lengths_agree(self, random_nfa):
        for nfa in drawn_automata(random_nfa, random.Random(1202), 500):
            for k in range(7):
                longer = eager_has_word_longer_than(nfa, k)
                assert nfa.words_up_to(k) == (eager_words_up_to(nfa, k), longer)
                assert has_word_longer_than(nfa, k) == longer

    def test_language_equal_agrees(self, random_nfa):
        rng = random.Random(1203)
        automata = list(drawn_automata(random_nfa, rng, 500))
        equal = 0
        for a in automata:
            same_sigma = [b for b in automata if b.alphabet == a.alphabet]
            for b in (rng.choice(same_sigma), a.normalize(),
                      total_minimal_dfa(a).as_nfa()):
                got = language_equal(a, b)
                assert got == eager_language_equal(a, b)
                equal += got
        assert equal >= 1000

    def test_languages_that_differ_on_one_long_word(self):
        every_a = parse_regex("a*", AB)
        all_but_aaaa = parse_regex("EPS | a | a a | a a a | a a a a a a*", AB)
        assert not language_equal(every_a, all_but_aaaa)
        assert not language_equal(all_but_aaaa, every_a)
        assert language_equal(
            every_a, union(all_but_aaaa, Nfa.literal(("a",) * 4, AB)))
