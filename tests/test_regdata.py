import gc
import itertools
import random
import types

import pytest

from ucst import regdata
from ucst.errors import InputError
from ucst.model import (
    emptiness_test,
    even_length_test,
    head_test,
    nonemptiness_test,
    odd_length_test,
)
from ucst.reductions import ucst_to_pep
from ucst.regdata import (
    Nfa,
    is_downward_closed,
    is_upward_closed,
    language_equal,
    language_subset,
    parse_regex,
    subword,
    subword_one,
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
                assert lang.accepts(word) == dfa.accepts(word), (lang, word)
            # a second pass answers from the warm memo
            for word in words_over(AB, 6):
                assert lang.accepts(word) == dfa.accepts(word), (lang, word)

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
        with pytest.raises(InputError):
            Nfa.literal(t("a"), ("a",)).union(Nfa.literal(t("b"), ("b",)))


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
        up = Nfa.literal(t("a"), AB).upward_closure()
        for good in ["ba", "ab", "bab", "a"]:
            assert up.accepts(t(good))
        for bad in ["b", ""]:
            assert not up.accepts(t(bad))

    def test_downward_of_ab(self):
        down = Nfa.literal(t("ab"), AB).downward_closure()
        accepted = {w for w in words_over(AB, 3) if down.accepts(w)}
        assert accepted == {(), t("a"), t("b"), t("ab")}

    def test_upward_idempotent(self):
        lang = parse_regex("a b* | b b", AB)
        once = lang.upward_closure()
        assert language_equal(once.upward_closure(), once)

    def test_against_brute_force(self):
        corpus = ["EPS", "a", "a b", "(a | b) a*", "(ANY ANY)*", "b+"]
        small = list(words_over(AB, 5))
        for rex in corpus:
            lang = parse_regex(rex, AB)
            up, down = lang.upward_closure(), lang.downward_closure()
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
                quotient = lang.quotient(sym)
                for w in words_over(AB, 4):
                    assert quotient.accepts(w) == lang.accepts((sym,) + w), (rex, sym, w)


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


class TestEnumeration:
    def test_words_up_to(self):
        lang = parse_regex("a* b", AB)
        assert lang.words_up_to(3) == [
            t("b"), t("ab"), t("aab")]

    def test_longer_word_detection(self):
        assert parse_regex("a*", AB).has_word_longer_than(10)
        assert not parse_regex("a | a b", AB).has_word_longer_than(2)
        assert parse_regex("(a a)*", AB).has_word_longer_than(2)

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


class TestProducts:
    def test_against_definitions_and_reachable_only(self, random_nfa):
        rng = random.Random(6047)
        for _ in range(60):
            a, b = random_nfa(rng, AB), random_nfa(rng, AB)
            both = a.intersect(b)
            for w in words_over(AB, 5):
                assert both.accepts(w) == (a.accepts(w) and b.accepts(w)), w
            mixed = a.shuffle(b)
            want = set()
            for w1 in a.words_up_to(4):
                for w2 in b.words_up_to(4 - len(w1)):
                    want |= brute_interleavings(w1, w2)
            assert {w for w in words_over(AB, 4) if mixed.accepts(w)} == want
            for product in (both, mixed):
                assert reachable_states(product) == set(range(product.n_states))


def pin(nfa):
    return nfa.n_states, nfa.initial, nfa.accepting, nfa.transitions


class TestCanonicalNumbering:
    """Exact outputs of `normalize` and `determinize().minimize()`: instance
    printing and the writer state names of the reductions depend on them."""

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
            assert pin(lang.determinize().minimize()) == minimal

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
        assert pin(big_r.determinize().minimize()) == (9, 0, {8}, moves)


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
        calls = count_language_equal(regdata)
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
