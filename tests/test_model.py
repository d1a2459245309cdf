import copy
import random

import pytest

from ucst import model
from ucst.errors import FragmentError, InputError
from ucst.model import (
    LOSS,
    LOSSY,
    RELIABLE,
    WRITE_LOSSY,
    Action,
    Configuration,
    Rule,
    Run,
    Ucst,
    Words,
    classify_tests,
    emptiness_test,
    even_length_test,
    first_invalid_step,
    head_test,
    nonemptiness_test,
    odd_length_test,
    successors,
    validate_run,
)
from ucst import randomgen
from ucst.randomgen import random_ucst
from ucst.regdata import Nfa, language_equal, parse_regex

import support
from support import (
    _stable_behind_head,
    commute,
    commute_case,
    is_head_lossy,
    random_lossy_run,
    to_head_lossy,
)


class TestSuccessors:
    def test_fig6_write_on_l(self, fig6):
        c = Configuration("p2", "q_in", ("c",), ("a",))
        succ = successors(fig6, c, LOSSY)
        assert (2, Configuration("p3", "q_in", ("c",), ("a", "b"))) in succ

    def test_loss_steps_by_position(self, fig6):
        c = Configuration("p_fi", "q_fi", (), ("a", "b"))
        losses = [pair for pair in successors(fig6, c, LOSSY) if pair[0] == LOSS]
        assert losses == [
            (LOSS, Configuration("p_fi", "q_fi", (), ("b",))),
            (LOSS, Configuration("p_fi", "q_fi", (), ("a",))),
        ]

    def test_emptiness_test_enabling(self, fig6):
        enabled = Configuration("p3", "q_in", ("c",), ())
        blocked = Configuration("p3", "q_in", ("c",), ("a",))
        assert any(lab == 3 for lab, _ in successors(fig6, enabled, RELIABLE))
        assert all(lab != 3 for lab, _ in successors(fig6, blocked, RELIABLE))

    def test_reliable_subset_of_lossy(self, fig6):
        rng = random.Random(7)
        c = Configuration("p2", "q_in", ("c",), ("a", "b"))
        rel = successors(fig6, c, RELIABLE)
        lossy = successors(fig6, c, LOSSY)
        wl = successors(fig6, c, WRITE_LOSSY)
        for pair in rel:
            assert pair in lossy and pair in wl

    def test_write_lossy_adds_dropped_write(self, fig6):
        c = Configuration("p2", "q_in", (), ())
        succ = successors(fig6, c, WRITE_LOSSY)
        assert (2, Configuration("p3", "q_in", (), ("b",))) in succ
        assert (("wrlo", 2), Configuration("p3", "q_in", (), ())) in succ
        assert all(lab != LOSS for lab, _ in succ)

    def test_bad_configuration(self, fig6):
        with pytest.raises(InputError):
            successors(fig6, Configuration("nope", "q_in", (), ()), LOSSY)


def make_every_kind_system():
    """Every rule kind on both channels for both agents, tests included.

    Sender ids: 0 l!a, 1 r?a, 2 r!b, 3 l=head(a), 4 r=empty, 5 l?b, 6 nop
    (all from p0), 7 p1 l!b.  Receiver ids: 8 r?a, 9 l!a, 10 l?a,
    11 r=nonempty, 12 l=even, 13 nop, 14 r!b (all from q0), 15 q1 r?b.
    The Sender reads (1, 5) and Receiver writes (9, 14) never fire.
    """
    m = ("a", "b")
    srules = [
        Rule("p0", "l", Action.write("a"), "p1"),
        Rule("p0", "r", Action.read("a"), "p1"),
        Rule("p0", "r", Action.write("b"), "p1"),
        Rule("p0", "l", Action.test(head_test("a", m)), "p1"),
        Rule("p0", "r", Action.test(emptiness_test(m)), "p0"),
        Rule("p0", "l", Action.read("b"), "p1"),
        Rule("p0", "r", Action.nop(), "p1"),
        Rule("p1", "l", Action.write("b"), "p0"),
    ]
    rrules = [
        Rule("q0", "r", Action.read("a"), "q1"),
        Rule("q0", "l", Action.write("a"), "q1"),
        Rule("q0", "l", Action.read("a"), "q1"),
        Rule("q0", "r", Action.test(nonemptiness_test(m)), "q1"),
        Rule("q0", "l", Action.test(even_length_test(m)), "q0"),
        Rule("q0", "r", Action.nop(), "q1"),
        Rule("q0", "r", Action.write("b"), "q1"),
        Rule("q1", "r", Action.read("b"), "q0"),
    ]
    return Ucst(m, ("p0", "p1"), ("q0", "q1"), srules, rrules)


def w(text):
    return tuple(text)


C = Configuration


class TestSuccessorKernel:
    """Exact successor lists (labels, configurations, order) per mode."""

    def succ(self, c, mode):
        return successors(make_every_kind_system(), c, mode)

    def test_empty_channels(self):
        c = C("p0", "q0", (), ())
        rules = [
            (0, C("p1", "q0", (), w("a"))),
            (2, C("p1", "q0", w("b"), ())),
            (4, C("p0", "q0", (), ())),
            (6, C("p1", "q0", (), ())),
            (12, C("p0", "q0", (), ())),
            (13, C("p0", "q1", (), ())),
        ]
        assert self.succ(c, RELIABLE) == rules
        assert self.succ(c, LOSSY) == rules
        assert self.succ(c, WRITE_LOSSY) == (
            rules[:1] + [(("wrlo", 0), C("p1", "q0", (), ()))] + rules[1:])

    def test_full_channels(self):
        c = C("p0", "q0", w("ab"), w("abb"))
        rules = [
            (0, C("p1", "q0", w("ab"), w("abba"))),
            (2, C("p1", "q0", w("abb"), w("abb"))),
            (3, C("p1", "q0", w("ab"), w("abb"))),
            (6, C("p1", "q0", w("ab"), w("abb"))),
            (8, C("p0", "q1", w("b"), w("abb"))),
            (10, C("p0", "q1", w("ab"), w("bb"))),
            (11, C("p0", "q1", w("ab"), w("abb"))),
            (13, C("p0", "q1", w("ab"), w("abb"))),
        ]
        assert self.succ(c, RELIABLE) == rules
        # deleting either b gives the same word: one loss step for both
        assert self.succ(c, LOSSY) == rules + [
            (LOSS, C("p0", "q0", w("ab"), w("bb"))),
            (LOSS, C("p0", "q0", w("ab"), w("ab"))),
        ]
        assert self.succ(c, WRITE_LOSSY) == (
            rules[:1] + [(("wrlo", 0), C("p1", "q0", w("ab"), w("abb")))]
            + rules[1:])

    def test_second_states(self):
        c = C("p1", "q1", w("b"), w("b"))
        rules = [
            (7, C("p0", "q1", w("b"), w("bb"))),
            (15, C("p1", "q0", (), w("b"))),
        ]
        assert self.succ(c, RELIABLE) == rules
        assert self.succ(c, LOSSY) == rules + [(LOSS, C("p1", "q1", w("b"), ()))]
        assert self.succ(c, WRITE_LOSSY) == (
            rules[:1] + [(("wrlo", 7), C("p0", "q1", w("b"), w("b")))] + rules[1:])

    def test_tests_that_fail(self):
        # head(a) fails on l = b, r-empty fails, r-nonempty fails on r = eps,
        # even fails on |l| = 1
        c = C("p0", "q0", (), w("b"))
        assert self.succ(c, RELIABLE) == [
            (0, C("p1", "q0", (), w("ba"))),
            (2, C("p1", "q0", w("b"), w("b"))),
            (4, C("p0", "q0", (), w("b"))),
            (6, C("p1", "q0", (), w("b"))),
            (13, C("p0", "q1", (), w("b"))),
        ]

    def test_bad_mode_and_states(self):
        s = make_every_kind_system()
        with pytest.raises(InputError):
            successors(s, C("p0", "q0", (), ()), "sometimes-lossy")
        with pytest.raises(InputError):
            successors(s, C("q0", "p0", (), ()), LOSSY)

    def test_configuration_fields_and_str(self):
        c = C("p0", "q1", w("ab"), ())
        assert Configuration._fields == ("p", "q", "u", "v")
        assert (c.p, c.q, c.u, c.v) == ("p0", "q1", w("ab"), ())
        assert c == Configuration(p="p0", q="q1", u=w("ab"), v=())
        assert str(c) == "(p0, q1, r=a.b, l=<eps>)"


class TestClassify:
    def test_standard_labels(self):
        m = ("a", "b")
        srules = [
            Rule("p0", "l", Action.test(emptiness_test(m)), "p0"),
            Rule("p0", "r", Action.test(parse_regex("(ANY ANY)*", m)), "p0"),
            Rule("p0", "r", Action.test(parse_regex("a ANY*", m)), "p0"),
        ]
        rrules = [Rule("q0", "l", Action.test(parse_regex("ANY ANY*", m)), "q0")]
        s = Ucst(m, ("p0",), ("q0",), srules, rrules)
        report = classify_tests(s)
        labels = [(t.label, t.agent, t.channel) for t in report.tests]
        assert labels == [("Z", 1, "l"), ("Even", 1, "r"), ("H", 1, "r"),
                          ("N", 2, "l")]
        assert report.tests[2].head_sym == "a"
        assert report.fragment() == {"Z1l", "P1r", "H1r", "N2l"}

    def test_other_test(self):
        m = ("a", "b")
        s = Ucst(m, ("p0",), ("q0",),
                 [Rule("p0", "r", Action.test(parse_regex("a b", m)), "p0")], [])
        assert classify_tests(s).fragment() == {"other"}

    def test_fragment_helpers(self, fig6):
        report = classify_tests(fig6)
        assert report.only_z1l() and report.only_z1()
        assert not report.has_receiver_tests()
        assert report.within({"Z"})


class TestRandomHeadTests:
    def test_drawn_head_tests_classify_as_head(self):
        rng = random.Random(29)
        heads = set()
        for _ in range(10):
            s = random_ucst(rng, sender_tests=(("H", "l"),), test_weight=0.6)
            for test in classify_tests(s).tests:
                assert test.label == "H" and test.channel == "l"
                heads.add(test.head_sym)
        assert heads == {"a", "b"}

    def test_head_language_needs_its_letter(self):
        with pytest.raises(ValueError):
            randomgen.test_language("H", ("a", "b"))
        assert randomgen.test_language("H", ("a", "b"), "b").accepts(("b", "a"))


REFERENCES = (("Z", emptiness_test), ("N", nonemptiness_test),
              ("Even", even_length_test), ("Odd", odd_length_test))


def direct_label(lang, alphabet):
    """Label by comparing against every reference over `alphabet`, uncached:
    the first matching reference in Z, N, Even, Odd order, else the head
    test that matches, else "other"."""
    matches = [(name, None) for name, make in REFERENCES
               if language_equal(lang, make(alphabet))]
    matches += [("H", a) for a in alphabet
                if language_equal(lang, head_test(a, alphabet))]
    return matches[0] if matches else ("other", None)


def one_test_system(lang, alphabet):
    """One-rule system whose Sender tests `l` against `lang`."""
    return Ucst(alphabet, ("p",), ("q",),
                [Rule("p", "l", Action.test(lang), "p")], [])


def cached_label(lang, alphabet):
    (test,) = classify_tests(one_test_system(lang, alphabet)).tests
    return test.label, test.head_sym


class TestTestLabelCache:
    def test_standard_languages(self):
        for m in [("a", "b"), ("a", "b", "c")]:
            langs = [make(m) for _, make in REFERENCES]
            langs += [head_test(a, m) for a in m]
            langs += [parse_regex(rex, m) for rex in ["a ANY*", "ANY ANY ANY*"]]
            for lang in langs:
                assert cached_label(lang, m) == direct_label(lang, m)
            assert [cached_label(lang, m)[0] for lang in langs[:4]] == \
                ["Z", "N", "Even", "Odd"]

    def test_random_languages(self, random_nfa):
        rng = random.Random(97)
        m = ("a", "b")
        for _ in range(60):
            lang = random_nfa(rng, m)
            for _ in range(2):
                assert cached_label(lang, m) == direct_label(lang, m)

    def test_one_language_shared_by_differently_ordered_alphabets(self):
        lang = head_test("b", ("a", "b"))
        for m in [("a", "b"), ("b", "a")]:
            assert cached_label(lang, m) == direct_label(lang, m) == ("H", "b")
        n = nonemptiness_test(("b", "a"))
        assert cached_label(n, ("a", "b")) == ("N", None)

    def test_one_letter_nonemptiness_is_n_not_head(self):
        m = ("a",)
        assert language_equal(nonemptiness_test(m), head_test("a", m))
        for lang in [nonemptiness_test(m), head_test("a", m)]:
            assert cached_label(lang, m) == direct_label(lang, m) == ("N", None)

    def test_second_classification_compares_nothing(self, count_language_equal):
        calls = count_language_equal(model)
        s = make_every_kind_system()
        first = classify_tests(s)
        assert calls
        calls.clear()
        assert classify_tests(s) == first
        assert calls == []

    def test_stability_behind_the_head_is_computed_once(self, count_language_equal):
        calls = count_language_equal(support)
        m = ("a", "b")
        for lang in [nonemptiness_test(m), even_length_test(m)]:
            answer = _stable_behind_head(lang)
            assert calls
            calls.clear()
            assert _stable_behind_head(lang) == answer
            assert calls == []


class TestValidateRun:
    def test_fig6_run_validates(self, fig6, fig6_run):
        assert validate_run(fig6, fig6_run, LOSSY)

    def test_loss_removal_breaks_it(self, fig6, fig6_run):
        steps = [(lab, cfg) for lab, cfg in fig6_run.steps if lab != LOSS]
        # recompute configurations: without the loss the read of b fails at
        # head a, so validation must point at that read (index 3)
        broken = Run(fig6_run.start, tuple(steps))
        assert not validate_run(fig6, broken, LOSSY)
        assert first_invalid_step(fig6, broken, LOSSY) == 3

    def test_empty_run(self, fig6):
        assert validate_run(fig6, Run(Configuration("p2", "q1", ("x",), ())
                                      if False else Configuration("p2", "q1", (), ())),
                            LOSSY)

    def test_run_not_under_reliable(self, fig6, fig6_run):
        assert not validate_run(fig6, fig6_run, RELIABLE)


class TestHeadLossy:
    def test_fig6_run_is_head_lossy(self, fig6_run):
        assert is_head_lossy(fig6_run)

    def test_mid_word_loss_is_not(self):
        c0 = Configuration("p", "q", (), ("a", "b"))
        c1 = Configuration("p", "q", (), ("a",))
        c2 = Configuration("p", "q", (), ())
        run = Run(c0, (((LOSS), c1), (LOSS, c2)))
        assert is_head_lossy(run)  # only losses, all trailing
        s_dummy = None
        run2 = Run(c0, ((LOSS, c1), (0, c2)))
        assert not is_head_lossy(run2)  # loses "b" behind head before a rule

    def test_trailing_losses_ok(self, fig6):
        c0 = Configuration("p_in", "q_in", (), ())
        c1 = Configuration("p1", "q_in", (), ("a",))
        c2 = Configuration("p1", "q_in", (), ())
        run = Run(c0, ((0, c1), (LOSS, c2)))
        assert validate_run(fig6, run) and is_head_lossy(run)


def find_pair(s, run, wanted_case):
    for i in range(len(run.steps) - 1):
        if commute_case(s, run, i) == wanted_case:
            return i
    return None


class TestCommute:
    def test_no_contact(self, fig6):
        # Sender writes on r, then Receiver reads on l
        c0 = Configuration("p1", "q_in", (), ("b",))
        c1 = Configuration("p2", "q_in", ("c",), ("b",))
        c2 = Configuration("p2", "q1", ("c",), ())
        run = Run(c0, ((1, c1), (4, c2)))
        assert commute_case(fig6, run, 0) == "no-contact"
        swapped = commute(fig6, run, 0)
        assert validate_run(fig6, swapped)
        assert swapped.start == run.start and swapped.end == run.end
        assert swapped.labels() == [4, 1]

    def test_postponable_loss(self, fig6):
        # lose a b behind the head, then read the head b from l: only the
        # postponable-loss case covers a loss followed by a same-channel read
        c0 = Configuration("p_fi", "q_in", (), ("b", "b"))
        c1 = Configuration("p_fi", "q_in", (), ("b",))
        c2 = Configuration("p_fi", "q1", (), ())
        run = Run(c0, ((LOSS, c1), (4, c2)))
        assert validate_run(fig6, run)
        assert commute_case(fig6, run, 0) == "postponable-loss"
        swapped = commute(fig6, run, 0)
        assert validate_run(fig6, swapped)
        assert swapped.end == run.end

    def test_receiver_then_sender_z_test_excluded(self, fig6):
        c0 = Configuration("p3", "q_in", ("c",), ("b",))
        c1 = Configuration("p3", "q1", ("c",), ())
        c2 = Configuration("p_fi", "q1", ("c",), ())
        run = Run(c0, ((4, c1), (3, c2)))
        assert validate_run(fig6, run)
        assert commute(fig6, run, 0) is None

    def test_advanceable_sender_with_nonempty_test(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0", "q1"),
                 [Rule("p0", "l", Action.test(nonemptiness_test(m)), "p1")],
                 [Rule("q0", "l", Action.read("a"), "q1")])
        c0 = Configuration("p0", "q0", (), ("a", "a"))
        c1 = Configuration("p0", "q1", (), ("a",))
        c2 = Configuration("p1", "q1", (), ("a",))
        run = Run(c0, ((1, c1), (0, c2)))
        assert validate_run(s, run)
        assert commute_case(s, run, 0) == "advanceable-sender"
        swapped = commute(s, run, 0)
        assert validate_run(s, swapped) and swapped.end == run.end

    def test_advanceable_loss_excludes_l_write(self, fig6):
        # write b on l then lose that very b: not advanceable
        c0 = Configuration("p2", "q_fi", (), ())
        c1 = Configuration("p3", "q_fi", (), ("b",))
        c2 = Configuration("p3", "q_fi", (), ())
        run = Run(c0, ((2, c1), (LOSS, c2)))
        assert validate_run(fig6, run)
        assert commute(fig6, run, 0) is None

    def test_two_losses_swap_their_middle(self):
        # a.b.a -> b.a -> b also runs as a.b.a -> a.b -> b; the swap must
        # take that middle, not hand back the original one
        m = ("a", "b")
        s = Ucst(m, ("p",), ("q",), [], [])
        c0, c1, c2 = (Configuration("p", "q", (), w)
                      for w in (("a", "b", "a"), ("b", "a"), ("b",)))
        run = Run(c0, ((LOSS, c1), (LOSS, c2)))
        swapped = commute(s, run, 0)
        assert validate_run(s, swapped)
        assert swapped.steps[0][1].v == ("a", "b")
        assert swapped.end == run.end

    def test_loss_not_postponable_past_parity_test(self):
        # losing the b of a.b makes l odd; with the b still there it is even,
        # so the loss cannot move past the test
        m = ("a", "b")
        s = Ucst(m, ("p0", "p1"), ("q0",),
                 [Rule("p0", "l", Action.test(odd_length_test(m)), "p1")], [])
        c0 = Configuration("p0", "q0", (), ("a", "b"))
        c1 = Configuration("p0", "q0", (), ("a",))
        c2 = Configuration("p1", "q0", (), ("a",))
        run = Run(c0, ((LOSS, c1), (0, c2)))
        assert validate_run(s, run)
        assert commute_case(s, run, 0) is None
        with pytest.raises(FragmentError, match="rule 0"):
            to_head_lossy(s, run)


class TestToHeadLossy:
    def test_fixpoint(self, fig6, fig6_run):
        assert to_head_lossy(fig6, fig6_run) == fig6_run

    def test_repairs_mid_word_loss(self, fig6):
        # write a, write c on r, write b, lose the *a* ... build a run where a
        # non-head loss happens while more rules follow
        c0 = Configuration("p_in", "q_in", (), ())
        c1 = Configuration("p1", "q_in", (), ("a",))
        c2 = Configuration("p2", "q_in", ("c",), ("a",))
        c3 = Configuration("p3", "q_in", ("c",), ("a", "b"))
        c4 = Configuration("p3", "q_in", ("c",), ("a",))  # lost b (non-head)
        c5 = Configuration("p3", "q_in", ("c",), ())      # lost a
        c6 = Configuration("p_fi", "q_in", ("c",), ())
        run = Run(c0, ((0, c1), (1, c2), (2, c3), (LOSS, c4), (LOSS, c5), (3, c6)))
        assert validate_run(fig6, run)
        assert not is_head_lossy(run)
        fixed = to_head_lossy(fig6, run)
        assert validate_run(fig6, fixed)
        assert is_head_lossy(fixed)
        assert fixed.start == run.start and fixed.end == run.end

    def test_consecutive_losses_before_a_write(self):
        # two losses behind the head in a row, then l!b: pushing the first
        # loss past the second alone would give back the same run
        m = ("a", "b")
        s = Ucst(m, ("p",), ("q",), [Rule("p", "l", Action.write("b"), "p")], [])
        c0 = Configuration("p", "q", (), ("a", "b", "b", "b"))
        c1 = Configuration("p", "q", (), ("a", "b", "b"))
        c2 = Configuration("p", "q", (), ("a", "b"))
        c3 = Configuration("p", "q", (), ("a", "b", "b"))
        run = Run(c0, ((LOSS, c1), (LOSS, c2), (0, c3)))
        assert validate_run(s, run)
        assert commute(s, run, 0) == run
        fixed = to_head_lossy(s, run)
        assert validate_run(s, fixed)
        assert is_head_lossy(fixed)
        assert fixed.start == run.start and fixed.end == run.end

    def test_random_runs(self):
        rng = random.Random(20240811)
        for trial in range(100):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")),
                            receiver_tests=(("Z", "r"), ("N", "l")))
            start = Configuration(s.sender_states[0], s.receiver_states[0], (), ())
            run = random_lossy_run(rng, s, start, rng.randrange(1, 12))
            assert validate_run(s, run)
            fixed = to_head_lossy(s, run)
            assert validate_run(s, fixed)
            assert is_head_lossy(fixed)
            assert fixed.start == run.start and fixed.end == run.end


def push_losses_up_to(words, k, letters):
    """`Words.up_to` as the saturation oracle wrote it before: push level
    by level, then ask each word's losses in that order."""
    level, out = [0], [0]
    for _ in range(k):
        level = [words.push(v, a) for v in level for a in letters]
        out += level
    for v in out:
        words.losses(v)
    return out


def table_state(words):
    return (words._ids, words.word, words.length, words.head, words.tail,
            words.pushed, words.lost, words.gained)


class TestWordsUpTo:
    CASES = [(k, n) for k in range(5) for n in (1, 2, 3)]

    @staticmethod
    def letters(rng, n):
        letters = ["a", "b", "c"][:n]
        rng.shuffle(letters)  # `up_to` follows the order it is given
        return letters

    def test_fresh_table_matches_push_losses_loop(self):
        rng = random.Random(41)
        for k, n in self.CASES:
            letters = self.letters(rng, n)
            ours, ref = Words(), Words()
            got = ours.up_to(k, letters)
            assert got == push_losses_up_to(ref, k, letters), (k, letters)
            assert table_state(ours) == table_state(ref), (k, letters)
            assert len(got) == sum(n ** i for i in range(k + 1))

    def test_partly_filled_table_matches_push_losses_loop(self):
        """Tables first filled by seeded random `id`, `push` and `losses`
        calls, over a letter `up_to` is not given too and with words longer
        than `k`: what the table held is kept, and the words, heads, tails,
        pushes, `lost` tuples (in order) and `gained` lists come out as the
        loop leaves them."""
        rng = random.Random(43)
        kept = 0
        for _ in range(20):
            for k, n in self.CASES:
                letters = self.letters(rng, n)
                ours = Words()
                for _ in range(rng.randint(0, 12)):
                    pool = letters + ["z"]
                    i = ours.id(tuple(rng.choice(pool)
                                      for _ in range(rng.randint(0, k + 2))))
                    call = rng.random()
                    if call < 0.4:
                        ours.push(i, rng.choice(pool))
                    elif call < 0.8:
                        ours.losses(i)
                ref = copy.deepcopy(ours)
                before = len(ours.word)
                got = ours.up_to(k, letters)
                assert got == push_losses_up_to(ref, k, letters), (k, letters)
                assert table_state(ours) == table_state(ref), (k, letters)
                kept += sum(i < before for i in got)
        assert kept >= 1000, kept


class TestModelValidation:
    def test_state_sets_must_be_disjoint(self):
        with pytest.raises(InputError):
            Ucst(("a",), ("x",), ("x",), [], [])

    def test_rule_message_in_alphabet(self):
        with pytest.raises(InputError):
            Ucst(("a",), ("p",), ("q",),
                 [Rule("p", "r", Action.write("z"), "p")], [])

    def test_test_alphabet_must_match(self):
        with pytest.raises(InputError):
            Ucst(("a", "b"), ("p",), ("q",),
                 [Rule("p", "r", Action.test(Nfa.literal((), ("a",))), "p")], [])
