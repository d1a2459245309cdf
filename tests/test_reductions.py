import hashlib
import random
from collections import Counter

import pytest

from ucst import explore, reductions
from ucst.errors import FragmentError, InputError
from ucst.explore import (
    UNREACHABLE,
    Bound,
    bounded_graph,
    bounded_reach,
    coreach_in,
)
from ucst.fileformat import parse_ucst, print_ucst
from ucst.model import (
    LOSSY,
    MODES,
    L,
    R,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Ucst,
    classify_tests,
    emptiness_test,
    nonemptiness_test,
    step,
)
from ucst.pep import PepInstance, is_pre_solution
from ucst.randomgen import random_instance, random_ucst, random_z1l_instance
from ucst.reductions import (
    UpwardClosedSet,
    _config_key,
    _is_eps_language,
    _minimal_r_empty,
    bounded_oracle,
    bridge_context,
    config_below,
    decide_eereach_z1,
    elim_final,
    elim_initial,
    elim_n1,
    elim_receiver_tests,
    pep_to_ucst,
    pre_star_z1l,
    run_pipeline,
    ucst_to_pep,
)
from ucst.regdata import Nfa, language_equal, parse_regex

from support import coreach_set, enumerate_solutions, shuffle_built_r


def eps(m):
    return Nfa.literal((), m)


def count_writes(rules):
    return sum(1 for r in rules if r.action.kind == "write")


class TestUpwardClosedSet:
    def test_antichain_minimization(self):
        c1 = Configuration("p", "q", (), ("a",))
        c2 = Configuration("p", "q", (), ("a", "b"))
        c3 = Configuration("p", "q2", (), ())
        s = UpwardClosedSet.of([c2, c1, c3])
        assert s.minimal == tuple(sorted([c1, c3], key=lambda c: (c.p, c.q)))
        assert s.contains(c2)
        assert not s.contains(Configuration("p", "q", (), ("b",)))

    def test_of_and_union(self):
        c1 = Configuration("p", "q", (), ("a", "a"))
        c2 = Configuration("p", "q", (), ("a",))
        s = UpwardClosedSet.of([c1])
        s2 = UpwardClosedSet.of(s.minimal + (c2,))
        assert s2.minimal == (c2,)
        assert s.union(s2) == s2

    def test_rejects_nonempty_r(self):
        with pytest.raises(InputError):
            UpwardClosedSet.of([Configuration("p", "q", ("a",), ())])

    def test_rejects_duplicates_whatever_their_identity(self):
        c = Configuration("p", "q", (), ("a",))
        for twin in (c, Configuration("p", "q", (), ("a",))):
            with pytest.raises(InputError):
                UpwardClosedSet((c, twin))
            assert UpwardClosedSet.of([c, twin]) == UpwardClosedSet((c,))

    def test_of_and_union_match_quadratic_definitions(self):
        rng = random.Random(97)
        for _ in range(300):
            xs = random_r_empty_configs(rng, rng.randint(0, 12))
            ys = random_r_empty_configs(rng, rng.randint(0, 12))
            a, b = UpwardClosedSet.of(xs), UpwardClosedSet.of(ys)
            assert a.minimal == quadratic_of(xs)
            assert a.union(b).minimal == quadratic_of(a.minimal + b.minimal)
            assert a.union(b).minimal == quadratic_of(xs + ys)

    def test_antichain_check_raises_exactly_on_comparable_pairs(self):
        rng = random.Random(101)
        raised = 0
        for _ in range(400):
            cs = tuple(random_r_empty_configs(rng, rng.randint(0, 5)))
            if any(config_below(c, d) or config_below(d, c)
                   for i, c in enumerate(cs) for d in cs[i + 1:]):
                with pytest.raises(InputError):
                    UpwardClosedSet(cs)
                raised += 1
            else:
                assert UpwardClosedSet(cs).minimal == cs
        assert 100 <= raised <= 300


def quadratic_of(configs):
    """`UpwardClosedSet.of` by its first definition: every pair compared."""
    mins = []
    for c in sorted(configs, key=_config_key):
        if not any(config_below(m, c) for m in mins):
            mins = [m for m in mins if not config_below(c, m)] + [c]
    return tuple(sorted(mins, key=_config_key))


class TestMinimalREmpty:
    def test_any_node_set_against_quadratic_of(self):
        """Minimal elements of node sets that need not be upward-closed, so
        a word's nearest smaller word in its group may be several losses
        below it; nodes with a nonempty r are left out."""
        s = Ucst(("a", "b"), ("p0", "p1", "p2"), ("q0", "q1"), [], [])
        a, aba = s.node(Configuration("p0", "q0", (), ("a",))), \
            s.node(Configuration("p0", "q0", (), ("a", "b", "a")))
        assert _minimal_r_empty(s, [aba, a]).minimal == (
            Configuration("p0", "q0", (), ("a",)),)
        rng = random.Random(53)
        for _ in range(200):
            configs = random_r_empty_configs(rng, rng.randint(0, 12))
            configs += [c._replace(u=("b",)) for c in configs[:2]]
            got = _minimal_r_empty(s, [s.node(c) for c in configs])
            assert got.minimal == quadratic_of([c for c in configs if not c.u])


def random_r_empty_configs(rng, n):
    """`n` r-empty configurations over six control pairs with l-words of up
    to five letters; about a quarter are equal copies of earlier ones."""
    configs = []
    for _ in range(n):
        if configs and rng.random() < 0.25:
            c = rng.choice(configs)
            configs.append(Configuration(c.p, c.q, (), tuple(list(c.v))))
        else:
            word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 5)))
            configs.append(Configuration(rng.choice(("p0", "p1", "p2")),
                                         rng.choice(("q0", "q1")), (), word))
    return configs


class TestIsEpsLanguage:
    def test_against_language_equal(self, random_nfa):
        m = ("a", "b")
        rng = random.Random(3301)
        langs = [eps(m), Nfa(m, 3, {0}, {0}, [(0, "a", 1), (1, None, 2)]),
                 Nfa.nothing(m).star(), parse_regex("EPS | EPS EPS", m),
                 parse_regex("a*", m), Nfa.nothing(m), Nfa.all_words(m)]
        langs += [random_nfa(rng, m) for _ in range(400)]
        positives = 0
        for lang in langs:
            expected = language_equal(lang, Nfa.literal((), m))
            assert _is_eps_language(lang) == expected, lang
            positives += expected
        assert 20 <= positives <= len(langs) - 20


def zn_system():
    """Small [Z,N] system with tests on both sides."""
    m = ("a", "b")
    srules = [
        Rule("p0", "l", Action.write("a"), "p1"),
        Rule("p1", "r", Action.test(emptiness_test(m)), "p1"),
        Rule("p1", "l", Action.test(nonemptiness_test(m)), "p1"),
        Rule("p1", "l", Action.write("b"), "p2"),
    ]
    rrules = [
        Rule("q0", "l", Action.read("a"), "q1"),
        Rule("q1", "l", Action.test(emptiness_test(m)), "q2"),
        Rule("q1", "l", Action.test(nonemptiness_test(m)), "q1"),
        Rule("q2", "l", Action.read("b"), "q3"),
    ]
    return Ucst(m, ("p0", "p1", "p2"), ("q0", "q1", "q2", "q3"),
                srules, rrules)


class TestElimReceiverTests:
    def test_rule_counts(self):
        s = zn_system()
        inst = ReachInstance(s, "p0", "p2", "q0", "q3",
                             eps(s.alphabet), eps(s.alphabet),
                             eps(s.alphabet), eps(s.alphabet))
        out = elim_receiver_tests(inst)
        s2 = out.system
        assert s2.n_sender_rules == s.n_sender_rules + 6 * len(s.sender_states) \
            + 3 * count_writes(s.sender_rules)
        assert len(s2.receiver_rules) == len(s.receiver_rules)
        assert not classify_tests(s2).has_receiver_tests()
        assert set(s2.alphabet) == set(s.alphabet) | {"z", "n"}

    def test_padded_initial_constraints(self):
        s = zn_system()
        m = s.alphabet
        inst = ReachInstance(s, "p0", "p2", "q0", "q3",
                             parse_regex("a", m), eps(m), eps(m), eps(m))
        out = elim_receiver_tests(inst)
        assert out.U.accepts(("n", "a"))
        assert out.U.accepts(("a",))
        assert not out.U.accepts(("a", "n"))
        assert language_equal(out.V, eps(out.system.alphabet))

    def test_no_tests_verdict_unchanged(self):
        rng = random.Random(11)
        for _ in range(15):
            s = random_ucst(rng, n_sender_rules=3, n_receiver_rules=3)
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            out = elim_receiver_tests(inst)
            a = bounded_reach(inst, Bound(3, 400), LOSSY)
            b = bounded_reach(out, Bound(3, 400), LOSSY)
            assert a.reachable == b.reachable

    def test_z_trade_uses_signal_segment(self):
        # lone Receiver emptiness test; the target realizes it by the
        # test-write-read-test segment on the fresh signal message
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0", "q1"),
                 [], [Rule("q0", "l", Action.test(emptiness_test(m)), "q1")])
        inst = ReachInstance(s, "p0", "p0", "q0", "q1",
                             eps(m), eps(m), eps(m), eps(m))
        out = elim_receiver_tests(inst)
        verdict = bounded_reach(out, Bound(2, 100), LOSSY)
        assert verdict.reachable
        kinds = [out.system.rule(lab).action for lab, _ in verdict.witness.steps
                 if lab != "los"]
        assert Action.read("z") in kinds
        assert Action.write("z") in kinds

    def test_fragment_violation(self, fig1):
        m = ("a", "b")
        s = Ucst(m, ("p0",), ("q0",),
                 [Rule("p0", "r", Action.test(parse_regex("(ANY ANY)*", m)), "p0")],
                 [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        with pytest.raises(FragmentError):
            elim_receiver_tests(inst)

    def test_reserved_symbol_clash(self):
        m = ("a", "z")
        s = Ucst(m, ("p0",), ("q0",), [], [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        with pytest.raises(InputError):
            elim_receiver_tests(inst)


class TestElimInitial:
    def test_single_letter_chain(self):
        m = ("a", "b")
        s = Ucst(m, ("p_in", "p_fi"), ("q0",),
                 [Rule("p_in", "r", Action.nop(), "p_fi")], [])
        inst = ReachInstance(s, "p_in", "p_fi", "q0", "q0",
                             parse_regex("a", m), eps(m), eps(m), eps(m))
        out = elim_initial(inst)
        assert out.p_in == "p_new"
        added = [r for r in out.system.sender_rules
                 if r not in s.sender_rules]
        assert added == [Rule("p_new", "r", Action.write("a"), "p_in")]
        assert language_equal(out.U, eps(m)) and language_equal(out.V, eps(m))

    def test_trivial_constraints_give_one_nop(self):
        m = ("a",)
        s = Ucst(m, ("p_in",), ("q0",), [], [])
        inst = ReachInstance(s, "p_in", "p_in", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        out = elim_initial(inst)
        assert out.system.sender_rules == (
            Rule("p_new", "r", Action.nop(), "p_in"),)

    def test_verdict_agreement(self):
        rng = random.Random(23)
        positives = 0
        for _ in range(25):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")))
            inst = random_instance(rng, s, empty_final=True)
            out = elim_initial(inst)
            a = bounded_reach(inst, Bound(3, 600), LOSSY)
            b = bounded_reach(out, Bound(3, 600), LOSSY)
            if a.reachable:
                positives += 1
                assert b.reachable
        assert positives >= 3

    def test_receiver_tests_forbidden(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",),
                 [], [Rule("q0", "l", Action.test(emptiness_test(m)), "q0")])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        with pytest.raises(FragmentError):
            elim_initial(inst)


class TestElimN1:
    def test_state_count(self):
        m = ("a", "b")
        s = Ucst(m, ("p0", "p1"), ("q0",),
                 [Rule("p0", "l", Action.test(nonemptiness_test(m)), "p1")],
                 [])
        inst = ReachInstance(s, "p0", "p1", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        out = elim_n1(inst)
        assert len(out.system.sender_states) == \
            len(s.sender_states) * (len(m) + 1) ** 2

    def test_nonempty_test_needs_buffered_write(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1", "p2"), ("q0",),
                 [Rule("p0", "l", Action.write("a"), "p1"),
                  Rule("p1", "l", Action.test(nonemptiness_test(m)), "p2")],
                 [])
        inst = ReachInstance(s, "p0", "p2", "q0", "q0",
                             eps(m), eps(m), Nfa.all_words(m), Nfa.all_words(m))
        out = elim_n1(inst)
        assert classify_tests(out.system).within({"Z"})
        assert bounded_reach(out, Bound(2, 200), LOSSY).reachable
        # without the write the test can never pass
        s2 = Ucst(m, ("p0", "p1", "p2"), ("q0",),
                  [Rule("p0", "r", Action.nop(), "p1"),
                   Rule("p1", "l", Action.test(nonemptiness_test(m)), "p2")],
                  [])
        inst2 = ReachInstance(s2, "p0", "p2", "q0", "q0",
                              eps(m), eps(m), Nfa.all_words(m), Nfa.all_words(m))
        out2 = elim_n1(inst2)
        assert not bounded_reach(out2, Bound(2, 200), LOSSY).reachable

    def test_verdict_agreement(self):
        rng = random.Random(37)
        positives = 0
        for _ in range(50):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "l"), ("N", "r")))
            inst = random_instance(rng, s, empty_initial=True)
            out = elim_n1(inst)
            a = bounded_reach(inst, Bound(3, 600), LOSSY)
            b = bounded_reach(out, Bound(3, 600), LOSSY)
            if a.reachable:
                positives += 1
                assert b.reachable
            if b.reachable:
                assert bounded_reach(inst, Bound(4, 1200), LOSSY).reachable
        assert positives >= 3


class TestElimFinal:
    def test_sender_state_count_and_trivial_chain(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0",),
                 [Rule("p0", "l", Action.test(emptiness_test(m)), "p1")], [])
        inst = ReachInstance(s, "p0", "p1", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        out = elim_final(inst)
        assert len(out.system.sender_states) == 4 * len(s.sender_states)
        cleaning = [r for r in out.system.receiver_rules]
        assert [r.action for r in cleaning] == [Action.read("#"), Action.read("#")]
        assert [r.channel for r in cleaning] == ["r", "l"]
        assert out.q_fi == "q_f"

    def test_verdict_agreement(self):
        rng = random.Random(53)
        positives = 0
        for _ in range(40):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("Z", "r")))
            inst = random_instance(rng, s, empty_initial=True, bias_reachable=0.6)
            out = elim_final(inst)
            a = bounded_reach(inst, Bound(3, 600), LOSSY)
            b = bounded_reach(out, Bound(4, 1500), LOSSY)
            if a.reachable:
                positives += 1
                assert b.reachable
            if b.reachable:
                assert bounded_reach(inst, Bound(4, 1500), LOSSY).reachable
        assert positives >= 3


def bounded_write_z1l_system(rng, alphabet=("a", "b"), forward_sender=True):
    return random_ucst(rng, alphabet=alphabet, n_sender=3, n_receiver=2,
                       n_sender_rules=3, n_receiver_rules=2,
                       sender_tests=(("Z", "l"),), forward_sender=forward_sender)


class TestPreStar:
    def test_no_rules_loss_cone(self):
        m = ("a",)
        s = Ucst(m, ("p",), ("q",), [], [])
        goal = Configuration("p", "q", (), ())
        result = pre_star_z1l(s, [goal], bounded_oracle(Bound(3, 200)))
        assert result.minimal == (goal,)
        assert result.contains(Configuration("p", "q", (), ("a", "a")))

    def test_minimal_element_longer_than_eight_letters(self):
        s = Ucst(("a",), ("p",), ("q",), [], [])
        goal = Configuration("p", "q", (), ("a",) * 9)
        result = pre_star_z1l(s, [goal], bounded_oracle(Bound(9, 0)))
        assert result.minimal == (goal,)

    def test_fig6_start_in_pre_star(self, fig6):
        goal = Configuration("p_fi", "q_fi", (), ())
        result = pre_star_z1l(fig6, [goal], bounded_oracle(Bound(3, 2000)))
        assert result.contains(Configuration("p_in", "q_in", (), ()))
        # antichain invariant
        from ucst.reductions import config_below
        for c in result.minimal:
            for d in result.minimal:
                if c is not d:
                    assert not config_below(c, d)

    def test_matches_backward_bounded_search(self, bounded_space):
        rng = random.Random(61)
        bound = Bound(4, 0)
        for _ in range(8):
            s = bounded_write_z1l_system(rng)
            p_fi = s.sender_states[-1]
            q_fi = s.receiver_states[-1]
            goal = Configuration(p_fi, q_fi, (), ())
            sat = pre_star_z1l(s, [goal], bounded_oracle(Bound(4, 0)))
            co = coreach_set(s, bounded_space(s, 4), [goal], bound)
            co_empty_r = [c for c in co if c.u == ()]
            expected = UpwardClosedSet.of(co_empty_r)
            assert sat == expected


def forward_pre_star(s, target, bound, starts):
    """Reference for `bounded_oracle`: one forward `bounded_reach` per start
    to the target as a final constraint (exact words for a list, upward
    closures for an `UpwardClosedSet`), minimized over the starts that hit."""
    m = s.alphabet
    if isinstance(target, UpwardClosedSet):
        langs = [(c, Nfa.literal(c.v, m).upward_closure()) for c in target.minimal]
    else:
        langs = [(c, Nfa.literal(c.v, m)) for c in target]
    hits = [c for c in starts
            if any(bounded_reach(ReachInstance(s, c.p, g.p, c.q, g.q, eps(m),
                                               Nfa.literal(c.v, m), eps(m), lang),
                                 bound, LOSSY).reachable
                   for g, lang in langs)]
    return UpwardClosedSet.of(hits)


def config_level_oracle(bound):
    """Reference for `bounded_oracle`: the configuration-level form it
    replaced.  Every node of the bounded graph is decoded, the target is a
    predicate over configurations, and the r-empty co-reach configurations
    are minimized by `UpwardClosedSet.of`."""
    def oracle(s, target):
        if isinstance(target, UpwardClosedSet):
            def is_target(c):
                return c.u == () and target.contains(c)
        else:
            goals = set(target)

            def is_target(c):
                return c in goals
        words = Nfa.all_words(s.alphabet).words_up_to(bound.max_channel_len)
        starts = [s.node(Configuration(p, q, (), v)) for v in words
                  for p in s.sender_states for q in s.receiver_states]
        found, rev = bounded_graph(s, starts, bound, LOSSY)
        configs = {n: s.config(n) for n in found}
        co = coreach_in((found, rev),
                        [n for n, c in configs.items() if is_target(c)], bound)
        return UpwardClosedSet.of(c for c in map(configs.get, co) if c.u == ())
    return oracle


def saturation_system(rng):
    """A system as `decide_eereach_z1` hands it to the oracle: random, with
    Sender emptiness tests on both channels and an acyclic Sender, then with
    its r-test rules dropped."""
    while True:
        s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                        n_sender_rules=4, n_receiver_rules=2,
                        sender_tests=(("Z", "l"), ("Z", "r")),
                        test_weight=0.4, forward_sender=True)
        zr = [s.rules[t.rule_id] for t in classify_tests(s).tests
              if t.channel == R]
        if zr:
            return Ucst(s.alphabet, s.sender_states, s.receiver_states,
                        [r for r in s.sender_rules if r not in zr],
                        s.receiver_rules)


class TestBoundedGraph:
    @staticmethod
    def per_node_reverse(s, found, mode, k):
        """Reverse edges from the one-node `step` of every node found, in
        discovery order."""
        rev = {}
        for node in found:
            for _, succ in step(s, node, mode, k)[0]:
                rev.setdefault(succ, []).append(node)
        return rev

    def test_reverse_edges_against_per_node_step(self, fig1):
        """The reverse lists, their keys and each list's order, as stepping
        every node found on its own gives them."""
        rng = random.Random(29)
        fig = Ucst(fig1.alphabet, fig1.sender_states, fig1.receiver_states,
                   fig1.sender_rules, fig1.receiver_rules)
        cases = [(fig, [fig.node(Configuration("p1", "q1", (), ()))], Bound(3, 0))]
        for _ in range(6):
            s = saturation_system(rng)
            words = [s.words.id(v) for v in Nfa.all_words(s.alphabet).words_up_to(3)]
            cases.append((s, [(s.pair(p, q), 0, v) for p in s.sender_states
                              for q in s.receiver_states for v in words],
                          Bound(3, 0)))
        edges = 0
        for s, starts, bound in cases:
            for mode in MODES:
                found, rev = bounded_graph(s, starts, bound, mode)
                want = self.per_node_reverse(s, found, mode, bound.max_channel_len)
                assert list(rev.items()) == list(want.items()), (s, mode)
                edges += sum(map(len, rev.values()))
        assert edges > 5000


class TestBoundedOracle:
    BOUNDS = (Bound(3, 0), Bound(3, 1), Bound(3, 2), Bound(2, 3))

    @staticmethod
    def random_targets(rng, s, max_len):
        def config():
            word = tuple(rng.choice(s.alphabet) for _ in range(rng.randint(0, max_len)))
            return Configuration(rng.choice(s.sender_states),
                                 rng.choice(s.receiver_states), (), word)
        return [config() for _ in range(rng.randint(1, 2))]

    def test_agrees_with_one_forward_search_per_start(self, bounded_space):
        rng = random.Random(83)
        nonempty = 0
        for forward_sender in (True, False):
            for _ in range(3):
                s = bounded_write_z1l_system(rng, forward_sender=forward_sender)
                exact = self.random_targets(rng, s, 2)
                upward = UpwardClosedSet.of(self.random_targets(rng, s, 1))
                for bound in self.BOUNDS:
                    starts = [c for c in bounded_space(s, bound.max_channel_len)
                              if c.u == ()]
                    for target in (exact, upward):
                        got = pre_star_z1l(s, target, bounded_oracle(bound))
                        assert got == forward_pre_star(s, target, bound, starts), \
                            (s, target, bound)
                        nonempty += len(got) > 0
        assert nonempty >= 24

    def test_shared_oracle_answers_as_fresh_ones(self):
        # the oracle keeps the latest system's graph: asking A, B, then A
        # again (and an equal copy of A) must not answer from a stale graph
        rng = random.Random(73)
        bound = Bound(3, 0)
        a = bounded_write_z1l_system(rng)
        b = bounded_write_z1l_system(rng, forward_sender=False)
        a_copy = Ucst(a.alphabet, a.sender_states, a.receiver_states,
                      a.sender_rules, a.receiver_rules)
        shared = bounded_oracle(bound)
        answers = {}
        for _ in range(4):
            exact = self.random_targets(rng, a, 2)
            upward = UpwardClosedSet.of(self.random_targets(rng, a, 1))
            for s in (a, b, a, a_copy, b):
                for target in (exact, upward):
                    got = pre_star_z1l(s, target, shared)
                    assert got == pre_star_z1l(s, target, bounded_oracle(bound))
                    answers.setdefault(s is b, set()).add((id(target), got))
        assert answers[True] != answers[False]

    def test_l_word_longer_than_the_bound_matches_nothing(self):
        s = Ucst(("a",), ("p",), ("q",), [], [])
        goal = Configuration("p", "q", (), ("a",))
        long = Configuration("p", "q", (), ("a",) * 3)
        oracle = bounded_oracle(Bound(2, 0))
        want = pre_star_z1l(s, [goal], oracle)
        assert want.minimal == (goal,)
        assert pre_star_z1l(s, [long], oracle) == UpwardClosedSet()
        assert pre_star_z1l(s, [goal, long], oracle) == want
        assert pre_star_z1l(s, UpwardClosedSet.of([long]), oracle) == UpwardClosedSet()
        assert pre_star_z1l(s, UpwardClosedSet.of([goal]), oracle) == want

    def test_states_outside_the_system_match_nothing(self, fig6):
        goal = Configuration("p_fi", "q_fi", (), ())
        strangers = [Configuration("p_zz", "q_fi", (), ()),
                     Configuration("p_fi", "q_zz", (), ("a",)),
                     Configuration("q_fi", "p_fi", (), ())]
        oracle = bounded_oracle(Bound(2, 0))
        want = pre_star_z1l(fig6, [goal], oracle)
        pairs = list(fig6.pairs)
        assert pre_star_z1l(fig6, strangers, oracle) == UpwardClosedSet()
        assert pre_star_z1l(fig6, [goal] + strangers, oracle) == want
        assert pre_star_z1l(fig6, UpwardClosedSet.of(strangers),
                            oracle) == UpwardClosedSet()
        assert pre_star_z1l(fig6, UpwardClosedSet.of([goal] + strangers),
                            oracle) == pre_star_z1l(fig6, UpwardClosedSet.of([goal]),
                                                    oracle)
        assert fig6.pairs == pairs  # no pair was numbered for them

    def test_agrees_with_configuration_level_oracle(self, bounded_space):
        # saturation-shaped systems: every answer equals the decoded
        # predicate oracle's and one forward search per start
        rng = random.Random(167)
        grown = 0
        for _ in range(8):
            s = saturation_system(rng)
            exact = self.random_targets(rng, s, 2)
            upward = UpwardClosedSet.of(self.random_targets(rng, s, 1))
            for bound in (Bound(4, 0), Bound(3, 2), Bound(2, 3)):
                starts = [c for c in bounded_space(s, bound.max_channel_len)
                          if c.u == ()]
                for target in (exact, upward):
                    got = pre_star_z1l(s, target, bounded_oracle(bound))
                    assert got == pre_star_z1l(s, target,
                                               config_level_oracle(bound))
                    assert got == forward_pre_star(s, target, bound, starts), \
                        (s, target, bound)
                    mins = target.minimal if target is upward else target
                    grown += any(c not in mins for c in got.minimal)
        assert grown >= 20


class TestDecideEeReach:
    def test_without_r_tests_matches_t0(self, fig6, fig6_instance):
        oracle = bounded_oracle(Bound(3, 2000))
        assert decide_eereach_z1(fig6_instance, oracle)

    def test_r_test_gated_path(self):
        m = ("a",)
        srules = [Rule("p0", "r", Action.write("a"), "p1"),
                  Rule("p1", "r", Action.test(emptiness_test(m)), "p2")]
        rrules = [Rule("q0", "r", Action.read("a"), "q1")]
        s = Ucst(m, ("p0", "p1", "p2"), ("q0", "q1"), srules, rrules)
        inst = ReachInstance(s, "p0", "p2", "q0", "q1",
                             eps(m), eps(m), eps(m), eps(m))
        oracle = bounded_oracle(Bound(3, 500))
        assert decide_eereach_z1(inst, oracle)
        assert bounded_reach(inst, Bound(3, 500), LOSSY).reachable
        # starve the Receiver: r can never be drained, so the gate never opens
        s2 = Ucst(m, ("p0", "p1", "p2"), ("q0", "q1"), srules, [])
        inst2 = ReachInstance(s2, "p0", "p2", "q0", "q0",
                              eps(m), eps(m), eps(m), eps(m))
        assert not decide_eereach_z1(inst2, oracle)
        assert not bounded_reach(inst2, Bound(3, 500), LOSSY).reachable

    def test_identical_r_tests_parsed_from_text(self):
        # equal rule texts share one automaton, so the two gates are equal
        # rules; stripping them must still strip both and keep both hops
        text = """\
alphabet: a
sender: p0 p1 p2
receiver: q0 q1
rule s: p0 -> p1 : r!a
rule s: p1 -> p2 : r=EPS
rule s: p1 -> p2 : r=EPS
rule s: p1 -> p1 : l!a
rule r: q0 -> q1 : r?a
instance: p0 p2 q0 q1
U: EPS
V: EPS
Up: EPS
Vp: EPS
"""
        oracle = bounded_oracle(Bound(3, 500))
        for receiver in ("rule r: q0 -> q1 : r?a\n", ""):
            inst, _ = parse_ucst(text.replace("rule r: q0 -> q1 : r?a\n",
                                              receiver))
            rules = inst.system.rules
            assert rules[1] == rules[2]
            want = bounded_reach(inst, Bound(3, 500), LOSSY).reachable
            assert want == bool(receiver)
            assert decide_eereach_z1(inst, oracle) == want
            # the same answer with one copy of the gate
            s = inst.system
            single = ReachInstance(
                Ucst(s.alphabet, s.sender_states, s.receiver_states,
                     s.sender_rules[:2] + s.sender_rules[3:], s.receiver_rules),
                inst.p_in, inst.p_fi, inst.q_in, inst.q_fi, *inst.constraints())
            assert decide_eereach_z1(single, oracle) == want

    def test_agreement_on_random_systems(self):
        rng = random.Random(71)
        oracle = bounded_oracle(Bound(4, 0))
        checked = positives = 0
        for _ in range(12):
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=2,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            test_weight=0.4, forward_sender=True)
            if not any(t.channel == "r" for t in classify_tests(s).tests):
                continue
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            want = bounded_reach(inst, Bound(4, 0), LOSSY).reachable
            got = decide_eereach_z1(inst, oracle)
            assert got == want
            checked += 1
            positives += want
        assert checked >= 4

    def test_explores_each_system_forward_once(self, monkeypatch):
        build = reductions.bounded_graph
        step_layer = explore.step_layer
        builds, expanded = [], Counter()

        def counting_build(s, *args):
            builds.append(s)
            return build(s, *args)

        def counting_step_layer(s, layer, *args):
            for node in layer:
                expanded[s, node] += 1
            return step_layer(s, layer, *args)

        monkeypatch.setattr(reductions, "bounded_graph", counting_build)
        monkeypatch.setattr(explore, "step_layer", counting_step_layer)
        rng = random.Random(71)
        rounds = []
        for _ in range(12):
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=2,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            test_weight=0.4, forward_sender=True)
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            if not any(t.channel == "r" for t in classify_tests(s).tests):
                continue
            oracle = bounded_oracle(Bound(4, 0))
            asked = []

            def counting_oracle(s, target):
                asked.append(s)
                return oracle(s, target)

            builds.clear()
            expanded.clear()
            decide_eereach_z1(inst, counting_oracle)
            stripped = asked[0]
            assert stripped is not s and set(asked) == {stripped}
            assert builds == [stripped]
            assert set(expanded.values()) == {1}
            rounds.append(len(asked))
        assert max(rounds) >= 3 and sum(rounds) >= 12

    def test_receiver_test_fallback_is_sound(self):
        # Receiver Z/N tests leave Sender r-emptiness tests after the
        # reductions, so the pipeline answers these by saturation
        rng = random.Random(5)
        outcomes = []
        while len(outcomes) < 6:
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=3, n_receiver_rules=3,
                            receiver_tests=(("Z", "l"), ("N", "l"),
                                            ("Z", "r"), ("N", "r")),
                            test_weight=0.4, forward_sender=True)
            inst = random_instance(rng, s, empty_initial=True, empty_final=True,
                                   bias_reachable=0.5)
            try:
                run_pipeline(inst, to="pep")
                continue
            except FragmentError:
                final = run_pipeline(inst, to="eez1").final_instance
            got = decide_eereach_z1(final, bounded_oracle(Bound(3, 0)))
            ref = bounded_reach(inst, Bound(4, 0), LOSSY).status
            assert not (got and ref == UNREACHABLE)
            outcomes.append((got, ref))
        assert sum(got for got, _ in outcomes) >= 2
        assert sum(ref == UNREACHABLE for _, ref in outcomes) >= 2

    def test_saturation_normalizes_each_automaton_once(self, monkeypatch):
        """Saturation steps its constraints lazily and normalizes nothing;
        the embedding path normalizes a constraint it writes twice (here
        one automaton is both U and V) once."""
        normalize = Nfa.normalize
        copies = {}  # automaton -> every copy its normalize() returned

        def recording(nfa):
            copies.setdefault(nfa, []).append(normalize(nfa))
            return copies[nfa][-1]

        rng = random.Random(71)
        while True:
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=2,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            test_weight=0.4, forward_sender=True)
            if any(t.channel == "r" for t in classify_tests(s).tests):
                break
        inst = random_instance(rng, s, empty_initial=True, empty_final=True)
        monkeypatch.setattr(Nfa, "normalize", recording)
        decide_eereach_z1(inst, bounded_oracle(Bound(4, 0)))
        assert copies == {}

        s = random_ucst(random.Random(73), alphabet=("a", "b"), n_sender=3,
                        n_receiver=2, n_sender_rules=4, n_receiver_rules=2,
                        sender_tests=(("Z", "l"), ("N", "r")),
                        test_weight=0.5, forward_sender=True)
        assert {t.label for t in classify_tests(s).tests} == {"Z", "N"}
        lang = parse_regex("a | b a", s.alphabet)
        run_pipeline(ReachInstance(s, "p0", "p2", "q0", "q1",
                                   lang, lang, lang, lang), to="pep")
        assert max(len(c) for c in copies.values()) > 1
        for nfa, returned in copies.items():
            assert all(copy is returned[0] for copy in returned), nfa


class TestPepBridges:
    def test_round_trip_reachability(self, fig6_instance):
        pep = ucst_to_pep(fig6_instance)
        back = pep_to_ucst(pep)
        verdict = bounded_reach(back, Bound(4, 0), LOSSY)
        assert verdict.reachable

    def test_trivial_eps_instance(self):
        sigma = ("a",)
        pep = PepInstance(sigma, ("x",), {"a": ("x",)}, {"a": ("x",)},
                          Nfa.literal((), sigma), Nfa.nothing(sigma))
        back = pep_to_ucst(pep)
        verdict = bounded_reach(back, Bound(2, 50), LOSSY)
        assert verdict.reachable
        assert all(lab == 0 or True for lab, _ in verdict.witness.steps)
        assert len(verdict.witness) == 1  # one hop into the final state

    def test_no_solution_instance_unreachable(self):
        sigma = ("a",)
        pep = PepInstance(sigma, ("x",), {"a": ("x",)}, {"a": ()},
                          Nfa.literal(("a",), sigma), Nfa.nothing(sigma))
        back = pep_to_ucst(pep)
        assert not bounded_reach(back, Bound(4, 0), LOSSY).reachable

    def test_codirectness_transfers(self):
        # suffix condition forces x to survive on l after the marked letter;
        # u image after it cannot embed, so no run and no solution
        sigma = ("t", "a")
        pep = PepInstance(
            sigma, ("x",),
            {"t": (), "a": ("x",)}, {"t": ("x",), "a": ()},
            parse_regex("t a", sigma), parse_regex("a", sigma))
        assert enumerate_solutions(pep, 3) == []
        back = pep_to_ucst(pep)
        assert not bounded_reach(back, Bound(3, 0), LOSSY).reachable

    def test_mutation_dropping_order_constraint_is_caught(self):
        # same system, but R built from the interleavings alone (no pairing
        # of r-writes with immediate reads): some "solution" of the mutant
        # fails the pre-solution conditions, which the round-trip flags
        m = ("x", "y")
        s = Ucst(m, ("p_in", "p1", "p_fi"), ("q_in", "q_fi"),
                 [Rule("p_in", "r", Action.write("y"), "p1"),
                  Rule("p1", "l", Action.write("x"), "p_fi")],
                 [Rule("q_in", "r", Action.read("y"), "q_fi")])
        inst = ReachInstance(s, "p_in", "p_fi", "q_in", "q_fi",
                             eps(m), eps(m), eps(m), eps(m))
        pep = ucst_to_pep(inst)
        ctx = bridge_context(inst)
        sigma = pep.sigma
        p1 = Nfa.literal(("d0", "d1"), sigma)
        p2 = Nfa.literal(("d2",), sigma)
        mutant = PepInstance(sigma, pep.gamma, pep.u, pep.v,
                             p1.shuffle(p2).with_alphabet(sigma), pep.Rp)
        good = enumerate_solutions(pep, 3)
        assert all(is_pre_solution(ctx, w)[0] for w in good)
        bad = [w for w in enumerate_solutions(mutant, 3)
               if not is_pre_solution(ctx, w)[0]]
        assert ("d2", "d0", "d1") in bad

    def test_generated_text_is_pinned(self):
        # sha256 of the printed reverse reductions of 40 seeded Z1l
        # instances, as the DFA-method version of `pep_to_ucst` printed them
        rng = random.Random(11)
        digest = hashlib.sha256()
        for _ in range(40):
            back = pep_to_ucst(ucst_to_pep(random_z1l_instance(rng)))
            digest.update(print_ucst(back, stage="generated").encode())
        assert digest.hexdigest()[:16] == "e2d3828ce5b0f5d2"


def pin_r(nfa):
    return nfa.n_states, nfa.initial, nfa.accepting, nfa.transitions


class TestOneProductR:
    """`ucst_to_pep` builds R as one product of E_r*, P1 and P2; it is the
    automaton `er_star.intersect(p1.shuffle(p2))` builds, state for state."""

    def test_z1l_instances(self):
        rng = random.Random(1313)
        middles = 0
        for _ in range(60):
            inst = random_z1l_instance(rng, n_rules=rng.randint(2, 7))
            old, er_star = shuffle_built_r(inst)
            assert pin_r(ucst_to_pep(inst).R) == pin_r(old)
            middles += er_star.n_states > 1
        assert middles >= 30  # r-writes give E_r* its middle states

    def test_sender_zn_instances_past_ten_rules(self):
        # after the stages eg, egz1 and eez1 the rules number in the tens,
        # so the letter d10 sorts before d2
        rng = random.Random(1314)
        past_ten = middles = 0
        for _ in range(12):
            system = random_ucst(
                rng, n_sender=2, n_receiver=2, n_sender_rules=3,
                n_receiver_rules=3, sender_tests=(("Z", L), ("N", L), ("N", R)),
                test_weight=0.5)
            inst = random_instance(rng, system)
            trace = run_pipeline(inst, to="pep")
            old, er_star = shuffle_built_r(trace.final_instance)
            assert pin_r(trace.pep.R) == pin_r(old)
            past_ten += len(trace.final_instance.system.rules) > 10
            middles += er_star.n_states > 1
        assert past_ten >= 10 and middles >= 6


class TestPipeline:
    def test_fig6_needs_no_stages(self, fig6_instance):
        trace = run_pipeline(fig6_instance, to="pep")
        assert [st.name for st in trace.stages] == ["input"]
        assert trace.pep is not None

    def test_full_pipeline_stage_contracts(self):
        s = zn_system()
        m = s.alphabet
        inst = ReachInstance(s, "p0", "p2", "q0", "q3",
                             parse_regex("a | EPS", m), eps(m),
                             Nfa.all_words(m), Nfa.all_words(m))
        trace = run_pipeline(inst, to="eez1")
        names = [st.name for st in trace.stages]
        assert names == ["input", "z1n1", "eg", "egz1", "eez1"]
        by_name = {st.name: st.instance for st in trace.stages}
        assert not classify_tests(by_name["z1n1"].system).has_receiver_tests()
        assert language_equal(by_name["eg"].U,
                              eps(by_name["eg"].system.alphabet))
        assert classify_tests(by_name["egz1"].system).within({"Z"})
        final = by_name["eez1"]
        assert classify_tests(final.system).only_z1()
        for nfa in final.constraints():
            assert language_equal(nfa, eps(final.system.alphabet))

    def test_pipeline_rejects_r_tests_at_pep(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0",),
                 [Rule("p0", "r", Action.test(emptiness_test(m)), "p1")], [])
        inst = ReachInstance(s, "p0", "p1", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        with pytest.raises(FragmentError):
            run_pipeline(inst, to="pep")

    def test_report_renders(self, fig6_instance):
        trace = run_pipeline(fig6_instance, to="pep")
        text = trace.report()
        assert "pep:" in text and "input:" in text
