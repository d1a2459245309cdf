import random

import pytest

from ucst.errors import FragmentError, InputError
from ucst.explore import UNREACHABLE, Bound, bounded_coreach, bounded_reach
from ucst.model import (
    LOSSY,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Ucst,
    classify_tests,
    emptiness_test,
    nonemptiness_test,
)
from ucst.pep import PepInstance, enumerate_solutions, is_pre_solution
from ucst.randomgen import random_instance, random_ucst, random_z1l_instance
from ucst.reductions import (
    UpwardClosedSet,
    _is_eps_language,
    bounded_oracle,
    bridge_context,
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
            co = bounded_coreach(s, bounded_space(s, 4), lambda c: c == goal,
                                 bound, LOSSY)
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
        rng = random.Random(71)
        while True:
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=2,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            test_weight=0.4, forward_sender=True)
            if any(t.channel == "r" for t in classify_tests(s).tests):
                break
        inst = random_instance(rng, s, empty_initial=True, empty_final=True)
        normalize = Nfa.normalize
        copies = {}  # automaton -> every copy its normalize() returned

        def recording(nfa):
            copies.setdefault(nfa, []).append(normalize(nfa))
            return copies[nfa][-1]

        monkeypatch.setattr(Nfa, "normalize", recording)
        decide_eereach_z1(inst, bounded_oracle(Bound(4, 0)))
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
