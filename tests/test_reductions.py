import argparse
import hashlib
import random
from collections import Counter

import pytest

from ucst import cli, explore, reductions
from ucst.errors import FragmentError, InputError, OracleInconclusive
from ucst.explore import (
    UNREACHABLE,
    Bound,
    bounded_graph,
    bounded_reach,
    coreach_in,
    reachable_nodes,
)
from ucst.fileformat import parse_ucst, print_ucst
from ucst.model import (
    LOSS,
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
    validate_run,
)
from ucst.pep import (
    PepInstance,
    bounded_solve,
    is_pre_solution,
    postpone_stabilize,
    run_from_postpone_stable,
)
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
    pre_star_z1l,
    run_pipeline,
    ucst_to_pep,
)
from ucst.regdata import Nfa, language_equal, parse_regex

from support import (
    coreach_set,
    enumerate_solutions,
    pep_to_ucst,
    shuffle_built_r,
    upward_closure,
)


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
        langs = [(c, upward_closure(Nfa.literal(c.v, m))) for c in target.minimal]
    else:
        langs = [(c, Nfa.literal(c.v, m)) for c in target]
    hits = [c for c in starts
            if any(bounded_reach(ReachInstance(s, c.p, g.p, c.q, g.q, eps(m),
                                               Nfa.literal(c.v, m), eps(m), lang),
                                 bound, LOSSY).reachable
                   for g, lang in langs)]
    return UpwardClosedSet.of(hits)


def full_graph_oracle(bound):
    """Reference for `bounded_oracle`: one graph per system, from every
    control pair times every l word up to the bound, every node expanded,
    as the oracle builds it; but a minimal element stands for the starts
    whose configuration it lies below, and the minimal elements come from
    a recursive search, one loss at a time, that holds for any set of
    nodes."""
    k = bound.max_channel_len
    latest = [None]  # system, its start nodes, its graph

    def oracle(s, target):
        if latest[0] is not s:
            starts = r_empty_nodes(s, k)
            latest[:] = s, starts, bounded_graph(s, starts, bound, LOSSY)
        _, starts, graph = latest
        if isinstance(target, UpwardClosedSet):
            nodes = [n for n in starts if target.contains(s.config(n))]
        else:
            nodes = [s.node(c) for c in target if c.p in s.sender_states
                     and c.q in s.receiver_states and len(c.v) <= k]
        return recursive_minimal_r_empty(s, coreach_in(graph, nodes, bound))
    return oracle


def recursive_minimal_r_empty(s, nodes):
    """The `UpwardClosedSet` of the r-empty nodes among `nodes`: per pair
    id, a word is kept when no proper subword of it is in its pair's group,
    decided one loss at a time and memoized per word."""
    losses, word = s.words.losses, s.words.word
    groups = {}
    for c, u, v in nodes:
        if u == 0:
            groups.setdefault(c, set()).add(v)
    mins = []
    for c, group in groups.items():
        covered = {}  # word id -> some proper subword of it is in the group

        def is_covered(v):
            hit = covered.get(v)
            if hit is None:
                ws = losses(v)
                hit = covered[v] = (not group.isdisjoint(ws)
                                    or any(map(is_covered, ws)))
            return hit

        mins += [Configuration(*s.pairs[c], (), word[v])
                 for v in group if not is_covered(v)]
    return UpwardClosedSet(tuple(sorted(mins, key=_config_key)))


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
        starts = [Configuration(p, q, (), v) for v in words
                  for p in s.sender_states for q in s.receiver_states]
        graph = bounded_graph(s, [s.node(c) for c in starts], bound, LOSSY)
        found = reachable_nodes(s, starts, Bound(bound.max_channel_len, 0))
        configs = {n: s.config(n) for n in found}
        co = coreach_in(graph, [n for n, c in configs.items() if is_target(c)],
                        bound)
        return UpwardClosedSet.of(c for c in map(configs.get, co) if c.u == ())
    return oracle


def saturation_system(rng):
    """A system as `decide_eereach_z1` strips it for the oracle, before its
    control trim: random, with Sender emptiness tests on both channels and
    an acyclic Sender, then with its r-test rules dropped."""
    while True:
        s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                        n_sender_rules=4, n_receiver_rules=2,
                        sender_tests=(("Z", "l"), ("Z", "r")),
                        test_weight=0.4, forward_sender=True)
        if any(t.channel == R for t in classify_tests(s).tests):
            return r_tests_stripped(s)


def pinned_saturation_instances(rng, n, forward_sender=True):
    """`n` empty-to-empty instances shaped like the benchmark's saturation
    cases: a Sender with emptiness tests on both channels, at least one on
    r, from (p0, q0) to a later Sender state.  The Sender is acyclic, as in
    the benchmark, unless `forward_sender` is False."""
    insts = []
    while len(insts) < n:
        s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                        n_sender_rules=4, n_receiver_rules=2,
                        sender_tests=(("Z", "l"), ("Z", "r")),
                        test_weight=0.45, forward_sender=forward_sender)
        if not any(t.channel == R for t in classify_tests(s).tests):
            continue
        m = s.alphabet
        insts.append(ReachInstance(s, "p0", rng.choice(s.sender_states[1:]),
                                   "q0", rng.choice(s.receiver_states),
                                   eps(m), eps(m), eps(m), eps(m)))
    return insts


def control_cut(inst):
    """Whether p_in cannot reach p_fi over Sender's rules, reads left out,
    or q_in cannot reach q_fi over Receiver's, writes left out."""
    s = inst.system

    def reaches(rules, never, start, goal):
        seen = {start}
        todo = [start]
        for state in todo:
            for r in rules:
                if (r.source == state and r.action.kind != never
                        and r.target not in seen):
                    seen.add(r.target)
                    todo.append(r.target)
        return goal in seen

    return not (reaches(s.sender_rules, "read", inst.p_in, inst.p_fi)
                and reaches(s.receiver_rules, "write", inst.q_in, inst.q_fi))


def r_tests_stripped(s):
    """`s` without its Sender r-emptiness test rules, every state kept."""
    zr = [s.rules[t.rule_id] for t in classify_tests(s).tests if t.channel == R]
    return Ucst(s.alphabet, s.sender_states, s.receiver_states,
                [r for r in s.sender_rules if r not in zr], s.receiver_rules)


def untrimmed_decide_eereach_z1(inst, stripped, oracle):
    """Reference for `decide_eereach_z1`: the procedure before it trimmed
    each agent to its start-to-goal states, saturating over `stripped`,
    `inst`'s system without its r-test rules (`r_tests_stripped`), and
    hopping back over every r-test rule."""
    s = inst.system
    zr_rules = [s.rules[t.rule_id] for t in classify_tests(s).tests
                if t.channel == R]
    start = Configuration(inst.p_in, inst.q_in, (), ())
    goal = Configuration(inst.p_fi, inst.q_fi, (), ())
    reached = pre_star_z1l(stripped, [goal], oracle)
    for _ in range(reductions.SATURATION_ROUNDS):
        if reached.contains(start):
            return True
        hops = [Configuration(rule.source, c.q, (), c.v)
                for rule in zr_rules for c in reached.minimal
                if c.p == rule.target]
        if not hops:
            return False
        nxt = reached.union(
            pre_star_z1l(stripped, UpwardClosedSet.of(hops), oracle))
        if nxt == reached:
            return False
        reached = nxt
    if reached.contains(start):
        return True
    raise OracleInconclusive("saturation did not stabilize within its round budget")


def r_empty_nodes(s, k):
    """Every r-empty node of `s` whose l word fits `k`: every control pair
    times every l word of at most `k` letters."""
    words = [s.words.id(v) for v in Nfa.all_words(s.alphabet).words_up_to(k)]
    return [(s.pair(p, q), 0, v) for p in s.sender_states
            for q in s.receiver_states for v in words]


def graph_cases(fig1, rng, k, n):
    """(system, start nodes) pairs: a fresh copy of Figure 1 from its empty
    configuration, and `n` `saturation_system`s from every r-empty node whose
    l word fits `k`."""
    fig = Ucst(fig1.alphabet, fig1.sender_states, fig1.receiver_states,
               fig1.sender_rules, fig1.receiver_rules)
    cases = [(fig, [fig.node(Configuration("p1", "q1", (), ()))])]
    for _ in range(n):
        s = saturation_system(rng)
        cases.append((s, r_empty_nodes(s, k)))
    return cases


def labelled_coreach(s, starts, targets, bound, mode):
    """Reference for `coreach_in`: the labelled-edge graph, every edge of the
    one-node `step` of every node found forward (losses included), and a
    backward breadth-first search over its reversed edges, at most
    `bound.max_steps` steps deep (0 = no limit)."""
    k = bound.max_channel_len
    order, found = list(starts), set(starts)
    edges = []
    for node in order:  # grows while it is walked
        for label, succ in step(s, node, mode, k)[0]:
            edges.append((node, label, succ))
            if succ not in found:
                found.add(succ)
                order.append(succ)
    rev = {}
    for n, _, succ in edges:
        rev.setdefault(succ, []).append(n)
    reached = {n for n in targets if n in found}
    layer, depth = list(reached), 0
    while layer and not (bound.max_steps and depth == bound.max_steps):
        depth += 1
        layer = [m for n in layer for m in rev.get(n, ()) if m not in reached
                 and not reached.add(m)]
    return reached


class TestBoundedGraph:
    def test_reverse_edges_against_per_node_step(self, fig1):
        """The rule reverse lists, their keys and each list's order, as
        stepping every node found on its own gives them; and each node's
        loss predecessors from the word table's `gained` lists are exactly
        the nodes found whose step has a LOSS edge to it."""
        cases = graph_cases(fig1, random.Random(29), 3, 6)
        edges = losses = 0
        for s, starts in cases:
            for mode in MODES:
                found, rev, gained = bounded_graph(s, starts, Bound(3, 0), mode)
                want, lost = {}, {}
                for node in found:
                    for label, succ in step(s, node, mode, 3)[0]:
                        into = lost if label == LOSS else want
                        into.setdefault(succ, []).append(node)
                assert list(rev.items()) == list(want.items()), (s, mode)
                assert (gained is None) == (mode != LOSSY)
                for c, u, w in found if gained else ():
                    got = [(c, u, j) for j in gained[w] if (c, u, j) in found]
                    assert sorted(got) == sorted(lost.pop((c, u, w), [])), (s, w)
                    losses += len(got)
                assert not lost, (s, mode)
                edges += sum(map(len, rev.values()))
        assert edges > 3000 and losses > 1500, (edges, losses)

    def test_coreach_against_labelled_edge_graph(self, fig1):
        """`coreach_in` over the rule-edge graph and the word table answers
        as a backward search over every labelled edge, losses included."""
        rng = random.Random(31)
        seen = Counter()
        for bound in (Bound(3, 0), Bound(3, 1), Bound(3, 2), Bound(2, 3)):
            for s, starts in graph_cases(fig1, rng, bound.max_channel_len, 4):
                for mode in MODES:
                    graph = bounded_graph(s, starts, bound, mode)
                    nodes = list(graph[0])
                    outside = (s.pair(s.sender_states[0], s.receiver_states[0]),
                               s.words.id(("a",) * (bound.max_channel_len + 1)), 0)
                    for _ in range(3):
                        targets = rng.sample(nodes, min(len(nodes), rng.randint(1, 4)))
                        targets.append(outside)
                        got = coreach_in(graph, targets, bound)
                        want = labelled_coreach(s, starts, targets, bound, mode)
                        assert set(got) == want, (s, mode, bound, targets)
                        assert len(got) == len(want)
                        seen[mode, len(want) > len(targets)] += 1
        assert all(seen[mode, True] >= 30 for mode in MODES), seen


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

    def test_query_sequences_match_the_full_graph_oracle(self):
        """Three to five queries in a row on one oracle, exact and upward
        targets mixed: each answer equals that of a fresh full-graph
        oracle, though the oracle answers them all over the graph it built
        for the first."""
        rng = random.Random(211)
        answers = Counter()
        for _ in range(8):
            s = saturation_system(rng)
            for bound in (Bound(4, 0), Bound(3, 2), Bound(2, 3)):
                oracle = bounded_oracle(bound)
                for _ in range(rng.randint(3, 5)):
                    target = self.random_targets(rng, s, 2)
                    if rng.random() < 0.5:
                        target = UpwardClosedSet.of(target)
                    got = pre_star_z1l(s, target, oracle)
                    want = pre_star_z1l(s, target, full_graph_oracle(bound))
                    assert got == want, (s, target, bound)
                    asked = getattr(target, "minimal", target)
                    answers[asked is not target,
                            any(c not in asked for c in got.minimal)] += 1
        assert all(answers[upward, True] >= 15 for upward in (False, True)), \
            answers

    def test_second_target_reached_through_a_parked_node(self):
        """The first target, (p2, q0), can be reached from the pairs (p0,
        q0) and (p2, q0) only, so an oracle that expanded only those pairs
        would leave unexpanded the node that the r-write takes (p0, q0)
        into (p1, q0).  The second target, (p1, q1), is reached from (p0,
        q0) only through that node, read by Receiver."""
        m = ("a",)
        s = Ucst(m, ("p0", "p1", "p2"), ("q0", "q1"),
                 [Rule("p0", "r", Action.write("a"), "p1"),
                  Rule("p0", "l", Action.write("a"), "p2")],
                 [Rule("q0", "r", Action.read("a"), "q1")])
        start = Configuration("p0", "q0", (), ())
        first = [Configuration("p2", "q0", (), ())]
        second = [Configuration("p1", "q1", (), ())]
        for bound in (Bound(2, 0), Bound(2, 2)):
            oracle = bounded_oracle(bound)
            got = pre_star_z1l(s, first, oracle)
            assert got.minimal == (start, first[0])
            got = pre_star_z1l(s, second, oracle)
            assert got.minimal == (start, second[0])
            assert got == pre_star_z1l(s, second, full_graph_oracle(bound))

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

    @staticmethod
    def gated_instance():
        """Sender writes a on r and passes a gate that opens on r empty;
        Receiver reads the a: from (p0, q0) to (p2, q1)."""
        m = ("a",)
        s = Ucst(m, ("p0", "p1", "p2"), ("q0", "q1"),
                 [Rule("p0", "r", Action.write("a"), "p1"),
                  Rule("p1", "r", Action.test(emptiness_test(m)), "p2")],
                 [Rule("q0", "r", Action.read("a"), "q1")])
        return ReachInstance(s, "p0", "p2", "q0", "q1",
                             eps(m), eps(m), eps(m), eps(m))

    def test_r_test_gated_path(self):
        inst = self.gated_instance()
        oracle = bounded_oracle(Bound(3, 500))
        assert decide_eereach_z1(inst, oracle)
        assert bounded_reach(inst, Bound(3, 500), LOSSY).reachable
        # starve the Receiver: r can never be drained, so the gate never opens
        s = inst.system
        s2 = Ucst(s.alphabet, s.sender_states, s.receiver_states,
                  s.sender_rules, [])
        inst2 = ReachInstance(s2, "p0", "p2", "q0", "q0", *inst.constraints())
        assert not decide_eereach_z1(inst2, oracle)
        assert not bounded_reach(inst2, Bound(3, 500), LOSSY).reachable

    def test_stops_once_the_start_is_covered(self):
        # the answer also holds the gate's target, so saturating on to the
        # fixpoint would hop back through the gate and ask again
        start = Configuration("p0", "q0", (), ())
        answer = UpwardClosedSet.of([start, Configuration("p2", "q1", (), ())])
        asked = []

        def oracle(s, target):
            asked.append(target)
            return answer

        assert decide_eereach_z1(self.gated_instance(), oracle)
        assert asked == [[Configuration("p2", "q1", (), ())]]

    def test_inconclusive_when_neither_covered_nor_stable(self):
        # each answer lies strictly below the one before, at the gate's
        # target pair: the union grows every round, always has a hop back
        # through the gate, and never covers the start
        rounds = reductions.SATURATION_ROUNDS
        asked = []

        def oracle(s, target):
            asked.append(target)
            word = ("a",) * (rounds + 1 - len(asked))
            return UpwardClosedSet.of([Configuration("p2", "q1", (), word)])

        with pytest.raises(OracleInconclusive):
            decide_eereach_z1(self.gated_instance(), oracle)
        assert len(asked) == rounds + 1

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
        """All graph work is on the stripped system, in one graph built on
        its first query: each node is expanded once over all of its
        queries, the graph is the one from every r-empty node of the
        stripped system, and fewer nodes in all than the graphs of the
        untrimmed systems hold.  A system whose start states cannot reach
        their goal states asks nothing.  The first answer covers the start
        of most other systems, which then ask one query only, so the
        battery is large enough to hold a system that asks three (the first
        is its 62nd draw)."""
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
        bound = Bound(4, 0)
        rounds, sizes, cut = [], [], 0
        for _ in range(80):
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=2,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            test_weight=0.4, forward_sender=True)
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            if not any(t.channel == "r" for t in classify_tests(s).tests):
                continue
            oracle = bounded_oracle(bound)
            asked = []

            def counting_oracle(s, target):
                asked.append(s)
                return oracle(s, target)

            builds.clear()
            expanded.clear()
            decide_eereach_z1(inst, counting_oracle)
            if control_cut(inst):
                assert asked == [] and builds == [] and not expanded
                cut += 1
                continue
            assert asked
            stripped = asked[0]
            assert stripped is not s and set(asked) == {stripped}
            assert builds == [stripped]
            assert set(expanded.values()) == {1}
            assert {key[0] for key in expanded} == {stripped}
            rounds.append(len(asked))
            ours = {node for _, node in expanded}
            own = bounded_graph(stripped, r_empty_nodes(stripped, 4), bound)[0]
            assert ours == set(own)
            full = r_tests_stripped(s)
            whole = bounded_graph(full, r_empty_nodes(full, 4), bound)[0]
            sizes.append((len(ours), len(whole)))
        assert cut >= 1
        assert max(rounds) >= 3 and sum(rounds) >= 12
        assert all(ours <= whole for ours, whole in sizes), sizes
        assert sum(ours for ours, _ in sizes) < sum(w for _, w in sizes), sizes

    # sha256 of the `repr` of every oracle answer that `decide_eereach_z1`
    # asks over `pinned_saturation_instances`, at each bound of
    # `test_oracle_answers_are_pinned`, in that order; per instance, these
    # answers are a prefix of those asked when saturation ran to its
    # fixpoint even after reaching the start.  The first digest is of
    # acyclic Senders, the second of cyclic ones.
    ORACLE_ANSWERS_SHA256 = (
        "119bf0245831b57dac1c1c95035d19bbaf216aa71a3b201935e6f201db2630ed")
    CYCLIC_ORACLE_ANSWERS_SHA256 = (
        "9211bac5753c76959d32483200bf7b913e890a3278b8fb2b7b23d275ca8d805e")

    def test_oracle_answers_are_pinned(self):
        """Every `pre_star_z1l` answer of seeded saturation-shaped
        instances, each decided at `Bound(4, 0)` and `Bound(3, 2)` with a
        fresh oracle, hashed together, once for 70 instances with acyclic
        Senders and once for 100 with cyclic ones: a change to the oracle
        keeps these digests unless it means to change answers.  Instances
        that the control cut answers ask nothing, hence so many of them
        (the cut answers most of the cyclic ones)."""
        pins = {True: (70, self.ORACLE_ANSWERS_SHA256),
                False: (100, self.CYCLIC_ORACLE_ANSWERS_SHA256)}
        for forward_sender, (n, pin) in pins.items():
            answers = []
            for bound in (Bound(4, 0), Bound(3, 2)):
                for inst in pinned_saturation_instances(random.Random(19), n,
                                                        forward_sender):
                    def recording(s, target, oracle=bounded_oracle(bound)):
                        answer = oracle(s, target)
                        answers.append(repr(answer))
                        return answer

                    decide_eereach_z1(inst, recording)
            digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
            assert len(answers) >= 120, (forward_sender, len(answers))
            assert digest == pin, (forward_sender, digest)

    def test_trim_keeps_answers(self):
        """Against the untrimmed procedure it replaced, `decide_eereach_z1`
        gives the same answer, which `bounded_reach` gives too, and each
        answer it receives is the untrimmed oracle's answer to the same
        target, restricted to the trimmed control pairs."""
        seen = Counter()
        for bound in (Bound(4, 0), Bound(3, 2)):
            for inst in pinned_saturation_instances(random.Random(19), 40):
                asked = []

                def recording(s, target, oracle=bounded_oracle(bound)):
                    answer = oracle(s, target)
                    asked.append((s, target, answer))
                    return answer

                got = decide_eereach_z1(inst, recording)
                full = r_tests_stripped(inst.system)
                assert got == untrimmed_decide_eereach_z1(
                    inst, full, bounded_oracle(bound)), inst
                assert got == bounded_reach(inst, bound, LOSSY).reachable, inst
                reference = bounded_oracle(bound)
                for s, target, answer in asked:
                    whole = reference(full, target)
                    assert answer == UpwardClosedSet.of(
                        c for c in whole.minimal
                        if c.p in s.sender_states and c.q in s.receiver_states)
                    seen["restricted"] += len(answer) < len(whole)
                seen["cut"] += not asked
                seen[got] += 1
        # both answers, instances the cut answers, and answers the trim shrank
        assert seen[True] >= 20 and seen[False] >= 20, seen
        assert seen["cut"] >= 10 and seen["restricted"] >= 10, seen

    def test_receiver_test_fallback_asks_nothing_when_cut(self, monkeypatch,
                                                          capsys):
        # cyclic Sender, Receiver tests on both channels: the reductions
        # leave Sender r-emptiness tests, but when the start states cannot
        # reach their goal states the trimmed z1n1 stage keeps no rule, so
        # the embedding path answers with an empty R and the saturation
        # fallback is never entered
        asked = []

        def no_oracle(bound):
            def oracle(s, target):
                asked.append(target)
                return UpwardClosedSet()
            return oracle

        monkeypatch.setattr(cli, "bounded_oracle", no_oracle)
        args = argparse.Namespace(bound=4, steps=0, pep_len=8)
        rng = random.Random(3)
        cut = 0
        while cut < 4:
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=3, n_receiver_rules=3,
                            sender_tests=(("Z", "l"), ("Z", "r")),
                            receiver_tests=(("Z", "r"), ("N", "l")),
                            test_weight=0.4)
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            if not (control_cut(inst)
                    and classify_tests(s).has_receiver_tests()):
                continue
            trace = run_pipeline(inst, to="pep")
            assert trace.stages[1].name == "z1n1"
            assert not trace.final_instance.system.rules
            assert trace.pep.R.distance(trace.pep.R.initial_subset()) is None
            assert cli.run_pipeline_maybe_z1r(inst, args) == 1
            assert "NOT-WITHIN-BOUND (no embedding solution" in (
                capsys.readouterr().out)
            assert asked == []
            assert not bounded_reach(inst, Bound(4, 0), LOSSY).reachable
            cut += 1

    def test_receiver_test_fallback_is_sound(self):
        # Receiver Z/N tests leave Sender r-emptiness tests after the
        # reductions, so the pipeline answers these by saturation
        rng = random.Random(5)
        outcomes = []
        while len(outcomes) < 10:
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
    """`ucst_to_pep` builds R as one product stepped from the rules; it is
    the automaton `er_star.intersect(p1.shuffle(p2))` builds, state for
    state, and R′ is `one_of(test letters).concat(all_words(sigma))`."""

    def test_z1l_instances(self):
        rng = random.Random(1313)
        middles = 0
        for _ in range(60):
            inst = random_z1l_instance(rng, n_rules=rng.randint(2, 7))
            old, old_rp, er_star = shuffle_built_r(inst)
            pep = ucst_to_pep(inst)
            assert pin_r(pep.R) == pin_r(old)
            assert pin_r(pep.Rp) == pin_r(old_rp)
            middles += er_star.n_states > 1
        assert middles >= 30  # r-writes give E_r* its middle states

    def test_sender_zn_instances_past_ten_rules(self):
        # after the stages eg, egz1 and eez1 the rules number in the tens,
        # so the letter d10 sorts before d2; the control trim leaves some
        # instances with fewer, hence 20 draws
        rng = random.Random(1314)
        past_ten = middles = 0
        for _ in range(20):
            system = random_ucst(
                rng, n_sender=2, n_receiver=2, n_sender_rules=3,
                n_receiver_rules=3, sender_tests=(("Z", L), ("N", L), ("N", R)),
                test_weight=0.5)
            inst = random_instance(rng, system)
            trace = run_pipeline(inst, to="pep")
            old, old_rp, er_star = shuffle_built_r(trace.final_instance)
            assert pin_r(trace.pep.R) == pin_r(old)
            assert pin_r(trace.pep.Rp) == pin_r(old_rp)
            past_ten += len(trace.final_instance.system.rules) > 10
            middles += er_star.n_states > 1
        assert past_ten >= 10 and middles >= 6


def all_pairs_trim(inst):
    """Reference for `control_trim`: the all-pairs fixpoint it replaced,
    each state mapped to the states it is reached from, with both sets
    emptied when either agent's start cannot reach its goal."""
    s = inst.system

    def reaching(states, rules, never):
        out = {state: {state} for state in states}
        moves = [(r.source, r.target) for r in rules if r.action.kind != never]
        grew = True
        while grew:
            grew = False
            for p, q in moves:
                if not out[p] <= out[q]:
                    out[q] |= out[p]
                    grew = True
        return out

    senders = reaching(s.sender_states, s.sender_rules, "read")
    receivers = reaching(s.receiver_states, s.receiver_rules, "write")
    kept = ({p for p in senders[inst.p_fi] if inst.p_in in senders[p]},
            {q for q in receivers[inst.q_fi] if inst.q_in in receivers[q]})
    return kept if all(kept) else (set(), set())


# seed-1 `pipeline/zn-013` of the benchmark: the only N-test leads to p1,
# from which Sender never comes back to its goal p0
OFF_PATH_N_TEST_TEXT = """\
alphabet: a b
sender: p0 p1
receiver: q0 q1
rule s: p0 -> p1 : l=ANY ANY*
rule s: p0 -> p1 : r!b
rule s: p0 -> p0 : l=EPS
rule r: q1 -> q1 : r?a
rule r: q1 -> q1 : l?b
rule r: q0 -> q1 : r?a
instance: p0 p0 q0 q0
U: a
V: b
Up: a
Vp: ANY*
"""


class TestControlTrim:
    def test_matches_the_all_pairs_reference(self):
        # seeded instances with cyclic Senders and Receiver tests, and the
        # output of each stage on the trim of the one before, as
        # `run_pipeline` builds them
        rng = random.Random(41)
        cut = kept = 0
        for _ in range(60):
            s = random_ucst(rng, n_sender=4, n_receiver=3, n_sender_rules=5,
                            n_receiver_rules=4,
                            sender_tests=(("Z", L), ("N", L), ("N", R)),
                            receiver_tests=(("Z", R), ("N", L)),
                            test_weight=0.3)
            one = random_instance(rng, s, bias_reachable=0.5)
            for stage in (elim_receiver_tests, elim_initial, elim_n1,
                          elim_final, None):
                got = reductions.control_trim(one)
                assert got == all_pairs_trim(one), one
                cut += not got[0]
                kept += bool(got[0]) and len(got[0]) < len(
                    one.system.sender_states)
                if stage is not None:
                    one = stage(reductions.restrict(one, *got))
        assert cut >= 40 and kept >= 80, (cut, kept)

    def test_restrict_keeps_the_trim_and_the_endpoints(self):
        rng = random.Random(42)
        for _ in range(40):
            s = random_ucst(rng, n_sender=4, n_receiver=3, n_sender_rules=5,
                            n_receiver_rules=4, sender_tests=(("Z", L),))
            inst = random_instance(rng, s)
            senders, receivers = reductions.control_trim(inst)
            out = reductions.restrict(inst, senders, receivers)
            assert set(out.system.sender_states) == (
                senders | {inst.p_in, inst.p_fi})
            assert set(out.system.receiver_states) == (
                receivers | {inst.q_in, inst.q_fi})
            assert out.system.rules == tuple(
                r for r in inst.system.rules
                if {r.source, r.target} <= senders | receivers)
            assert out.constraints() == inst.constraints()

    def test_off_path_n_test_skips_buffering(self):
        # eg's trimmed output keeps no N-test, so egz1 does not run, and a
        # solution of 8 letters exists (through egz1 the shortest has 10),
        # whose run validates
        inst, _ = parse_ucst(OFF_PATH_N_TEST_TEXT)
        assert any(t.label == "N" for t in classify_tests(inst.system).tests)
        trace = run_pipeline(inst, to="pep")
        assert [st.name for st in trace.stages] == ["input", "eg", "eez1"]
        word = bounded_solve(trace.pep, 8)
        assert word is not None and len(word) == 8
        final = trace.final_instance
        ctx = bridge_context(final)
        run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, word))
        assert validate_run(final.system, run, LOSSY)
        assert bounded_reach(inst, Bound(4, 0), LOSSY).reachable


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

    def test_stage_texts_are_pinned(self):
        # sha256 of `print_ucst` of every trimmed stage of 50 seeded Sender
        # Z/N instances; the trim drops off-path N-tests, so egz1 runs on
        # fewer of them, hence 50 draws
        rng = random.Random(2323)
        digest = hashlib.sha256()
        buffered = both_final = 0
        for _ in range(50):
            system = random_ucst(
                rng, n_sender=2, n_receiver=2, n_sender_rules=3,
                n_receiver_rules=3, sender_tests=(("Z", L), ("N", L), ("N", R)),
                test_weight=0.5)
            inst = random_instance(rng, system)
            trace = run_pipeline(inst, to="eez1")
            for st in trace.stages:
                digest.update(print_ucst(st.instance, stage=st.name).encode())
            buffered += "egz1" in [st.name for st in trace.stages]
            # both q_clean writers of elim_final run
            both_final += not (_is_eps_language(inst.Up)
                               or _is_eps_language(inst.Vp))
        assert buffered >= 10 and both_final >= 10
        assert digest.hexdigest()[:16] == "cd69fa93e0994b2b"

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
