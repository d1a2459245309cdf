import random

import pytest

from ucst.errors import InputError
from ucst.explore import (
    Bound,
    LassoWitness,
    NOT_WITHIN_BOUND,
    REACHABLE,
    UNREACHABLE,
    all_bounded_configs,
    bounded_coreach,
    bounded_reach,
    bounded_recurrent,
    control_pair_oracle,
    reachable_set,
    ucs_recurrent_decide,
)
from ucst.generators import SemiThueSystem, gen_thue_recurrent
from ucst.model import (
    LOSS,
    LOSSY,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Ucst,
    validate_run,
)
from ucst.randomgen import random_instance, random_ucst
from ucst.regdata import Nfa, parse_regex


def eps(m):
    return Nfa.literal((), m)


def chain(n):
    """Sender p0 -> p1 -> ... -> pn by nops: the closure from p0 has its last
    new configuration n steps away, and a step from pn finds nothing."""
    m = ("a",)
    states = tuple(f"p{i}" for i in range(n + 1)) + ("dead",)
    rules = [Rule(f"p{i}", "r", Action.nop(), f"p{i + 1}") for i in range(n)]
    return Ucst(m, states, ("q0",), rules, [])


def l_writer():
    """Sender p0 looping on l!a: l holds a^i after i steps, and no sooner."""
    m = ("a",)
    return Ucst(m, ("p0",), ("q0",), [Rule("p0", "l", Action.write("a"), "p0")], [])


def self_loop_sender():
    # a self-loop writing on l recycles configurations (write, then lose);
    # a self-loop writing on r cannot, since r only grows
    m = ("a",)
    return Ucst(m, ("p0", "p"), ("q",),
                [Rule("p0", "r", Action.nop(), "p"),
                 Rule("p", "l", Action.write("a"), "p")], [])


class TestBoundedReach:
    def test_fig6_reachable_with_7_step_witness(self, fig6_instance):
        verdict = bounded_reach(fig6_instance, Bound(2, 1000), LOSSY)
        assert verdict.reachable
        run = verdict.witness
        assert validate_run(fig6_instance.system, run, LOSSY)
        assert len(run) == 7
        assert run.start == Configuration("p_in", "q_in", (), ())
        assert run.end == Configuration("p_fi", "q_fi", (), ())
        assert sorted(lab for lab, _ in run.steps if lab != LOSS) == [0, 1, 2, 3, 4, 5]
        assert sum(1 for lab, _ in run.steps if lab == LOSS) == 1

    def test_trivial_zero_step_witness(self, fig6):
        m = fig6.alphabet
        inst = ReachInstance(fig6, "p_in", "p_in", "q_in", "q_in",
                             eps(m), eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(1, 10), LOSSY)
        assert verdict.reachable and len(verdict.witness) == 0

    def test_fig1_loop(self, fig1):
        m = fig1.alphabet
        anyw = Nfa.all_words(m)
        inst = ReachInstance(fig1, "p1", "p1", "q1", "q1",
                             eps(m), eps(m), anyw, anyw)
        # 0-step witness would be trivially found; ask for q1 via a full cycle
        inst2 = ReachInstance(fig1, "p1", "p1", "q1", "q3",
                              eps(m), eps(m), anyw, anyw)
        assert bounded_reach(inst, Bound(4, 5000), LOSSY).reachable
        assert bounded_reach(inst2, Bound(4, 5000), LOSSY).reachable

    def test_certified_unreachable(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0",),
                 [Rule("p0", "r", Action.nop(), "p0")], [])
        inst = ReachInstance(s, "p0", "p1", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert verdict.status == UNREACHABLE

    def test_not_within_bound_on_pruning(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",),
                 [Rule("p0", "r", Action.write("a"), "p0")], [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0",
                             eps(m), eps(m),
                             parse_regex("a a a", m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert verdict.status == NOT_WITHIN_BOUND

    def test_initial_language_truncation_flags_bound(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [], [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0",
                             parse_regex("a a a a", m), eps(m),
                             eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert verdict.status == NOT_WITHIN_BOUND

    def test_step_bound_counts_the_step_that_finds_nothing_new(self):
        # the chain's closure ends at p2, two steps away; its third step
        # expands p2 and finds nothing, and that step must fit in max_steps
        s = chain(2)
        m = s.alphabet
        inst = ReachInstance(s, "p0", "dead", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        assert bounded_reach(inst, Bound(2, 3), LOSSY).status == UNREACHABLE
        assert bounded_reach(inst, Bound(2, 0), LOSSY).status == UNREACHABLE

    def test_closure_needing_one_more_step_is_not_within_bound(self):
        s = chain(2)
        m = s.alphabet
        inst = ReachInstance(s, "p0", "dead", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        assert bounded_reach(inst, Bound(2, 2), LOSSY).status == NOT_WITHIN_BOUND

    def test_target_on_the_last_allowed_step(self):
        s = chain(3)
        m = s.alphabet
        inst = ReachInstance(s, "p0", "p3", "q0", "q0",
                             eps(m), eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 3), LOSSY)
        assert verdict.reachable and len(verdict.witness) == 3
        assert bounded_reach(inst, Bound(2, 2), LOSSY).status == NOT_WITHIN_BOUND

    def test_monotone_in_bound(self):
        rng = random.Random(99)
        for _ in range(25):
            s = random_ucst(rng, sender_tests=(("Z", "l"),))
            inst = random_instance(rng, s, empty_initial=True, empty_final=True)
            small = bounded_reach(inst, Bound(2, 200), LOSSY)
            big = bounded_reach(inst, Bound(3, 400), LOSSY)
            if small.reachable:
                assert big.reachable

    def test_witnesses_always_validate(self):
        rng = random.Random(4242)
        hits = 0
        for _ in range(40):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")),
                            receiver_tests=(("Z", "r"),))
            inst = random_instance(rng, s)
            verdict = bounded_reach(inst, Bound(3, 300), LOSSY)
            if verdict.reachable:
                hits += 1
                assert validate_run(s, verdict.witness, LOSSY)
        assert hits > 3


class TestReachableSet:
    def test_drops_starts_beyond_the_channel_bound(self):
        s = l_writer()
        far = Configuration("p0", "q0", (), ("a", "a", "a"))
        near = Configuration("p0", "q0", (), ("a",))
        # `far` is dropped, not shortened by losses into the bound
        assert reachable_set(s, [far], Bound(2, 0), LOSSY) == set()
        assert reachable_set(s, [far, near], Bound(2, 0), LOSSY) == {
            Configuration("p0", "q0", (), ()),
            Configuration("p0", "q0", (), ("a",)),
            Configuration("p0", "q0", (), ("a", "a")),
        }

    def test_step_bound_keeps_exactly_the_configurations_within_n_steps(self):
        s = l_writer()
        start = Configuration("p0", "q0", (), ())

        def within(n):
            return {Configuration("p0", "q0", (), ("a",) * i) for i in range(n + 1)}

        for n in range(4):
            assert reachable_set(s, [start], Bound(5, n + 1), LOSSY) == within(n + 1)
        assert reachable_set(s, [start], Bound(5, 0), LOSSY) == within(5)


class TestBoundedCoreach:
    def test_loss_cone_with_no_rules(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [], [])
        target = Configuration("p0", "q0", (), ())
        result = bounded_coreach(s, lambda c: c == target, Bound(2, 0), LOSSY)
        # reachable-by-losses means: same states, same r, l above target's l
        assert result == {
            Configuration("p0", "q0", (), ()),
            Configuration("p0", "q0", (), ("a",)),
            Configuration("p0", "q0", (), ("a", "a")),
        }

    def test_fig6_start_is_in_coreach_of_goal(self, fig6):
        goal = Configuration("p_fi", "q_fi", (), ())
        result = bounded_coreach(fig6, lambda c: c == goal, Bound(2, 0), LOSSY)
        assert Configuration("p_in", "q_in", (), ()) in result

    def test_empty_targets(self, fig6):
        assert bounded_coreach(fig6, lambda c: False, Bound(1, 0), LOSSY) == set()

    def test_pointwise_agreement_with_forward_search(self, fig6):
        goal = Configuration("p_fi", "q_fi", (), ())
        bound = Bound(2, 0)
        co = bounded_coreach(fig6, lambda c: c == goal, bound, LOSSY)
        rng = random.Random(5)
        space = all_bounded_configs(fig6, bound)
        for c in rng.sample(space, 60):
            forward = goal in reachable_set(fig6, [c], bound, LOSSY)
            assert (c in co) == forward


class TestBoundedRecurrent:
    def test_sender_self_loop_lasso(self):
        s = self_loop_sender()
        lasso = bounded_recurrent(s, "p0", "q", "p", "q", Bound(2, 0))
        assert lasso is not None
        assert lasso.anchor.p == "p" and lasso.anchor.q == "q"
        assert validate_run(s, lasso.stem, LOSSY)
        assert validate_run(s, lasso.cycle, LOSSY)
        assert len(lasso.cycle) >= 1
        assert lasso.cycle.start == lasso.cycle.end == lasso.anchor

    def test_state_cap_gives_up(self):
        s = self_loop_sender()
        bound = Bound(2, 0)
        assert bounded_recurrent(s, "p0", "q", "p", "q", bound) is not None
        assert bounded_recurrent(s, "p0", "q", "p", "q", bound, max_states=1) is None
        # the cap counts configurations: the whole bounded graph fits in n
        n = len(reachable_set(s, [Configuration("p0", "q", (), ())], bound, LOSSY))
        assert bounded_recurrent(s, "p0", "q", "p", "q", bound, max_states=n) is not None
        assert bounded_recurrent(s, "p0", "q", "p", "q", bound, max_states=n - 1) is None

    def test_swap_rewriting_lasso_is_shortest(self):
        swap = SemiThueSystem(("a", "b"), (("ab", "ba"), ("ba", "ab")))
        s, p_in, q_in, p_loop, q_loop = gen_thue_recurrent(swap)
        lasso = bounded_recurrent(s, p_in, q_in, p_loop, q_loop, Bound(4, 0))
        assert (lasso.anchor.p, lasso.anchor.q) == (p_loop, q_loop)
        assert len(lasso.stem) == 3 and len(lasso.cycle) == 26
        assert validate_run(s, lasso.stem, LOSSY)
        assert validate_run(s, lasso.cycle, LOSSY)

    def test_acyclic_system_has_no_lasso(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q",),
                 [Rule("p0", "r", Action.write("a"), "p1")], [])
        assert bounded_recurrent(s, "p0", "q", "p1", "q", Bound(2, 0)) is None

    def test_cycle_requires_an_edge(self):
        # a lone control pair with no rules is not a lasso
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [], [])
        assert bounded_recurrent(s, "p0", "q0", "p0", "q0", Bound(2, 0)) is None


class TestUcsRecurrentDecide:
    def test_fig1_sender_self_loop(self, fig1):
        oracle = control_pair_oracle(Bound(4, 2000))
        assert ucs_recurrent_decide(fig1, "p1", "q1", "p3", "q2", oracle)

    def test_acyclic_sender_reading_receiver(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0", "q1"),
                 [Rule("p0", "r", Action.write("a"), "p1")],
                 [Rule("q0", "r", Action.read("a"), "q1"),
                  Rule("q1", "r", Action.read("a"), "q0")])
        oracle = control_pair_oracle(Bound(2, 100))
        assert not ucs_recurrent_decide(s, "p0", "q0", "p1", "q1", oracle)

    def test_receiver_nop_cycle(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0", "q1"),
                 [],
                 [Rule("q0", "r", Action.nop(), "q1"),
                  Rule("q1", "r", Action.nop(), "q0")])
        oracle = control_pair_oracle(Bound(1, 100))
        assert ucs_recurrent_decide(s, "p0", "q0", "p0", "q1", oracle)

    def test_rejects_systems_with_tests(self, fig6):
        oracle = control_pair_oracle(Bound(1, 10))
        with pytest.raises(InputError):
            ucs_recurrent_decide(fig6, "p_in", "q_in", "p_fi", "q_fi", oracle)


class TestBounds:
    def test_bad_bound(self):
        with pytest.raises(InputError):
            Bound(-1)
