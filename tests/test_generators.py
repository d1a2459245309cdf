import itertools
import random

import pytest

from ucst.errors import InputError
from ucst.explore import Bound, bounded_reach
from ucst.generators import (
    QueueAutomaton,
    SemiThueSystem,
    gen_queue_head,
    gen_queue_parity,
    gen_thue_recurrent,
    gen_writelossy_queue,
    linear_queue_automaton,
)
from ucst.model import LOSSY, WRITE_LOSSY, Configuration, classify_tests, validate_run

from support import (
    bounded_recurrent,
    queue_reaches_final_empty,
    reachable_set,
    thue_find_loop,
    thue_step,
)

WRITE_READ = linear_queue_automaton([("write", "a"), ("read", "a")])
READ_EMPTY = linear_queue_automaton([("read", "a")])
EMPTY_QA = QueueAutomaton(("m0",), ("a",), (), "m0", "m0")


class TestQueueParity:
    def test_write_then_read(self):
        inst = gen_queue_parity(WRITE_READ)
        assert classify_tests(inst.system).fragment() <= {"P1r"}
        verdict = bounded_reach(inst, Bound(3, 500), LOSSY)
        assert verdict.reachable
        assert validate_run(inst.system, verdict.witness, LOSSY)

    def test_read_from_empty_queue_deadlocks(self):
        inst = gen_queue_parity(READ_EMPTY)
        assert not bounded_reach(inst, Bound(3, 500), LOSSY).reachable

    def test_empty_automaton(self):
        inst = gen_queue_parity(EMPTY_QA)
        verdict = bounded_reach(inst, Bound(3, 100), LOSSY)
        assert verdict.reachable and len(verdict.witness) == 0

    def test_desk_scale_soundness(self):
        # enumerate two-rule linear automata over one letter plus some random
        # three/four-op machines over two letters
        rng = random.Random(13)
        machines = []
        for ops in itertools.product(
                [("write", "a"), ("read", "a")], repeat=2):
            machines.append(linear_queue_automaton(list(ops)))
        for _ in range(12):
            ops = [(rng.choice(("write", "read")), rng.choice(("a", "b")))
                   for _ in range(rng.randrange(1, 4))]
            machines.append(linear_queue_automaton(ops, alphabet=("a", "b")))
        for qa in machines:
            want = queue_reaches_final_empty(qa, max_queue=2)
            bound = Bound(2 * 2 + 2, 4000)
            got = bounded_reach(gen_queue_parity(qa), bound, LOSSY).reachable
            assert got == want, qa


class TestQueueHead:
    def test_write_then_read(self):
        inst = gen_queue_head(WRITE_READ)
        assert classify_tests(inst.system).fragment() <= {"H1r"}
        assert bounded_reach(inst, Bound(3, 500), LOSSY).reachable

    def test_read_from_empty_queue_deadlocks(self):
        inst = gen_queue_head(READ_EMPTY)
        assert not bounded_reach(inst, Bound(3, 500), LOSSY).reachable

    def test_empty_automaton(self):
        inst = gen_queue_head(EMPTY_QA)
        verdict = bounded_reach(inst, Bound(3, 100), LOSSY)
        assert verdict.reachable

    def test_wrong_guess_blocks(self):
        qa = linear_queue_automaton(
            [("write", "a"), ("read", "b")], alphabet=("a", "b"))
        inst = gen_queue_head(qa)
        assert not bounded_reach(inst, Bound(4, 800), LOSSY).reachable


class TestWriteLossyQueue:
    def test_write_then_read(self):
        inst, mode = gen_writelossy_queue(WRITE_READ)
        assert mode == WRITE_LOSSY
        assert classify_tests(inst.system).fragment() <= {"Z1l", "N1l"}
        assert bounded_reach(inst, Bound(3, 500), WRITE_LOSSY).reachable

    def test_lossy_verdict_reported_separately(self):
        inst, _ = gen_writelossy_queue(WRITE_READ)
        wl = bounded_reach(inst, Bound(3, 500), WRITE_LOSSY)
        lo = bounded_reach(inst, Bound(3, 500), LOSSY)
        assert wl.reachable  # the lossy verdict may differ; just record both
        assert lo.status in ("reachable", "not-within-bound", "unreachable")

    def test_empty_automaton(self):
        inst, _ = gen_writelossy_queue(EMPTY_QA)
        assert bounded_reach(inst, Bound(2, 100), WRITE_LOSSY).reachable


AB_SWAP = SemiThueSystem(("a", "b"), (("ab", "ba"), ("ba", "ab")))
AB_ONEWAY = SemiThueSystem(("a", "b"), (("ab", "ba"),))


class TestThueStep:
    def test_single_rule(self):
        assert thue_step(AB_ONEWAY, "ab") == ["ba"]
        assert thue_step(AB_ONEWAY, "aab") == ["aba"]

    def test_multiple_positions(self):
        assert thue_step(AB_ONEWAY, "abab") == ["abba", "baab"]

    def test_find_loop(self):
        assert thue_find_loop(AB_SWAP, 2, 10) == "ab"

    def test_oneway_has_no_loop(self):
        assert thue_find_loop(AB_ONEWAY, 3, 100) is None

    def test_length_preservation_required(self):
        bad = SemiThueSystem(("a",), (("a", "aa"),))
        with pytest.raises(InputError):
            thue_find_loop(bad, 2, 10)


class TestThueRecurrent:
    def test_swap_system_has_lasso(self):
        s, p_in, q_in, p_loop, q_loop = gen_thue_recurrent(AB_SWAP)
        lasso = bounded_recurrent(s, p_in, q_in, p_loop, q_loop, Bound(4, 0))
        assert lasso is not None
        assert validate_run(s, lasso.stem, LOSSY)
        assert validate_run(s, lasso.cycle, LOSSY)
        assert lasso.anchor.p == p_loop and lasso.anchor.q == q_loop

    def test_no_rules_no_lasso(self):
        t = SemiThueSystem(("a",), ())
        s, p_in, q_in, p_loop, q_loop = gen_thue_recurrent(t)
        assert bounded_recurrent(s, p_in, q_in, p_loop, q_loop,
                                 Bound(4, 0)) is None

    def test_rule_count_linear_in_sizes(self):
        t = SemiThueSystem(("a", "b"), (("ab", "ba"),))
        s, *_ = gen_thue_recurrent(t)
        rule_letters = sum(len(a) + len(b) for a, b in t.rules)
        # fixed skeleton + 2 per alphabet letter in each of the three copy
        # loops (initial guess, z, z') + 1 per rewrite-rule letter + 2 pair
        # reads per message letter
        expected_sender = 4 + len(t.alphabet) + 2 * 2 * len(t.alphabet) + rule_letters
        assert s.n_sender_rules == expected_sender
        assert len(s.receiver_rules) == 2 * (len(t.alphabet) + 1)


class TestWriteLossySemantics:
    def test_z_only_systems_agree_between_modes(self):
        # strip the nonemptiness tests: remaining chains use only emptiness
        # tests; from an l-empty start the two semantics reach the same
        # bounded sets when total writes stay below the bound
        inst, _ = gen_writelossy_queue(WRITE_READ)
        s = inst.system
        from ucst.model import Ucst

        kept = [r for r in s.sender_rules
                if not (r.action.kind == "test" and r.action.lang.accepts(("a",)))]
        stripped = Ucst(s.alphabet, s.sender_states, s.receiver_states,
                        kept, s.receiver_rules)
        start = Configuration(inst.p_in, inst.q_in, (), ())
        bound = Bound(4, 0)
        lossy = reachable_set(stripped, [start], bound, LOSSY)
        wl = reachable_set(stripped, [start], bound, WRITE_LOSSY)
        lossy_configs = {(c.p, c.q, c.u, c.v) for c in lossy}
        wl_configs = {(c.p, c.q, c.u, c.v) for c in wl}
        assert lossy_configs == wl_configs
