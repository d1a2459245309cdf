import random
from collections import Counter

import pytest

from ucst import explore
from ucst.errors import InputError
from ucst.explore import (
    Bound,
    NOT_WITHIN_BOUND,
    REACHABLE,
    UNREACHABLE,
    bounded_reach,
    reachable_nodes,
)
from ucst.generators import SemiThueSystem, gen_thue_recurrent
from ucst.model import (
    LOSS,
    LOSSY,
    MODES,
    RELIABLE,
    WRITE_LOSSY,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Run,
    Ucst,
    classify_tests,
    format_run,
    step,
    step_layer,
    successors,
    validate_run,
)
from ucst.randomgen import random_instance, random_ucst
from ucst.regdata import Nfa, parse_regex

from support import (
    LassoWitness,
    bounded_recurrent,
    coreach_set,
    has_word_longer_than,
    reachable_set,
)


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


class TestStopReason:
    """Each verdict names why its search stopped; the printed verdict does
    not change."""

    def test_target(self, fig6_instance):
        verdict = bounded_reach(fig6_instance, Bound(2, 0), LOSSY)
        assert verdict.reachable and verdict.reason == "target"
        assert str(verdict) == "REACHABLE"

    def test_closure(self):
        m = ("a",)
        s = Ucst(m, ("p0", "p1"), ("q0",), [Rule("p0", "r", Action.nop(), "p0")], [])
        inst = ReachInstance(s, "p0", "p1", "q0", "q0", eps(m), eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert (verdict.status, verdict.reason) == (UNREACHABLE, "closure")
        assert str(verdict) == "UNREACHABLE"

    def test_length_bound(self):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [Rule("p0", "r", Action.write("a"), "p0")], [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0", eps(m), eps(m),
                             parse_regex("a a a", m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert (verdict.status, verdict.reason) == (NOT_WITHIN_BOUND, "length-bound")
        assert str(verdict) == "NOT-WITHIN-BOUND"

    def test_step_bound(self):
        s = chain(2)
        m = s.alphabet
        inst = ReachInstance(s, "p0", "dead", "q0", "q0", eps(m), eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 2), LOSSY)
        assert (verdict.status, verdict.reason) == (NOT_WITHIN_BOUND, "step-bound")
        assert str(verdict) == "NOT-WITHIN-BOUND"

    def test_initial_truncation(self):
        # the closure from the words that fit finishes, but a longer
        # initial word of r was never tried
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [], [])
        inst = ReachInstance(s, "p0", "p0", "q0", "q0", parse_regex("a a a a", m),
                             eps(m), eps(m), eps(m))
        verdict = bounded_reach(inst, Bound(2, 0), LOSSY)
        assert (verdict.status, verdict.reason) == (NOT_WITHIN_BOUND,
                                                    "initial-truncation")
        assert str(verdict) == "NOT-WITHIN-BOUND"


# -- an independent step semantics on configurations ----------------------------

def reference_successors(s, c, mode):
    """The step relation read off the rules: the Sender writes, tests and
    idles; the Receiver reads the head of a channel, tests and idles; in
    lossy mode one letter of l may vanish, and in write-lossy mode a letter
    written to l may be lost as it is written (label ("wrlo", rule id)).
    Listed as the explorer lists them: rules by id, each dropped write right
    after its write, then the distinct losses by deleted position."""
    p, q, u, v = c
    out = []
    for rid, rule in enumerate(s.rules):
        sender = rid < s.n_sender_rules
        if rule.source != (p if sender else q):
            continue

        def to(u2, v2):
            if sender:
                return Configuration(rule.target, q, u2, v2)
            return Configuration(p, rule.target, u2, v2)

        act, on_r = rule.action, rule.channel == "r"
        content = u if on_r else v
        if act.kind == "nop" or (act.kind == "test" and act.lang.accepts(content)):
            out.append((rid, to(u, v)))
        elif act.kind == "write" and sender:
            out.append((rid, to(u + (act.msg,), v) if on_r else to(u, v + (act.msg,))))
            if mode == WRITE_LOSSY and not on_r:
                out.append((("wrlo", rid), to(u, v)))
        elif act.kind == "read" and not sender and content[:1] == (act.msg,):
            out.append((rid, to(content[1:], v) if on_r else to(u, content[1:])))
    if mode == LOSSY:
        losses = []
        for i in range(len(v)):
            if v[:i] + v[i + 1:] not in losses:
                losses.append(v[:i] + v[i + 1:])
        out += [(LOSS, Configuration(p, q, u, w)) for w in losses]
    return out


def reference_search(s, starts, bound, mode, goal=lambda c: False):
    """Layered breadth-first search with `reference_successors`: the
    configurations found, in order, with their parents; the first one
    satisfying `goal`; and whether the closure finished with nothing pruned."""
    k, max_steps = bound.max_channel_len, bound.max_steps
    parents = {}
    for c in starts:
        if len(c.u) <= k and len(c.v) <= k and c not in parents:
            parents[c] = None
            if goal(c):
                return parents, c, False
    layer, depth, pruned = list(parents), 0, False
    while layer:
        if max_steps and depth == max_steps:
            return parents, None, False
        depth += 1
        nxt = []
        for c in layer:
            for label, d in reference_successors(s, c, mode):
                if len(d.u) > k or len(d.v) > k:
                    pruned = True
                elif d not in parents:
                    parents[d] = (label, c)
                    if goal(d):
                        return parents, d, False
                    nxt.append(d)
        layer = nxt
    return parents, None, not pruned


def reference_reach(inst, bound, mode):
    """(status, witness) of the bounded reachability question `inst`."""
    k = bound.max_channel_len
    starts = [Configuration(inst.p_in, inst.q_in, u, v)
              for u in inst.U.words_up_to(k)[0] for v in inst.V.words_up_to(k)[0]]

    def goal(c):
        return (c.p == inst.p_fi and c.q == inst.q_fi
                and inst.Up.accepts(c.u) and inst.Vp.accepts(c.v))

    parents, hit, finished = reference_search(inst.system, starts, bound, mode, goal)
    if hit is not None:
        steps = []
        while parents[hit] is not None:
            label, prev = parents[hit]
            steps.append((label, hit))
            hit = prev
        return REACHABLE, Run(hit, tuple(reversed(steps)))
    dropped = has_word_longer_than(inst.U, k) or has_word_longer_than(inst.V, k)
    return (UNREACHABLE if finished and not dropped else NOT_WITHIN_BOUND), None


TESTS = (("Z", "l"), ("Z", "r"), ("N", "l"), ("N", "r"), ("Even", "l"),
         ("Odd", "r"), ("H", "l"), ("H", "r"))


def random_tested_systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        s = random_ucst(rng, sender_tests=TESTS, receiver_tests=TESTS,
                        test_weight=0.4)
        yield rng, s


class TestAgainstReferenceSemantics:
    def test_bounded_reach_verdicts_and_witnesses(self):
        seen = Counter()
        for rng, s in random_tested_systems(2024, 60):
            inst = random_instance(rng, s, bias_reachable=0.7)
            for mode in MODES:
                for bound in (Bound(3, 0), Bound(3, 4)):
                    verdict = bounded_reach(inst, bound, mode)
                    status, witness = reference_reach(inst, bound, mode)
                    assert (verdict.status, verdict.witness) == (status, witness)
                    seen[status, len(witness or ()) > 2] += 1
        assert set(seen) == {(REACHABLE, False), (REACHABLE, True),
                             (UNREACHABLE, False), (NOT_WITHIN_BOUND, False)}
        assert seen[REACHABLE, True] >= 20

    def test_reachable_sets(self):
        sizes = []
        for rng, s in random_tested_systems(7, 20):
            starts = [Configuration(rng.choice(s.sender_states),
                                    rng.choice(s.receiver_states),
                                    tuple(rng.choices(s.alphabet, k=rng.randrange(3))),
                                    tuple(rng.choices(s.alphabet, k=rng.randrange(3))))
                      for _ in range(2)]
            for mode in MODES:
                for bound in (Bound(3, 0), Bound(2, 3)):
                    want, _, _ = reference_search(s, starts, bound, mode)
                    assert reachable_set(s, starts, bound, mode) == set(want)
                    sizes.append(len(want))
        assert max(sizes) > 50

    def test_step_order_and_labels(self):
        for rng, s in random_tested_systems(7, 20):
            start = Configuration(s.sender_states[0], s.receiver_states[0], (), ())
            for mode in MODES:
                for c in sorted(reachable_set(s, [start], Bound(2, 0), mode)):
                    out, _ = step(s, s.node(c), mode)
                    got = [(label, s.config(n)) for label, n in out]
                    assert got == reference_successors(s, c, mode)

    def test_the_battery_draws_every_test_kind(self):
        labels = {t.label for _, s in random_tested_systems(2024, 60)
                  for t in classify_tests(s).tests}
        labels |= {t.label for _, s in random_tested_systems(7, 20)
                   for t in classify_tests(s).tests}
        assert labels == {"Z", "N", "Even", "Odd", "H"}

    @pytest.mark.parametrize("mode,size", [(LOSSY, 9782), (WRITE_LOSSY, 10562)])
    def test_fig1_closure_sizes(self, fig1, mode, size):
        start = Configuration("p1", "q1", (), ())
        assert len(reachable_set(fig1, [start], Bound(5, 0), mode)) == size


# -- the kernel before control-pair nodes ---------------------------------------

def previous_moves(s):
    """Move table per source state, in rule-id order: (rule id, kind, acts on
    r, letter or test membership by word id, target state)."""
    columns = {}
    moves = {state: [] for state in s.sender_states + s.receiver_states}
    for rid, rule in enumerate(s.rules):
        act = rule.action
        if act.kind == ("read" if rid < s.n_sender_rules else "write"):
            continue
        arg = act.msg
        if act.kind == "test":
            if act.lang not in columns:
                columns[act.lang] = s.words.column(act.lang)
            arg = columns[act.lang]
        moves[rule.source].append((rid, act.kind, rule.channel == "r", arg,
                                   rule.target))
    return moves


def previous_step(s, moves, node, mode):
    """Labelled successors of node (p, q, r word id, l word id), with no
    bound: every write is pushed and numbered."""
    p, q, u, v = node
    words = s.words
    out = []
    for rid, kind, on_r, arg, target in moves[p]:
        if kind == "write":
            if on_r:
                out.append((rid, (target, q, words.push(u, arg), v)))
            else:
                out.append((rid, (target, q, u, words.push(v, arg))))
                if mode == WRITE_LOSSY:
                    out.append((("wrlo", rid), (target, q, u, v)))
        elif kind == "nop" or arg[u if on_r else v]:
            out.append((rid, (target, q, u, v)))
    for rid, kind, on_r, arg, target in moves[q]:
        if kind == "read":
            w = u if on_r else v
            if words.head[w] == arg:
                rest = words.tail[w]
                out.append((rid, (p, target, rest, v) if on_r
                            else (p, target, u, rest)))
        elif kind == "nop" or arg[u if on_r else v]:
            out.append((rid, (p, target, u, v)))
    if mode == LOSSY:
        out += [(LOSS, (p, q, u, w)) for w in words.losses(v)]
    return out


def previous_bfs(words, starts, expand, k, goal=None, max_depth=0):
    """Layered search that checks each successor's lengths and records
    (label, predecessor) per node: (parents, hit, stop)."""
    length = words.length
    parents = {}
    for c in starts:
        if length[c[2]] <= k and length[c[3]] <= k and c not in parents:
            parents[c] = None
            if goal is not None and goal(c):
                return parents, c, "target"
    frontier, pruned, depth = list(parents), False, 0
    while frontier:
        if max_depth and depth == max_depth:
            return parents, None, "step-bound"
        depth += 1
        nxt = []
        for c in frontier:
            for label, succ in expand(c):
                if succ in parents:
                    continue
                if length[succ[2]] > k or length[succ[3]] > k:
                    pruned = True
                    continue
                parents[succ] = (label, c)
                if goal is not None and goal(succ):
                    return parents, succ, "target"
                nxt.append(succ)
        frontier = nxt
    return parents, None, "length-bound" if pruned else "closure"


def previous_search(s, starts, bound, mode, goal=None):
    """`previous_bfs` from the configurations `starts`, and the decoder of
    its nodes."""
    moves, words = previous_moves(s), s.words

    def config(n):
        return Configuration(n[0], n[1], words.word[n[2]], words.word[n[3]])

    nodes = [(p, q, words.id(u), words.id(v)) for p, q, u, v in starts]
    return previous_bfs(words, nodes, lambda n: previous_step(s, moves, n, mode),
                        bound.max_channel_len, goal, bound.max_steps) + (config,)


def initial_configurations(inst, k):
    return [Configuration(inst.p_in, inst.q_in, u, v)
            for u in inst.U.words_up_to(k)[0] for v in inst.V.words_up_to(k)[0]]


def previous_reach(inst, bound, mode):
    """(status, reason, witness) of the previous `bounded_reach`."""
    s, k = inst.system, bound.max_channel_len
    dropped = has_word_longer_than(inst.U, k) or has_word_longer_than(inst.V, k)
    up, vp = s.words.column(inst.Up), s.words.column(inst.Vp)

    def goal(n):
        return n[0] == inst.p_fi and n[1] == inst.q_fi and up[n[2]] and vp[n[3]]

    parents, hit, stop, config = previous_search(
        s, initial_configurations(inst, k), bound, mode, goal)
    witness = None
    if hit is not None:
        steps = []
        while parents[hit] is not None:
            label, prev = parents[hit]
            steps.append((label, config(hit)))
            hit = prev
        witness = Run(config(hit), tuple(reversed(steps)))
        status = REACHABLE
    elif stop == "closure" and not dropped:
        status = UNREACHABLE
    else:
        status = NOT_WITHIN_BOUND
        stop = "initial-truncation" if stop == "closure" else stop
    return status, stop, witness


def fresh(s):
    """A copy of system `s` with its own, empty tables of pairs and words."""
    return Ucst(s.alphabet, s.sender_states, s.receiver_states,
                s.sender_rules, s.receiver_rules)


class TestAgainstPreviousKernel:
    """Control-pair nodes, the bounded `step` and predecessor-only parents
    against the kernel they replaced: the same verdicts, stop reasons, node
    sets and witness text."""

    @staticmethod
    def agree(inst, bound, mode):
        """Same verdict, stop reason and witness text; returns the first
        two."""
        verdict = bounded_reach(inst, bound, mode)
        status, reason, witness = previous_reach(inst, bound, mode)
        assert (verdict.status, verdict.reason) == (status, reason)
        assert (verdict.witness is None) == (witness is None)
        if witness is not None:
            s = inst.system
            assert format_run(s, verdict.witness) == format_run(s, witness)
        return status, reason

    @staticmethod
    def same_closure(s, starts, bound, mode):
        parents, _, _, config = previous_search(s, starts, bound, mode)
        nodes = reachable_nodes(s, starts, bound, mode)
        assert {s.config(n) for n in nodes} == {config(n) for n in parents}

    def test_random_tested_systems_all_modes(self):
        seen = Counter()
        for rng, s in random_tested_systems(2024, 60):
            inst = random_instance(rng, s, bias_reachable=0.7)
            for mode in MODES:
                for bound in (Bound(3, 0), Bound(3, 4)):
                    seen[self.agree(inst, bound, mode)] += 1
                    self.same_closure(s, initial_configurations(inst, 3),
                                      bound, mode)
        assert set(seen) == {(REACHABLE, "target"), (UNREACHABLE, "closure"),
                             (NOT_WITHIN_BOUND, "length-bound"),
                             (NOT_WITHIN_BOUND, "step-bound")}
        assert seen[REACHABLE, "target"] >= 100

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_fig1(self, fig1, k):
        s = fresh(fig1)
        m = s.alphabet
        anyw, too_long = Nfa.all_words(m), parse_regex(" ".join("a" * (k + 1)), m)
        seen = Counter()
        for mode in MODES:
            for p, q in [(p, q) for p in s.sender_states for q in s.receiver_states]:
                inst = ReachInstance(s, "p1", p, "q1", q, eps(m), eps(m), anyw, anyw)
                seen[self.agree(inst, Bound(k, 0), mode)] += 1
            inst = ReachInstance(s, "p1", "p1", "q1", "q1", eps(m), eps(m),
                                 too_long, eps(m))
            seen[self.agree(inst, Bound(k, 0), mode)] += 1
            self.same_closure(
                s, [Configuration("p1", "q1", (), ())], Bound(k, 0), mode)
        assert seen == {(REACHABLE, "target"): 27,
                        (NOT_WITHIN_BOUND, "length-bound"): 12}


def per_node_layer(s, layer, mode, k, parents):
    """A layer expanded by a loop over the one-node `step`: each successor
    not in `parents` is mapped there to its first finder and appended to the
    new layer; returns the new layer and whether any node's step cut."""
    new, cut = [], False
    for node in layer:
        out, node_cut = step(s, node, mode, k)
        cut = cut or node_cut
        for _, succ in out:
            if succ not in parents:
                parents[succ] = node
                new.append(succ)
    return new, cut


class TestStepLayer:
    def test_layers_against_per_node_step(self):
        """Multi-node layers whose nodes share successors, with some
        successors already known: the same new layer, first finders and cut
        as stepping each node on its own, and as edges the steps without
        their losses."""
        seen = Counter()
        for rng, s in random_tested_systems(4711, 40):
            start = Configuration(s.sender_states[0], s.receiver_states[0], (), ())
            for mode in MODES:
                nodes = list(reachable_nodes(s, [start], Bound(3, 0), mode))
                for k in (2, 3, None):
                    fits = [n for n in nodes if k is None or
                            max(s.words.length[n[1]], s.words.length[n[2]]) <= k]
                    finders = {}  # successor -> the nodes of `fits` stepping to it
                    for node in fits:
                        for _, succ in step(s, node, mode, k)[0]:
                            finders.setdefault(succ, {})[node] = None
                    shared = [list(f) for f in finders.values() if len(f) > 1]
                    for _ in range(4):
                        layer = rng.choice(shared) if shared else []
                        layer = list(dict.fromkeys(
                            layer[:4] + rng.sample(fits, min(len(fits), 3))))
                        rng.shuffle(layer)
                        known = dict.fromkeys(rng.sample(nodes, len(nodes) // 3))
                        parents = dict.fromkeys([*known, *layer])
                        want_parents = dict(parents)
                        edges = []
                        got = step_layer(s, layer, mode, k, parents, edges)
                        want = per_node_layer(s, layer, mode, k, want_parents)
                        assert got == want, (s, mode, k, layer)
                        assert list(parents.items()) == list(want_parents.items())
                        assert edges == [(node, label, succ) for node in layer
                                         for label, succ in step(s, node, mode, k)[0]
                                         if label != LOSS]
                        succs = [succ for _, _, succ in edges]
                        seen["shared"] += any(len(finders[succ].keys() & layer) > 1
                                              for succ in succs)
                        seen["known"] += any(succ in known for succ in succs)
                        seen["new"] += bool(got[0])
                        seen[mode, k, got[1]] += 1
        assert min(seen["shared"], seen["known"], seen["new"]) >= 300, seen
        assert all(seen[mode, k, True] and seen[mode, k, False]
                   for mode in MODES for k in (2, 3)), seen


def assert_gained_inverts_lost(words):
    """`gained` is exactly the inverse of `lost` over the numbered words: j
    is listed once in `gained[i]` iff the losses of j were asked and hold
    i.  Returns the number of (j, i) pairs."""
    pairs = [(j, i) for j, ws in enumerate(words.lost) for i in ws or ()]
    back = [(j, i) for i, js in enumerate(words.gained) for j in js]
    assert len(words.gained) == len(words.word)
    assert sorted(back) == sorted(pairs)
    assert len(set(back)) == len(back)
    return len(pairs)


class TestWordsGained:
    def test_inverse_of_lost_after_explorations_in_every_mode(self, fig1):
        pairs = 0
        for rng, s in random_tested_systems(977, 20):
            for mode in MODES:
                start = Configuration(rng.choice(s.sender_states),
                                      rng.choice(s.receiver_states), (), ())
                reachable_nodes(s, [start], Bound(3, 0), mode)
                pairs += assert_gained_inverts_lost(s.words)
        s = fresh(fig1)
        for mode in (RELIABLE, WRITE_LOSSY, LOSSY):
            reachable_nodes(s, [Configuration("p1", "q1", (), ())], Bound(4, 0), mode)
            fig_pairs = assert_gained_inverts_lost(s.words)
            assert (fig_pairs > 0) == (mode == LOSSY)
        assert pairs > 50 and fig_pairs > 40, (pairs, fig_pairs)

    def test_inverse_of_lost_after_step_alone(self):
        rng = random.Random(19)
        pairs = 0
        for _, s in random_tested_systems(443, 20):
            words = [tuple(rng.choice(s.alphabet) for _ in range(rng.randint(0, 6)))
                     for _ in range(8)]
            for v in words:
                node = s.node(Configuration(s.sender_states[0], s.receiver_states[0],
                                            (), v))
                out, _ = step(s, node, LOSSY)
                assert [succ for label, succ in out if label == LOSS] == [
                    (node[0], node[1], w) for w in s.words.lost[node[2]]]
            pairs += assert_gained_inverts_lost(s.words)
        assert pairs > 200


class TestBoundedStep:
    def test_bounded_reach_numbers_no_word_beyond_the_bound(self, fig1):
        for mode in MODES:
            s = fresh(fig1)
            m = s.alphabet
            # a witness, stepped again for its labels, then a closure
            found = ReachInstance(s, "p1", "p3", "q1", "q1", eps(m), eps(m),
                                  Nfa.all_words(m), Nfa.all_words(m))
            closed = ReachInstance(s, "p1", "p1", "q1", "q1", eps(m), eps(m),
                                   parse_regex("a a a a", m), eps(m))
            assert bounded_reach(found, Bound(3, 0), mode).reachable
            verdict = bounded_reach(closed, Bound(3, 0), mode)
            assert (verdict.status, verdict.reason) == (NOT_WITHIN_BOUND,
                                                        "length-bound")
            assert max(s.words.length) == 3

    def test_unbounded_successors_keep_writes_beyond_any_bound(self, fig1):
        s = fresh(fig1)
        long = ("b",) * 40
        c = Configuration("p3", "q1", long, long)
        for mode in MODES:
            got = successors(s, c, mode)
            assert (2, Configuration("p1", "q1", long, long + ("b",))) in got
            assert (3, Configuration("p3", "q1", long + ("a",), long)) in got
            out, cut = step(s, s.node(c), mode, 40)
            assert cut and all(len(d.u) <= 40 and len(d.v) <= 40
                               for d in map(s.config, (n for _, n in out)))
            out, cut = step(s, s.node(c), mode)
            assert not cut and [(label, s.config(n)) for label, n in out] == got


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
    def test_loss_cone_with_no_rules(self, bounded_space):
        m = ("a",)
        s = Ucst(m, ("p0",), ("q0",), [], [])
        target = Configuration("p0", "q0", (), ())
        bound = Bound(2, 0)
        result = coreach_set(s, bounded_space(s, 2), [target], bound)
        # reachable-by-losses means: same states, same r, l above target's l
        assert result == {
            Configuration("p0", "q0", (), ()),
            Configuration("p0", "q0", (), ("a",)),
            Configuration("p0", "q0", (), ("a", "a")),
        }

    def test_only_configurations_reachable_from_the_starts(self):
        s = Ucst(("a",), ("p0",), ("q0",), [], [])
        target = Configuration("p0", "q0", (), ())
        one = Configuration("p0", "q0", (), ("a",))
        bound = Bound(3, 0)
        assert coreach_set(s, [one], [target], bound) == {one, target}

    def test_targets_outside_the_graph_are_left_out(self):
        s = Ucst(("a",), ("p0",), ("q0",), [], [])
        one = Configuration("p0", "q0", (), ("a",))
        bound = Bound(3, 0)
        beyond = [Configuration("p0", "q0", (), ("a",) * 4),
                  Configuration("p0", "q0", ("a",), ())]
        assert coreach_set(s, [one], beyond, bound) == set()
        assert coreach_set(s, [one], beyond + [one], bound) == {one}

    def test_step_bound_keeps_exactly_the_configurations_within_n_steps(
            self, bounded_space):
        s = Ucst(("a",), ("p0",), ("q0",), [], [])
        target = Configuration("p0", "q0", (), ())
        for n in (1, 2, 3):
            bound = Bound(4, n)
            co = coreach_set(s, bounded_space(s, 4), [target], bound)
            assert co == {Configuration("p0", "q0", (), ("a",) * i)
                          for i in range(n + 1)}

    def test_fig6_start_is_in_coreach_of_goal(self, fig6, bounded_space):
        goal = Configuration("p_fi", "q_fi", (), ())
        bound = Bound(2, 0)
        result = coreach_set(fig6, bounded_space(fig6, 2), [goal], bound)
        assert Configuration("p_in", "q_in", (), ()) in result

    def test_empty_targets(self, fig6, bounded_space):
        bound = Bound(1, 0)
        assert coreach_set(fig6, bounded_space(fig6, 1), [], bound) == set()

    def test_pointwise_agreement_with_forward_search(self, fig6, bounded_space):
        goal = Configuration("p_fi", "q_fi", (), ())
        bound = Bound(2, 0)
        space = bounded_space(fig6, 2)
        co = coreach_set(fig6, space, [goal], bound)
        rng = random.Random(5)
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


def tarjan_sccs(nodes, adj):
    """Iterative Tarjan over `adj`: node -> (label, successor) pairs; returns
    the list of SCCs in a deterministic order."""
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for _, succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def tarjan_bounded_recurrent(s, p_in, q_in, p, q, bound, mode):
    """Reference lasso search: the anchor is taken from the first nontrivial
    SCC of the bounded graph, in Tarjan's order, that holds the control pair,
    and its cycle is the shortest one inside that SCC."""
    k = bound.max_channel_len
    edges = []
    start = s.node(Configuration(p_in, q_in, (), ()))
    parents, _, _ = explore._bfs([start], explore._stepper(s, mode, k, edges))
    adj = {n: [] for n in parents}
    for n, label, succ in edges:
        adj[n].append((label, succ))
    if mode == LOSSY:  # the kernel records rule edges only
        for c, u, v in parents:
            adj[c, u, v] += [(LOSS, (c, u, w)) for w in s.words.losses(v)]
    for scc in tarjan_sccs(parents, adj):
        if len(scc) == 1 and all(succ != scc[0] for _, succ in adj[scc[0]]):
            continue
        anchor = next((n for n in scc if s.pairs[n[0]] == (p, q)), None)
        if anchor is None:
            continue
        members = set(scc)

        def inside(layer, found):
            new = []
            for n in layer:
                for _, succ in adj[n]:
                    if succ in members and succ not in found:
                        found[succ] = n
                        new.append(succ)
            return new, False

        found, hit, _ = explore._bfs(
            [succ for _, succ in adj[anchor] if succ in members], inside,
            goal=(anchor[0], lambda n: n == anchor))
        assert hit is not None
        cycle = explore._run(s, [anchor] + explore._path(found, anchor), mode, k)
        return LassoWitness(explore._run(s, explore._path(parents, anchor), mode, k),
                            cycle)
    return None


class TestLassoAgainstTarjan:
    """The lasso search on `_bfs` alone against an SCC-based reference."""

    def test_random_systems_all_modes(self):
        seen = Counter()
        for rng, s in random_tested_systems(3011, 240):
            p_in, q_in = rng.choice(s.sender_states), rng.choice(s.receiver_states)
            bound = Bound(2, 0)
            # half of the anchors are control pairs the search can reach
            reached = reachable_set(s, [Configuration(p_in, q_in, (), ())],
                                    bound, LOSSY)
            p, q = (rng.choice(sorted({(c.p, c.q) for c in reached}))
                    if rng.random() < 0.5 else
                    (rng.choice(s.sender_states), rng.choice(s.receiver_states)))
            for mode in MODES:
                got = bounded_recurrent(s, p_in, q_in, p, q, bound, mode=mode)
                want = tarjan_bounded_recurrent(s, p_in, q_in, p, q, bound, mode)
                assert (got is None) == (want is None), (s, mode)
                seen[mode, got is not None] += 1
                if got is None:
                    continue
                for lasso in (got, want):
                    assert (lasso.anchor.p, lasso.anchor.q) == (p, q)
                    assert lasso.stem.start == Configuration(p_in, q_in, (), ())
                    assert lasso.cycle.start == lasso.cycle.end == lasso.anchor
                    assert len(lasso.cycle) >= 1
                    assert validate_run(s, lasso.stem, mode)
                    assert validate_run(s, lasso.cycle, mode)
                assert len(got.stem) <= len(want.stem)
                seen["shorter stem"] += len(got.stem) < len(want.stem)
        # both answers in every mode, and stems the reference does not find
        assert all(seen[mode, True] >= 30 and seen[mode, False] >= 30
                   for mode in MODES), seen
        assert seen["shorter stem"] >= 10, seen


class TestBounds:
    def test_bad_bound(self):
        with pytest.raises(InputError):
            Bound(-1)
