"""Seeded random systems and instances for cross-checks and stress tests."""

from .model import (
    Action,
    L,
    R,
    ReachInstance,
    Rule,
    Ucst,
    emptiness_test,
    even_length_test,
    head_test,
    nonemptiness_test,
    odd_length_test,
)
from .regdata import Nfa, parse_regex


def test_language(label, alphabet, sym=None):
    if label == "Z":
        return emptiness_test(alphabet)
    if label == "N":
        return nonemptiness_test(alphabet)
    if label == "Even":
        return even_length_test(alphabet)
    if label == "Odd":
        return odd_length_test(alphabet)
    if label == "H":
        if sym is None:
            raise ValueError("a head test needs its head letter")
        return head_test(sym, alphabet)
    raise ValueError(f"unknown test label {label!r}")


def _test_action(rng, alphabet, tests):
    label, channel = rng.choice(tests)
    sym = rng.choice(alphabet) if label == "H" else None
    return channel, Action.test(test_language(label, alphabet, sym))


def _sender_action(rng, alphabet, tests, test_weight):
    if tests and rng.random() < test_weight:
        return _test_action(rng, alphabet, tests)
    if rng.random() < 0.8:
        return rng.choice((R, L)), Action.write(rng.choice(alphabet))
    return R, Action.nop()


def _receiver_action(rng, alphabet, tests, test_weight):
    if tests and rng.random() < test_weight:
        return _test_action(rng, alphabet, tests)
    if rng.random() < 0.85:
        return rng.choice((R, L)), Action.read(rng.choice(alphabet))
    return R, Action.nop()


def random_ucst(rng, *, alphabet=("a", "b"), n_sender=3, n_receiver=3,
                n_sender_rules=4, n_receiver_rules=4,
                sender_tests=(), receiver_tests=(), test_weight=0.3,
                forward_sender=False):
    """Random system; `forward_sender` makes Sender's rule graph acyclic,
    which keeps channel contents bounded along every run."""
    sender_states = tuple(f"p{i}" for i in range(n_sender))
    receiver_states = tuple(f"q{i}" for i in range(n_receiver))
    srules = []
    for _ in range(n_sender_rules):
        if forward_sender and n_sender > 1:
            i = rng.randrange(n_sender - 1)
            j = rng.randrange(i + 1, n_sender)
            src, dst = sender_states[i], sender_states[j]
        else:
            src = rng.choice(sender_states)
            dst = rng.choice(sender_states)
        channel, act = _sender_action(rng, alphabet, sender_tests, test_weight)
        srules.append(Rule(src, channel, act, dst))
    rrules = []
    for _ in range(n_receiver_rules):
        src = rng.choice(receiver_states)
        dst = rng.choice(receiver_states)
        channel, act = _receiver_action(rng, alphabet, receiver_tests, test_weight)
        rrules.append(Rule(src, channel, act, dst))
    return Ucst(alphabet, sender_states, receiver_states, srules, rrules)


_CONSTRAINT_PALETTE = ("EPS", "a", "b", "a | EPS", "a b | b", "ANY", "EPS | a b")


def random_constraint(rng, alphabet):
    """A small regular language whose words all have length <= 2."""
    return parse_regex(rng.choice(_CONSTRAINT_PALETTE), alphabet)


def _biased_final_pair(rng, system, empty_final):
    """A control pair drawn from a short forward exploration, so instances
    asking for it tend to be reachable; None when nothing qualifies."""
    from .explore import Bound, reachable_set
    from .model import Configuration

    start = Configuration(system.sender_states[0], system.receiver_states[0],
                          (), ())
    reached = reachable_set(system, [start], Bound(2, 60), "lossy")
    if empty_final:
        # empty-l is always recoverable by losses; empty-r is not
        reached = {c for c in reached if c.u == ()}
    pairs = sorted({(c.p, c.q) for c in reached})
    return rng.choice(pairs) if pairs else None


def random_instance(rng, system, *, empty_initial=False, empty_final=False,
                    bias_reachable=0.0):
    s = system
    eps = Nfa.literal((), s.alphabet)
    p_in, q_in = rng.choice(s.sender_states), rng.choice(s.receiver_states)
    p_fi, q_fi = rng.choice(s.sender_states), rng.choice(s.receiver_states)
    if bias_reachable and rng.random() < bias_reachable:
        p_in, q_in = s.sender_states[0], s.receiver_states[0]
        pair = _biased_final_pair(rng, s, empty_final)
        if pair is not None:
            p_fi, q_fi = pair
    return ReachInstance(
        s, p_in, p_fi, q_in, q_fi,
        eps if empty_initial else random_constraint(rng, s.alphabet),
        eps if empty_initial else random_constraint(rng, s.alphabet),
        eps if empty_final else random_constraint(rng, s.alphabet),
        eps if empty_final else random_constraint(rng, s.alphabet),
    )


def random_z1l_instance(rng, *, alphabet=("a", "b"), n_states=3, n_rules=4,
                        bias_reachable=0.5):
    """Random empty-to-empty instance whose only tests are Sender
    emptiness tests on the lossy channel."""
    system = random_ucst(
        rng, alphabet=alphabet, n_sender=n_states, n_receiver=n_states,
        n_sender_rules=n_rules, n_receiver_rules=n_rules,
        sender_tests=(("Z", L),), receiver_tests=(), test_weight=0.25)
    return random_instance(rng, system, empty_initial=True, empty_final=True,
                           bias_reachable=bias_reachable)


def random_lossy_run(rng, system, start, max_steps, mode="lossy"):
    """Random walk through `successors`; returns a validating Run."""
    from .model import Run, successors

    cur = start
    steps = []
    for _ in range(max_steps):
        succ = successors(system, cur, mode)
        if not succ:
            break
        label, nxt = rng.choice(succ)
        steps.append((label, nxt))
        cur = nxt
    return Run(start, tuple(steps))
