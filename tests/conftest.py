import pytest

from ucst.model import Action, Configuration, ReachInstance, Rule, Run, Ucst
from ucst.regdata import Nfa


def eps(alphabet):
    return Nfa.literal((), alphabet)


def make_fig6_system():
    """Four-rule Sender writing a, c, b then testing l empty; two-rule Receiver.

    Rule ids: 0 l!a, 1 r!c, 2 l!b, 3 l-empty-test (Sender);
              4 l?b, 5 r?c (Receiver).
    """
    m = ("a", "b", "c")
    sender = ("p_in", "p1", "p2", "p3", "p_fi")
    receiver = ("q_in", "q1", "q_fi")
    srules = [
        Rule("p_in", "l", Action.write("a"), "p1"),
        Rule("p1", "r", Action.write("c"), "p2"),
        Rule("p2", "l", Action.write("b"), "p3"),
        Rule("p3", "l", Action.test(eps(m)), "p_fi"),
    ]
    rrules = [
        Rule("q_in", "l", Action.read("b"), "q1"),
        Rule("q1", "r", Action.read("c"), "q_fi"),
    ]
    return Ucst(m, sender, receiver, srules, rrules)


@pytest.fixture(scope="session")
def fig6():
    return make_fig6_system()


@pytest.fixture(scope="session")
def fig6_instance(fig6):
    m = fig6.alphabet
    return ReachInstance(fig6, "p_in", "p_fi", "q_in", "q_fi",
                         eps(m), eps(m), eps(m), eps(m))


def make_fig6_run():
    """The lossy witness run: rules 0 1 2, one loss, then 4 3 5."""
    c = [
        Configuration("p_in", "q_in", (), ()),
        Configuration("p1", "q_in", (), ("a",)),
        Configuration("p2", "q_in", ("c",), ("a",)),
        Configuration("p3", "q_in", ("c",), ("a", "b")),
        Configuration("p3", "q_in", ("c",), ("b",)),
        Configuration("p3", "q1", ("c",), ()),
        Configuration("p_fi", "q1", ("c",), ()),
        Configuration("p_fi", "q_fi", (), ()),
    ]
    labels = [0, 1, 2, "los", 4, 3, 5]
    return Run(c[0], tuple(zip(labels, c[1:])))


@pytest.fixture
def fig6_run():
    return make_fig6_run()


def make_fig1_system():
    """Three-state Sender loop against a four-state Receiver cycle."""
    m = ("a", "b", "c")
    sender = ("p1", "p2", "p3")
    receiver = ("q1", "q2", "q3", "q4")
    srules = [
        Rule("p1", "l", Action.write("c"), "p2"),
        Rule("p2", "r", Action.write("b"), "p3"),
        Rule("p3", "l", Action.write("b"), "p1"),
        Rule("p3", "r", Action.write("a"), "p3"),
    ]
    rrules = [
        Rule("q1", "l", Action.read("b"), "q2"),
        Rule("q2", "r", Action.read("b"), "q3"),
        Rule("q3", "l", Action.read("b"), "q4"),
        Rule("q4", "r", Action.read("b"), "q1"),
        Rule("q2", "r", Action.read("a"), "q4"),
        Rule("q4", "l", Action.read("c"), "q2"),
    ]
    return Ucst(m, sender, receiver, srules, rrules)


@pytest.fixture(scope="session")
def fig1():
    return make_fig1_system()


def _random_nfa(rng, alphabet, max_states=4):
    """Small random automaton with epsilon moves (symbol None)."""
    n = rng.randint(1, max_states)
    symbols = tuple(alphabet) + (None,)
    trans = [(rng.randrange(n), rng.choice(symbols), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n + 1))]
    initial = {rng.randrange(n)}
    accepting = {s for s in range(n) if rng.random() < 0.4}
    return Nfa(alphabet, n, initial, accepting, trans)


@pytest.fixture(scope="session")
def random_nfa():
    """Factory: random_nfa(rng, alphabet) draws a small automaton with
    epsilon moves."""
    return _random_nfa
