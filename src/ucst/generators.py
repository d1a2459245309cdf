"""Instance factories: queue-automaton simulations and string-rewriting loops.

These build the hardness gadgets as executable systems: a Sender that reads
its own reliable channel through a proxy Receiver (with parity or head tests,
or with nonemptiness tests under write-lossy semantics), and a Sender that
enumerates rewriting steps of a length-preserving string rewriting system so
that recurrent reachability matches the existence of a rewriting loop.
"""

from typing import NamedTuple

from .errors import InputError
from .model import (
    L,
    R,
    WRITE_LOSSY,
    Action,
    ReachInstance,
    Rule,
    Ucst,
    emptiness_test,
    even_length_test,
    head_test,
    nonemptiness_test,
    odd_length_test,
)
from .regdata import Nfa


class _QueueFields(NamedTuple):
    states: tuple
    alphabet: tuple
    rules: tuple   # of (source, "write"|"read", letter, target)
    initial: str
    final: str


class QueueAutomaton(_QueueFields):
    """Finite control with one fifo queue; rules write or read one letter."""

    __slots__ = ()

    def __new__(cls, states, alphabet, rules, initial, final):
        for src, kind, letter, dst in rules:
            if kind not in ("write", "read"):
                raise InputError(f"unknown queue action {kind!r}")
            if src not in states or dst not in states:
                raise InputError("queue rule endpoint outside states")
            if letter not in alphabet:
                raise InputError("queue rule letter outside alphabet")
        if initial not in states or final not in states:
            raise InputError("distinguished queue states missing")
        return super().__new__(cls, states, alphabet, rules, initial, final)


def linear_queue_automaton(ops, alphabet=None):
    """Chain automaton from a list of ("write"|"read", letter) operations."""
    letters = tuple(dict.fromkeys(letter for _, letter in ops))
    alphabet = tuple(alphabet) if alphabet else (letters or ("a",))
    states = tuple(f"m{i}" for i in range(len(ops) + 1))
    rules = tuple((states[i], kind, letter, states[i + 1])
                  for i, (kind, letter) in enumerate(ops))
    return QueueAutomaton(states, alphabet, rules, states[0], states[-1])


def _pair_reader(alphabet, hub):
    """Star at `hub`: read a letter off l, then the same letter from r."""
    states = [hub]
    rules = []
    for sym in alphabet:
        aux = f"{hub}.{sym}"
        states.append(aux)
        rules.append(Rule(hub, L, Action.read(sym), aux))
        rules.append(Rule(aux, R, Action.read(sym), hub))
    return states, rules


def _l_then_r_receiver(alphabet):
    return _pair_reader(alphabet, "q_proxy")


def gen_queue_parity(qa):
    """Sender simulates the queue automaton, reading r by proxy: a read
    becomes parity-test / request on l / wait for the parity to flip, with
    both parity branches offered."""
    m = tuple(qa.alphabet)
    even = even_length_test(m)
    odd = odd_length_test(m)
    states = list(qa.states)
    rules = []
    for i, (src, kind, letter, dst) in enumerate(qa.rules):
        if kind == "write":
            rules.append(Rule(src, R, Action.write(letter), dst))
            continue
        for first, second, tag in ((odd, even, "o"), (even, odd, "e")):
            s1 = f"{src}.rd{i}{tag}"
            s2 = f"{src}.rq{i}{tag}"
            states += [s1, s2]
            rules += [
                Rule(src, R, Action.test(first), s1),
                Rule(s1, L, Action.write(letter), s2),
                Rule(s2, R, Action.test(second), dst),
            ]
    rstates, rrules = _l_then_r_receiver(m)
    system = Ucst(m, states, rstates, rules, rrules)
    eps = Nfa.literal((), m)
    return ReachInstance(system, qa.initial, qa.final, "q_proxy", "q_proxy",
                         eps, eps, eps, eps)


def _colored(sym, bit):
    return f"{sym}^{bit}"


def gen_queue_head(qa):
    """Head-test variant: messages carry alternating colours, Sender tracks
    the colour of the next write and of the current queue head, and a read
    is guarded by a head test on the expected coloured letter.

    The head test doubles as confirmation of the previous request: it can
    only pass once the proxy has consumed everything in front.
    """
    m = tuple(_colored(sym, bit) for sym in qa.alphabet for bit in (0, 1))

    def sname(state, wbit, rbit):
        return f"{state}^w{wbit}r{rbit}"

    states = [sname(s, w, r) for s in qa.states for w in (0, 1) for r in (0, 1)]
    rules = []
    for i, (src, kind, letter, dst) in enumerate(qa.rules):
        for w in (0, 1):
            for r in (0, 1):
                if kind == "write":
                    rules.append(Rule(sname(src, w, r), R,
                                      Action.write(_colored(letter, w)),
                                      sname(dst, 1 - w, r)))
                else:
                    aux = f"{src}.hd{i}w{w}r{r}"
                    if aux not in states:
                        states.append(aux)
                    wanted = _colored(letter, r)
                    rules.append(Rule(sname(src, w, r), R,
                                      Action.test(head_test(wanted, m)), aux))
                    rules.append(Rule(aux, L, Action.write(wanted),
                                      sname(dst, w, 1 - r)))
    acc = "p_acc"
    states.append(acc)
    for w in (0, 1):
        for r in (0, 1):
            rules.append(Rule(sname(qa.final, w, r), R, Action.nop(), acc))
    rstates, rrules = _l_then_r_receiver(m)
    system = Ucst(m, states, rstates, rules, rrules)
    eps = Nfa.literal((), m)
    return ReachInstance(system, sname(qa.initial, 0, 0), acc,
                         "q_proxy", "q_proxy", eps, eps, eps, eps)


def gen_writelossy_queue(qa):
    """Write-lossy variant: a read becomes request / nonempty / empty on l,
    where the nonemptiness test certifies the request write survived.
    Evaluate the returned instance under write-lossy semantics."""
    m = tuple(qa.alphabet)
    n_test = nonemptiness_test(m)
    z_test = emptiness_test(m)
    states = list(qa.states)
    rules = []
    for i, (src, kind, letter, dst) in enumerate(qa.rules):
        if kind == "write":
            rules.append(Rule(src, R, Action.write(letter), dst))
            continue
        s1 = f"{src}.wq{i}"
        s2 = f"{src}.wn{i}"
        states += [s1, s2]
        rules += [
            Rule(src, L, Action.write(letter), s1),
            Rule(s1, L, Action.test(n_test), s2),
            Rule(s2, L, Action.test(z_test), dst),
        ]
    rstates, rrules = _l_then_r_receiver(m)
    system = Ucst(m, states, rstates, rules, rrules)
    eps = Nfa.literal((), m)
    inst = ReachInstance(system, qa.initial, qa.final, "q_proxy", "q_proxy",
                         eps, eps, eps, eps)
    return inst, WRITE_LOSSY


# -- string rewriting -------------------------------------------------------------

class _ThueFields(NamedTuple):
    alphabet: tuple
    rules: tuple  # of (lhs, rhs) strings


class SemiThueSystem(_ThueFields):
    __slots__ = ()

    def __new__(cls, alphabet, rules):
        sigma = set(alphabet)
        for lhs, rhs in rules:
            if not set(lhs) <= sigma or not set(rhs) <= sigma:
                raise InputError("rewrite rule uses letters outside the alphabet")
        return super().__new__(cls, alphabet, rules)

    def is_length_preserving(self):
        return all(len(a) == len(b) for a, b in self.rules)


def gen_thue_recurrent(t):
    """System whose runs enumerate rewriting steps: Sender guesses the next
    word and emits old#/#new on r/l, Receiver checks them letter by letter.
    Returns (system, p_in, q_in, p_loop, q_loop) for the lasso search."""
    if not t.is_length_preserving():
        raise InputError("generator requires a length-preserving system")
    gamma = tuple(t.alphabet)
    m = gamma + ("#",)
    states = ["p_in", "p_loop", "p_mark", "p_copy1", "p_copy2"]
    rules = [Rule("p_in", R, Action.nop(), "p_loop"),
             Rule("p_loop", R, Action.test(emptiness_test(m)), "p_mark"),
             Rule("p_mark", L, Action.write("#"), "p_copy1")]
    for sym in gamma:
        rules.append(Rule("p_in", L, Action.write(sym), "p_in"))
    for point in ("p_copy1", "p_copy2"):
        for sym in gamma:
            aux = f"{point}.{sym}"
            states.append(aux)
            rules.append(Rule(point, L, Action.write(sym), aux))
            rules.append(Rule(aux, R, Action.write(sym), point))
    for j, (lhs, rhs) in enumerate(t.rules):
        cur = "p_copy1"
        for k, sym in enumerate(lhs):
            nxt = f"p_rw{j}.a{k}"
            states.append(nxt)
            rules.append(Rule(cur, R, Action.write(sym), nxt))
            cur = nxt
        for k, sym in enumerate(rhs):
            last = k == len(rhs) - 1
            nxt = "p_copy2" if last else f"p_rw{j}.b{k}"
            if not last:
                states.append(nxt)
            rules.append(Rule(cur, L, Action.write(sym), nxt))
            cur = nxt
        if lhs == "" and rhs == "":
            rules.append(Rule(cur, R, Action.nop(), "p_copy2"))
    rules.append(Rule("p_copy2", R, Action.write("#"), "p_loop"))
    rstates, rrules = _pair_reader(m, "q_loop")
    system = Ucst(m, states, rstates, rules, rrules)
    return system, "p_in", "q_loop", "p_loop", "q_loop"
