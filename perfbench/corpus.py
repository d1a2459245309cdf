"""Seeded corpus of `.ucst` instances for the three benchmark workloads.

Everything here is owned by the benchmark: the generators do not import
`ucst`, so changes to `ucst.randomgen`, `ucst.generators` or the test
fixtures cannot change a workload.  Every random choice comes from
`random.Random(f"{seed}/{family}")`, which hashes a string seed with SHA-512
and therefore gives the same corpus under every `PYTHONHASHSEED`.

Each `Case` keeps the structure it was rendered from, so that the reference
search in `reference.py` can answer it without parsing the text.
"""

import random
from dataclasses import dataclass
from itertools import product

# Languages used for tests and constraints: surface regex -> (membership
# predicate on a word tuple, length of the longest word or None if infinite).
# Literal words (letters separated by spaces) are handled by `language`.
_NAMED = {
    "EPS": (lambda w: not w, 0),
    "ANY": (lambda w: len(w) == 1, 1),
    "ANY*": (lambda w: True, None),
    "ANY ANY*": (lambda w: len(w) > 0, None),
    "(ANY ANY)*": (lambda w: len(w) % 2 == 0, None),
    "ANY (ANY ANY)*": (lambda w: len(w) % 2 == 1, None),
    "a | EPS": (lambda w: w in ((), ("a",)), 1),
    "a b | b": (lambda w: w in (("a", "b"), ("b",)), 2),
    "EPS | b a": (lambda w: w in ((), ("b", "a")), 2),
    "a ANY*": (lambda w: w[:1] == ("a",), None),
    "ANY* b": (lambda w: w[-1:] == ("b",), None),
    "b*": (lambda w: all(x == "b" for x in w), None),
}

TEST_LANGS = {"Z": "EPS", "N": "ANY ANY*", "Even": "(ANY ANY)*",
              "Odd": "ANY (ANY ANY)*"}
INITIAL_LANGS = ("EPS", "EPS", "a", "b", "a | EPS", "a b | b", "EPS | b a",
                 "ANY")
FINAL_LANGS = ("EPS", "ANY*", "ANY*", "a", "a ANY*", "ANY* b", "b*",
               "(ANY ANY)*", "a | EPS")


def language(text):
    """(predicate, max_len) for a regex this module emits."""
    if text in _NAMED:
        return _NAMED[text]
    word = tuple(text.split())
    return (lambda w: w == word), len(word)


@dataclass(frozen=True)
class Case:
    """One instance plus the `ucst reach` arguments it is answered with.

    `rules` holds (agent, source, channel, kind, arg, target) with agent "s"
    or "r", kind one of write/read/test/nop, and arg a letter or a regex.
    """

    name: str
    family: str
    alphabet: tuple
    sender: tuple
    receiver: tuple
    rules: tuple
    instance: tuple      # p_in p_fi q_in q_fi
    constraints: tuple   # regexes for U V Up Vp
    method: str
    mode: str
    bound: int
    pep_len: int = 8
    emit_pep: bool = False  # also print the embedding instance

    def text(self):
        lines = [f"// {self.name}",
                 "alphabet: " + " ".join(self.alphabet),
                 "sender: " + " ".join(self.sender),
                 "receiver: " + " ".join(self.receiver)]
        for agent, src, channel, kind, arg, dst in self.rules:
            action = {"write": f"{channel}!{arg}", "read": f"{channel}?{arg}",
                      "test": f"{channel}={arg}", "nop": "nop"}[kind]
            lines.append(f"rule {agent}: {src} -> {dst} : {action}")
        lines.append("instance: " + " ".join(self.instance))
        for key, regex in zip(("U", "V", "Up", "Vp"), self.constraints):
            lines.append(f"{key}: {regex}")
        return "\n".join(lines) + "\n"

    def cli_args(self, path):
        return ["reach", path, "--method", self.method, "--mode", self.mode,
                "--bound", str(self.bound), "--steps", "0",
                "--pep-len", str(self.pep_len)]


# -- the paper's Figure 1 system ------------------------------------------------

FIG1_SENDER = ("p1", "p2", "p3")
FIG1_RECEIVER = ("q1", "q2", "q3", "q4")
FIG1_RULES = (
    ("s", "p1", "l", "write", "c", "p2"),
    ("s", "p2", "r", "write", "b", "p3"),
    ("s", "p3", "l", "write", "b", "p1"),
    ("s", "p3", "r", "write", "a", "p3"),
    ("r", "q1", "l", "read", "b", "q2"),
    ("r", "q2", "r", "read", "b", "q3"),
    ("r", "q3", "l", "read", "b", "q4"),
    ("r", "q4", "r", "read", "b", "q1"),
    ("r", "q2", "r", "read", "a", "q4"),
    ("r", "q4", "l", "read", "c", "q2"),
)


def fig1_case(rng, name, mode, bound):
    """Test-free closure of the bounded space from the empty configuration
    (p1, q1): the final constraint asks for bound+1 letters on one channel, so
    no target fits and the explorer visits every reachable configuration
    before answering NOT-WITHIN-BOUND.  Only the target varies with the seed,
    so the closure, and its cost, is the same for every seed."""
    too_long = " ".join(rng.choice("abc") for _ in range(bound + 1))
    finals = ["ANY*", "ANY*"]
    finals[rng.randrange(2)] = too_long
    return Case(name, "fig1", ("a", "b", "c"), FIG1_SENDER, FIG1_RECEIVER,
                FIG1_RULES,
                ("p1", rng.choice(FIG1_SENDER), "q1", rng.choice(FIG1_RECEIVER)),
                ("EPS", "EPS", *finals), "explore", mode, bound)


# -- random systems ----------------------------------------------------------------

def _random_rules(rng, alphabet, sender, receiver, n_sender_rules,
                  n_receiver_rules, sender_tests, receiver_tests, test_weight,
                  forward_sender):
    rules = []
    for _ in range(n_sender_rules):
        if forward_sender:
            i = rng.randrange(len(sender) - 1)
            src, dst = sender[i], sender[rng.randrange(i + 1, len(sender))]
        else:
            src, dst = rng.choice(sender), rng.choice(sender)
        if sender_tests and rng.random() < test_weight:
            label, channel = rng.choice(sender_tests)
            rules.append(("s", src, channel, "test", TEST_LANGS[label], dst))
        elif rng.random() < 0.85:
            rules.append(("s", src, rng.choice("rl"), "write",
                          rng.choice(alphabet), dst))
        else:
            rules.append(("s", src, "r", "nop", None, dst))
    for _ in range(n_receiver_rules):
        src, dst = rng.choice(receiver), rng.choice(receiver)
        if receiver_tests and rng.random() < test_weight:
            label, channel = rng.choice(receiver_tests)
            rules.append(("r", src, channel, "test", TEST_LANGS[label], dst))
        elif rng.random() < 0.85:
            rules.append(("r", src, rng.choice("rl"), "read",
                          rng.choice(alphabet), dst))
        else:
            rules.append(("r", src, "r", "nop", None, dst))
    return tuple(rules)


def _states(n_sender, n_receiver):
    return (tuple(f"p{i}" for i in range(n_sender)),
            tuple(f"q{i}" for i in range(n_receiver)))


ALL_TESTS = tuple((label, ch) for label in ("Z", "N", "Even", "Odd")
                  for ch in "rl")


def tested_case(rng, name, mode, bound):
    """Random 3-letter system with Z, N and parity tests on both sides and
    regular constraints; half the Senders are acyclic, so their closures
    finish and certify, half loop and fill the bounded space."""
    alphabet = ("a", "b", "c")
    sender, receiver = _states(3, 3)
    forward = rng.random() < 0.5
    rules = _random_rules(rng, alphabet, sender, receiver, 5, 5, ALL_TESTS,
                          ALL_TESTS, 0.3, forward)
    constraints = (rng.choice(INITIAL_LANGS), rng.choice(INITIAL_LANGS),
                   rng.choice(FINAL_LANGS), rng.choice(FINAL_LANGS))
    return Case(name, "tested", alphabet, sender, receiver, rules,
                ("p0", rng.choice(sender), "q0", rng.choice(receiver)),
                constraints, "explore", mode, bound)


def z1l_case(rng, name):
    """Empty-to-empty instance whose only tests are Sender emptiness tests on
    l: the pipeline maps it straight to an embedding problem."""
    sender, receiver = _states(2, 2)
    rules = _random_rules(rng, ("a", "b"), sender, receiver, 3, 3,
                          (("Z", "l"),), (), 0.25, False)
    return Case(name, "z1l", ("a", "b"), sender, receiver, rules,
                ("p0", rng.choice(sender), "q0", rng.choice(receiver)),
                ("EPS",) * 4, "pipeline", "lossy", 4, emit_pep=True)


def zn_case(rng, name, constraints):
    """Sender with a nonemptiness test, a write, and a write or an emptiness
    test on l, under regular initial and final constraints: the stages eg,
    egz1 and eez1 all run before the embedding problem is solved."""
    sender, receiver = _states(2, 2)
    actions = [(rng.choice("rl"), "test", TEST_LANGS["N"]),
               (rng.choice("rl"), "write", rng.choice("ab")),
               ("l", "test", TEST_LANGS["Z"]) if rng.random() < 0.5
               else (rng.choice("rl"), "write", rng.choice("ab"))]
    rules = [("s", rng.choice(sender), channel, kind, arg, rng.choice(sender))
             for channel, kind, arg in actions]
    rules += _random_rules(rng, ("a", "b"), sender, receiver, 0, 3, (), (), 0,
                           False)
    return Case(name, "zn", ("a", "b"), sender, receiver, tuple(rules),
                ("p0", rng.choice(sender), "q0", rng.choice(receiver)),
                constraints, "pipeline", "lossy", 4)


def saturation_case(rng, name):
    """Acyclic Sender with emptiness tests on both channels, at least one on
    r, empty-to-empty: the pipeline falls back to backward saturation."""
    sender, receiver = _states(3, 2)
    while True:
        rules = _random_rules(rng, ("a", "b"), sender, receiver, 4, 2,
                              (("Z", "l"), ("Z", "r")), (), 0.45, True)
        if any(r[3] == "test" and r[2] == "r" for r in rules):
            break
    return Case(name, "saturation", ("a", "b"), sender, receiver, rules,
                ("p0", rng.choice(sender[1:]), "q0", rng.choice(receiver)),
                ("EPS",) * 4, "pipeline", "lossy", 4)


# -- workloads ---------------------------------------------------------------------

MODES = ("lossy", "write-lossy", "reliable")
# (mode, bound, count) of the Figure 1 closures
FIG1_MIX = (("write-lossy", 5, 35), ("lossy", 5, 10), ("write-lossy", 6, 2),
            ("lossy", 6, 2))
TESTED_CASES = 300
Z1L_CASES = 800
# one Z/N case per combination, so every seed gets the same constraint mix
ZN_CONSTRAINTS = tuple(product(("a", "a | EPS", "a b | b"), ("EPS", "b"),
                               ("ANY*", "a", "b*"), ("EPS", "ANY*", "a ANY*")))
SATURATION_CASES = 600


def _explore(seed):
    cases = []
    rng = random.Random(f"{seed}/fig1")
    for mode, bound, count in FIG1_MIX:
        for _ in range(count):
            name = f"explore/fig1-{len(cases):03d}-{mode}-k{bound}"
            cases.append(fig1_case(rng, name, mode, bound))
    rng = random.Random(f"{seed}/tested")
    for i in range(TESTED_CASES):
        mode = MODES[i % 3]
        cases.append(tested_case(rng, f"explore/tested-{i:03d}-{mode}", mode,
                                 4))
    return cases


def _pipeline(seed):
    rng = random.Random(f"{seed}/z1l")
    cases = [z1l_case(rng, f"pipeline/z1l-{i:03d}") for i in range(Z1L_CASES)]
    rng = random.Random(f"{seed}/zn")
    cases += [zn_case(rng, f"pipeline/zn-{i:03d}", constraints)
              for i, constraints in enumerate(ZN_CONSTRAINTS)]
    return cases


def _saturation(seed):
    rng = random.Random(f"{seed}/saturation")
    return [saturation_case(rng, f"saturation/{i:03d}")
            for i in range(SATURATION_CASES)]


WORKLOADS = {"explore": _explore, "pipeline": _pipeline,
             "saturation": _saturation}


def build(workload, seed):
    """The workload's cases, in a fixed order."""
    return WORKLOADS[workload](seed)
