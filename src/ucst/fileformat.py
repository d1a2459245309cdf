"""Line-oriented text formats for systems (.ucst) and embedding instances (.pep).

Systems are read and written; embedding instances are only written.  A
system file has `alphabet`, `sender`, `receiver`, `rule`, `instance` and
constraint lines; `//` starts a comment.  The reserved signal symbols z, n
and # are rejected in user alphabets; files emitted by the reduction stages
carry a `stage:` header, which lifts that restriction on re-parsing.
"""

from .errors import InputError
from .model import Action, ReachInstance, Rule, Ucst
from .reductions import RESERVED_SYMBOLS
from .regdata import KEYWORDS, parse_regex

_BAD_SYMBOL_CHARS = set("()|*+:!?=")


# -- regular expressions back out of automata -----------------------------------

def _branches(node):
    return node[1] if node[0] == "alt" else (node,)


class _Alternation:
    """An edge's expression, built up by alternation one node at a time.

    `node` is the alternation of the nodes added so far: their branches
    with duplicates dropped, or the lone branch itself.  The branches are
    kept as an ordered set, so an addition hashes only the new node's
    branches, not every branch the edge has gathered (tuples do not cache
    their hash).
    """

    __slots__ = ("lone", "branches")

    def __init__(self):
        self.lone = None      # the node, while it is not an alternation
        self.branches = None  # the ordered set of branches, once two

    def add(self, node):
        if self.lone is None and self.branches is None:
            self.lone = node
            return
        if self.branches is None:
            self.branches = dict.fromkeys(_branches(self.lone))
        self.branches.update(dict.fromkeys(_branches(node)))
        if len(self.branches) == 1:
            (self.lone,), self.branches = self.branches, None
        else:
            self.lone = None

    @property
    def node(self):
        return self.lone if self.branches is None else ("alt", tuple(self.branches))


def _cat(x, y):
    if x is None or y is None:
        return None
    parts = []
    for node in (x, y):
        if node == ("eps",):
            continue
        parts.extend(node[1] if node[0] == "cat" else (node,))
    if not parts:
        return ("eps",)
    return parts[0] if len(parts) == 1 else ("cat", tuple(parts))


def _star(x):
    if x is None or x == ("eps",):
        return ("eps",)
    if x[0] == "star":
        return x
    return ("star", x)


def _render(node, prec=0):
    kind = node[0]
    if kind == "eps":
        return "EPS"
    if kind == "sym":
        return str(node[1])
    if kind == "star":
        return _render(node[1], 3) + "*"
    if kind == "cat":
        text = " ".join(_render(part, 2) for part in node[1])
        return f"({text})" if prec > 2 else text
    text = " | ".join(_render(part, 1) for part in node[1])
    return f"({text})" if prec > 1 else text


def nfa_to_regex(nfa):
    """Surface-syntax expression for L(nfa), by transitive state elimination.

    Runs on the canonically numbered minimal DFA (`Nfa.minimal_dfa`, dead
    state included), eliminating states with the fewest incident paths
    first, so re-emitting a reparsed instance reproduces the same expression.
    """
    a = nfa.minimal_dfa()
    start, end = -1, -2
    edges = {}  # (i, j) -> _Alternation
    # per state, its other ends of the edges into and out of it, loops left
    # out, each in the order its edge entered `edges`
    ins = {i: {} for i in range(end, a.n_states)}
    outs = {i: {} for i in range(end, a.n_states)}

    def add(i, j, node):
        if (i, j) not in edges:
            edges[(i, j)] = _Alternation()
            if i != j:
                outs[i][j] = ins[j][i] = None
        edges[(i, j)].add(node)

    # the moves are listed by source, then letter in `symkey` order
    for (src, sym), dst in a.transitions.items():
        add(src, dst, ("sym", sym))
    add(start, a.initial, ("eps",))
    for i in sorted(a.accepting):
        add(i, end, ("eps",))
    remaining = set(range(a.n_states))
    while remaining:
        k = min(remaining, key=lambda k: (len(ins[k]) * len(outs[k]), k))
        remaining.discard(k)
        loop = _star(edges.pop((k, k), _Alternation()).node)
        into = [(i, edges.pop((i, k)).node) for i in ins.pop(k)]
        out = [(j, edges.pop((k, j)).node) for j in outs.pop(k)]
        for i, _ in into:
            del outs[i][k]
        for j, _ in out:
            del ins[j][k]
        for i, rin in into:
            for j, rout in out:
                add(i, j, _cat(rin, _cat(loop, rout)))
    result = edges.get((start, end), _Alternation()).node
    return "NONE" if result is None else _render(result)


# -- system files -----------------------------------------------------------------

def _check_keywords(symbols):
    for sym in symbols:
        if sym in KEYWORDS:
            raise InputError(
                f"alphabet symbol {sym!r} is a regular-expression keyword; rename it")


def check_symbols(symbols, stage):
    """Reject the alphabet symbols a system file cannot carry: regex
    keywords, reserved characters and, in a file without a stage, the
    reductions' signal symbols."""
    _check_keywords(symbols)
    for sym in symbols:
        if any(ch in _BAD_SYMBOL_CHARS or ch.isspace() for ch in sym):
            raise InputError(f"alphabet symbol {sym!r} uses reserved characters")
        if stage is None and sym in RESERVED_SYMBOLS:
            raise InputError(
                f"alphabet symbol {sym!r} is reserved for the reductions; rename it")


def _parse_action(text, lang):
    text = text.strip()
    if text == "nop":
        return "r", Action.nop()
    if len(text) < 2 or text[0] not in ("r", "l"):
        raise InputError(f"cannot parse action {text!r}")
    channel, op, rest = text[0], text[1], text[2:].strip()
    if op == "!":
        return channel, Action.write(rest)
    if op == "?":
        return channel, Action.read(rest)
    if op == "=":
        return channel, Action.test(lang(rest))
    raise InputError(f"cannot parse action {text!r}")


def parse_ucst(text):
    """Parse a system file; returns (ReachInstance, stage_or_None).

    Each distinct test or constraint text is parsed once per file, so equal
    texts share one automaton, with its subset memo and cached facts.
    """
    stage = None
    alphabet = None
    sender = receiver = None
    rule_lines = []
    instance = None
    constraints = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "stage":
            stage = rest
        elif key == "alphabet":
            alphabet = tuple(rest.split())
        elif key == "sender":
            sender = tuple(rest.split())
        elif key == "receiver":
            receiver = tuple(rest.split())
        elif key in ("rule s", "rule r"):
            rule_lines.append((lineno, key[-1], rest))
        elif key == "instance":
            instance = tuple(rest.split())
        elif key in ("U", "V", "Up", "Vp"):
            constraints[key] = rest
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    if alphabet is None or sender is None or receiver is None:
        raise InputError("file needs alphabet, sender and receiver lines")
    check_symbols(alphabet, stage)
    langs = {}  # regex text -> its automaton

    def lang(rex):
        if rex not in langs:
            langs[rex] = parse_regex(rex, alphabet)
        return langs[rex]

    srules, rrules = [], []
    for lineno, agent, rest in rule_lines:
        head, _, action_text = rest.partition(":")
        parts = head.split("->")
        if len(parts) != 2 or not action_text.strip():
            raise InputError(f"line {lineno}: rule needs 'src -> dst : action'")
        src, dst = parts[0].strip(), parts[1].strip()
        channel, action = _parse_action(action_text, lang)
        (srules if agent == "s" else rrules).append(Rule(src, channel, action, dst))
    system = Ucst(alphabet, sender, receiver, srules, rrules)
    if instance is None or len(instance) != 4:
        raise InputError("file needs 'instance: p_in p_fi q_in q_fi'")
    missing = [k for k in ("U", "V", "Up", "Vp") if k not in constraints]
    if missing:
        raise InputError(f"missing constraint lines: {missing}")
    nfas = {k: lang(v) for k, v in constraints.items()}
    inst = ReachInstance(system, instance[0], instance[1], instance[2],
                         instance[3], nfas["U"], nfas["V"], nfas["Up"],
                         nfas["Vp"])
    return inst, stage


def _test_regex(system, rule_id, rule, report_by_id):
    label = report_by_id.get(rule_id)
    if label is not None:
        name, head_sym = label
        if name == "Z":
            return "EPS"
        if name == "N":
            return "ANY ANY*"
        if name == "Even":
            return "(ANY ANY)*"
        if name == "Odd":
            return "ANY (ANY ANY)*"
        if name == "H":
            return f"{head_sym} ANY*"
    return nfa_to_regex(rule.action.lang)


def print_ucst(inst, stage=None):
    s = inst.system
    report = {t.rule_id: (t.label, t.head_sym)
              for t in s.test_report.tests if t.label != "other"}
    lines = []
    if stage:
        lines.append(f"stage: {stage}")
    lines.append("alphabet: " + " ".join(str(x) for x in s.alphabet))
    lines.append("sender: " + " ".join(s.sender_states))
    lines.append("receiver: " + " ".join(s.receiver_states))
    for rid, rule in enumerate(s.rules):
        agent = "s" if rid < s.n_sender_rules else "r"
        act = rule.action
        if act.kind == "nop":
            action = "nop"
        elif act.kind == "write":
            action = f"{rule.channel}!{act.msg}"
        elif act.kind == "read":
            action = f"{rule.channel}?{act.msg}"
        else:
            action = f"{rule.channel}={_test_regex(s, rid, rule, report)}"
        lines.append(f"rule {agent}: {rule.source} -> {rule.target} : {action}")
    lines.append(f"instance: {inst.p_in} {inst.p_fi} {inst.q_in} {inst.q_fi}")
    for name, nfa in zip(("U", "V", "Up", "Vp"), inst.constraints()):
        lines.append(f"{name}: {nfa_to_regex(nfa)}")
    return "\n".join(lines) + "\n"


# -- embedding instance files ------------------------------------------------------

def _image_text(word):
    return " ".join(str(x) for x in word) if word else "EPS"


def print_pep(inst):
    lines = ["sigma: " + " ".join(str(x) for x in inst.sigma),
             "gamma: " + " ".join(str(x) for x in inst.gamma)]
    for a in inst.sigma:
        lines.append(f"u: {a} -> {_image_text(inst.u[a])}")
    for a in inst.sigma:
        lines.append(f"v: {a} -> {_image_text(inst.v[a])}")
    lines.append("R: " + nfa_to_regex(inst.R))
    lines.append("Rp: " + nfa_to_regex(inst.Rp))
    return "\n".join(lines) + "\n"
