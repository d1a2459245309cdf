"""Line-oriented text formats for systems (.ucst) and embedding instances (.pep).

A system file has `alphabet`, `sender`, `receiver`, `rule`, `instance` and
constraint lines; `//` starts a comment.  The reserved signal symbols z, n
and # are rejected in user alphabets; files emitted by the reduction stages
carry a `stage:` header, which lifts that restriction on re-parsing.
"""

from .errors import InputError
from .model import Action, ReachInstance, Rule, Ucst, classify_tests
from .pep import PepInstance
from .reductions import RESERVED_SYMBOLS
from .regdata import EPSILON, Nfa, language_equal, parse_regex

_BAD_SYMBOL_CHARS = set("()|*+:!?=")


# -- regular expressions back out of automata -----------------------------------

def _alt(x, y):
    if x is None:
        return y
    if y is None:
        return x
    branches = []
    for node in (x, y):
        parts = node[1] if node[0] == "alt" else (node,)
        for part in parts:
            if part not in branches:
                branches.append(part)
    return branches[0] if len(branches) == 1 else ("alt", tuple(branches))


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

    Runs on the minimal deterministic automaton (canonical), eliminating
    states with the fewest incident paths first, so re-emitting a reparsed
    instance reproduces the same expression.
    """
    a = nfa.determinize().minimize().as_nfa().normalize()
    start, end = -1, -2
    edges = {}

    def add(i, j, node):
        edges[(i, j)] = _alt(edges.get((i, j)), node)

    for src, sym, dst in a.transitions:
        if sym is EPSILON:  # normalize() leaves none, but stay safe
            add(src, dst, ("eps",))
        else:
            add(src, dst, ("sym", sym))
    for i in sorted(a.initial):
        add(start, i, ("eps",))
    for i in sorted(a.accepting):
        add(i, end, ("eps",))
    remaining = set(range(a.n_states))
    while remaining:
        def degree(k):
            into = sum(1 for (i, j) in edges if j == k and i != k)
            out = sum(1 for (i, j) in edges if i == k and j != k)
            return (into * out, k)

        k = min(remaining, key=degree)
        remaining.discard(k)
        loop = _star(edges.pop((k, k), None))
        into = [(i, node) for (i, j), node in list(edges.items())
                if j == k and i != k]
        out = [(j, node) for (i, j), node in list(edges.items())
               if i == k and j != k]
        for (i, _) in into:
            edges.pop((i, k))
        for (j, _) in out:
            edges.pop((k, j))
        for i, rin in into:
            for j, rout in out:
                add(i, j, _cat(rin, _cat(loop, rout)))
    result = edges.get((start, end))
    return "NONE" if result is None else _render(result)


# -- system files -----------------------------------------------------------------

def _check_symbols(symbols, stage):
    for sym in symbols:
        if any(ch in _BAD_SYMBOL_CHARS or ch.isspace() for ch in sym):
            raise InputError(f"alphabet symbol {sym!r} uses reserved characters")
        if stage is None and sym in RESERVED_SYMBOLS:
            raise InputError(
                f"alphabet symbol {sym!r} is reserved for the reductions; rename it")


def _parse_action(text, alphabet):
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
        return channel, Action.test(parse_regex(rest, alphabet))
    raise InputError(f"cannot parse action {text!r}")


def parse_ucst(text):
    """Parse a system file; returns (ReachInstance, stage_or_None)."""
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
    _check_symbols(alphabet, stage)
    srules, rrules = [], []
    for lineno, agent, rest in rule_lines:
        head, _, action_text = rest.partition(":")
        parts = head.split("->")
        if len(parts) != 2 or not action_text.strip():
            raise InputError(f"line {lineno}: rule needs 'src -> dst : action'")
        src, dst = parts[0].strip(), parts[1].strip()
        channel, action = _parse_action(action_text, alphabet)
        (srules if agent == "s" else rrules).append(Rule(src, channel, action, dst))
    system = Ucst(alphabet, sender, receiver, srules, rrules)
    if instance is None or len(instance) != 4:
        raise InputError("file needs 'instance: p_in p_fi q_in q_fi'")
    missing = [k for k in ("U", "V", "Up", "Vp") if k not in constraints]
    if missing:
        raise InputError(f"missing constraint lines: {missing}")
    nfas = {k: parse_regex(v, alphabet) for k, v in constraints.items()}
    inst = ReachInstance(system, instance[0], instance[1], instance[2],
                         instance[3], nfas["U"], nfas["V"], nfas["Up"],
                         nfas["Vp"])
    return inst, stage


def _test_regex(system, rule_id, rule, report_by_id):
    label = report_by_id.get(rule_id)
    alphabet = system.alphabet
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
              for t in classify_tests(s).tests if t.label != "other"}
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


def instance_equal(a, b):
    """Structural equality up to constraint-language equality."""
    sa, sb = a.system, b.system
    if (sa.alphabet, sa.sender_states, sa.receiver_states) != \
            (sb.alphabet, sb.sender_states, sb.receiver_states):
        return False
    if len(sa.rules) != len(sb.rules) or sa.n_sender_rules != sb.n_sender_rules:
        return False
    for ra, rb in zip(sa.rules, sb.rules):
        if (ra.source, ra.target, ra.channel, ra.action.kind,
                ra.action.msg) != (rb.source, rb.target, rb.channel,
                                   rb.action.kind, rb.action.msg):
            return False
        if ra.action.kind == "test" and not language_equal(ra.action.lang,
                                                           rb.action.lang):
            return False
    if (a.p_in, a.p_fi, a.q_in, a.q_fi) != (b.p_in, b.p_fi, b.q_in, b.q_fi):
        return False
    return all(language_equal(x, y)
               for x, y in zip(a.constraints(), b.constraints()))


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


def _parse_image(text, gamma):
    text = text.strip()
    if text == "EPS" or not text:
        return ()
    out = tuple(text.split())
    for sym in out:
        if sym not in gamma:
            raise InputError(f"image symbol {sym!r} not in gamma")
    return out


def parse_pep(text):
    sigma = gamma = None
    u, v = {}, {}
    r_text = rp_text = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "sigma":
            sigma = tuple(rest.split())
        elif key == "gamma":
            gamma = tuple(rest.split())
        elif key in ("u", "v"):
            letter, _, image = rest.partition("->")
            letter = letter.strip()
            if sigma is None or letter not in sigma:
                raise InputError(f"line {lineno}: unknown letter {letter!r}")
            (u if key == "u" else v)[letter] = _parse_image(image, gamma or ())
        elif key == "R":
            r_text = rest
        elif key == "Rp":
            rp_text = rest
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    if sigma is None or gamma is None or r_text is None or rp_text is None:
        raise InputError("file needs sigma, gamma, R and Rp lines")

    def constraint(text_):
        if text_ == "NONE":
            return Nfa.nothing(sigma)
        return parse_regex(text_, sigma)

    return PepInstance(sigma, gamma, u, v, constraint(r_text),
                       constraint(rp_text))


def pep_equal(a, b):
    if (a.sigma, a.gamma, a.u, a.v) != (b.sigma, b.gamma, b.u, b.v):
        return False
    return language_equal(a.R, b.R) and language_equal(a.Rp, b.Rp)
