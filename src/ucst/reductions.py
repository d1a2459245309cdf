"""The reduction pipeline, the backward-saturation procedure, and PEP bridges.

Stage by stage: Receiver tests are traded for two signal messages written by
Sender; regular initial constraints are materialized by a generating prefix;
Sender's nonemptiness tests are absorbed into one-letter write buffers; and
regular final constraints are consumed by Receiver after a marker.  A system
whose only remaining tests are Sender emptiness tests on the lossy channel
maps to a Post embedding instance.
"""

from typing import NamedTuple

from .errors import FragmentError, InputError, OracleInconclusive
from .explore import bounded_graph, coreach_in
from .model import (
    L,
    LOSSY,
    R,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Ucst,
    emptiness_test,
    nonemptiness_test,
)
from .pep import PepInstance, PreSolutionContext
from .regdata import (
    EPSILON,
    Nfa,
    _explore,
    _product,
    cached_on_nfa,
    subword,
    symkey,
)

RESERVED_SYMBOLS = ("z", "n", "#")
SATURATION_ROUNDS = 64  # rounds `decide_eereach_z1` runs before giving up


class _Names:
    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base):
        name = base
        k = 1
        while name in self.taken:
            name = f"{base}~{k}"
            k += 1
        self.taken.add(name)
        return name


@cached_on_nfa
def _is_eps_language(nfa):
    """L(nfa) is exactly {ε}: ε is accepted and no longer word is."""
    return nfa.words_up_to(0) == ([()], False)


def _require_reserved_free(alphabet, symbols):
    clash = [s for s in symbols if s in alphabet]
    if clash:
        raise InputError(
            f"alphabet uses reserved symbol(s) {clash}; rename them first")


# -- upward-closed sets of configurations with empty r --------------------------

def _config_key(c):
    return (c.p, c.q, len(c.v), tuple(symkey(x) for x in c.v))


def config_below(c, d):
    """Ordering on configurations with empty r: equal states, v a subword."""
    return c.p == d.p and c.q == d.q and subword(c.v, d.v)


_R_EMPTY_ONLY = "upward-closed sets live in the r-empty slice"


class _UpwardFields(NamedTuple):
    minimal: tuple = ()


class UpwardClosedSet(_UpwardFields):
    """Finite antichain of minimal configurations, all with empty r.

    Configurations with different control pairs are incomparable, so only
    elements with the same (p, q) are compared."""

    __slots__ = ()

    def __new__(cls, minimal=()):
        pairs = {}
        for c in minimal:
            if c.u != ():
                raise InputError(_R_EMPTY_ONLY)
            vs = pairs.setdefault((c.p, c.q), [])
            if any(subword(v, c.v) or subword(c.v, v) for v in vs):
                raise InputError("minimal elements must form an antichain")
            vs.append(c.v)
        return super().__new__(cls, minimal)

    @staticmethod
    def of(configs):
        # in `_config_key` order nothing lies strictly below an earlier
        # element, and each control pair's elements are contiguous; what is
        # kept is an antichain by construction, so the constructor's
        # pairwise check is skipped and only r is checked
        mins = {}
        for c in sorted(configs, key=_config_key):
            kept = mins.setdefault((c.p, c.q), [])
            if not any(subword(m.v, c.v) for m in kept):
                if c.u != ():
                    raise InputError(_R_EMPTY_ONLY)
                kept.append(c)
        return tuple.__new__(UpwardClosedSet, (
            tuple(c for kept in mins.values() for c in kept),))

    def contains(self, c):
        return any(config_below(m, c) for m in self.minimal)

    def union(self, other):
        return UpwardClosedSet.of(self.minimal + other.minimal)

    def __len__(self):
        return len(self.minimal)


# -- stage 1: eliminate Receiver tests ------------------------------------------

def elim_receiver_tests(inst):
    """Trade Receiver's emptiness/nonemptiness tests for reads of two fresh
    signal messages; initial constraints become their padded closures."""
    s = inst.system
    report = s.test_report
    if not report.within({"Z", "N"}):
        raise FragmentError("stage expects emptiness/nonemptiness tests only")
    _require_reserved_free(s.alphabet, ("z", "n"))
    m2 = s.alphabet + ("z", "n")
    z2 = emptiness_test(m2)
    n2 = nonemptiness_test(m2)
    label_of = {t.rule_id: t.label for t in report.tests}
    names = _Names(set(s.sender_states) | set(s.receiver_states))

    sender_states = list(s.sender_states)
    sender_rules = []
    for rid, rule in enumerate(s.sender_rules):
        if rule.action.kind == "test":
            lang = z2 if label_of[rid] == "Z" else n2
            sender_rules.append(Rule(rule.source, rule.channel,
                                     Action.test(lang), rule.target))
        else:
            sender_rules.append(rule)
    # emptiness testing loop per sender state and channel
    for p in s.sender_states:
        for c in (R, L):
            p1 = names.fresh(f"{p}.z1{c}")
            p2 = names.fresh(f"{p}.z2{c}")
            sender_states += [p1, p2]
            sender_rules += [
                Rule(p, c, Action.test(z2), p1),
                Rule(p1, c, Action.write("z"), p2),
                Rule(p2, c, Action.test(z2), p),
            ]
    # padding detour per original write rule
    for rid, rule in enumerate(s.sender_rules):
        if rule.action.kind == "write":
            pt = names.fresh(f"{rule.source}.pad{rid}")
            sender_states.append(pt)
            sender_rules += [
                Rule(rule.source, R, Action.nop(), pt),
                Rule(pt, rule.channel, Action.write("n"), pt),
                Rule(pt, rule.channel, Action.write(rule.action.msg), rule.target),
            ]

    receiver_rules = []
    for j, rule in enumerate(s.receiver_rules):
        rid = s.n_sender_rules + j
        if rule.action.kind == "test":
            msg = "z" if label_of[rid] == "Z" else "n"
            receiver_rules.append(Rule(rule.source, rule.channel,
                                       Action.read(msg), rule.target))
        else:
            receiver_rules.append(rule)

    system = Ucst(m2, sender_states, s.receiver_states, sender_rules,
                  receiver_rules)
    return ReachInstance(
        system, inst.p_in, inst.p_fi, inst.q_in, inst.q_fi,
        inst.U.pad_closure("n").with_alphabet(m2),
        inst.V.pad_closure("n").with_alphabet(m2),
        inst.Up.with_alphabet(m2), inst.Vp.with_alphabet(m2))


# -- stage 2: eliminate regular initial constraints ------------------------------

def _emit_writer(nfa, channel, entry, exit_, make_action, names, states, rules):
    """Spell one word of L(nfa) between `entry` and `exit_` using write or
    read rules on `channel`.  Accepting sink states merge into `exit_`."""
    a = nfa.normalize()
    outgoing = {src for src, _, _ in a.transitions}
    mapping = {}
    inits = sorted(a.initial)
    if len(inits) == 1:
        mapping[inits[0]] = entry
    for st in sorted(a.accepting):
        if st not in outgoing and st not in mapping:
            mapping[st] = exit_
    for st in range(a.n_states):
        if st not in mapping:
            name = names.fresh(f"{entry}.g{st}")
            states.append(name)
            mapping[st] = name
    if len(inits) != 1:
        for st in inits:
            rules.append(Rule(entry, R, Action.nop(), mapping[st]))
    for src, sym, dst in a.transitions:
        rules.append(Rule(mapping[src], channel, make_action(sym), mapping[dst]))
    for st in sorted(a.accepting):
        if mapping[st] != exit_:
            rules.append(Rule(mapping[st], R, Action.nop(), exit_))


def elim_initial(inst):
    """Fresh Sender start that writes some admissible initial contents on r,
    then on l, then behaves as before; sound only without Receiver tests."""
    s = inst.system
    if s.test_report.has_receiver_tests():
        raise FragmentError("initial-constraint elimination needs a test-free Receiver")
    names = _Names(set(s.sender_states) | set(s.receiver_states))
    states = list(s.sender_states)
    rules = []
    p_new = names.fresh("p_new")
    states.append(p_new)
    u_trivial = _is_eps_language(inst.U)
    v_trivial = _is_eps_language(inst.V)
    if v_trivial:
        v_entry = inst.p_in
    else:
        v_entry = names.fresh("p_new.l")
        states.append(v_entry)
    if u_trivial:
        rules.append(Rule(p_new, R, Action.nop(), v_entry))
    else:
        _emit_writer(inst.U, R, p_new, v_entry, Action.write, names, states, rules)
    if not v_trivial:
        _emit_writer(inst.V, L, v_entry, inst.p_in, Action.write, names, states, rules)
    system = Ucst(s.alphabet, states, s.receiver_states,
                  rules + list(s.sender_rules), s.receiver_rules)
    eps = Nfa.literal((), s.alphabet)
    return ReachInstance(system, p_new, inst.p_fi, inst.q_in, inst.q_fi,
                         eps, eps, inst.Up, inst.Vp)


# -- stage 3: eliminate Sender nonemptiness tests ---------------------------------

def elim_n1(inst):
    """Give Sender a one-letter buffer per channel: writes fill an empty
    buffer, nonemptiness tests read off buffer occupancy, emptiness tests
    additionally require the buffer empty, and buffers flush at any time.
    The buffer states `q[x,y]` are named fresh against Receiver's states."""
    s = inst.system
    report = s.test_report
    if report.has_receiver_tests() or not report.within({"Z", "N"}):
        raise FragmentError("buffering stage expects Sender-only Z/N tests")
    if not (_is_eps_language(inst.U) and _is_eps_language(inst.V)):
        raise FragmentError("buffering stage expects empty initial constraints")
    label_of = {t.rule_id: t.label for t in report.tests}
    bufs = (None,) + s.alphabet
    names = _Names(s.receiver_states)
    buf = {(q, x, y): names.fresh(f"{q}[{x or '-'},{y or '-'}]")
           for q in s.sender_states for x in bufs for y in bufs}
    rules = []
    for rid, rule in enumerate(s.sender_rules):
        kind = rule.action.kind
        src, dst = rule.source, rule.target
        if kind == "write" and rule.channel == R:
            for y in bufs:
                rules.append(Rule(buf[src, None, y], R, Action.nop(),
                                  buf[dst, rule.action.msg, y]))
        elif kind == "write" and rule.channel == L:
            for x in bufs:
                rules.append(Rule(buf[src, x, None], R, Action.nop(),
                                  buf[dst, x, rule.action.msg]))
        elif kind == "test" and label_of[rid] == "N":
            for x in bufs:
                for y in bufs:
                    occupied = x if rule.channel == R else y
                    if occupied is not None:
                        rules.append(Rule(buf[src, x, y], R,
                                          Action.nop(), buf[dst, x, y]))
        elif kind == "test":  # emptiness: channel and buffer both empty
            if rule.channel == R:
                for y in bufs:
                    rules.append(Rule(buf[src, None, y], R,
                                      rule.action, buf[dst, None, y]))
            else:
                for x in bufs:
                    rules.append(Rule(buf[src, x, None], L,
                                      rule.action, buf[dst, x, None]))
        else:  # nop
            for x in bufs:
                for y in bufs:
                    rules.append(Rule(buf[src, x, y], R, Action.nop(),
                                      buf[dst, x, y]))
    for q in s.sender_states:
        for x in bufs:
            for y in bufs:
                if x is not None:
                    rules.append(Rule(buf[q, x, y], R, Action.write(x),
                                      buf[q, None, y]))
                if y is not None:
                    rules.append(Rule(buf[q, x, y], L, Action.write(y),
                                      buf[q, x, None]))
    system = Ucst(s.alphabet, list(buf.values()), s.receiver_states, rules,
                  s.receiver_rules)
    return ReachInstance(system,
                         buf[inst.p_in, None, None],
                         buf[inst.p_fi, None, None],
                         inst.q_in, inst.q_fi,
                         inst.U, inst.V, inst.Up, inst.Vp)


# -- stage 4: eliminate regular final constraints ---------------------------------

def elim_final(inst):
    """Sender marks, once per channel, the point where the final contents
    start; Receiver then cleans the markers and consumes words of the final
    constraints.  Emptiness tests are forbidden after the channel's marker.
    The mode states `p<xy>` are named fresh against Receiver's states."""
    s = inst.system
    report = s.test_report
    if not report.only_z1():
        raise FragmentError("final-constraint elimination expects Sender-only emptiness tests")
    if not (_is_eps_language(inst.U) and _is_eps_language(inst.V)):
        raise FragmentError("final-constraint elimination expects empty initial constraints")
    _require_reserved_free(s.alphabet, ("#",))
    m2 = s.alphabet + ("#",)
    z2 = emptiness_test(m2)
    modes = ("T", "#")
    names = _Names(s.receiver_states)
    mode = {(p, x, y): names.fresh(f"{p}<{x}{y}>")
            for p in s.sender_states for x in modes for y in modes}
    sender_rules = []
    for p in s.sender_states:
        for y in modes:
            sender_rules.append(Rule(mode[p, "T", y], R,
                                     Action.write("#"), mode[p, "#", y]))
        for x in modes:
            sender_rules.append(Rule(mode[p, x, "T"], L,
                                     Action.write("#"), mode[p, x, "#"]))
    for rule in s.sender_rules:
        act = rule.action
        if act.kind == "test":
            act = Action.test(z2)
        for x in modes:
            for y in modes:
                if rule.action.kind == "test":
                    if rule.channel == R and x == "#":
                        continue
                    if rule.channel == L and y == "#":
                        continue
                sender_rules.append(Rule(mode[rule.source, x, y],
                                         rule.channel, act,
                                         mode[rule.target, x, y]))

    receiver_states = list(s.receiver_states)
    receiver_rules = list(s.receiver_rules)
    q_f = names.fresh("q_f")
    qc1 = names.fresh("q_clean")
    up_lifted = inst.Up.with_alphabet(m2)
    vp_lifted = inst.Vp.with_alphabet(m2)
    up_trivial = _is_eps_language(inst.Up)
    vp_trivial = _is_eps_language(inst.Vp)
    v_entry = q_f if vp_trivial else names.fresh("q_clean.l")
    u_entry = v_entry if up_trivial else names.fresh("q_clean.r")
    receiver_states += [qc1, q_f]
    if not vp_trivial:
        receiver_states.append(v_entry)
    if not up_trivial:
        receiver_states.append(u_entry)
    receiver_rules.append(Rule(inst.q_fi, R, Action.read("#"), qc1))
    receiver_rules.append(Rule(qc1, L, Action.read("#"), u_entry))
    if not up_trivial:
        _emit_writer(up_lifted, R, u_entry, v_entry, Action.read, names,
                     receiver_states, receiver_rules)
    if not vp_trivial:
        _emit_writer(vp_lifted, L, v_entry, q_f, Action.read, names,
                     receiver_states, receiver_rules)
    system = Ucst(m2, list(mode.values()), receiver_states, sender_rules,
                  receiver_rules)
    eps = Nfa.literal((), m2)
    return ReachInstance(system,
                         mode[inst.p_in, "T", "T"],
                         mode[inst.p_fi, "#", "#"],
                         inst.q_in, q_f, eps, eps, eps, eps)


# -- backward saturation -----------------------------------------------------------

def bounded_oracle(bound):
    """Saturation oracle backed by the bounded explorer: a bounded co-reach,
    in the lossy semantics (the only one `pre_star_z1l` answers), from every
    r-empty configuration whose l fits the channel bound.  Every
    configuration it gives reaches a target; a missing one is bound-relative.

    On its first query about a system, the oracle builds that system's
    `bounded_graph` once, from every control pair times every l word up to
    the bound, as start nodes (pair id, ε, l word id); the words are
    enumerated by length and then in `symkey` order, and `Words.up_to`
    numbers them with their losses.  These starts are closed under loss, as
    `bounded_graph` requires.  Each query is then answered backward
    over that graph by `coreach_in`.  `decide_eereach_z1` hands it systems
    already trimmed to their start-to-goal states, so the graph holds only
    the trimmed pairs.

    Targets become start nodes by pair id: an exact configuration is its
    own node, and a minimal element stands for the starts of its pair whose
    l word lies above it, found by walking the word table's `gained` lists
    up from the element's word, which is looked up and never numbered (the
    oracle asks the losses of every start word).  A target outside the
    graph (a state not in the system, an l word longer than the bound) is
    reached from nothing.  It keeps the graph of the latest system only,
    keyed by identity, so systems must not change once asked about.
    """
    k = bound.max_channel_len
    latest = [None]  # system, its pair ids by (p, q), its graph

    def oracle(s, target):
        words = s.words
        if latest[0] is not s:
            pairs = {(p, q): s.pair(p, q)
                     for p in s.sender_states for q in s.receiver_states}
            start_words = words.up_to(k, sorted(s.alphabet, key=symkey))
            latest[:] = s, pairs, bounded_graph(
                s, [(c, 0, v) for c in pairs.values() for v in start_words],
                bound, LOSSY)
        _, pairs, graph = latest
        if isinstance(target, UpwardClosedSet):
            nodes = [(pairs[m.p, m.q], 0, v) for m in target.minimal
                     if (m.p, m.q) in pairs
                     for v in _words_above(words, m.v)]
        else:
            nodes = [s.node(c) for c in target
                     if (c.p, c.q) in pairs and len(c.v) <= k]
        return _minimal_r_empty(s, coreach_in(graph, nodes, bound))
    return oracle


def _on_paths(rules, never, start, goal):
    """The states on some `start`→`goal` path along `rules`, leaving out the
    rules whose action is of kind `never`: those reached forward from
    `start` that also reach `goal`, by one `_explore` each way."""
    forward, backward = {}, {}
    for r in rules:
        if r.action.kind != never:
            forward.setdefault(r.source, []).append((r, r.target))
            backward.setdefault(r.target, []).append((r, r.source))
    ahead, _ = _explore([start], lambda state: forward.get(state, ()))
    behind, _ = _explore([goal], lambda state: backward.get(state, ()))
    return ahead.keys() & behind.keys()


def control_trim(inst):
    """The Sender states on some p_in→p_fi path and the Receiver states on
    some q_in→q_fi path, over the control graphs alone: Sender's with its
    tests and without its reads, Receiver's without its writes.  Channels
    and tests only remove runs, so every run from the start to the goal
    stays in these states.  When a start state cannot reach its goal state,
    the instance is unreachable at every bound, and both sets are empty."""
    s = inst.system
    senders = _on_paths(s.sender_rules, "read", inst.p_in, inst.p_fi)
    receivers = _on_paths(s.receiver_rules, "write", inst.q_in, inst.q_fi)
    if not (senders and receivers):
        return set(), set()
    return senders, receivers


def restrict(inst, senders, receivers, drop=()):
    """`inst` on the given Sender and Receiver states plus its four
    endpoints, with the rules whose both ends are given, less those in
    `drop`.  Every run of the result is a run of `inst`, and given
    `control_trim`'s sets (and no `drop`), every run of `inst` from the
    start to the goal is one of the result, so the two answer alike in
    every mode and at every bound; a cut instance keeps no rule at all."""
    s = inst.system
    ends = (inst.p_in, inst.p_fi, inst.q_in, inst.q_fi)
    system = Ucst(s.alphabet,
                  [p for p in s.sender_states if p in senders or p in ends],
                  [q for q in s.receiver_states if q in receivers or q in ends],
                  [r for r in s.sender_rules if r.source in senders
                   and r.target in senders and r not in drop],
                  [r for r in s.receiver_rules
                   if r.source in receivers and r.target in receivers])
    return ReachInstance(system, inst.p_in, inst.p_fi, inst.q_in, inst.q_fi,
                         inst.U, inst.V, inst.Up, inst.Vp)


def _words_above(words, v):
    """The ids reached from word `v`'s id along `gained` lists, none if `v`
    is not numbered: once the losses of every word up to some length were
    asked, they include every word up to that length above `v`."""
    i = words.known(v)
    if i is None:
        return ()
    gained = words.gained
    seen = {i: None}
    todo = [i]
    for w in todo:
        for j in gained[w]:
            if j not in seen:
                seen[j] = None
                todo.append(j)
    return seen


def _minimal_r_empty(s, nodes):
    """The `UpwardClosedSet` of the r-empty nodes among `nodes`: per pair id,
    an l word is kept when none of its one-loss words (`Words.losses`) is in
    its pair's group, and the kept words, decoded, pass through
    `UpwardClosedSet.of`.  Every minimal word is kept, so this holds for any
    set of nodes; when the group is upward-closed within the bound (a
    co-reach with no step bound), the kept words are the minimal ones."""
    losses, word = s.words.losses, s.words.word
    groups = {}
    for c, u, v in nodes:
        if u == 0:
            groups.setdefault(c, set()).add(v)
    return UpwardClosedSet.of(Configuration(*s.pairs[c], (), word[v])
                              for c, group in groups.items() for v in group
                              if group.isdisjoint(losses(v)))


def pre_star_z1l(s, target, oracle):
    """Minimal elements of the r-empty configurations from which `target` is
    reachable.

    `target` is either a list of r-empty configurations, each to be reached
    exactly, or an `UpwardClosedSet`, reached anywhere above it.  The answer
    is `oracle(s, target)`, which must give the `UpwardClosedSet` of r-empty
    configurations from which the target is reachable; the oracle is handed
    the target itself, not a predicate, so that it can read its structure
    (a control pair and an l word per element).  `bounded_oracle` answers
    within a channel and step bound over one forward graph per system,
    built on its first query (so `s` must not change between calls); an
    exact oracle plugs in here unchanged.

    The system may only carry Sender emptiness tests on l (losses make the
    result upward-closed for exactly this fragment).
    """
    if not s.test_report.only_z1l():
        raise FragmentError("backward saturation expects Sender l-emptiness tests only")
    if not isinstance(target, UpwardClosedSet) and any(c.u != () for c in target):
        raise InputError("target configurations must have empty r")
    return oracle(s, target)


def decide_eereach_z1(inst, oracle):
    """Empty-to-empty reachability for Sender-emptiness-test systems, by
    iterated backward saturation over the runs between r-emptiness tests.

    Each agent is first trimmed to its start-to-goal states (`control_trim`).
    When a start state cannot reach its goal state, the answer is False and
    the oracle is not asked.  Otherwise the oracle sees only the trimmed
    states and the rules (r-tests left out) whose both ends are kept
    (`restrict`), and hops back over the kept r-test rules only.  This
    keeps the answer: every state on a path between a trimmed pair and a
    trimmed target is reached from the start and reaches the goal, so each
    oracle answer is the untrimmed one restricted to trimmed pairs, and a
    minimal element at a pair outside the trim can neither cover the start
    nor hop into it.

    The union of stages only grows, and every configuration in it reaches
    the goal, so the answer is True as soon as it holds the start, and no
    further query is asked.  Raises `OracleInconclusive` when it neither
    holds the start nor has stabilized after `SATURATION_ROUNDS` rounds."""
    s = inst.system
    report = s.test_report
    if not report.only_z1():
        raise FragmentError("decision procedure expects Sender-only emptiness tests")
    for nfa in inst.constraints():
        if not _is_eps_language(nfa):
            raise FragmentError("decision procedure expects an empty-to-empty instance")
    senders, receivers = control_trim(inst)
    if not senders:
        return False
    zr_rules = [s.rules[t.rule_id] for t in report.tests if t.channel == R]
    stripped = restrict(inst, senders, receivers, zr_rules).system
    zr_rules = [r for r in zr_rules
                if r.source in senders and r.target in senders]
    start = Configuration(inst.p_in, inst.q_in, (), ())
    goal = Configuration(inst.p_fi, inst.q_fi, (), ())
    reached = pre_star_z1l(stripped, [goal], oracle)
    for _ in range(SATURATION_ROUNDS):
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


# -- the bridge to the Post embedding problem ----------------------------------------

def _rule_projections(s):
    """The fields of a bridge context for system `s`, all but its instance."""
    read_r, write_r, read_l, write_l = {}, {}, {}, {}
    letters = tuple(f"d{i}" for i in range(len(s.rules)))
    for i, rule in enumerate(s.rules):
        a = letters[i]
        act = rule.action
        read_r[a] = (act.msg,) if act.kind == "read" and rule.channel == R else ()
        read_l[a] = (act.msg,) if act.kind == "read" and rule.channel == L else ()
        write_r[a] = (act.msg,) if act.kind == "write" and rule.channel == R else ()
        write_l[a] = (act.msg,) if act.kind == "write" and rule.channel == L else ()
    tests = frozenset(letters[i] for i, rule in enumerate(s.rules)
                      if rule.action.kind == "test")
    return dict(letters=letters, rule_ids={a: i for i, a in enumerate(letters)},
                read_r=read_r, write_r=write_r, read_l=read_l,
                write_l=write_l, test_letters=tests)


def bridge_context(inst):
    """Per-letter projections of an empty-to-empty Sender-l-emptiness
    instance.  They depend on the system alone, so they are built once and
    kept on it, as its `test_report` is; the context, which refers back to
    the instance, is made per call."""
    s = inst.system
    if not s.test_report.only_z1l():
        raise FragmentError("PEP bridge expects Sender l-emptiness tests only")
    for nfa in inst.constraints():
        if not _is_eps_language(nfa):
            raise FragmentError("PEP bridge expects an empty-to-empty instance")
    memo = vars(s)
    if "bridge_projections" not in memo:
        memo["bridge_projections"] = _rule_projections(s)
    return PreSolutionContext(instance=inst, **memo["bridge_projections"])


def ucst_to_pep(inst):
    """Post embedding instance whose solutions are the rule words of runs:
    letters are rules, images read and write the lossy channel, and the
    codirect suffixes start at the emptiness tests, R′ = (test letters)·Σ*.

    R = E_r* ∩ (P1 ⧢ P2).  P1 and P2 are the Sender and Receiver path
    automata, whose edges are the rules; E_r* reads back each reliable-channel
    write right after it, and its state is 0 or the letter written on r and
    not yet read.  R is one `_product` over (E_r* state, Sender state,
    Receiver state) triples, stepped straight from the rules with no
    automaton built for a part: a triple steps, in `symkey` order, the
    letters of the rules leaving its two control states that E_r* allows.
    So R is `er_star.intersect(p1.shuffle(p2))` state for state."""
    ctx = bridge_context(inst)
    sigma = ctx.letters
    s = inst.system
    rank = {a: k for k, a in enumerate(sorted(sigma, key=symkey))}
    # control state -> [(rank, letter, E_r* state before, after, target)];
    # Sender and Receiver states are disjoint, so one index serves both
    out = {}
    for a, rule in zip(sigma, s.rules):
        if ctx.write_r[a]:
            before, after = 0, ctx.write_r[a][0]
        elif ctx.read_r[a]:
            before, after = ctx.read_r[a][0], 0
        else:
            before = after = 0
        out.setdefault(rule.source, []).append(
            (rank[a], a, before, after, rule.target))

    def moves(triple):
        e, p, q = triple
        step = [(k, a, (f, t, q)) for k, a, need, f, t in out.get(p, ())
                if need == e]
        step += [(k, a, (f, p, t)) for k, a, need, f, t in out.get(q, ())
                 if need == e]
        step.sort()
        return [(a, nxt) for _, a, nxt in step]

    goal = (0, inst.p_fi, inst.q_fi)
    big_r = _product([(0, inst.p_in, inst.q_in)], lambda t: t == goal, sigma,
                     moves)
    rp = Nfa(sigma, 3, {0}, {2}, [(0, a, 1) for a in sorted(ctx.test_letters)]
             + [(2, a, 2) for a in sigma] + [(1, EPSILON, 2)])
    return PepInstance(sigma, s.alphabet, dict(ctx.read_l),
                       dict(ctx.write_l), big_r, rp)


# -- pipeline driver -----------------------------------------------------------------

# The elimination stages in order: (name, whether the instance still has the
# feature the stage removes, the stage, its bound-inflation note).  Stages are
# looked up by module name on each call, so a wrapper installed on the module
# attribute (as perfbench's tracer does) sees them.  `run_pipeline` trims each
# stage's output to its start-to-goal control states before the next feature
# check, so a stage sees, and a check asks about, only rules a run can use.
STAGES = (
    ("z1n1", lambda inst: inst.system.test_report.has_receiver_tests(),
     lambda inst: elim_receiver_tests(inst),
     "channel bound +1 for the signal message plus one per traded "
     "nonemptiness test in a witness; reverse direction +0"),
    ("eg", lambda inst: not (_is_eps_language(inst.U)
                             and _is_eps_language(inst.V)),
     lambda inst: elim_initial(inst),
     "channel bound unchanged forward (initial words materialize in "
     "place); reverse direction needs the generated words to fit"),
    ("egz1", lambda inst: any(t.label == "N"
                              for t in inst.system.test_report.tests),
     lambda inst: elim_n1(inst),
     "channel bound unchanged forward (buffers hold letters back); "
     "reverse direction +1 per channel for the buffered letter"),
    ("eez1", lambda inst: not (_is_eps_language(inst.Up)
                               and _is_eps_language(inst.Vp)),
     lambda inst: elim_final(inst),
     "channel bound +1 for the marker; step bound +|final words|+2; "
     "reverse direction +0"),
)
STAGE_ORDER = tuple(name for name, _, _, _ in STAGES) + ("eez1l", "pep")


class PipelineStage(NamedTuple):
    name: str
    instance: ReachInstance
    note: str


class PipelineTrace:
    """The stages `run_pipeline` ran, in order, and the embedding instance
    when it reduced that far; it grows as the pipeline runs."""

    def __init__(self, stages, pep=None):
        self.stages = stages
        self.pep = pep

    @property
    def final_instance(self):
        return self.stages[-1].instance

    def report(self):
        lines = []
        for st in self.stages:
            s = st.instance.system
            frag = sorted(s.test_report.fragment())
            lines.append(
                f"{st.name}: |M|={len(s.alphabet)} |Q1|={len(s.sender_states)} "
                f"|Q2|={len(s.receiver_states)} |D1|={s.n_sender_rules} "
                f"|D2|={len(s.receiver_rules)} fragment={frag or ['-']}"
                + (f"  [{st.note}]" if st.note else ""))
        if self.pep is not None:
            lines.append(
                f"pep: |Sigma|={len(self.pep.sigma)} |Gamma|={len(self.pep.gamma)}")
        return "\n".join(lines)


def run_pipeline(inst, to="pep"):
    """Run the reduction prefix up to `to`, skipping stages whose feature is
    already absent; the trace records each stage and its bound-inflation note.

    Each stage's output is trimmed (`restrict` to `control_trim`) before the
    next stage's feature is checked, and the trace records the trimmed
    instance.  This is sound: tests and channels only remove runs, so no run
    from the start to the goal leaves the states on a start-to-goal path of
    each agent's control graph, and the trimmed instance has exactly those
    runs.  A feature found only on rules off every such path is gone, and
    its stage is skipped.  The parsed input itself is not trimmed."""
    if to not in STAGE_ORDER:
        raise InputError(f"unknown pipeline target {to!r}")
    trace = PipelineTrace([PipelineStage("input", inst, "")])
    if not inst.system.test_report.within({"Z", "N"}):
        raise FragmentError("pipeline expects emptiness/nonemptiness tests only")
    cur = inst
    for name, has_feature, stage, note in STAGES:
        if has_feature(cur):
            cur = stage(cur)
            cur = restrict(cur, *control_trim(cur))
            trace.stages.append(PipelineStage(name, cur, note))
        if name == to:
            return trace
    if not cur.system.test_report.only_z1l():
        raise FragmentError(
            "pipeline endpoint needs Sender emptiness tests on l only; "
            "r-emptiness tests require the saturation procedure instead")
    if to == "pep":
        trace.pep = ucst_to_pep(cur)
    return trace
