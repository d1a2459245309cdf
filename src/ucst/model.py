"""Channel system model: rules, configurations, and the three step semantics.

A system has a Sender writing to two channels and a Receiver reading from
them; channel ``r`` is reliable, channel ``l`` loses messages.  Rules are
referenced everywhere by their stable integer id (position in the combined
Sender-then-Receiver rule list), and run labels store those ids.  The extra
labels are `LOSS` for a message-loss step on ``l`` and ``("wrlo", rule_id)``
for a write that loses its message at the moment of writing.

Each system numbers the channel words it meets in a `Words` table and its
control pairs ``(p, q)`` as it meets them, compiling one move table per
pair; both are kept for the system's lifetime.  The one step semantics,
`step_layer`, expands a whole search layer of nodes ``(pair id, r word id,
l word id)`` at once, straight into the search's map of first finders: a
move names its target pair by id, a write, read or loss looks its result up
by id, and a test reads the word's membership, so no state name or channel
tuple is built or hashed per step.  Given a channel bound, it discards a
write whose word would outgrow it before numbering that word, and says so.
`step` is its labelled view of one node, and `successors` the same on
`Configuration` values, with no bound: it numbers the words, steps, and
decodes.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import FragmentError, InputError
from .regdata import (
    Nfa,
    cached_on_nfa,
    is_downward_closed,
    is_upward_closed,
    language_equal,
    subword,
    subword_one,
    word_str,
)

R = "r"
L = "l"
CHANNELS = (R, L)

RELIABLE = "reliable"
LOSSY = "lossy"
WRITE_LOSSY = "write-lossy"
MODES = (RELIABLE, LOSSY, WRITE_LOSSY)

LOSS = "los"

SENDER = 1
RECEIVER = 2

# (action kind, channel) -> the kind of a move table entry, which names the
# channel acted on; a nop acts on none
_KINDS = {(kind, ch): kind if kind == "nop" else f"{kind}-{ch}"
          for kind in ("write", "read", "test", "nop") for ch in CHANNELS}


@dataclass(frozen=True)
class Action:
    kind: str  # "write" | "read" | "test" | "nop"
    msg: object = None
    lang: Nfa = None

    @staticmethod
    def write(msg):
        return Action("write", msg=msg)

    @staticmethod
    def read(msg):
        return Action("read", msg=msg)

    @staticmethod
    def test(lang):
        return Action("test", lang=lang)

    @staticmethod
    def nop():
        return Action("nop")

    def __str__(self):
        if self.kind == "write":
            return f"!{self.msg}"
        if self.kind == "read":
            return f"?{self.msg}"
        if self.kind == "test":
            return "=<test>"
        return "nop"


@dataclass(frozen=True)
class Rule:
    source: str
    channel: str  # ignored for nop actions, stored as "r" by convention
    action: Action
    target: str

    def __str__(self):
        if self.action.kind == "nop":
            return f"{self.source} -> {self.target} : nop"
        return f"{self.source} -> {self.target} : {self.channel}{self.action}"


class Configuration(NamedTuple):
    p: str
    q: str
    u: tuple  # contents of r
    v: tuple  # contents of l

    def __str__(self):
        return f"({self.p}, {self.q}, r={word_str(self.u)}, l={word_str(self.v)})"


# builds a Configuration from a 4-tuple without NamedTuple's Python-level
# __new__; `Ucst.config` decodes every node that leaves a search with it
_new = tuple.__new__


@dataclass(frozen=True)
class Run:
    start: Configuration
    steps: tuple = ()  # of (label, Configuration)

    @property
    def end(self):
        return self.steps[-1][1] if self.steps else self.start

    def configs(self):
        out = [self.start]
        out.extend(c for _, c in self.steps)
        return out

    def labels(self):
        return [lab for lab, _ in self.steps]

    def __len__(self):
        return len(self.steps)


class _Column(dict):
    """Membership of numbered words in one test language, by word id,
    decided when first asked."""

    def __init__(self, accepts, word):
        self.accepts = accepts
        self.word = word

    def __missing__(self, i):
        bit = self[i] = self.accepts(self.word[i])
        return bit


class Words:
    """The channel words of one system, numbered in the order first met.

    Word 0 is ε.  Per id, the table holds the word, its length, its head
    (None for ε) and the id of its tail (None for ε); a word's suffixes are
    numbered before it, so every tail has an id.  The id after pushing a
    letter (`push`), the distinct single-loss ids (`losses`) and membership
    in a language (a `column` of it) are filled on first use.
    """

    def __init__(self):
        self._ids = {(): 0}
        self.word = [()]
        self.length = [0]
        self.head = [None]
        self.tail = [None]
        self.pushed = [{}]  # id -> {letter: id of the word with it appended}
        self.lost = [()]    # id -> distinct single-loss ids, None until asked

    def column(self, lang):
        """Membership of the numbered words in `lang`, by id, each decided
        when first asked."""
        return _Column(lang.accepts, self.word)

    def id(self, w):
        """The id of word `w`, numbering it and its new suffixes."""
        i = self._ids.get(w)
        if i is not None:
            return i
        known = 1  # the longest numbered suffix is w[known:]
        while w[known:] not in self._ids:
            known += 1
        for start in range(known - 1, -1, -1):
            suffix = w[start:]
            i = self._ids[suffix] = len(self.word)
            self.word.append(suffix)
            self.length.append(len(suffix))
            self.head.append(suffix[0])
            self.tail.append(self._ids[suffix[1:]])
            self.pushed.append({})
            self.lost.append(None)
        return i

    def push(self, i, a):
        """The id of word `i` with letter `a` appended."""
        j = self.pushed[i].get(a)
        if j is None:
            j = self.pushed[i][a] = self.id(self.word[i] + (a,))
        return j

    def losses(self, i):
        """Ids of the distinct words one loss makes of word `i`, ordered by
        deleted position."""
        out = self.lost[i]
        if out is None:
            w = self.word[i]
            out = self.lost[i] = tuple(dict.fromkeys(
                self.id(w[:j] + w[j + 1:]) for j in range(len(w))))
        return out


class Ucst:
    """A system: alphabet, disjoint Sender/Receiver state sets, and rules.

    Immutable by convention; its moves are listed once per source state, in
    rule-id order, and compiled into a table per control pair when
    `step_layer` first meets the pair.  It is given a table of numbered
    channel words.
    """

    def __init__(self, alphabet, sender_states, receiver_states,
                 sender_rules, receiver_rules):
        self.alphabet = tuple(dict.fromkeys(alphabet))
        self.sender_states = tuple(dict.fromkeys(sender_states))
        self.receiver_states = tuple(dict.fromkeys(receiver_states))
        self.sender_rules = tuple(sender_rules)
        self.receiver_rules = tuple(receiver_rules)
        self.rules = self.sender_rules + self.receiver_rules
        self.n_sender_rules = len(self.sender_rules)
        self._check()
        self._sender_set = frozenset(self.sender_states)
        self._receiver_set = frozenset(self.receiver_states)
        self.words = Words()
        columns = {}  # test language -> its membership column
        # entries (label, kind, letter or test membership by word id, target
        # state); Sender reads and Receiver writes never fire and are left
        # out, and each l-write is followed by its dropped-write entry, which
        # fires in write-lossy mode only
        moves = {state: [] for state in self.sender_states + self.receiver_states}
        for rid, rule in enumerate(self.rules):
            act = rule.action
            if act.kind == ("read" if rid < self.n_sender_rules else "write"):
                continue
            arg = act.msg
            if act.kind == "test":
                if act.lang not in columns:
                    columns[act.lang] = self.words.column(act.lang)
                arg = columns[act.lang]
            kind = _KINDS[act.kind, rule.channel]
            moves[rule.source].append((rid, kind, arg, rule.target))
            if kind == "write-l":
                moves[rule.source].append((("wrlo", rid), "drop-l", None,
                                           rule.target))
        self._moves = {state: tuple(entries) for state, entries in moves.items()}
        self.pairs = []       # pair id -> (p, q)
        self._pair_ids = {}   # (p, q) -> pair id
        self._tables = []     # pair id -> its move table, None until compiled

    def _check(self):
        senders, receivers = set(self.sender_states), set(self.receiver_states)
        if senders & receivers:
            raise InputError("sender and receiver state sets must be disjoint")
        sigma = set(self.alphabet)
        for rule, states in [(r, senders) for r in self.sender_rules] + \
                            [(r, receivers) for r in self.receiver_rules]:
            if rule.source not in states or rule.target not in states:
                raise InputError(f"rule endpoints outside owner's states: {rule}")
            if rule.channel not in CHANNELS:
                raise InputError(f"unknown channel in rule: {rule}")
            act = rule.action
            if act.kind in ("write", "read") and act.msg not in sigma:
                raise InputError(f"rule message not in alphabet: {rule}")
            if act.kind == "test" and set(act.lang.alphabet) != sigma:
                raise InputError(f"test alphabet differs from system alphabet: {rule}")

    def pair(self, p, q):
        """The id of control pair (p, q), numbering it on first use."""
        key = p, q
        i = self._pair_ids.get(key)
        if i is None:
            i = self._pair_ids[key] = len(self.pairs)
            self.pairs.append(key)
            self._tables.append(None)
        return i

    def _table(self, c):
        """Compile and keep the move table of pair id `c`: its Sender
        entries, then its Receiver entries, in rule-id order, each (label,
        kind, letter or test membership, target pair id).  Each entry yields
        at most one successor, labelled with its label."""
        p, q = self.pairs[c]
        pair = self.pair
        table = self._tables[c] = tuple(
            [(lab, kind, arg, pair(t, q)) for lab, kind, arg, t in self._moves[p]]
            + [(lab, kind, arg, pair(p, t)) for lab, kind, arg, t in self._moves[q]])
        return table

    def node(self, c):
        """The node of configuration `c`: its pair id and its word ids."""
        p, q, u, v = c
        if p not in self._sender_set or q not in self._receiver_set:
            raise InputError("configuration states not in system")
        return self.pair(p, q), self.words.id(u), self.words.id(v)

    def config(self, node):
        """The configuration of a node."""
        c, u, v = node
        word = self.words.word
        return _new(Configuration, self.pairs[c] + (word[u], word[v]))

    def agent_of(self, rule_id):
        return SENDER if rule_id < self.n_sender_rules else RECEIVER

    def rule(self, rule_id):
        return self.rules[rule_id]

    def __repr__(self):
        return (f"Ucst(|M|={len(self.alphabet)}, |Q1|={len(self.sender_states)}, "
                f"|Q2|={len(self.receiver_states)}, |D1|={self.n_sender_rules}, "
                f"|D2|={len(self.receiver_rules)})")


@dataclass(frozen=True)
class ReachInstance:
    """A generalized reachability question with four regular constraints."""

    system: Ucst
    p_in: str
    p_fi: str
    q_in: str
    q_fi: str
    U: Nfa   # initial r
    V: Nfa   # initial l
    Up: Nfa  # final r
    Vp: Nfa  # final l

    def __post_init__(self):
        s = self.system
        if self.p_in not in s.sender_states or self.p_fi not in s.sender_states:
            raise InputError("distinguished sender states missing from system")
        if self.q_in not in s.receiver_states or self.q_fi not in s.receiver_states:
            raise InputError("distinguished receiver states missing from system")
        for nfa in (self.U, self.V, self.Up, self.Vp):
            if set(nfa.alphabet) != set(s.alphabet):
                raise InputError("constraint alphabet differs from system alphabet")

    def constraints(self):
        return (self.U, self.V, self.Up, self.Vp)


# -- test languages ------------------------------------------------------------

def emptiness_test(alphabet):
    return Nfa.literal((), alphabet)


def nonemptiness_test(alphabet):
    return Nfa.one_of(alphabet, alphabet).concat(Nfa.all_words(alphabet))


def even_length_test(alphabet):
    double = Nfa(alphabet, 3, {0}, {2},
                 [(0, s, 1) for s in alphabet] + [(1, s, 2) for s in alphabet])
    return double.star()


def odd_length_test(alphabet):
    return Nfa.one_of(alphabet, alphabet).concat(even_length_test(alphabet))


def head_test(sym, alphabet):
    return Nfa.literal((sym,), alphabet).concat(Nfa.all_words(alphabet))


# label -> constructor of the standard test languages other than head tests,
# in the order `classify_tests` tries them
TEST_LANGUAGES = (("Z", emptiness_test), ("N", nonemptiness_test),
                  ("Even", even_length_test), ("Odd", odd_length_test))


@dataclass(frozen=True)
class TestClass:
    rule_id: int
    agent: int
    channel: str
    label: str        # "Z" | "N" | "Even" | "Odd" | "H" | "other"
    head_sym: object = None

    def atom(self):
        """Fragment atom like Z1l, N1r, P2r, H1r; parity collapses to P."""
        if self.label == "other":
            return "other"
        sym = "P" if self.label in ("Even", "Odd") else self.label
        return f"{sym}{self.agent}{self.channel}"


@dataclass(frozen=True)
class FragmentReport:
    tests: tuple

    def fragment(self):
        return frozenset(t.atom() for t in self.tests)

    def has_receiver_tests(self):
        return any(t.agent == RECEIVER for t in self.tests)

    def within(self, labels):
        return all(t.label in labels for t in self.tests)

    def only_z1(self):
        return all(t.label == "Z" and t.agent == SENDER for t in self.tests)

    def only_z1l(self):
        return all(t.label == "Z" and t.agent == SENDER and t.channel == L
                   for t in self.tests)


@cached_on_nfa
def _test_label(lang):
    """(label, head letter) of one test language.  The references are built
    over `lang.alphabet`, which is the system's alphabet as a set, so the
    label holds in every system that shares the automaton."""
    alphabet = lang.alphabet
    for name, reference in TEST_LANGUAGES:
        if language_equal(lang, reference(alphabet)):
            return name, None
    for a in alphabet:
        if language_equal(lang, head_test(a, alphabet)):
            return "H", a
    return "other", None


def classify_tests(s):
    """Decide, per test rule, which standard test language it carries."""
    return FragmentReport(tuple(
        TestClass(rid, s.agent_of(rid), rule.channel, *_test_label(rule.action.lang))
        for rid, rule in enumerate(s.rules) if rule.action.kind == "test"))


# -- step semantics ------------------------------------------------------------

def step_layer(s, layer, mode, k, parents, edges=None):
    """Expand every node (pair id, r word id, l word id) of `layer`, in
    order, within channel bound `k` (None: no bound).

    Each successor not yet in `parents` is mapped there to the node that
    found it and appended to the new layer.  With `edges`, every successor,
    new or already seen, is also appended there as (node, label,
    successor).  Returns the new layer and whether a write was discarded
    because its word would be longer than `k`; a discarded word is never
    numbered.

    A node's successors come in this order: Sender rules by id (in
    write-lossy mode each l-write is immediately followed by its
    dropped-write variant), then Receiver rules by id, then losses by
    deleted position.  `mode` is not checked here.
    """
    words = s.words
    tables = s._tables
    pushed = words.pushed  # a pushed word is never ε, whose id 0 is falsy
    length, head, tail, lost = words.length, words.head, words.tail, words.lost
    lossy, write_lossy = mode == LOSSY, mode == WRITE_LOSSY
    cut = False
    new = []
    for node in layer:
        c, u, v = node
        table = tables[c]
        if table is None:
            table = s._table(c)
        for label, kind, arg, target in table:
            if kind == "write-r":
                if k is not None and length[u] >= k:
                    cut = True
                    continue
                succ = target, pushed[u].get(arg) or words.push(u, arg), v
            elif kind == "write-l":
                if k is not None and length[v] >= k:
                    cut = True
                    continue
                succ = target, u, pushed[v].get(arg) or words.push(v, arg)
            elif kind == "read-r":
                if head[u] != arg:
                    continue
                succ = target, tail[u], v
            elif kind == "read-l":
                if head[v] != arg:
                    continue
                succ = target, u, tail[v]
            elif kind == "drop-l":
                if not write_lossy:
                    continue
                succ = target, u, v
            elif kind == "nop" or arg[u if kind == "test-r" else v]:
                succ = target, u, v
            else:
                continue
            if succ not in parents:
                parents[succ] = node
                new.append(succ)
            if edges is not None:
                edges.append((node, label, succ))
        if lossy:
            ws = lost[v]
            if ws is None:
                ws = words.losses(v)
            for w in ws:
                succ = c, u, w
                if succ not in parents:
                    parents[succ] = node
                    new.append(succ)
                if edges is not None:
                    edges.append((node, LOSS, succ))
    return new, cut


def step(s, node, mode, k=None):
    """`step_layer` on the one node `node`: its labelled successors, in the
    same order, and whether a write was discarded for the bound."""
    edges = []
    _, cut = step_layer(s, [node], mode, k, {}, edges)
    return [(label, succ) for _, label, succ in edges], cut


def successors(s, c, mode=LOSSY):
    """`step` on configuration `c`, with no bound: same order and labels,
    successors as `Configuration` values."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    config = s.config
    out, _ = step(s, s.node(c), mode)
    return [(label, config(n)) for label, n in out]


def first_invalid_step(s, run, mode=LOSSY):
    """Index of the first step not generated by `successors`, or None."""
    cur = run.start
    if cur.p not in s._sender_set or cur.q not in s._receiver_set:
        return 0
    for i, (label, nxt) in enumerate(run.steps):
        if (label, nxt) not in successors(s, cur, mode):
            return i
        cur = nxt
    return None


def validate_run(s, run, mode=LOSSY):
    return first_invalid_step(s, run, mode) is None


def _non_head_loss_weight(run):
    """Sum, over the losses that do not remove the head of l, of the number
    of rule steps that follow each one."""
    configs = run.configs()
    weight = rules_after = 0
    for i in range(len(run.steps) - 1, -1, -1):
        label, nxt = run.steps[i]
        if label != LOSS:
            rules_after += 1
        elif nxt.v != configs[i].v[1:]:
            weight += rules_after
    return weight


def is_head_lossy(run):
    """Every loss removes the head of l, or happens after the last rule step."""
    return _non_head_loss_weight(run) == 0


# -- commuting adjacent steps ---------------------------------------------------

def _step_info(s, label):
    """(agent, action_kind, channel, rule) with loss encoded as (None, 'loss', L)."""
    if label == LOSS:
        return None, "loss", L, None
    rule = s.rule(label)
    agent = s.agent_of(label)
    channel = None if rule.action.kind == "nop" else rule.channel
    return agent, rule.action.kind, channel, rule


def _case_no_contact(i1, i2):
    agent1, kind1, ch1, _ = i1
    agent2, kind2, ch2, _ = i2
    if kind1 == "loss":
        return kind2 == "loss" or (ch2 is not None and ch2 != L)
    if ch1 is None:
        return False
    if kind2 == "loss":
        return ch1 != L
    return ch2 is not None and agent1 != agent2 and ch1 != ch2


@cached_on_nfa
def _stable_behind_head(lang):
    """Inserting a letter behind the head never leaves `lang`: a⁻¹L is
    upward-closed for every letter a.  True of Z, N and head tests."""
    return all(is_upward_closed(lang.quotient(a)) for a in lang.alphabet)


def _case_postponable_loss(i1, i2, src, mid):
    # the loss admits an interpretation behind the head of l, and the next
    # step cannot tell: an l-test must survive the letter not yet lost
    if i1[1] != "loss":
        return False
    _, kind2, ch2, rule2 = i2
    if kind2 == "test" and ch2 == L and not _stable_behind_head(rule2.action.lang):
        return False
    v, v2 = src.v, mid.v
    return len(v) >= 2 and v2[:1] == v[:1] and subword_one(v2[1:], v[1:])


def _case_advanceable_sender(i1, i2):
    agent1, kind1, ch1, rule1 = i1
    agent2, kind2, ch2, rule2 = i2
    if not (kind1 == "loss" or agent1 == RECEIVER):
        return False
    if agent2 != SENDER:
        return False
    if kind2 == "test":
        # sound only for tests stable under channel growth (e.g. nonemptiness)
        return is_upward_closed(rule2.action.lang)
    if kind1 == "test" and kind2 == "write" and ch1 == ch2:
        # a Receiver test overtaken by a write to the tested channel must
        # also be growth-stable: an emptiness test would fail afterwards
        return is_upward_closed(rule1.action.lang)
    return True


def _case_advanceable_loss(i1, i2):
    agent1, kind1, ch1, rule1 = i1
    if i2[1] != "loss":
        return False
    if agent1 == SENDER and kind1 == "write" and ch1 == L:
        return False
    if kind1 == "test" and ch1 == L:
        # sound only for tests stable under losses (e.g. emptiness)
        return is_downward_closed(rule1.action.lang)
    return True


def commute_case(s, run, i):
    """Name of the first commuting case that covers steps i, i+1, or None."""
    if not (0 <= i and i + 1 < len(run.steps)):
        raise InputError("index must address two consecutive steps")
    configs = run.configs()
    lab1, lab2 = run.steps[i][0], run.steps[i + 1][0]
    info1, info2 = _step_info(s, lab1), _step_info(s, lab2)
    if _case_no_contact(info1, info2):
        return "no-contact"
    if _case_postponable_loss(info1, info2, configs[i], configs[i + 1]):
        return "postponable-loss"
    if _case_advanceable_sender(info1, info2):
        return "advanceable-sender"
    if _case_advanceable_loss(info1, info2):
        return "advanceable-loss"
    return None


def commute(s, run, i, mode=LOSSY):
    """Swap steps i and i+1 if a commuting case applies; else None.

    The middle configuration is recomputed; when a case condition holds the
    swapped order must validate, so failure to find it is an internal error.
    """
    case = commute_case(s, run, i)
    if case is None:
        return None
    configs = run.configs()
    lab1, lab2 = run.steps[i][0], run.steps[i + 1][0]
    target = configs[i + 2]
    # the unswapped middle goes last: after two losses it matches too, but
    # choosing it would report a swap that did not happen
    candidates = sorted(successors(s, configs[i], mode),
                        key=lambda step: step[1] == configs[i + 1])
    for labm, mid in candidates:
        if labm != lab2:
            continue
        for labe, end in successors(s, mid, mode):
            if labe == lab1 and end == target:
                steps = list(run.steps)
                steps[i] = (lab2, mid)
                steps[i + 1] = (lab1, target)
                return Run(run.start, tuple(steps))
    raise RuntimeError(f"commuting case {case} held but no swapped order validates")


def _canonical_losses(c, w):
    """Loss steps from `c` down to l = w (a subword of c.v): the most head
    losses possible, then deletions behind the head, leftmost first."""
    v = c.v
    h = 0
    while h < len(v) and subword(w, v[h + 1:]):
        h += 1
    cur = v[h:]
    steps = [(LOSS, Configuration(c.p, c.q, c.u, v[k:])) for k in range(1, h + 1)]
    # w embeds in cur but not in cur[1:], so the leftmost embedding uses
    # cur[0]: the first position where cur and w differ is never the head
    while cur != w:
        k = next((k for k, (x, y) in enumerate(zip(cur, w)) if x != y), len(w))
        cur = cur[:k] + cur[k + 1:]
        steps.append((LOSS, Configuration(c.p, c.q, c.u, cur)))
    return steps


def to_head_lossy(s, run, mode=LOSSY):
    """Equivalent head-lossy run with the same endpoints.

    Each round takes the first maximal block of consecutive losses that a
    rule step follows and that holds a loss behind the head of l.  The block
    goes from l = v to l = w; it is rewritten as the most head losses
    possible (the largest h with w a subword of v[h:]) followed by single
    deletions behind the head from v[h:] down to w.  The block's last loss,
    if it is behind the head, is then pushed past the rule step by
    `commute` (the no-contact case for a rule on r, the postponable-loss
    case otherwise).

    Termination measure: the sum, over losses behind the head, of the rule
    steps that follow each one; the run is head-lossy when it is 0.  The
    rewrite never raises it: the block keeps its length and gains head
    losses, if anything.  A rewrite that leaves no loss behind the head in
    the block lowers it, and so does the push.  Each round checks that it
    fell.

    Sound for l-tests that a letter inserted behind the head cannot flip
    (a⁻¹L upward-closed for every letter a): Z, N and head tests.  A run
    that needs a loss pushed past any other l-test, such as a parity test,
    raises FragmentError naming that rule.
    """
    cur = run
    weight = _non_head_loss_weight(cur)
    while weight:
        configs = cur.configs()
        labels = cur.labels()
        last_rule = max(i for i, label in enumerate(labels) if label != LOSS)
        i = next(i for i in range(last_rule)
                 if labels[i] == LOSS and configs[i + 1].v != configs[i].v[1:])
        start = end = i
        while start and labels[start - 1] == LOSS:
            start -= 1
        while labels[end] == LOSS:
            end += 1
        block = _canonical_losses(configs[start], configs[end].v)
        cur = Run(cur.start, cur.steps[:start] + tuple(block) + cur.steps[end:])
        j = start + len(block) - 1  # the block keeps its length, so j + 1 == end
        before = block[-2][1] if len(block) > 1 else configs[start]
        if block[-1][1].v != before.v[1:]:
            pushed = commute(s, cur, j, mode)
            if pushed is None:
                rid = labels[end]
                raise FragmentError(
                    f"a loss behind the head of l cannot be postponed past rule "
                    f"{rid} ({s.rule(rid)}): its test is not stable under a "
                    f"letter inserted behind the head")
            cur = pushed
        new_weight = _non_head_loss_weight(cur)
        if new_weight >= weight:
            raise RuntimeError("head-lossy normalization made no progress")
        weight = new_weight
    return cur


def format_run(s, run):
    lines = [f"start {run.start}"]
    for i, (label, cfg) in enumerate(run.steps):
        if label == LOSS:
            what = "los"
        elif isinstance(label, tuple):
            what = f"wrlo #{label[1]} {s.rule(label[1])}"
        else:
            agent = "s" if s.agent_of(label) == SENDER else "r"
            what = f"rule {agent}#{label} {s.rule(label)}"
        lines.append(f"  {i + 1}. {what}  => {cfg}")
    return "\n".join(lines)
