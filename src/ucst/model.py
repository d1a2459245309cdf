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
from functools import cached_property
from typing import NamedTuple

from .errors import InputError
from .regdata import Nfa, cached_on_nfa, language_equal, word_str

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

    The one-loss relation is kept both ways: `lost[i]` lists the words one
    loss makes of word `i`, and `gained[i]` the words `j` whose losses were
    asked and hold `i`.  Both are filled when a word's losses are first
    asked, so a search that asked the losses of every word it met reads its
    loss predecessors in `gained`.  `up_to` fills all of this for every
    word up to a length in one pass, with the ids, `lost` tuples and
    `gained` lists that `push` and `losses` would give.
    """

    def __init__(self):
        self._ids = {(): 0}
        self.word = [()]
        self.length = [0]
        self.head = [None]
        self.tail = [None]
        self.pushed = [{}]  # id -> {letter: id of the word with it appended}
        self.lost = [()]    # id -> distinct single-loss ids, None until asked
        self.gained = [[]]  # id -> ids whose asked losses include it

    def column(self, lang):
        """Membership of the numbered words in `lang`, by id, each decided
        when first asked."""
        return _Column(lang.accepts, self.word)

    def known(self, w):
        """The id of word `w`, or None if it is not numbered."""
        return self._ids.get(w)

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
            self.gained.append([])
        return i

    def push(self, i, a):
        """The id of word `i` with letter `a` appended."""
        j = self.pushed[i].get(a)
        if j is None:
            j = self.pushed[i][a] = self.id(self.word[i] + (a,))
        return j

    def losses(self, i):
        """Ids of the distinct words one loss makes of word `i`, ordered by
        deleted position; `i` joins the `gained` list of each."""
        out = self.lost[i]
        if out is None:
            w = self.word[i]
            out = self.lost[i] = tuple(dict.fromkeys(
                self.id(w[:j] + w[j + 1:]) for j in range(len(w))))
            gained = self.gained
            for j in out:
                gained[j].append(i)
        return out

    def up_to(self, k, letters):
        """Ids of every word over `letters` up to length `k`, by length and
        then in `letters` order, numbering the new ones; every word shorter
        than `k` gets its pushes by `letters`, and every word its losses.

        One level at a time: word x·a has tail tail(x)·a, and its losses
        are x's losses pushed by `a`, then x, duplicates dropped (deleted
        positions in order).  What the table holds already is kept, so the
        ids, `lost` tuples and `gained` lists are those of pushing level by
        level and then asking each word's losses in that order."""
        ids, word, tail = self._ids, self.word, self.tail
        pushed, lost, gained = self.pushed, self.lost, self.gained
        level, out = [0], [0]
        for n in range(1, k + 1):
            nxt = []
            for x in level:
                row, wx, tx = pushed[x], word[x], tail[x]
                for a in letters:
                    i = row.get(a)
                    if i is None:
                        w = wx + (a,)
                        i = ids.get(w)
                        if i is None:
                            i = ids[w] = len(word)
                            word.append(w)
                            self.length.append(n)
                            self.head.append(w[0])
                            tail.append(0 if tx is None else pushed[tx][a])
                            pushed.append({})
                            lost.append(None)
                            gained.append([])
                        row[a] = i
                    if lost[i] is None:
                        ws = lost[i] = tuple(dict.fromkeys(
                            [pushed[y][a] for y in lost[x]] + [x]))
                        for j in ws:
                            gained[j].append(i)
                    nxt.append(i)
            out += nxt
            level = nxt
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

    @cached_property
    def test_report(self):
        """`classify_tests` of the system, computed on first use."""
        return classify_tests(self)

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
    found it and appended to the new layer.  With `edges`, every rule
    successor, new or already seen, is also appended there as (node, label,
    successor); loss successors are not recorded, since `Words` keeps the
    one-loss relation both ways (`lost`, `gained`).  Returns the new layer
    and whether a write was discarded because its word would be longer than
    `k`; a discarded word is never numbered.

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
    return new, cut


def step(s, node, mode, k=None):
    """`step_layer` on the one node `node`: its labelled successors, in the
    same order, and whether a write was discarded for the bound.  The rule
    moves come from the layer's `edges`, and in lossy mode a `LOSS` move to
    each of `Words.losses` of the node's l word follows them."""
    edges = []
    _, cut = step_layer(s, [node], mode, k, {}, edges)
    out = [(label, succ) for _, label, succ in edges]
    if mode == LOSSY:
        c, u, v = node
        out += [(LOSS, (c, u, w)) for w in s.words.losses(v)]
    return out, cut


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
