"""Finite-automaton engine for the regular languages used by tests and constraints.

Automata are immutable after construction.  States are the integers
``0 .. n_states-1``; a transition symbol of ``None`` is an epsilon move.
Words are tuples of symbols.  Symbols can be any hashable values (message
letters are strings, rule letters in constraint alphabets may be other
tokens), so every deterministic enumeration sorts them with `symkey`.
"""

from collections import deque
from functools import wraps

from .errors import InputError

EPSILON = None


def symkey(sym):
    """Total order on mixed-type symbols (class name first, then value)."""
    return (sym.__class__.__name__, sym)


def word_str(word):
    """Compact rendering of a word for messages and witnesses."""
    if not word:
        return "<eps>"
    return ".".join(str(s) for s in word)


def cached_on_nfa(fn):
    """Compute `fn(nfa)` once per automaton and keep it on the automaton.

    Automata are immutable, so the answer never goes stale, and it dies with
    the automaton; a cache keyed by automata would keep every one alive.
    """
    @wraps(fn)
    def cached(nfa):
        memo = nfa._memo
        if fn not in memo:
            memo[fn] = fn(nfa)
        return memo[fn]
    return cached


class Nfa:
    """Nondeterministic finite automaton with optional epsilon moves."""

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions",
                 "_steps", "_memo")

    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        alphabet = tuple(dict.fromkeys(alphabet))
        initial = frozenset(initial)
        accepting = frozenset(accepting)
        transitions = tuple(dict.fromkeys(transitions))
        sigma = set(alphabet)
        for src, sym, dst in transitions:
            if sym is not EPSILON and sym not in sigma:
                raise InputError(f"transition symbol {sym!r} not in alphabet")
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise InputError("transition endpoint out of range")
        if not initial <= set(range(n_states)) or not accepting <= set(range(n_states)):
            raise InputError("initial/accepting states out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "_steps", None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Nfa is immutable")

    def __repr__(self):
        return (f"Nfa(|Q|={self.n_states}, |I|={len(self.initial)}, "
                f"|F|={len(self.accepting)}, |T|={len(self.transitions)})")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def literal(word, alphabet):
        """Automaton accepting exactly the given word."""
        n = len(word) + 1
        trans = [(i, sym, i + 1) for i, sym in enumerate(word)]
        return Nfa(alphabet, n, {0}, {n - 1}, trans)

    @staticmethod
    def nothing(alphabet):
        return Nfa(alphabet, 1, {0}, set(), ())

    @staticmethod
    def one_of(symbols, alphabet):
        """Accepts every single-letter word drawn from `symbols`."""
        return Nfa(alphabet, 2, {0}, {1}, [(0, s, 1) for s in symbols])

    @staticmethod
    def all_words(alphabet):
        return Nfa(alphabet, 1, {0}, {0}, [(0, s, 0) for s in alphabet])

    def with_alphabet(self, alphabet):
        """Same language over a larger alphabet."""
        if not set(self.alphabet) <= set(alphabet):
            raise InputError("new alphabet must contain the old one")
        return Nfa(alphabet, self.n_states, self.initial, self.accepting, self.transitions)

    # -- basic queries ---------------------------------------------------------

    def _eps_map(self):
        """state -> targets of its epsilon moves, for `_eps_closure`."""
        eps = {}
        for src, sym, dst in self.transitions:
            if sym is EPSILON:
                eps.setdefault(src, []).append(dst)
        return eps

    @staticmethod
    def _eps_closure(states, eps):
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in eps.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def _move(self, states, sym):
        out = set()
        for src, s, dst in self.transitions:
            if s == sym and src in states:
                out.add(dst)
        return out

    def accepts(self, word):
        """Membership test; symbols outside the alphabet are an input error.

        Subset steps are memoized on the automaton as they are first taken:
        (state set, letter) -> next state set.  A letter is checked against
        the alphabet when its step is first computed, so the whole word is
        always checked, even past a dead state set.
        """
        if self._steps is None:
            object.__setattr__(self, "_steps",
                               (self._eps_closure(self.initial, self._eps_map()), {}))
        cur, steps = self._steps
        for sym in word:
            key = (cur, sym)
            nxt = steps.get(key)
            if nxt is None:
                if sym not in self.alphabet:
                    raise InputError(f"word symbol {sym!r} not in alphabet")
                nxt = steps[key] = self._eps_closure(self._move(cur, sym),
                                                     self._eps_map())
            cur = nxt
        return not cur.isdisjoint(self.accepting)

    def is_empty(self):
        out = _out_index(self.transitions)
        ids, _ = _explore(self.initial, lambda s: out.get(s, ()))
        return self.accepting.isdisjoint(ids)

    @cached_on_nfa
    def normalize(self):
        """Epsilon-free, reachable-only copy with BFS state numbering.

        States are numbered by `_explore` from the sorted initial states; a
        state's moves are those of its epsilon closure, closure members in
        increasing order, each member's moves in stored transition order.
        The copy is built once; it caches its own normal form in turn, which
        need not be itself (renumbering a normal form can move states).
        """
        eps = self._eps_map()
        out = _out_index(t for t in self.transitions if t[1] is not EPSILON)
        closures = {}

        def moves(s):
            closures[s] = closure = self._eps_closure({s}, eps)
            return [m for t in sorted(closure) for m in out.get(t, ())]

        ids, trans = _explore(sorted(self.initial), moves)
        trans.sort(key=lambda t: (t[0], symkey(t[1]), t[2]))
        return Nfa(self.alphabet, max(len(ids), 1), range(len(self.initial)),
                   {ids[s] for s, c in closures.items() if c & self.accepting},
                   trans)

    def determinize(self):
        """Total DFA over this automaton's alphabet (subset construction)."""
        nfa = self.normalize()
        start = frozenset(nfa.initial)
        step = _step_index(nfa.transitions)
        ids = {start: 0}
        queue = deque([start])
        trans = {}
        accepting = set()
        while queue:
            cur = queue.popleft()
            cid = ids[cur]
            if cur & nfa.accepting:
                accepting.add(cid)
            for sym in nfa.alphabet:
                nxt = set()
                for s in cur:
                    nxt.update(step.get((s, sym), ()))
                nxt = frozenset(nxt)
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    queue.append(nxt)
                trans[(cid, sym)] = ids[nxt]
        return Dfa(nfa.alphabet, len(ids), 0, frozenset(accepting), trans)

    # -- boolean and word operations ------------------------------------------

    def _require_same_alphabet(self, other):
        if set(self.alphabet) != set(other.alphabet):
            raise InputError("operation requires equal alphabets")

    def union(self, other):
        self._require_same_alphabet(other)
        off = self.n_states
        trans = list(self.transitions)
        trans += [(a + off, sym, b + off) for a, sym, b in other.transitions]
        return Nfa(self.alphabet, off + other.n_states,
                   set(self.initial) | {s + off for s in other.initial},
                   set(self.accepting) | {s + off for s in other.accepting},
                   trans)

    def concat(self, other):
        self._require_same_alphabet(other)
        off = self.n_states
        trans = list(self.transitions)
        trans += [(a + off, sym, b + off) for a, sym, b in other.transitions]
        trans += [(f, EPSILON, i + off) for f in sorted(self.accepting)
                  for i in sorted(other.initial)]
        return Nfa(self.alphabet, off + other.n_states, self.initial,
                   {s + off for s in other.accepting}, trans)

    def star(self):
        off = self.n_states
        trans = list(self.transitions)
        trans += [(off, EPSILON, i) for i in sorted(self.initial)]
        trans += [(f, EPSILON, off) for f in sorted(self.accepting)]
        return Nfa(self.alphabet, off + 1, {off}, {off}, trans)

    def plus(self):
        return self.concat(self.star())

    def intersect(self, other):
        self._require_same_alphabet(other)
        a, b = self.normalize(), other.normalize()
        a_out, b_step = _out_index(a.transitions), _step_index(b.transitions)
        return _pair_nfa(a, b, a.alphabet, lambda p: [
            (sym, (i, j)) for sym, i in a_out.get(p[0], ())
            for j in b_step.get((p[1], sym), ())])

    def complement(self):
        dfa = self.determinize()
        return Dfa(dfa.alphabet, dfa.n_states, dfa.initial,
                   frozenset(range(dfa.n_states)) - dfa.accepting,
                   dfa.transitions).as_nfa()

    def shuffle(self, other):
        """All interleavings of one word of each language."""
        a, b = self.normalize(), other.normalize()
        alphabet = tuple(dict.fromkeys(self.alphabet + other.alphabet))
        a_out, b_out = _out_index(a.transitions), _out_index(b.transitions)
        return _pair_nfa(a, b, alphabet, lambda p: (
            [(sym, (i, p[1])) for sym, i in a_out.get(p[0], ())]
            + [(sym, (p[0], j)) for sym, j in b_out.get(p[1], ())]))

    def pad_closure(self, pad):
        """Language of all words of L with runs of `pad` inserted before letters.

        No padding is allowed after the last letter, so a second copy of
        each state tracks "committed to read at least one more letter";
        only original states stay accepting.
        """
        if pad in self.alphabet:
            raise InputError(f"padding symbol {pad!r} already in alphabet")
        a = self.normalize()
        alphabet = a.alphabet + (pad,)
        n = a.n_states
        trans = list(a.transitions)
        has_out = {src for src, _, _ in a.transitions}
        for s in sorted(has_out):
            trans.append((s, pad, s + n))
            trans.append((s + n, pad, s + n))
        for src, sym, dst in a.transitions:
            trans.append((src + n, sym, dst))
        return Nfa(alphabet, 2 * n, a.initial, a.accepting, trans)

    def quotient(self, sym):
        """Left quotient sym⁻¹L: the words w with sym.w in L."""
        eps = self._eps_map()
        start = self._eps_closure(self.initial, eps)
        after = self._eps_closure(self._move(start, sym), eps)
        return Nfa(self.alphabet, self.n_states, after, self.accepting, self.transitions)

    def upward_closure(self):
        """Words having some word of L as a scattered subword."""
        a = self.normalize()
        trans = list(a.transitions)
        for s in range(a.n_states):
            for sym in a.alphabet:
                trans.append((s, sym, s))
        return Nfa(a.alphabet, a.n_states, a.initial, a.accepting, trans)

    def downward_closure(self):
        """Scattered subwords of words of L."""
        a = self.normalize()
        trans = list(a.transitions)
        for src, sym, dst in a.transitions:
            trans.append((src, EPSILON, dst))
        return Nfa(a.alphabet, a.n_states, a.initial, a.accepting, trans).normalize()

    # -- enumeration -----------------------------------------------------------

    def words_up_to(self, max_len):
        """Accepted words of length <= max_len, by length then lexicographic."""
        a = self.normalize()
        step = _step_index(a.transitions)
        syms = sorted(set(a.alphabet), key=symkey)
        level = [((), frozenset(a.initial))]
        out = []
        for length in range(max_len + 1):
            nxt = []
            for word, states in level:
                if states & a.accepting:
                    out.append(word)
                if length < max_len:
                    for sym in syms:
                        moved = set()
                        for s in states:
                            moved.update(step.get((s, sym), ()))
                        if moved:
                            nxt.append((word + (sym,), frozenset(moved)))
            level = nxt
        return out

    def has_word_longer_than(self, k):
        """True iff L contains a word of length strictly greater than k."""
        a = self.normalize()
        out = _out_index(a.transitions)
        layers = frozenset(a.initial)
        for _ in range(k + 1):
            layers = frozenset(t for s in layers for _, t in out.get(s, ()))
            if not layers:
                return False
        # states reachable by words of length exactly k+1; close forward
        ids, _ = _explore(layers, lambda s: out.get(s, ()))
        return not a.accepting.isdisjoint(ids)


class Dfa:
    """Total deterministic automaton produced by `Nfa.determinize`."""

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions")

    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        self.alphabet = tuple(alphabet)
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)

    def step(self, state, sym):
        return self.transitions[(state, sym)]

    def run(self, word, state=None):
        cur = self.initial if state is None else state
        for sym in word:
            cur = self.transitions[(cur, sym)]
        return cur

    def accepts(self, word):
        return self.run(word) in self.accepting

    def as_nfa(self):
        trans = [(src, sym, dst) for (src, sym), dst in sorted(
            self.transitions.items(), key=lambda kv: (kv[0][0], symkey(kv[0][1])))]
        return Nfa(self.alphabet, self.n_states, {self.initial}, self.accepting, trans)

    def distances_to_accepting(self):
        """Per state, length of a shortest accepted continuation (None if dead)."""
        rev = {}
        for (src, sym), dst in self.transitions.items():
            rev.setdefault(dst, set()).add(src)
        dist = {s: 0 for s in self.accepting}
        queue = deque(sorted(self.accepting))
        while queue:
            s = queue.popleft()
            for t in rev.get(s, ()):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    queue.append(t)
        return [dist.get(s) for s in range(self.n_states)]

    def minimize(self):
        """Equivalent minimal DFA (partition refinement); classes are
        numbered by first occurrence so the result is canonical."""
        classes = [1 if s in self.accepting else 0 for s in range(self.n_states)]
        while True:
            signatures = {}
            renumbered = []
            for s in range(self.n_states):
                sig = (classes[s],
                       tuple(classes[self.transitions[(s, a)]]
                             for a in self.alphabet))
                if sig not in signatures:
                    signatures[sig] = len(signatures)
                renumbered.append(signatures[sig])
            if renumbered == classes:
                break
            classes = renumbered
        raw = {}
        for (s, a), t in self.transitions.items():
            raw[(classes[s], a)] = classes[t]
        ids, trans = _explore([classes[self.initial]],
                              lambda c: [(a, raw[(c, a)]) for a in self.alphabet])
        accepting = {ids[classes[s]] for s in self.accepting
                     if classes[s] in ids}
        return Dfa(self.alphabet, len(ids), 0, accepting,
                   {(src, a): dst for src, a, dst in trans})


def _explore(starts, moves):
    """Number the states reachable from `starts` and list their transitions.

    `moves(x)` lists the (letter, successor) pairs of state `x`.  The starts
    get the numbers 0, 1, ... in the order given (a repeated start keeps its
    first number); every other state gets the next number when it is first
    reached, in breadth-first order, taking the states in number order and
    each state's moves in the order listed.  `normalize` and `Dfa.minimize`
    rely on this numbering for their canonical output.

    Returns (ids, transitions): ids maps each reached state to its number,
    and transitions lists every (number, letter, number) move in the order
    taken.
    """
    ids = {}
    for x in starts:
        ids.setdefault(x, len(ids))
    queue = deque(ids)
    trans = []
    while queue:
        x = queue.popleft()
        src = ids[x]
        for sym, y in moves(x):
            dst = ids.get(y)
            if dst is None:
                dst = ids[y] = len(ids)
                queue.append(y)
            trans.append((src, sym, dst))
    return ids, trans


def _out_index(transitions):
    """src -> [(letter, dst)], in transition order."""
    out = {}
    for src, sym, dst in transitions:
        out.setdefault(src, []).append((sym, dst))
    return out


def _step_index(transitions):
    """(src, letter) -> [dst], in transition order."""
    step = {}
    for src, sym, dst in transitions:
        step.setdefault((src, sym), []).append(dst)
    return step


def _pair_nfa(a, b, alphabet, moves):
    """Product of epsilon-free `a` and `b` over the pairs of states that
    `moves` reaches from the initial pairs; a pair accepts when both do."""
    starts = [(i, j) for i in sorted(a.initial) for j in sorted(b.initial)]
    ids, trans = _explore(starts, moves)
    accepting = {n for (i, j), n in ids.items()
                 if i in a.accepting and j in b.accepting}
    return Nfa(alphabet, max(len(ids), 1), range(len(starts)), accepting, trans)


def language_equal(a, b):
    """L(a) == L(b), via emptiness of both difference languages."""
    if set(a.alphabet) != set(b.alphabet):
        raise InputError("language comparison requires equal alphabets")
    if not a.intersect(b.complement()).is_empty():
        return False
    return b.intersect(a.complement()).is_empty()


def language_subset(a, b):
    """L(a) <= L(b)."""
    if set(a.alphabet) != set(b.alphabet):
        raise InputError("language comparison requires equal alphabets")
    return a.intersect(b.complement()).is_empty()


@cached_on_nfa
def is_upward_closed(nfa):
    return language_equal(nfa.upward_closure(), nfa)


@cached_on_nfa
def is_downward_closed(nfa):
    return language_equal(nfa.downward_closure(), nfa)


def subword(w1, w2):
    """w1 is a scattered subword (subsequence) of w2; greedy two-pointer scan."""
    i = 0
    for sym in w2:
        if i < len(w1) and w1[i] == sym:
            i += 1
    return i == len(w1)


def subword_one(w1, w2):
    """w1 is w2 with exactly one occurrence deleted."""
    return len(w1) + 1 == len(w2) and subword(w1, w2)


# -- surface regex ------------------------------------------------------------
#
# Grammar:  alt  := cat ('|' cat)*
#           cat  := rep+
#           rep  := atom ('*' | '+')*
#           atom := literal | EPS | ANY | '(' alt ')'
# Literals are whitespace-separated tokens; ANY is any single alphabet letter.

_PUNCT = set("()|*+")


def _tokenize(text):
    tokens = []
    cur = ""
    for ch in text:
        if ch.isspace() or ch in _PUNCT:
            if cur:
                tokens.append(cur)
                cur = ""
            if ch in _PUNCT:
                tokens.append(ch)
        else:
            cur += ch
    if cur:
        tokens.append(cur)
    return tokens


def parse_regex(text, alphabet):
    """Build an Nfa from the textual regex syntax used in instance files."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty regular expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_alt():
        nonlocal pos
        parts = [parse_cat()]
        while peek() == "|":
            pos += 1
            parts.append(parse_cat())
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    def parse_cat():
        out = None
        while peek() is not None and peek() not in (")", "|"):
            piece = parse_rep()
            out = piece if out is None else out.concat(piece)
        if out is None:
            raise InputError("empty alternative in regular expression")
        return out

    def parse_rep():
        nonlocal pos
        out = parse_atom()
        while peek() in ("*", "+"):
            out = out.star() if peek() == "*" else out.plus()
            pos += 1
        return out

    def parse_atom():
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            inner = parse_alt()
            if peek() != ")":
                raise InputError("unbalanced parenthesis in regular expression")
            pos += 1
            return inner
        if tok in ("*", "+", ")", "|", None):
            raise InputError(f"unexpected token {tok!r} in regular expression")
        pos += 1
        if tok == "EPS":
            return Nfa.literal((), alphabet)
        if tok == "NONE":
            return Nfa.nothing(alphabet)
        if tok == "ANY":
            return Nfa.one_of(alphabet, alphabet)
        if tok not in alphabet:
            raise InputError(f"regex literal {tok!r} not in alphabet")
        return Nfa.literal((tok,), alphabet)

    out = parse_alt()
    if pos != len(tokens):
        raise InputError(f"trailing regex tokens at {tokens[pos]!r}")
    return out
