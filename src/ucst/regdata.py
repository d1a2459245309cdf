"""Finite-automaton engine for the regular languages used by tests and constraints.

Automata are immutable after construction.  States are the integers
``0 .. n_states-1``; a transition symbol of ``None`` is an epsilon move.
Words are tuples of symbols.  Symbols can be any hashable values (message
letters are strings, rule letters in constraint alphabets may be other
tokens), so every deterministic enumeration sorts them with `symkey`.

Every language query steps one lazy subset memo per automaton (`Nfa._subsets`):
`accepts`, `determinize`, `minimal_dfa`, `words_up_to`,
`has_word_longer_than`, `language_equal` and the embedding solver's
`live_moves`.

Every product of automata is one `_product`: the embedding problem's R
(`reductions.ucst_to_pep`), `intersect` and `shuffle` differ only in their
start tuples, their accepting test and the letters each tuple steps.  R
steps its tuples straight from the rules of a channel system, with no
automaton for its parts.

No command calls `determinize`, `complement`, `intersect` or `shuffle`.
They stay on `Nfa` because perfbench's tracer wraps them by name.
"""

from collections import deque
from functools import wraps
from itertools import product

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

    def _subsets(self):
        """The lazy subset memo: (initial subset, steps, live moves).

        Subsets are epsilon-closed state sets.  `steps` maps (subset, letter)
        to the next subset as each step is first taken, by `accepts` and
        `live_moves` alike; `live_moves` keeps its answers per subset.
        `determinize`, `minimal_dfa`, `words_up_to` and `language_equal`
        step through `live_moves`; `has_word_longer_than` starts from the
        initial subset and ends in `distance`.
        """
        if self._steps is None:
            object.__setattr__(self, "_steps", (
                self._eps_closure(self.initial, _letter_index(self)[0]), {}, {}))
        return self._steps

    def initial_subset(self):
        """Epsilon closure of the initial states, where `live_moves` starts."""
        return self._subsets()[0]

    def live_moves(self, subset):
        """letter -> next subset, for the letters whose next subset from
        `subset` is nonempty, in `symkey` order."""
        _, steps, live = self._subsets()
        moves = live.get(subset)
        if moves is None:
            eps, out = _letter_index(self)
            targets = {}
            for s in subset:
                for sym, dsts in out.get(s, {}).items():
                    targets.setdefault(sym, set()).update(dsts)
            moves = live[subset] = {}
            for sym in sorted(targets, key=symkey):
                nxt = steps.get((subset, sym))
                if nxt is None:
                    nxt = steps[(subset, sym)] = self._eps_closure(
                        targets[sym], eps)
                moves[sym] = nxt
        return moves

    def distance(self, subset):
        """Length of a shortest word accepted from `subset` (None if none)."""
        dist = _distances(self)
        return min((dist[s] for s in subset if dist[s] is not None),
                   default=None)

    def accepts(self, word):
        """Membership test; symbols outside the alphabet are an input error.

        Steps go through the lazy subset memo that `live_moves` shares:
        (subset, letter) -> next subset, computed from `_letter_index` when
        first taken.  A letter is checked against the alphabet when its step
        is first computed, so the whole word is always checked, even past a
        dead subset.
        """
        cur, steps, _ = self._steps or self._subsets()
        for sym in word:
            key = (cur, sym)
            nxt = steps.get(key)
            if nxt is None:
                if sym not in self.alphabet:
                    raise InputError(f"word symbol {sym!r} not in alphabet")
                eps, out = _letter_index(self)
                nxt = steps[key] = self._eps_closure(
                    [t for s in cur for t in out.get(s, {}).get(sym, ())], eps)
            cur = nxt
        return not cur.isdisjoint(self.accepting)

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
        """Total DFA over this automaton's alphabet (subset construction).

        The subsets of the normal form are numbered by `_explore` from its
        initial subset, letters in alphabet order; the empty subset is the
        dead state.
        """
        nfa = self.normalize()
        ids, trans = _explore([nfa.initial_subset()], lambda cur: [
            (sym, live.get(sym, frozenset()))
            for live in [nfa.live_moves(cur)] for sym in nfa.alphabet])
        return Dfa(nfa.alphabet, len(ids), 0,
                   {n for cur, n in ids.items() if cur & nfa.accepting},
                   {(src, sym): dst for src, sym, dst in trans})

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
        """Each pair steps the letters of the side with fewer, looked up in
        the other side; normal forms list letters in `symkey` order."""
        self._require_same_alphabet(other)
        a, b = self.normalize(), other.normalize()
        a_out, b_out = _letter_index(a)[1], _letter_index(b)[1]

        def moves(pair):
            here, there = a_out.get(pair[0], {}), b_out.get(pair[1], {})
            fewer, more = sorted((here, there), key=len)
            return [(sym, (i, j)) for sym in fewer if sym in more
                    for i in here[sym] for j in there[sym]]

        return _product(*_pairs(a, b), a.alphabet, moves)

    def complement(self):
        dfa = self.determinize()
        return Dfa(dfa.alphabet, dfa.n_states, dfa.initial,
                   frozenset(range(dfa.n_states)) - dfa.accepting,
                   dfa.transitions).as_nfa()

    def minimal_dfa(self):
        """The minimal total DFA of L, numbered canonically.

        The walk numbers the subsets that `live_moves` reaches from
        `initial_subset` (this automaton's own memo); every letter it leaves
        out steps to the empty subset, the dead state.  Moore refinement
        signs a state by its class and its live moves, leaving out the moves
        into the dead state's class: two states get equal signatures exactly
        when they agree on every letter.  The classes are numbered by
        `_explore` from the initial class, letters in `symkey` order.
        """
        ids, trans = _explore([self.initial_subset()],
                              lambda cur: self.live_moves(cur).items())
        # a fresh dead state: no live move leads to the empty subset (an
        # empty initial subset has no moves and merges with it)
        dead = len(ids)
        live = [{} for _ in range(dead + 1)]
        for src, sym, dst in trans:
            live[src][sym] = dst
        accepting = {s for cur, s in ids.items() if cur & self.accepting}
        classes = [int(s in accepting) for s in range(len(live))]
        while True:
            base = classes[dead]
            signatures = {}
            renumbered = [signatures.setdefault(
                (c, tuple((a, classes[t]) for a, t in moves.items()
                          if classes[t] != base)),
                len(signatures)) for c, moves in zip(classes, live)]
            if renumbered == classes:
                break
            classes = renumbered
        member = {}  # class -> the live moves of its first state
        for c, moves in zip(classes, live):
            member.setdefault(c, moves)
        letters = sorted(self.alphabet, key=symkey)
        numbers, trans = _explore([classes[0]], lambda c: [
            (a, classes[member[c].get(a, dead)]) for a in letters])
        return Dfa(self.alphabet, len(numbers), 0,
                   {numbers[classes[s]] for s in accepting},
                   {(src, a): dst for src, a, dst in trans})

    def shuffle(self, other):
        """All interleavings of one word of each language."""
        a, b = self.normalize(), other.normalize()
        alphabet = tuple(dict.fromkeys(self.alphabet + other.alphabet))
        a_out, b_out = _out_index(a.transitions), _out_index(b.transitions)
        return _product(*_pairs(a, b), alphabet, lambda p: (
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

    # -- enumeration -----------------------------------------------------------

    def words_up_to(self, max_len):
        """Accepted words of length <= max_len, by length then lexicographic."""
        level = [((), self.initial_subset())]
        out = []
        for length in range(max_len + 1):
            out += [word for word, cur in level if cur & self.accepting]
            if length < max_len:
                level = [(word + (sym,), nxt) for word, cur in level
                         for sym, nxt in self.live_moves(cur).items()]
        return out

    def has_word_longer_than(self, k):
        """True iff L contains a word of length strictly greater than k."""
        eps, out = _letter_index(self)
        layer = self.initial_subset()
        for _ in range(k + 1):  # the states after exactly k+1 letters
            layer = self._eps_closure(
                [t for s in layer for dsts in out.get(s, {}).values()
                 for t in dsts], eps)
        return self.distance(layer) is not None


class Dfa:
    """Total deterministic automaton produced by `Nfa.determinize` and
    `Nfa.minimal_dfa`."""

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions")

    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        self.alphabet = tuple(alphabet)
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)

    def as_nfa(self):
        trans = [(src, sym, dst) for (src, sym), dst in sorted(
            self.transitions.items(), key=lambda kv: (kv[0][0], symkey(kv[0][1])))]
        return Nfa(self.alphabet, self.n_states, {self.initial}, self.accepting, trans)


def _explore(starts, moves):
    """Number the states reachable from `starts` and list their transitions.

    `moves(x)` lists the (letter, successor) pairs of state `x`.  The starts
    get the numbers 0, 1, ... in the order given (a repeated start keeps its
    first number); every other state gets the next number when it is first
    reached, in breadth-first order, taking the states in number order and
    each state's moves in the order listed.  `normalize`, `determinize` and
    `minimal_dfa` (its subset walk and its classes) rely on this numbering
    for their canonical output.

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


@cached_on_nfa
def _letter_index(nfa):
    """(state -> epsilon targets, state -> {letter: [dst]}): the one source
    of subset steps, for `accepts`, `live_moves` and `has_word_longer_than`,
    and of the letters `intersect` steps (only perfbench's tracer calls it).
    Letters and targets keep transition order, which in a normal form is
    `symkey` order."""
    out = {}
    for src, sym, dst in nfa.transitions:
        if sym is not EPSILON:
            out.setdefault(src, {}).setdefault(sym, []).append(dst)
    return nfa._eps_map(), out


@cached_on_nfa
def _distances(nfa):
    """Per state, the length of a shortest accepted continuation, or None.

    One backward breadth-first search from the accepting states, in which an
    epsilon move costs 0 (it is taken from the front of the queue).
    """
    rev = {}
    for src, sym, dst in nfa.transitions:
        rev.setdefault(dst, []).append((src, sym is not EPSILON))
    dist = {s: 0 for s in nfa.accepting}
    queue = deque(sorted(nfa.accepting))
    while queue:
        s = queue.popleft()
        for t, cost in rev.get(s, ()):
            d = dist[s] + cost
            if t not in dist or d < dist[t]:
                dist[t] = d
                if cost:
                    queue.append(t)
                else:
                    queue.appendleft(t)
    return [dist.get(s) for s in range(nfa.n_states)]


def _out_index(transitions):
    """src -> [(letter, dst)], in transition order."""
    out = {}
    for src, sym, dst in transitions:
        out.setdefault(src, []).append((sym, dst))
    return out


def _pairs(a, b):
    """The start pairs and the accepting test of a product of epsilon-free
    `a` and `b`: the pairs of sorted initial states, and the pairs whose
    both components accept."""
    return (list(product(sorted(a.initial), sorted(b.initial))),
            lambda pair: pair[0] in a.accepting and pair[1] in b.accepting)


def _product(starts, accepts, alphabet, moves):
    """Product automaton over the tuples of states that `moves` reaches from
    the distinct tuples `starts`, numbered by `_explore`; the starts are the
    initial states, and a tuple accepts when `accepts(tuple)` holds."""
    ids, trans = _explore(starts, moves)
    accepting = {n for states, n in ids.items() if accepts(states)}
    return Nfa(alphabet, max(len(ids), 1), range(len(starts)), accepting, trans)


def language_equal(a, b):
    """L(a) == L(b): a search over the pairs of subsets that one word reaches
    in `a` and in `b`, which stops at the first pair where exactly one side
    accepts."""
    if set(a.alphabet) != set(b.alphabet):
        raise InputError("language comparison requires equal alphabets")
    start = (a.initial_subset(), b.initial_subset())
    seen, todo = {start}, [start]
    while todo:
        x, y = todo.pop()
        if x.isdisjoint(a.accepting) != y.isdisjoint(b.accepting):
            return False
        mx, my = a.live_moves(x), b.live_moves(y)
        for sym in mx.keys() | my.keys():
            pair = (mx.get(sym, frozenset()), my.get(sym, frozenset()))
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def subword(w1, w2):
    """w1 is a scattered subword (subsequence) of w2; greedy two-pointer scan."""
    i = 0
    for sym in w2:
        if i < len(w1) and w1[i] == sym:
            i += 1
    return i == len(w1)


# -- surface regex ------------------------------------------------------------
#
# Grammar:  alt  := cat ('|' cat)*
#           cat  := rep+
#           rep  := atom ('*' | '+')*
#           atom := literal | EPS | ANY | '(' alt ')'
# Literals are whitespace-separated tokens; ANY is any single alphabet letter.
# The keywords are never literals, so no alphabet may use them as letters.

KEYWORDS = ("EPS", "ANY", "NONE")
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
