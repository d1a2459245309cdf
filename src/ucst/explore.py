"""Bounded explicit-state oracle: forward/backward reachability and lassos.

All searches run one breadth-first core, `_bfs`, over nodes (p, q, r word
id, l word id) of the system's numbered words, stepped by `model.step`.  It
prunes nodes whose channel words exceed the bound, reading their lengths
from the word table (pruned successors are discarded, never truncated, so
every witness is a genuine run).  Nodes become `Configuration` values only
at the edges: witness runs, returned sets, and the targets a co-reach is
asked about.  A certified "unreachable" verdict is only produced when the
closure finished without pruning anything, including the enumeration of
initial words.

Co-reach comes in two parts: `bounded_graph` explores a system's bounded
graph forward once, and `coreach_in` answers one target backward over it, so
a caller asking many targets of one (immutable) system explores it once.
Lassos use `_bfs` too: the stem is a path of the forward search, and each
candidate anchor's cycle is a `_bfs` from its successors back to it.
"""

from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .model import (
    LOSSY,
    MODES,
    Configuration,
    ReachInstance,
    Run,
    step,
)
from .regdata import Nfa

REACHABLE = "reachable"
NOT_WITHIN_BOUND = "not-within-bound"
UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class Bound:
    max_channel_len: int
    max_steps: int = 0  # 0 = unlimited within the channel-bounded space

    def __post_init__(self):
        if self.max_channel_len < 0 or self.max_steps < 0:
            raise InputError("bounds must be nonnegative")


@dataclass(frozen=True)
class Verdict:
    """A bounded answer and why its search stopped: `reason` is "target",
    "closure" (finished, nothing pruned), "length-bound" (a successor was
    longer than the channel bound), "step-bound" or "initial-truncation"
    (an initial word was longer than the channel bound)."""

    status: str
    witness: Run = None
    reason: str = None

    @property
    def reachable(self):
        return self.status == REACHABLE

    def __str__(self):
        return self.status.upper().replace("_", "-")


@dataclass(frozen=True)
class LassoWitness:
    stem: Run   # from the initial configuration to the anchor
    cycle: Run  # from the anchor back to itself, at least one step

    @property
    def anchor(self):
        return self.stem.end


def _initial_nodes(inst, bound):
    """Initial nodes by length-lexicographic word enumeration.

    Second result is True when some admissible initial word was dropped
    because it is longer than the channel bound.
    """
    k = bound.max_channel_len
    number = inst.system.words.id
    us = map(number, inst.U.words_up_to(k))
    vs = map(number, inst.V.words_up_to(k))
    dropped = inst.U.has_word_longer_than(k) or inst.V.has_word_longer_than(k)
    nodes = [(inst.p_in, inst.q_in, u, v) for u, v in product(us, vs)]
    return nodes, dropped


def _stepper(s, mode):
    """`model.step` of system `s` in `mode`, on one node."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return lambda node: step(s, node, mode)


def _bfs(words, starts, expand, k, goal=None, max_depth=0, max_nodes=None):
    """Layered breadth-first search over nodes whose channels fit in `k`.

    Nodes are (p, q, r word id, l word id) of the word table `words`, which
    gives their lengths.  `expand(node)` yields (label, successor) pairs;
    successors beyond the bound are discarded.  Returns (parents, hit,
    stop).  `parents` maps each node found, in discovery order, to (label,
    predecessor), or to None for a start; `hit` is the first node satisfying
    `goal`, else None.  `stop` is "target", "closure" (nothing new and
    nothing discarded), "length-bound" (nothing new, but some successor was
    discarded), "step-bound" (a layer remains after `max_depth` expansions;
    0 = no limit) or "budget" (a new node found with `max_nodes` already
    known).
    """
    length = words.length
    parents = {}
    for c in starts:
        if length[c[2]] <= k and length[c[3]] <= k and c not in parents:
            parents[c] = None
            if goal is not None and goal(c):
                return parents, c, "target"
    frontier = list(parents)
    pruned = False
    depth = 0
    while frontier:
        if max_depth and depth == max_depth:
            return parents, None, "step-bound"
        depth += 1
        nxt = []
        for c in frontier:
            for label, succ in expand(c):
                if succ in parents:
                    continue
                if length[succ[2]] > k or length[succ[3]] > k:
                    pruned = True
                    continue
                if max_nodes is not None and len(parents) >= max_nodes:
                    return parents, None, "budget"
                parents[succ] = (label, c)
                if goal is not None and goal(succ):
                    return parents, succ, "target"
                nxt.append(succ)
        frontier = nxt
    return parents, None, "length-bound" if pruned else "closure"


def _path(s, parents, end):
    """The run from a start of `_bfs` to node `end`, along the recorded
    parents, decoded to configurations."""
    steps = []
    while parents[end] is not None:
        label, prev = parents[end]
        steps.append((label, s.config(end)))
        end = prev
    steps.reverse()
    return Run(s.config(end), tuple(steps))


def bounded_reach(inst, bound, mode=LOSSY):
    """Layer-synchronous BFS from the initial constraint to the final one.

    The verdict's reason is the search's stop; a closure that dropped an
    initial word longer than the bound gives "initial-truncation".
    """
    s = inst.system
    expand = _stepper(s, mode)
    initials, dropped = _initial_nodes(inst, bound)
    p_fi, q_fi = inst.p_fi, inst.q_fi
    up, vp = s.words.column(inst.Up), s.words.column(inst.Vp)

    def is_target(n):
        return n[0] == p_fi and n[1] == q_fi and up[n[2]] and vp[n[3]]

    parents, hit, stop = _bfs(s.words, initials, expand, bound.max_channel_len,
                              is_target, bound.max_steps)
    if hit is not None:
        return Verdict(REACHABLE, _path(s, parents, hit), stop)
    if stop != "closure":
        return Verdict(NOT_WITHIN_BOUND, reason=stop)
    if dropped:
        return Verdict(NOT_WITHIN_BOUND, reason="initial-truncation")
    return Verdict(UNREACHABLE, reason=stop)


def reachable_set(s, starts, bound, mode=LOSSY):
    """All configurations reachable from `starts` within the channel bound."""
    parents, _, _ = _bfs(s.words, [s.node(c) for c in starts],
                         _stepper(s, mode), bound.max_channel_len,
                         max_depth=bound.max_steps)
    return {s.config(n) for n in parents}


def bounded_graph(s, starts, bound, mode=LOSSY):
    """One forward `_bfs` from the configurations `starts` within the
    channel bound.  Returns the system's word table, each node found mapped
    to its configuration in discovery order, and the reverse edges, each
    node mapped to its (label, predecessor) pairs."""
    forward = _stepper(s, mode)
    rev = {}

    def expand(n):
        out = forward(n)
        for label, succ in out:
            rev.setdefault(succ, []).append((label, n))
        return out

    parents, _, _ = _bfs(s.words, [s.node(c) for c in starts], expand,
                         bound.max_channel_len)
    return s.words, {n: s.config(n) for n in parents}, rev


def coreach_in(graph, targets, bound):
    """Configurations of a `bounded_graph` from which one satisfying the
    predicate `targets` is reachable in at most `bound.max_steps` steps
    (0 = no limit), by one backward `_bfs` over its reverse edges."""
    words, configs, rev = graph
    parents, _, _ = _bfs(words, [n for n, c in configs.items() if targets(c)],
                         lambda n: rev.get(n, ()), bound.max_channel_len,
                         max_depth=bound.max_steps)
    return {configs[n] for n in parents}


def bounded_recurrent(s, p_in, q_in, p, q, bound, max_states=None, mode=LOSSY):
    """Search for a stem plus a cycle through a configuration with control
    pair (p, q) inside the bounded graph; None when not found.

    Anchors are tried in `_bfs` discovery order, so the stem is a shortest
    one; an anchor's cycle is the shortest way back to it, found by a `_bfs`
    from its successors.
    """
    k = bound.max_channel_len
    expand = _stepper(s, mode)
    start = s.node(Configuration(p_in, q_in, (), ()))
    parents, _, stop = _bfs(s.words, [start], expand, k, max_nodes=max_states)
    if stop == "budget":
        return None
    for anchor in parents:
        if anchor[0] != p or anchor[1] != q:
            continue
        out = expand(anchor)
        found, hit, _ = _bfs(s.words, [succ for _, succ in out], expand, k,
                             goal=lambda n: n == anchor)
        if hit is None:
            continue
        back = _path(s, found, anchor)
        first = s.node(back.start)
        label = next(lab for lab, succ in out if succ == first)
        cycle = Run(s.config(anchor), ((label, back.start),) + back.steps)
        return LassoWitness(_path(s, parents, anchor), cycle)
    return None


def ucs_recurrent_decide(s, p_in, q_in, p, q, reach_oracle):
    """Exact recurrent-reachability decision for test-free systems.

    True iff some configuration with control pair (p, q) is reachable
    (answered by `reach_oracle(s, p_in, q_in, p, q)`) and either p lies on a
    cycle of Sender's rule graph or q lies on a Receiver cycle built from
    rules that consume nothing.
    """
    if any(r.action.kind == "test" for r in s.rules):
        raise InputError("recurrent decision procedure requires a test-free system")
    if not reach_oracle(s, p_in, q_in, p, q):
        return False
    if _on_cycle(p, [(r.source, r.target) for r in s.sender_rules]):
        return True
    nop_edges = [(r.source, r.target) for r in s.receiver_rules
                 if r.action.kind == "nop"]
    return _on_cycle(q, nop_edges)


def _on_cycle(state, edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    seen = set()
    frontier = list(adj.get(state, ()))
    while frontier:
        cur = frontier.pop()
        if cur == state:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        frontier.extend(adj.get(cur, ()))
    return False


def control_pair_oracle(bound, mode=LOSSY):
    """Bounded realization of "some (p, q, ., .) is reachable"."""
    def oracle(s, p_in, q_in, p, q):
        anyw = Nfa.all_words(s.alphabet)
        eps = Nfa.literal((), s.alphabet)
        inst = ReachInstance(s, p_in, p, q_in, q, eps, eps, anyw, anyw)
        return bounded_reach(inst, bound, mode).reachable

    return oracle
