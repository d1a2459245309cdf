"""Bounded explicit-state oracle: forward/backward reachability and lassos.

All searches run one breadth-first core, `_bfs`, which prunes configurations
whose channel contents exceed the bound (pruned successors are discarded,
never truncated, so every witness is a genuine run).  A certified
"unreachable" verdict is only produced when the closure finished without
pruning anything, including the enumeration of initial words.

Co-reach comes in two parts: `bounded_graph` explores a system's bounded
graph forward once, and `coreach_in` answers one target backward over it, so
a caller asking many targets of one (immutable) system explores it once.
"""

from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .model import (
    LOSSY,
    Configuration,
    ReachInstance,
    Run,
    successors,
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
    status: str
    witness: Run = None

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


def _initial_configs(inst, bound):
    """Initial configurations by length-lexicographic word enumeration.

    Second result is True when some admissible initial word was dropped
    because it is longer than the channel bound.
    """
    k = bound.max_channel_len
    us = inst.U.words_up_to(k)
    vs = inst.V.words_up_to(k)
    dropped = inst.U.has_word_longer_than(k) or inst.V.has_word_longer_than(k)
    configs = [Configuration(inst.p_in, inst.q_in, u, v)
               for u, v in product(us, vs)]
    return configs, dropped


def _bfs(starts, step, k, goal=None, max_depth=0, max_nodes=None):
    """Layered breadth-first search over configurations whose channels fit in `k`.

    `step(c)` yields (label, successor) pairs; successors beyond the bound are
    discarded.  Returns (parents, hit, stop).  `parents` maps each configuration
    found, in discovery order, to (label, predecessor), or to None for a start;
    `hit` is the first configuration satisfying `goal`, else None.  `stop` is
    "target", "closure" (nothing new and nothing discarded), "length-bound"
    (nothing new, but some successor was discarded), "step-bound" (a layer
    remains after `max_depth` expansions; 0 = no limit) or "budget" (a new
    configuration found with `max_nodes` already known).
    """
    parents = {}
    for c in starts:
        if len(c.u) <= k and len(c.v) <= k and c not in parents:
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
            for label, succ in step(c):
                if len(succ.u) > k or len(succ.v) > k:
                    pruned = True
                    continue
                if succ in parents:
                    continue
                if max_nodes is not None and len(parents) >= max_nodes:
                    return parents, None, "budget"
                parents[succ] = (label, c)
                if goal is not None and goal(succ):
                    return parents, succ, "target"
                nxt.append(succ)
        frontier = nxt
    return parents, None, "length-bound" if pruned else "closure"


def _path(parents, end):
    """The run from a start of `_bfs` to `end`, along the recorded parents."""
    steps = []
    while parents[end] is not None:
        label, prev = parents[end]
        steps.append((label, end))
        end = prev
    steps.reverse()
    return Run(end, tuple(steps))


def bounded_reach(inst, bound, mode=LOSSY):
    """Layer-synchronous BFS from the initial constraint to the final one."""
    s = inst.system
    initials, dropped = _initial_configs(inst, bound)

    def is_target(c):
        return (c.p == inst.p_fi and c.q == inst.q_fi
                and inst.Up.accepts(c.u) and inst.Vp.accepts(c.v))

    parents, hit, stop = _bfs(initials, lambda c: successors(s, c, mode),
                              bound.max_channel_len, is_target, bound.max_steps)
    if hit is not None:
        return Verdict(REACHABLE, _path(parents, hit))
    if dropped or stop != "closure":
        return Verdict(NOT_WITHIN_BOUND)
    return Verdict(UNREACHABLE)


def reachable_set(s, starts, bound, mode=LOSSY):
    """All configurations reachable from `starts` within the channel bound."""
    parents, _, _ = _bfs(starts, lambda c: successors(s, c, mode),
                         bound.max_channel_len, max_depth=bound.max_steps)
    return set(parents)


def bounded_graph(s, starts, bound, mode=LOSSY):
    """One forward `_bfs` from `starts` within the channel bound: returns the
    configurations it found and the reverse edges between them, each
    configuration mapped to its (label, predecessor) pairs."""
    rev = {}

    def step(c):
        out = successors(s, c, mode)
        for label, succ in out:
            rev.setdefault(succ, []).append((label, c))
        return out

    configs, _, _ = _bfs(starts, step, bound.max_channel_len)
    return configs, rev


def coreach_in(graph, targets, bound):
    """Configurations of a `bounded_graph` from which one satisfying the
    predicate `targets` is reachable in at most `bound.max_steps` steps
    (0 = no limit), by one backward `_bfs` over its reverse edges."""
    configs, rev = graph
    parents, _, _ = _bfs([c for c in configs if targets(c)],
                         lambda c: rev.get(c, ()), bound.max_channel_len,
                         max_depth=bound.max_steps)
    return set(parents)


def bounded_coreach(s, starts, targets, bound, mode=LOSSY):
    """Configurations reachable from `starts` within the channel bound from
    which a configuration satisfying the predicate `targets` is reachable in
    at most `bound.max_steps` steps (0 = no limit)."""
    return coreach_in(bounded_graph(s, starts, bound, mode), targets, bound)


def _tarjan_sccs(nodes, adj):
    """Iterative Tarjan over `adj`: node -> (label, successor) pairs; returns
    the list of SCCs in a deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for _, succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def bounded_recurrent(s, p_in, q_in, p, q, bound, max_states=None, mode=LOSSY):
    """Search for a stem plus a cycle through a configuration with control
    pair (p, q) inside the bounded graph; None when not found."""
    k = bound.max_channel_len
    adj = {}

    def step(c):
        adj[c] = [(label, succ) for label, succ in successors(s, c, mode)
                  if len(succ.u) <= k and len(succ.v) <= k]
        return adj[c]

    start = Configuration(p_in, q_in, (), ())
    parents, _, stop = _bfs([start], step, k, max_nodes=max_states)
    if stop == "budget":
        return None
    for scc in _tarjan_sccs(parents, adj):
        if len(scc) == 1 and all(succ != scc[0] for _, succ in adj[scc[0]]):
            continue
        anchor = next((c for c in scc if c.p == p and c.q == q), None)
        if anchor is None:
            continue
        # shortest cycle: the nearest of the anchor's successors in its SCC
        members = set(scc)
        found, hit, _ = _bfs([succ for _, succ in adj[anchor] if succ in members],
                             lambda c: [e for e in adj[c] if e[1] in members],
                             k, goal=lambda c: c == anchor)
        if hit is None:
            raise RuntimeError("anchor has no cycle inside its SCC")
        back = _path(found, anchor)
        label = next(lab for lab, succ in adj[anchor] if succ == back.start)
        return LassoWitness(_path(parents, anchor),
                            Run(anchor, ((label, back.start),) + back.steps))
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
