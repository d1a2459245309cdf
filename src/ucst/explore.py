"""Bounded explicit-state oracle: forward/backward reachability and lassos.

All searches prune configurations whose channel contents exceed the bound
(pruned successors are discarded, never truncated, so every witness is a
genuine run).  A certified "unreachable" verdict is only produced when the
closure finished without pruning anything, including the enumeration of
initial words.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .model import (
    LOSSY,
    Configuration,
    Run,
    successors,
)
from .regdata import symkey

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


def _rebuild_run(parents, start_set, final):
    steps = []
    cur = final
    while cur not in start_set:
        label, prev = parents[cur]
        steps.append((label, cur))
        cur = prev
    steps.reverse()
    return Run(cur, tuple(steps))


def bounded_reach(inst, bound, mode=LOSSY):
    """Layer-synchronous BFS from the initial constraint to the final one."""
    k = bound.max_channel_len
    initials, dropped = _initial_configs(inst, bound)
    pruned = dropped

    def is_target(c):
        return (c.p == inst.p_fi and c.q == inst.q_fi
                and inst.Up.accepts(c.u) and inst.Vp.accepts(c.v))

    start_set = set(initials)
    parents = {}
    frontier = list(dict.fromkeys(initials))
    seen = set(frontier)
    for c in frontier:
        if is_target(c):
            return Verdict(REACHABLE, Run(c))
    depth = 0
    truncated = False
    while frontier:
        depth += 1
        if bound.max_steps and depth > bound.max_steps:
            truncated = True
            break
        nxt = []
        for c in frontier:
            for label, succ in successors(inst.system, c, mode):
                if len(succ.u) > k or len(succ.v) > k:
                    pruned = True
                    continue
                if succ in seen:
                    continue
                seen.add(succ)
                parents[succ] = (label, c)
                if is_target(succ):
                    return Verdict(REACHABLE, _rebuild_run(parents, start_set, succ))
                nxt.append(succ)
        frontier = nxt
    if pruned or truncated:
        return Verdict(NOT_WITHIN_BOUND)
    return Verdict(UNREACHABLE)


def reachable_set(s, starts, bound, mode=LOSSY):
    """All configurations reachable from `starts` within the channel bound."""
    k = bound.max_channel_len
    seen = set()
    frontier = []
    for c in starts:
        if len(c.u) <= k and len(c.v) <= k and c not in seen:
            seen.add(c)
            frontier.append(c)
    depth = 0
    while frontier:
        depth += 1
        if bound.max_steps and depth > bound.max_steps:
            break
        nxt = []
        for c in frontier:
            for _, succ in successors(s, c, mode):
                if len(succ.u) > k or len(succ.v) > k or succ in seen:
                    continue
                seen.add(succ)
                nxt.append(succ)
        frontier = nxt
    return seen


def all_bounded_configs(s, bound):
    """The full bounded configuration space (desk scale only)."""
    k = bound.max_channel_len
    words = [()]
    syms = sorted(set(s.alphabet), key=symkey)
    layer = [()]
    for _ in range(k):
        layer = [w + (a,) for w in layer for a in syms]
        words.extend(layer)
    return [Configuration(p, q, u, v)
            for p in s.sender_states for q in s.receiver_states
            for u in words for v in words]


def bounded_coreach(s, targets, bound, mode=LOSSY):
    """Backward closure: configurations from which `targets` is reachable.

    `targets` is a predicate on configurations.  Built as a reverse BFS
    over the induced bounded state graph on the full bounded space.
    """
    space = all_bounded_configs(s, bound)
    rev = {}
    for c in space:
        for _, succ in successors(s, c, mode):
            if len(succ.u) <= bound.max_channel_len and len(succ.v) <= bound.max_channel_len:
                rev.setdefault(succ, []).append(c)
    result = set(c for c in space if targets(c))
    frontier = deque(result)
    while frontier:
        c = frontier.popleft()
        for prev in rev.get(c, ()):
            if prev not in result:
                result.add(prev)
                frontier.append(prev)
    return result


def _tarjan_sccs(nodes, adj):
    """Iterative Tarjan; returns list of SCCs in a deterministic order."""
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
            for succ in it:
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
    start = Configuration(p_in, q_in, (), ())
    seen = {start}
    order = [start]
    adj = {}
    edge_label = {}
    frontier = deque([start])
    capped = False
    while frontier:
        c = frontier.popleft()
        outs = []
        for label, succ in successors(s, c, mode):
            if len(succ.u) > k or len(succ.v) > k:
                continue
            outs.append(succ)
            edge_label[(c, succ)] = label
            if succ not in seen:
                if max_states is not None and len(seen) >= max_states:
                    capped = True
                    continue
                seen.add(succ)
                order.append(succ)
                frontier.append(succ)
        adj[c] = outs
    if capped:
        return None
    for scc in _tarjan_sccs(order, adj):
        members = set(scc)
        has_cycle = len(scc) > 1 or any(c in adj.get(c, ()) for c in scc)
        if not has_cycle:
            continue
        anchors = [c for c in scc if c.p == p and c.q == q]
        if not anchors:
            continue
        anchor = anchors[0]
        stem = _bfs_path(adj, edge_label, start, anchor, within=None)
        cycle = _cycle_through(adj, edge_label, anchor, members)
        return LassoWitness(stem, cycle)
    return None


def _bfs_path(adj, edge_label, start, goal, within):
    if start == goal:
        return Run(start)
    parents = {start: None}
    frontier = deque([start])
    while frontier:
        c = frontier.popleft()
        for succ in adj.get(c, ()):
            if within is not None and succ not in within:
                continue
            if succ in parents:
                continue
            parents[succ] = c
            if succ == goal:
                steps = []
                cur = succ
                while parents[cur] is not None:
                    prev = parents[cur]
                    steps.append((edge_label[(prev, cur)], cur))
                    cur = prev
                steps.reverse()
                return Run(start, tuple(steps))
            frontier.append(succ)
    raise RuntimeError("path requested between unconnected configurations")


def _cycle_through(adj, edge_label, anchor, members):
    """Shortest nonempty cycle anchor -> ... -> anchor inside one SCC."""
    best = None
    for succ in adj.get(anchor, ()):
        if succ not in members:
            continue
        if succ == anchor:
            return Run(anchor, ((edge_label[(anchor, anchor)], anchor),))
        back = _bfs_path(adj, edge_label, succ, anchor, within=members)
        candidate = Run(anchor, ((edge_label[(anchor, succ)], succ),) + back.steps)
        if best is None or len(candidate) < len(best):
            best = candidate
    if best is None:
        raise RuntimeError("anchor has no cycle inside its SCC")
    return best


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
    from .model import ReachInstance
    from .regdata import Nfa

    def oracle(s, p_in, q_in, p, q):
        anyw = Nfa.all_words(s.alphabet)
        eps = Nfa.literal((), s.alphabet)
        inst = ReachInstance(s, p_in, p, q_in, q, eps, eps, anyw, anyw)
        return bounded_reach(inst, bound, mode).reachable

    return oracle
