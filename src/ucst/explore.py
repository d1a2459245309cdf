"""Bounded explicit-state oracle: forward/backward reachability and lassos.

All searches run one breadth-first core, `_bfs`, over nodes (pair id, r
word id, l word id) of the system's numbered pairs and words, a whole layer
at a time, stepped by `model.step_layer` within the channel bound: a write
that would outgrow it is discarded, never truncated, so every witness is a
genuine run, and its word is never numbered.  `_bfs` keeps only each node's
first finder; a witness gets each step's label back by stepping the finder
again with `model.step`.  Nodes become `Configuration` values only at the
edges: the configurations `reachable_nodes` and `bounded_recurrent` start
from, and witness runs.  A certified "unreachable" verdict is only produced
when the closure finished without pruning anything, including the
enumeration of initial words.

Co-reach comes in two parts, both on nodes: `bounded_graph` explores a
system's bounded graph forward from start nodes, and `coreach_in` answers
one set of target nodes backward over it, so a caller asking many targets
of one (immutable) system explores it once.  The graph may also grow by
control pairs: it expands only nodes of the pairs added so far and parks
the others until their pair is added, so a caller whose targets can be
reached from a few pairs expands only those, still each node once.  The
graph keeps reverse lists of rule moves only: a loss keeps the pair and r,
so in a lossy graph the loss predecessors of node (c, u, w) are the nodes
(c, u, j) found with j in the word table's `gained[w]`, since every node
found in an expanded pair had its l word's losses asked.
Lassos use `_bfs` too: the stem is a path of the forward search, and each
candidate anchor's cycle is a `_bfs` from its successors back to it.
"""

from dataclasses import dataclass
from itertools import product

from .errors import InputError
from .model import (
    LOSSY,
    MODES,
    RELIABLE,
    Configuration,
    Run,
    step,
    step_layer,
)

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
    s = inst.system
    number = s.words.id
    us = map(number, inst.U.words_up_to(k))
    vs = map(number, inst.V.words_up_to(k))
    dropped = inst.U.has_word_longer_than(k) or inst.V.has_word_longer_than(k)
    c = s.pair(inst.p_in, inst.q_in)
    nodes = [(c, u, v) for u, v in product(us, vs)]
    return nodes, dropped


def _stepper(s, mode, k, edges=None):
    """The layer expander of `_bfs` for system `s` in `mode` within channel
    bound `k`: `model.step_layer`, appending every edge to `edges` if it is
    given."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return lambda layer, parents: step_layer(s, layer, mode, k, parents, edges)


def _bfs(starts, expand, goal=None, max_depth=0, max_nodes=None, parents=None):
    """Layered breadth-first search from the nodes `starts`.

    Nodes are (pair id, r word id, l word id).  `expand(layer, parents)`
    expands a whole layer: it maps each successor not yet in `parents` to
    the node that found it, and returns the new layer, in discovery order,
    and whether it discarded a successor beyond the channel bound.  `goal`
    is None or (pair id, predicate); it is checked once per layer, over the
    layer in discovery order, and the predicate is asked only of nodes of
    that pair.  Returns (parents, hit, stop).  `parents` maps each node
    found, in discovery order, to its first finder, or to None for a start;
    `hit` is the first node of the first layer satisfying `goal`, else None.
    `stop` is "target", "closure" (nothing new and nothing discarded),
    "length-bound" (nothing new, but some successor was discarded),
    "step-bound" (a layer remains after `max_depth` expansions; 0 = no
    limit) or "budget" (more than `max_nodes` nodes found, checked once per
    layer).  Given `parents`, the search continues it: a start already in
    it keeps its finder, and nothing it holds is found again.
    """
    goal_pair, is_goal = goal or (-1, None)
    if parents is None:
        parents = {}
    layer = list(dict.fromkeys(starts))
    for n in layer:
        parents.setdefault(n, None)
    pruned = False
    depth = 0
    while layer:
        if is_goal is not None:
            for n in layer:
                if n[0] == goal_pair and is_goal(n):
                    return parents, n, "target"
        if max_nodes is not None and len(parents) > max_nodes:
            return parents, None, "budget"
        if max_depth and depth == max_depth:
            return parents, None, "step-bound"
        depth += 1
        layer, cut = expand(layer, parents)
        pruned = pruned or cut
    return parents, None, "length-bound" if pruned else "closure"


def _path(parents, end):
    """The nodes from a start of `_bfs` to node `end`, along the recorded
    predecessors."""
    nodes = [end]
    while parents[end] is not None:
        end = parents[end]
        nodes.append(end)
    nodes.reverse()
    return nodes


def _run(s, nodes, mode, k):
    """The run along `nodes`, decoded to configurations.  Each step's label
    is the first, in `model.step` order, that leads to the next node: the
    one `_bfs` met first."""
    steps = tuple((next(label for label, succ in step(s, prev, mode, k)[0]
                        if succ == node),
                   s.config(node)) for prev, node in zip(nodes, nodes[1:]))
    return Run(s.config(nodes[0]), steps)


def bounded_reach(inst, bound, mode=LOSSY):
    """Layer-synchronous BFS from the initial constraint to the final one.

    The verdict's reason is the search's stop; a closure that dropped an
    initial word longer than the bound gives "initial-truncation".
    """
    s = inst.system
    k = bound.max_channel_len
    expand = _stepper(s, mode, k)
    initials, dropped = _initial_nodes(inst, bound)
    up, vp = s.words.column(inst.Up), s.words.column(inst.Vp)

    def is_target(n):
        return up[n[1]] and vp[n[2]]

    parents, hit, stop = _bfs(initials, expand,
                              (s.pair(inst.p_fi, inst.q_fi), is_target),
                              bound.max_steps)
    if hit is not None:
        return Verdict(REACHABLE, _run(s, _path(parents, hit), mode, k), stop)
    if stop != "closure":
        return Verdict(NOT_WITHIN_BOUND, reason=stop)
    if dropped:
        return Verdict(NOT_WITHIN_BOUND, reason="initial-truncation")
    return Verdict(UNREACHABLE, reason=stop)


def reachable_nodes(s, starts, bound, mode=LOSSY):
    """The nodes reachable from the configurations `starts` within the
    channel bound, in discovery order (as the keys of a dict); a start whose
    channels do not fit is dropped, not shortened."""
    k = bound.max_channel_len
    nodes = [s.node(c) for c in starts if len(c.u) <= k and len(c.v) <= k]
    parents, _, _ = _bfs(nodes, _stepper(s, mode, k), max_depth=bound.max_steps)
    return parents.keys()


def bounded_graph(s, starts, bound, mode=LOSSY, pairs=None, graph=None):
    """The bounded graph of `s`, by one forward `_bfs` from the nodes
    `starts`, whose channels must fit the channel bound.

    Returns (found, rev, gained, parked): the nodes found, in discovery
    order (as the keys of a dict); the reverse rule edges, each node mapped
    to the list of its rule predecessors, one entry per edge in expansion
    order, labels dropped; in lossy mode, the word table's `gained` lists,
    from which `coreach_in` reads loss predecessors (None otherwise); and
    the nodes found but not expanded, by pair id.

    With `pairs`, a set of pair ids, the graph grows by whole pairs: only
    nodes of `pairs` are expanded, and any other node found is parked under
    its pair id.  The starts must then be nodes of `pairs` that the graph
    has not expanded, closed under loss (a loss successor of a start is a
    start); in lossy mode they are stepped by their rule moves only, so the
    caller must have asked the losses of every start's l word (as
    `Words.up_to` does) for `gained` to hold them.  Given
    the `graph` of an earlier call on `s` with the same bound and mode,
    this grows it in place and returns it: the nodes parked under `pairs`
    are expanded with the new starts, so no node is expanded twice.
    """
    k = bound.max_channel_len
    if graph is None:
        graph = {}, {}, s.words.gained if mode == LOSSY else None, {}
    found, rev, gained, parked = graph
    layer = list(dict.fromkeys(starts))
    edges = []
    step = _stepper(s, mode, k, edges)

    def expand(layer, parents):
        if pairs is not None:
            kept = []
            for n in layer:
                if n[0] in pairs:
                    kept.append(n)
                else:
                    parked.setdefault(n[0], []).append(n)
            layer = kept
        return step(layer, parents)

    if pairs is not None:
        # a start found before is parked, and is expanded as parked nodes are
        layer = [n for n in layer if n not in found]
        found.update(dict.fromkeys(layer))
        if gained is not None:
            layer, _ = step_layer(s, layer, RELIABLE, k, found, edges)
        layer = [n for c in pairs for n in parked.pop(c, ())] + layer
    _bfs(layer, expand, parents=found)
    for n, _, succ in edges:
        rev.setdefault(succ, []).append(n)
    return graph


def coreach_in(graph, targets, bound):
    """The nodes of a `bounded_graph` from which one of the nodes `targets`
    is reachable in at most `bound.max_steps` steps (0 = no limit), by one
    backward `_bfs` over its reverse rule edges and, in a lossy graph, its
    loss predecessors: the nodes found whose l word one loss turns into the
    node's.  A target outside the graph is reached from nothing and is left
    out.  In a graph grown by pairs, the answer is whole for a target when
    every pair that can reach its pair has been expanded."""
    found, rev, gained, _ = graph

    def expand(layer, parents):
        new = []
        for n in layer:
            for m in rev.get(n, ()):
                if m not in parents:
                    parents[m] = n
                    new.append(m)
            if gained is not None:
                c, u, w = n
                for j in gained[w]:
                    m = c, u, j
                    if m not in parents and m in found:
                        parents[m] = n
                        new.append(m)
        return new, False

    parents, _, _ = _bfs([n for n in targets if n in found], expand,
                         max_depth=bound.max_steps)
    return parents.keys()


def bounded_recurrent(s, p_in, q_in, p, q, bound, max_states=None, mode=LOSSY):
    """Search for a stem plus a cycle through a configuration with control
    pair (p, q) inside the bounded graph; None when not found.

    Anchors are tried in `_bfs` discovery order, so the stem is a shortest
    one; an anchor's cycle is the shortest way back to it, found by a `_bfs`
    from its successors.
    """
    k = bound.max_channel_len
    expand = _stepper(s, mode, k)
    start = s.node(Configuration(p_in, q_in, (), ()))
    parents, _, stop = _bfs([start], expand, max_nodes=max_states)
    if stop == "budget":
        return None
    pair = s.pair(p, q)
    for anchor in parents:
        if anchor[0] != pair:
            continue
        out, _ = step(s, anchor, mode, k)
        found, hit, _ = _bfs([succ for _, succ in out], expand,
                             (pair, lambda n: n == anchor))
        if hit is None:
            continue
        cycle = _run(s, [anchor] + _path(found, anchor), mode, k)
        return LassoWitness(_run(s, _path(parents, anchor), mode, k), cycle)
    return None

