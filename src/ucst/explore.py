"""Bounded explicit-state oracle: forward and backward reachability.

All searches run one breadth-first core, `_bfs` (inlined in
`bounded_graph`), over nodes (pair id, r word id, l word id) of the
system's numbered pairs and words, a whole layer at a time, stepped by
`model.step_layer` within the channel bound: a write that would outgrow it
is discarded, never truncated, so every witness is a genuine run, and its
word is never numbered.  `_bfs` keeps only each node's
first finder; a witness gets each step's label back by stepping the finder
again with `model.step`.  Nodes become `Configuration` values only at the
edges: the configurations `reachable_nodes` starts from, and witness runs.
A certified "unreachable" verdict is only produced when the closure
finished without pruning anything, including the enumeration of initial
words.

Co-reach comes in two parts, both on nodes: `bounded_graph` explores a
system's bounded graph forward once from start nodes, and `coreach_in`
answers one set of target nodes backward over it, so a caller asking many
targets of one (immutable) system explores it once.  The graph keeps
reverse lists of rule moves only: a loss keeps the pair and r, so in a
lossy graph the loss predecessors of node (c, u, w) are the nodes (c, u,
j) found with j in the word table's `gained[w]`, since the losses of the
l words of the starts and of every node expanded were asked.
"""

from itertools import product
from typing import NamedTuple

from .errors import InputError
from .model import (
    LOSSY,
    MODES,
    RELIABLE,
    Run,
    step,
    step_layer,
)

REACHABLE = "reachable"
NOT_WITHIN_BOUND = "not-within-bound"
UNREACHABLE = "unreachable"


class _BoundFields(NamedTuple):
    max_channel_len: int
    max_steps: int = 0  # 0 = unlimited within the channel-bounded space


class Bound(_BoundFields):
    __slots__ = ()

    def __new__(cls, max_channel_len, max_steps=0):
        if max_channel_len < 0 or max_steps < 0:
            raise InputError("bounds must be nonnegative")
        return super().__new__(cls, max_channel_len, max_steps)


class Verdict(NamedTuple):
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
        return self.status.upper()


def _initial_nodes(inst, bound):
    """Initial nodes by length-lexicographic word enumeration.

    Second result is True when some admissible initial word was dropped
    because it is longer than the channel bound.
    """
    k = bound.max_channel_len
    s = inst.system
    number = s.words.id
    us, u_longer = inst.U.words_up_to(k)
    vs, v_longer = inst.V.words_up_to(k)
    c = s.pair(inst.p_in, inst.q_in)
    nodes = [(c, u, v) for u, v in product(map(number, us), map(number, vs))]
    return nodes, u_longer or v_longer


def _stepper(s, mode, k, edges=None):
    """The layer expander of `_bfs` for system `s` in `mode` within channel
    bound `k`: `model.step_layer`, appending every edge to `edges` if it is
    given."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return lambda layer, parents: step_layer(s, layer, mode, k, parents, edges)


def _bfs(starts, expand, goal=None, max_depth=0, max_nodes=None):
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
    layer).
    """
    goal_pair, is_goal = goal or (-1, None)
    parents = dict.fromkeys(starts)
    layer = list(parents)
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


def bounded_graph(s, starts, bound, mode=LOSSY):
    """One forward breadth-first pass from the nodes `starts`, whose
    channels must fit the channel bound.  Returns the nodes found, in
    discovery order (as the keys of a dict); the reverse rule edges, each
    node mapped to the list of its rule predecessors, one entry per edge in
    expansion order, labels dropped; and, in lossy mode, the word table's
    `gained` lists, from which `coreach_in` reads loss predecessors (None
    otherwise).

    In lossy mode the starts must be closed under loss, with their l words'
    losses asked (as `Words.up_to` leaves them): one loss of a start's l
    word gives the l word of a start with the same pair and r word.  Their
    loss moves would find nothing new, so the start layer steps its rules
    only, and the later layers run the layer loop of `_bfs`."""
    k = bound.max_channel_len
    edges = []
    expand = _stepper(s, mode, k, edges)
    parents = dict.fromkeys(starts)
    layer, _ = step_layer(s, list(parents), RELIABLE if mode == LOSSY else mode,
                          k, parents, edges)
    while layer:
        layer, _ = expand(layer, parents)
    rev = {}
    for n, _, succ in edges:
        rev.setdefault(succ, []).append(n)
    return parents.keys(), rev, s.words.gained if mode == LOSSY else None


def coreach_in(graph, targets, bound):
    """The nodes of a `bounded_graph` from which one of the nodes `targets`
    is reachable in at most `bound.max_steps` steps (0 = no limit), by one
    backward `_bfs` over its reverse rule edges and, in a lossy graph, its
    loss predecessors: the nodes found whose l word one loss turns into the
    node's.  A target outside the graph is reached from nothing and is left
    out."""
    found, rev, gained = graph

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
