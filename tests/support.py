"""Helpers that only the tests use: brute-force references, random walks and
walks over total DFAs.  None of them is part of the toolkit."""

from collections import deque

from ucst.errors import InputError
from ucst.explore import bounded_graph, coreach_in, reachable_nodes
from ucst.model import LOSSY, Run, successors, validate_run
from ucst.pep import (
    is_pre_solution,
    is_solution,
    postpone_stabilize,
    run_from_postpone_stable,
)
from ucst.reductions import bridge_context
from ucst.regdata import Nfa, language_equal, symkey
from ucst.validate import CheckResult

# -- bounded reachable sets ------------------------------------------------------


def reachable_set(s, starts, bound, mode=LOSSY):
    """The configurations reachable from `starts` within the channel bound:
    `reachable_nodes`, decoded."""
    return {s.config(n) for n in reachable_nodes(s, starts, bound, mode)}


def coreach_set(s, starts, targets, bound, mode=LOSSY):
    """`coreach_in` over the `bounded_graph` of the configurations `starts`
    whose channels fit the bound, with the configurations `targets`: starts
    and targets numbered, the answer decoded to configurations."""
    k = bound.max_channel_len
    nodes = [s.node(c) for c in starts if len(c.u) <= k and len(c.v) <= k]
    graph = bounded_graph(s, nodes, bound, mode)
    return {s.config(n)
            for n in coreach_in(graph, [s.node(c) for c in targets], bound)}


# -- total DFAs (`Nfa.determinize`) ---------------------------------------------


def dfa_run(dfa, word, state=None):
    """The state a total DFA reaches on `word` from `state` (default: its
    initial state), walking `dfa.transitions`."""
    cur = dfa.initial if state is None else state
    for sym in word:
        cur = dfa.transitions[(cur, sym)]
    return cur


def dfa_accepts(dfa, word):
    return dfa_run(dfa, word) in dfa.accepting


def dfa_distances(dfa):
    """Per state, the length of a shortest accepted continuation (None if
    dead), by a backward breadth-first search over `dfa.transitions`."""
    rev = {}
    for (src, _), dst in dfa.transitions.items():
        rev.setdefault(dst, set()).add(src)
    dist = {s: 0 for s in dfa.accepting}
    queue = deque(sorted(dfa.accepting))
    while queue:
        s = queue.popleft()
        for t in rev.get(s, ()):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return [dist.get(s) for s in range(dfa.n_states)]


# -- languages and instances ----------------------------------------------------


def language_subset(a, b):
    """L(a) <= L(b)."""
    if set(a.alphabet) != set(b.alphabet):
        raise InputError("language comparison requires equal alphabets")
    diff = a.intersect(b.complement())
    return diff.distance(diff.initial_subset()) is None


def instance_equal(a, b):
    """Structural equality up to constraint-language equality."""
    sa, sb = a.system, b.system
    if (sa.alphabet, sa.sender_states, sa.receiver_states) != \
            (sb.alphabet, sb.sender_states, sb.receiver_states):
        return False
    if len(sa.rules) != len(sb.rules) or sa.n_sender_rules != sb.n_sender_rules:
        return False
    for ra, rb in zip(sa.rules, sb.rules):
        if (ra.source, ra.target, ra.channel, ra.action.kind,
                ra.action.msg) != (rb.source, rb.target, rb.channel,
                                   rb.action.kind, rb.action.msg):
            return False
        if ra.action.kind == "test" and not language_equal(ra.action.lang,
                                                           rb.action.lang):
            return False
    if (a.p_in, a.p_fi, a.q_in, a.q_fi) != (b.p_in, b.p_fi, b.q_in, b.q_fi):
        return False
    return all(language_equal(x, y)
               for x, y in zip(a.constraints(), b.constraints()))


def _path_nfa(states, rules, rule_letters, start, goal, sigma):
    idx = {st: i for i, st in enumerate(states)}
    trans = [(idx[rule.source], letter, idx[rule.target])
             for rule, letter in zip(rules, rule_letters)]
    return Nfa(sigma, len(states), {idx[start]}, {idx[goal]}, trans)


def _r_parts(ctx):
    """E_r*, P1 and P2, the automata whose product is R.  E_r* alternates
    r-silent letters with write/read pairs on r; a middle state remembers
    the written letter, one state per such letter."""
    inst, sigma = ctx.instance, ctx.letters
    s = inst.system
    n1 = s.n_sender_rules
    p1 = _path_nfa(s.sender_states, s.sender_rules, sigma[:n1],
                   inst.p_in, inst.p_fi, sigma)
    p2 = _path_nfa(s.receiver_states, s.receiver_rules, sigma[n1:],
                   inst.q_in, inst.q_fi, sigma)
    written = tuple(dict.fromkeys(
        ctx.write_r[a][0] for a in sigma if ctx.write_r[a]))
    mid = {sym: i + 1 for i, sym in enumerate(written)}
    trans = []
    for a in sigma:
        if not ctx.write_r[a] and not ctx.read_r[a]:
            trans.append((0, a, 0))
        elif ctx.write_r[a]:
            trans.append((0, a, mid[ctx.write_r[a][0]]))
    for a in sigma:
        if ctx.read_r[a] and ctx.read_r[a][0] in mid:
            trans.append((mid[ctx.read_r[a][0]], a, 0))
    return Nfa(sigma, 1 + len(written), {0}, {0}, trans), p1, p2


def shuffle_built_r(inst):
    """The R and R′ of `ucst_to_pep(inst)` built from their parts, as
    `er_star.intersect(p1.shuffle(p2))` and `one_of(test letters) ·
    all_words(sigma)`, together with E_r*."""
    ctx = bridge_context(inst)
    er_star, p1, p2 = _r_parts(ctx)
    rp = Nfa.one_of(sorted(ctx.test_letters), ctx.letters).concat(
        Nfa.all_words(ctx.letters))
    return er_star.intersect(p1.shuffle(p2)), rp, er_star


# -- runs and solutions ---------------------------------------------------------


def random_lossy_run(rng, system, start, max_steps, mode="lossy"):
    """Random walk through `successors`; returns a validating Run."""
    cur = start
    steps = []
    for _ in range(max_steps):
        succ = successors(system, cur, mode)
        if not succ:
            break
        label, nxt = rng.choice(succ)
        steps.append((label, nxt))
        cur = nxt
    return Run(start, tuple(steps))


def enumerate_solutions(inst, max_len):
    """Brute-force list of every solution of length <= max_len."""
    letters = sorted(inst.sigma, key=symkey)
    out = []
    layer = [()]
    for _ in range(max_len + 1):
        for word in layer:
            if is_solution(inst, word):
                out.append(word)
        layer = [w + (a,) for w in layer for a in letters]
    return out


def check_solution_transport(ctx, pep, max_len):
    """Every solution up to max_len maps back to a validating run."""
    result = CheckResult("solution transport")
    for word in enumerate_solutions(pep, max_len):
        ok, tag = is_pre_solution(ctx, word)
        if not ok:
            result.failed += 1
            result.notes.append(f"solution {word} violates {tag}")
            continue
        try:
            run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, word))
        except Exception as exc:  # replay failures are findings, not crashes
            result.failed += 1
            result.notes.append(f"solution {word}: {exc}")
            continue
        if validate_run(ctx.instance.system, run, LOSSY):
            result.passed += 1
        else:
            result.failed += 1
            result.notes.append(f"solution {word}: replay does not validate")
    return result


# -- queue automata and rewriting systems ---------------------------------------


def queue_reaches_final_empty(qa, max_queue, max_steps=10000):
    """Bounded check on a `QueueAutomaton`: its final state with an empty
    queue is reachable under the fifo semantics."""

    def step(state, queue):
        out = []
        for src, kind, letter, dst in qa.rules:
            if src != state:
                continue
            if kind == "write":
                out.append((dst, queue + (letter,)))
            elif queue and queue[0] == letter:
                out.append((dst, queue[1:]))
        return out

    seen = {(qa.initial, ())}
    frontier = [(qa.initial, ())]
    for _ in range(max_steps):
        if not frontier:
            break
        nxt = []
        for state, queue in frontier:
            if state == qa.final and queue == ():
                return True
            for succ in step(state, queue):
                if len(succ[1]) <= max_queue and succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return (qa.final, ()) in seen


def thue_step(t, word):
    """All one-step rewrites of `word` under `SemiThueSystem` `t`, sorted."""
    out = set()
    for lhs, rhs in t.rules:
        start = 0
        while True:
            i = word.find(lhs, start)
            if i < 0:
                break
            out.add(word[:i] + rhs + word[i + len(lhs):])
            start = i + 1
    return sorted(out)


def thue_find_loop(t, max_len, max_steps):
    """Least word (by length, then lexicographic) that rewrites back to
    itself in at most max_steps steps, or None."""
    if not t.is_length_preserving():
        raise InputError("loop search requires a length-preserving system")
    syms = sorted(t.alphabet)
    for length in range(max_len + 1):
        words = [""]
        for _ in range(length):
            words = [w + s for w in words for s in syms]
        for word in words:
            frontier = thue_step(t, word)
            seen = set(frontier)
            for _ in range(max_steps):
                if word in seen:
                    return word
                nxt = []
                for w in frontier:
                    for w2 in thue_step(t, w):
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
                if not nxt:
                    break
                frontier = nxt
            if word in seen:
                return word
    return None
