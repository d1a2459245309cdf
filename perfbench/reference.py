"""Independent bounded search that gives each case its known answer.

Written from the paper's step semantics, without `ucst`: a Sender writes to
the reliable channel r and the lossy channel l, a Receiver reads their heads,
and either side may test a channel's contents against a regular language.
Under the lossy semantics any single letter of l may vanish at any time;
under the write-lossy semantics a write to l may vanish as it is made; the
reliable semantics loses nothing.

The search keeps every configuration whose channels hold at most `bound`
letters.  Its answer is REACHABLE when a target configuration lies in that
set, UNREACHABLE when the set is closed (no step and no admissible initial
word was cut off by the bound) and holds no target, and NOT-WITHIN-BOUND
otherwise.
"""

from itertools import product

from corpus import language

REACHABLE = "REACHABLE"
UNREACHABLE = "UNREACHABLE"
NOT_WITHIN_BOUND = "NOT-WITHIN-BOUND"


def _words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


def _initial_words(alphabet, regex, bound):
    """Admissible words of length <= bound, and whether a longer one exists."""
    member, longest = language(regex)
    cut = longest is None or longest > bound
    reach = bound if cut else longest
    return [w for w in _words(alphabet, reach) if member(w)], cut


def _steps(case):
    """Sender and Receiver tables: control state -> its moves as (channel,
    kind, arg, target), with each test's regex turned into its predicate."""
    sender, receiver = {}, {}
    for agent, src, channel, kind, arg, dst in case.rules:
        if kind == "test":
            arg = language(arg)[0]
        table = sender if agent == "s" else receiver
        table.setdefault(src, []).append((channel, kind, arg, dst))
    return sender, receiver


def successors(sender, receiver, mode, config):
    """All configurations one step after `config`."""
    p, q, u, v = config
    out = []
    for channel, kind, arg, dst in sender.get(p, ()):
        content = u if channel == "r" else v
        if kind == "nop" or (kind == "test" and arg(content)):
            out.append((dst, q, u, v))
        elif kind == "write":
            if channel == "r":
                out.append((dst, q, u + (arg,), v))
            else:
                out.append((dst, q, u, v + (arg,)))
                if mode == "write-lossy":
                    out.append((dst, q, u, v))
    for channel, kind, arg, dst in receiver.get(q, ()):
        content = u if channel == "r" else v
        if kind == "nop" or (kind == "test" and arg(content)):
            out.append((p, dst, u, v))
        elif kind == "read" and content[:1] == (arg,):
            if channel == "r":
                out.append((p, dst, u[1:], v))
            else:
                out.append((p, dst, u, v[1:]))
    if mode == "lossy":
        for i in range(len(v)):
            out.append((p, q, u, v[:i] + v[i + 1:]))
    return out


def answer(case):
    """REACHABLE, UNREACHABLE or NOT-WITHIN-BOUND for `case` at its own bound
    and under its own step semantics."""
    bound, mode = case.bound, case.mode
    p_in, p_fi, q_in, q_fi = case.instance
    us, cut_u = _initial_words(case.alphabet, case.constraints[0], bound)
    vs, cut_v = _initial_words(case.alphabet, case.constraints[1], bound)
    final_u = language(case.constraints[2])[0]
    final_v = language(case.constraints[3])[0]
    sender, receiver = _steps(case)
    seen = {(p_in, q_in, u, v) for u in us for v in vs}
    todo = list(seen)
    cut = cut_u or cut_v
    while todo:
        config = todo.pop()
        p, q, u, v = config
        if p == p_fi and q == q_fi and final_u(u) and final_v(v):
            return REACHABLE
        for nxt in successors(sender, receiver, mode, config):
            if len(nxt[2]) > bound or len(nxt[3]) > bound:
                cut = True
            elif nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return NOT_WITHIN_BOUND if cut else UNREACHABLE


def is_run(case, configs):
    """Each consecutive pair of `configs` (as (p, q, u, v) tuples) is one
    step of `case` under its step semantics."""
    sender, receiver = _steps(case)
    return all(b in successors(sender, receiver, case.mode, a)
               for a, b in zip(configs, configs[1:]))


def satisfies(case, first, last):
    """`first` is an initial and `last` a final configuration of `case`."""
    p_in, p_fi, q_in, q_fi = case.instance
    U, V, Up, Vp = (language(c)[0] for c in case.constraints)
    return (first[:2] == (p_in, q_in) and U(first[2]) and V(first[3])
            and last[:2] == (p_fi, q_fi) and Up(last[2]) and Vp(last[3]))
