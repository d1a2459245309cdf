"""Post embedding with partial codirectness, and the bridge calculus to runs.

An instance asks for a word in R whose image under `u` embeds (as a
scattered subword) in its image under `v`, with the same embedding required
of every suffix that falls in R'.  Rule words of a channel-system instance
sit between runs and solutions: `is_pre_solution` checks the five path and
channel conditions, the two stabilizers normalize a pre-solution by swapping
adjacent Sender/Receiver letters, and the replay turns a postpone-stable
word back into a validating run by inserting head losses lazily.
"""

from dataclasses import dataclass

from .errors import InputError, ReplayError
from .model import (
    LOSS,
    LOSSY,
    SENDER,
    Configuration,
    Run,
    successors,
    validate_run,
)
from .regdata import Nfa, subword, symkey

__all__ = [
    "PepInstance", "PreSolutionContext", "is_solution", "bounded_solve",
    "enumerate_solutions", "is_pre_solution", "advance_stabilize",
    "postpone_stabilize", "run_from_postpone_stable", "run_to_presolution",
]


@dataclass
class PepInstance:
    sigma: tuple
    gamma: tuple
    u: dict  # letter -> word over gamma
    v: dict  # letter -> word over gamma
    R: Nfa   # over sigma
    Rp: Nfa  # over sigma

    def __post_init__(self):
        self.sigma = tuple(dict.fromkeys(self.sigma))
        self.gamma = tuple(dict.fromkeys(self.gamma))
        sig, gam = set(self.sigma), set(self.gamma)
        for mapping in (self.u, self.v):
            if set(mapping) != sig:
                raise InputError("morphism must be total on sigma")
            for image in mapping.values():
                if not set(image) <= gam:
                    raise InputError("morphism image outside gamma")
        if set(self.R.alphabet) != sig or set(self.Rp.alphabet) != sig:
            raise InputError("constraint alphabets must equal sigma")

    def image_u(self, word):
        out = ()
        for a in word:
            out += tuple(self.u[a])
        return out

    def image_v(self, word):
        out = ()
        for a in word:
            out += tuple(self.v[a])
        return out


def is_solution(inst, word):
    """word in R, u embeds in v, and likewise for every suffix in R'."""
    if not inst.R.accepts(word):
        return False
    if not subword(inst.image_u(word), inst.image_v(word)):
        return False
    for i in range(len(word) + 1):
        tail = word[i:]
        if inst.Rp.accepts(tail) and not subword(inst.image_u(tail),
                                                 inst.image_v(tail)):
            return False
    return True


def _embed_residual(pending, written):
    """Greedy left-to-right matching; returns the unmatched tail of pending."""
    i = 0
    for sym in written:
        if i < len(pending) and pending[i] == sym:
            i += 1
    return pending[i:]


def bounded_solve(inst, max_len):
    """Length-lexicographically least solution of length <= max_len, or None.

    BFS over solver states (R-DFA state, unmatched u-residual, suffix
    obligations); states reached by several prefixes are merged, keeping the
    lexicographically least witness prefix.
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    rdfa = inst.R.determinize()
    rpdfa = inst.Rp.determinize()
    rdist = rdfa.distances_to_accepting()
    rp_alive = [d is not None for d in rpdfa.distances_to_accepting()]
    letters = sorted(inst.sigma, key=symkey)
    max_write = max((len(inst.v[a]) for a in letters), default=0)

    def accepted(state):
        rs, residual, obligations = state
        if rs not in rdfa.accepting or residual != ():
            return False
        return all(res == () for st, res in obligations
                   if st in rpdfa.accepting)

    init = (rdfa.initial, (), frozenset())
    if rdist[rdfa.initial] is None:
        return None
    frontier = [(init, ())]
    seen = {init}
    if accepted(init):
        return ()
    for length in range(1, max_len + 1):
        nxt = []
        nxt_seen = {}
        for (rs, residual, obligations), word in frontier:
            for a in letters:
                rs2 = rdfa.step(rs, a)
                remaining = max_len - length
                if rdist[rs2] is None or rdist[rs2] > remaining:
                    continue
                ua, va = tuple(inst.u[a]), tuple(inst.v[a])
                res2 = _embed_residual(residual + ua, va)
                if len(res2) > remaining * max_write:
                    continue
                obl2 = set()
                for st, res in obligations:
                    st2 = rpdfa.step(st, a)
                    if rp_alive[st2]:
                        obl2.add((st2, _embed_residual(res + ua, va)))
                st0 = rpdfa.step(rpdfa.initial, a)
                if rp_alive[st0]:
                    obl2.add((st0, _embed_residual(ua, va)))
                state2 = (rs2, res2, frozenset(obl2))
                if state2 in seen or state2 in nxt_seen:
                    continue
                nxt_seen[state2] = True
                nxt.append((state2, word + (a,)))
        for state2, word in nxt:
            if accepted(state2):
                return word
        seen.update(nxt_seen)
        frontier = nxt
    return None


def enumerate_solutions(inst, max_len):
    """Brute-force list of every solution of length <= max_len."""
    letters = sorted(inst.sigma, key=symkey)
    out = []
    layer = [()]
    for length in range(max_len + 1):
        for word in layer:
            if is_solution(inst, word):
                out.append(word)
        layer = [w + (a,) for w in layer for a in letters]
    return out


# -- pre-solutions ---------------------------------------------------------------


@dataclass
class PreSolutionContext:
    """Per-letter projections of a channel-system instance onto the PEP side."""

    instance: object          # the source empty-to-empty ReachInstance
    letters: tuple            # sigma, in rule-id order
    rule_ids: dict            # letter -> rule id
    read_r: dict              # letter -> word over M
    write_r: dict
    read_l: dict
    write_l: dict
    test_letters: frozenset   # letters of Sender's l-emptiness tests

    def agent(self, letter):
        return self.instance.system.agent_of(self.rule_ids[letter])

    def rule(self, letter):
        return self.instance.system.rule(self.rule_ids[letter])

    def project(self, mapping, word):
        out = ()
        for a in word:
            out += tuple(mapping[a])
        return out


def _path_ok(rules_word, start, goal):
    cur = start
    for rule in rules_word:
        if rule.source != cur:
            return False
        cur = rule.target
    return cur == goal


def is_pre_solution(ctx, word):
    """(ok, first violated condition tag or None)."""
    for a in word:
        if a not in ctx.rule_ids:
            raise InputError(f"letter {a!r} not in this context")
    sender_rules = [ctx.rule(a) for a in word if ctx.agent(a) == SENDER]
    receiver_rules = [ctx.rule(a) for a in word if ctx.agent(a) != SENDER]
    if not _path_ok(sender_rules, ctx.instance.p_in, ctx.instance.p_fi):
        return False, "c1"
    if not _path_ok(receiver_rules, ctx.instance.q_in, ctx.instance.q_fi):
        return False, "c1"
    if ctx.project(ctx.read_r, word) != ctx.project(ctx.write_r, word):
        return False, "c2"
    reads, writes = (), ()
    for a in word:
        reads += tuple(ctx.read_r[a])
        writes += tuple(ctx.write_r[a])
        if reads != writes[:len(reads)]:
            return False, "c3"
    if not subword(ctx.project(ctx.read_l, word), ctx.project(ctx.write_l, word)):
        return False, "c4"
    for i, a in enumerate(word):
        if a in ctx.test_letters:
            tail = word[i + 1:]
            if not subword(ctx.project(ctx.read_l, tail),
                           ctx.project(ctx.write_l, tail)):
                return False, "c5"
    return True, None


def _stabilize(ctx, word, sender_first):
    ok, tag = is_pre_solution(ctx, word)
    if not ok:
        raise InputError(f"not a pre-solution (violates {tag})")
    word = tuple(word)
    for _ in range(len(word) * len(word) + 1):
        for i in range(len(word) - 1):
            first_sender = ctx.agent(word[i]) == SENDER
            second_sender = ctx.agent(word[i + 1]) == SENDER
            if first_sender == sender_first and second_sender != sender_first:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                if is_pre_solution(ctx, swapped)[0]:
                    word = swapped
                    break
        else:
            return word
    raise RuntimeError("stabilization exceeded its switch budget")


def advance_stabilize(ctx, word):
    """Apply leftmost Receiver-advancing switches until none applies."""
    return _stabilize(ctx, word, sender_first=True)


def postpone_stabilize(ctx, word):
    """Apply leftmost Receiver-postponing switches until none applies."""
    return _stabilize(ctx, word, sender_first=False)


def run_from_postpone_stable(ctx, word):
    """Replay a postpone-stable pre-solution as a validating lossy run.

    Losses are inserted lazily: just enough head losses to enable the next
    read, and a full drain of l before each emptiness test.  The result runs
    from the empty initial configuration to the empty final one.
    """
    ok, tag = is_pre_solution(ctx, word)
    if not ok:
        raise InputError(f"not a pre-solution (violates {tag})")
    system = ctx.instance.system
    cur = Configuration(ctx.instance.p_in, ctx.instance.q_in, (), ())
    steps = []

    def lose_head():
        nonlocal cur
        cur = Configuration(cur.p, cur.q, cur.u, cur.v[1:])
        steps.append((LOSS, cur))

    for idx, a in enumerate(word):
        rule = ctx.rule(a)
        rid = ctx.rule_ids[a]
        act = rule.action
        if a in ctx.test_letters:
            while cur.v:
                lose_head()
        elif act.kind == "read" and rule.channel == "l":
            while cur.v and cur.v[0] != act.msg:
                lose_head()
            if not cur.v:
                raise ReplayError(idx, f"needed {act.msg!r} on l but it ran dry")
        fired = None
        for label, nxt in successors(system, cur, LOSSY):
            if label == rid:
                fired = nxt
                break
        if fired is None:
            raise ReplayError(idx, f"rule {rid} not enabled at {cur}")
        cur = fired
        steps.append((rid, cur))
    while cur.v:
        lose_head()
    run = Run(Configuration(ctx.instance.p_in, ctx.instance.q_in, (), ()),
              tuple(steps))
    end = run.end
    if end != Configuration(ctx.instance.p_fi, ctx.instance.q_fi, (), ()):
        raise ReplayError(len(word), f"replay ended at {end}")
    return run


def run_to_presolution(ctx, run):
    """Project the loss steps out of a validating witness run."""
    system = ctx.instance.system
    if run.start != Configuration(ctx.instance.p_in, ctx.instance.q_in, (), ()):
        raise InputError("run must start at the empty initial configuration")
    if run.end != Configuration(ctx.instance.p_fi, ctx.instance.q_fi, (), ()):
        raise InputError("run must end at the empty final configuration")
    if not validate_run(system, run, LOSSY):
        raise InputError("run does not validate")
    letter_of = {rid: a for a, rid in ctx.rule_ids.items()}
    return tuple(letter_of[lab] for lab in run.labels() if lab != LOSS)
