"""Post embedding with partial codirectness, and the bridge calculus to runs.

An instance asks for a word in R whose image under `u` embeds (as a
scattered subword) in its image under `v`, with the same embedding required
of every suffix that falls in R'.  `bounded_solve` searches for one by
stepping R and R' through their lazy subset memos (`Nfa.live_moves`), so it
never builds a DFA over the rule alphabet.

Rule words of a channel-system instance sit between runs and solutions:
`is_pre_solution` checks the five path and channel conditions, the two
stabilizers normalize a pre-solution by swapping adjacent Sender/Receiver
letters, and the replay turns a postpone-stable word back into a validating
run by inserting head losses lazily.
"""

from typing import NamedTuple

from .errors import InputError, ReplayError
from .model import (
    LOSS,
    LOSSY,
    L,
    SENDER,
    Configuration,
    Run,
    successors,
    validate_run,
)
from .regdata import Nfa, subword

__all__ = [
    "PepInstance", "PreSolutionContext", "is_solution", "bounded_solve",
    "is_pre_solution", "advance_stabilize",
    "postpone_stabilize", "run_from_postpone_stable", "run_to_presolution",
]


class _PepFields(NamedTuple):
    sigma: tuple
    gamma: tuple
    u: dict  # letter -> word over gamma
    v: dict  # letter -> word over gamma
    R: Nfa   # over sigma
    Rp: Nfa  # over sigma


class PepInstance(_PepFields):
    """Letters `sigma` and `gamma` keep their first occurrences, in order."""

    __slots__ = ()

    def __new__(cls, sigma, gamma, u, v, R, Rp):
        sigma = tuple(dict.fromkeys(sigma))
        gamma = tuple(dict.fromkeys(gamma))
        sig, gam = set(sigma), set(gamma)
        for mapping in (u, v):
            if set(mapping) != sig:
                raise InputError("morphism must be total on sigma")
            for image in mapping.values():
                if not set(image) <= gam:
                    raise InputError("morphism image outside gamma")
        if set(R.alphabet) != sig or set(Rp.alphabet) != sig:
            raise InputError("constraint alphabets must equal sigma")
        return super().__new__(cls, sigma, gamma, u, v, R, Rp)

    def image_u(self, word):
        return image(self.u, word)

    def image_v(self, word):
        return image(self.v, word)


def image(mapping, word):
    """The concatenation of each letter's image under `mapping`."""
    return tuple(x for a in word for x in mapping[a])


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
    """A solution of length <= max_len, or None.

    It is the length-lexicographically least solution whose greedy
    embedding matches each u-letter with a v-letter written at the same or
    a later position: v-letters written while no u-letter is pending are
    dropped.  So solutions that need an earlier v-letter are missed: with
    sigma (a, b), u(b) = x, v(a) = x and R' empty, R = `a b` gives None
    although `is_solution` accepts (a, b).  A signed residual mends this
    (ROADMAP D1, step 2).

    BFS over solver states (R subset, unmatched u-residual, suffix
    obligations), where an obligation is an (R' subset, residual) pair.  R
    and R' are stepped through their lazy subset memos (`Nfa.live_moves`),
    so only live letters are tried and only subsets within reach are built.
    States reached by several prefixes are merged, keeping the
    lexicographically least witness prefix: merged states have the same
    future.
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    R, Rp = inst.R, inst.Rp
    max_write = max((len(w) for w in inst.v.values()), default=0)
    rp_start = Rp.initial_subset()

    def accepted(state):
        rs, residual, obligations = state
        if rs.isdisjoint(R.accepting) or residual != ():
            return False
        return all(res == () for st, res in obligations
                   if not st.isdisjoint(Rp.accepting))

    init = (R.initial_subset(), (), frozenset())
    if R.distance(init[0]) is None:
        return None
    frontier = [(init, ())]
    seen = {init}
    if accepted(init):
        return ()
    for length in range(1, max_len + 1):
        remaining = max_len - length
        nxt = []
        nxt_seen = set()
        for (rs, residual, obligations), word in frontier:
            for a, rs2 in R.live_moves(rs).items():
                dist = R.distance(rs2)
                if dist is None or dist > remaining:
                    continue
                ua, va = tuple(inst.u[a]), tuple(inst.v[a])
                res2 = _embed_residual(residual + ua, va)
                if len(res2) > remaining * max_write:
                    continue
                obl2 = set()
                for st, res in obligations:
                    st2 = Rp.live_moves(st).get(a)
                    if st2 is not None and Rp.distance(st2) is not None:
                        obl2.add((st2, _embed_residual(res + ua, va)))
                st0 = Rp.live_moves(rp_start).get(a)
                if st0 is not None and Rp.distance(st0) is not None:
                    obl2.add((st0, _embed_residual(ua, va)))
                state2 = (rs2, res2, frozenset(obl2))
                if state2 in seen or state2 in nxt_seen:
                    continue
                nxt_seen.add(state2)
                nxt.append((state2, word + (a,)))
        for state2, word in nxt:
            if accepted(state2):
                return word
        seen.update(nxt_seen)
        frontier = nxt
    return None


# -- pre-solutions ---------------------------------------------------------------


class PreSolutionContext(NamedTuple):
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
    if image(ctx.read_r, word) != image(ctx.write_r, word):
        return False, "c2"
    reads, writes = (), ()
    for a in word:
        reads += tuple(ctx.read_r[a])
        writes += tuple(ctx.write_r[a])
        if reads != writes[:len(reads)]:
            return False, "c3"
    if not subword(image(ctx.read_l, word), image(ctx.write_l, word)):
        return False, "c4"
    for i, a in enumerate(word):
        if a in ctx.test_letters:
            tail = word[i + 1:]
            if not subword(image(ctx.read_l, tail),
                           image(ctx.write_l, tail)):
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
        elif act.kind == "read" and rule.channel == L:
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
