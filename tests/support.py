"""Helpers that only the tests use: brute-force references, random walks and
walks over total DFAs.  It also holds the paper's results that no command
runs, as references for the code that does: the commutation lemma and the
head-lossy normal form, the lasso search, a reader for `.pep` files and the
reverse reduction from the embedding problem to channel systems.  None of
them is part of the toolkit."""

from collections import deque
from dataclasses import dataclass

from ucst.errors import FragmentError, InputError
from ucst.explore import (
    _bfs,
    _path,
    _run,
    _stepper,
    bounded_graph,
    coreach_in,
    reachable_nodes,
)
from ucst.fileformat import _check_keywords
from ucst.model import (
    L,
    LOSS,
    LOSSY,
    R,
    RECEIVER,
    SENDER,
    Action,
    Configuration,
    ReachInstance,
    Rule,
    Run,
    Ucst,
    emptiness_test,
    step,
    successors,
    validate_run,
)
from ucst.pep import (
    PepInstance,
    is_pre_solution,
    is_solution,
    postpone_stabilize,
    run_from_postpone_stable,
)
from ucst.reductions import _Names, bridge_context
from ucst.regdata import (
    EPSILON,
    Nfa,
    _distances,
    cached_on_nfa,
    language_equal,
    parse_regex,
    subword,
    symkey,
)
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


# -- the head-lossy normal form and the commutation lemma ------------------------

# `quotient`, `upward_closure` and `downward_closure` take the automaton as
# `self`, in the form of the `Nfa` methods they extend.


def quotient(self, sym):
    """Left quotient sym⁻¹L: the words w with sym.w in L."""
    after = self.live_moves(self.initial_subset()).get(sym, ())
    return Nfa(self.alphabet, self.n_states, after, self.accepting, self.transitions)

def upward_closure(self):
    """Words having some word of L as a scattered subword."""
    a = self.normalize()
    trans = list(a.transitions)
    for s in range(a.n_states):
        for sym in a.alphabet:
            trans.append((s, sym, s))
    return Nfa(a.alphabet, a.n_states, a.initial, a.accepting, trans)

def downward_closure(self):
    """Scattered subwords of words of L."""
    a = self.normalize()
    trans = list(a.transitions)
    for src, sym, dst in a.transitions:
        trans.append((src, EPSILON, dst))
    return Nfa(a.alphabet, a.n_states, a.initial, a.accepting, trans).normalize()


@cached_on_nfa
def is_upward_closed(nfa):
    return language_equal(upward_closure(nfa), nfa)


@cached_on_nfa
def is_downward_closed(nfa):
    return language_equal(downward_closure(nfa), nfa)


def subword_one(w1, w2):
    """w1 is w2 with exactly one occurrence deleted."""
    return len(w1) + 1 == len(w2) and subword(w1, w2)


def _non_head_loss_weight(run):
    """Sum, over the losses that do not remove the head of l, of the number
    of rule steps that follow each one."""
    configs = run.configs()
    weight = rules_after = 0
    for i in range(len(run.steps) - 1, -1, -1):
        label, nxt = run.steps[i]
        if label != LOSS:
            rules_after += 1
        elif nxt.v != configs[i].v[1:]:
            weight += rules_after
    return weight


def is_head_lossy(run):
    """Every loss removes the head of l, or happens after the last rule step."""
    return _non_head_loss_weight(run) == 0


# -- commuting adjacent steps ---------------------------------------------------

def _step_info(s, label):
    """(agent, action_kind, channel, rule) with loss encoded as (None, 'loss', L)."""
    if label == LOSS:
        return None, "loss", L, None
    rule = s.rule(label)
    agent = s.agent_of(label)
    channel = None if rule.action.kind == "nop" else rule.channel
    return agent, rule.action.kind, channel, rule


def _case_no_contact(i1, i2):
    agent1, kind1, ch1, _ = i1
    agent2, kind2, ch2, _ = i2
    if kind1 == "loss":
        return kind2 == "loss" or (ch2 is not None and ch2 != L)
    if ch1 is None:
        return False
    if kind2 == "loss":
        return ch1 != L
    return ch2 is not None and agent1 != agent2 and ch1 != ch2


@cached_on_nfa
def _stable_behind_head(lang):
    """Inserting a letter behind the head never leaves `lang`: a⁻¹L is
    upward-closed for every letter a.  True of Z, N and head tests."""
    return all(is_upward_closed(quotient(lang, a)) for a in lang.alphabet)


def _case_postponable_loss(i1, i2, src, mid):
    # the loss admits an interpretation behind the head of l, and the next
    # step cannot tell: an l-test must survive the letter not yet lost
    if i1[1] != "loss":
        return False
    _, kind2, ch2, rule2 = i2
    if kind2 == "test" and ch2 == L and not _stable_behind_head(rule2.action.lang):
        return False
    v, v2 = src.v, mid.v
    return len(v) >= 2 and v2[:1] == v[:1] and subword_one(v2[1:], v[1:])


def _case_advanceable_sender(i1, i2):
    agent1, kind1, ch1, rule1 = i1
    agent2, kind2, ch2, rule2 = i2
    if not (kind1 == "loss" or agent1 == RECEIVER):
        return False
    if agent2 != SENDER:
        return False
    if kind2 == "test":
        # sound only for tests stable under channel growth (e.g. nonemptiness)
        return is_upward_closed(rule2.action.lang)
    if kind1 == "test" and kind2 == "write" and ch1 == ch2:
        # a Receiver test overtaken by a write to the tested channel must
        # also be growth-stable: an emptiness test would fail afterwards
        return is_upward_closed(rule1.action.lang)
    return True


def _case_advanceable_loss(i1, i2):
    agent1, kind1, ch1, rule1 = i1
    if i2[1] != "loss":
        return False
    if agent1 == SENDER and kind1 == "write" and ch1 == L:
        return False
    if kind1 == "test" and ch1 == L:
        # sound only for tests stable under losses (e.g. emptiness)
        return is_downward_closed(rule1.action.lang)
    return True


def commute_case(s, run, i):
    """Name of the first commuting case that covers steps i, i+1, or None."""
    if not (0 <= i and i + 1 < len(run.steps)):
        raise InputError("index must address two consecutive steps")
    configs = run.configs()
    lab1, lab2 = run.steps[i][0], run.steps[i + 1][0]
    info1, info2 = _step_info(s, lab1), _step_info(s, lab2)
    if _case_no_contact(info1, info2):
        return "no-contact"
    if _case_postponable_loss(info1, info2, configs[i], configs[i + 1]):
        return "postponable-loss"
    if _case_advanceable_sender(info1, info2):
        return "advanceable-sender"
    if _case_advanceable_loss(info1, info2):
        return "advanceable-loss"
    return None


def commute(s, run, i, mode=LOSSY):
    """Swap steps i and i+1 if a commuting case applies; else None.

    The middle configuration is recomputed; when a case condition holds the
    swapped order must validate, so failure to find it is an internal error.
    """
    case = commute_case(s, run, i)
    if case is None:
        return None
    configs = run.configs()
    lab1, lab2 = run.steps[i][0], run.steps[i + 1][0]
    target = configs[i + 2]
    # the unswapped middle goes last: after two losses it matches too, but
    # choosing it would report a swap that did not happen
    candidates = sorted(successors(s, configs[i], mode),
                        key=lambda step: step[1] == configs[i + 1])
    for labm, mid in candidates:
        if labm != lab2:
            continue
        for labe, end in successors(s, mid, mode):
            if labe == lab1 and end == target:
                steps = list(run.steps)
                steps[i] = (lab2, mid)
                steps[i + 1] = (lab1, target)
                return Run(run.start, tuple(steps))
    raise RuntimeError(f"commuting case {case} held but no swapped order validates")


def _canonical_losses(c, w):
    """Loss steps from `c` down to l = w (a subword of c.v): the most head
    losses possible, then deletions behind the head, leftmost first."""
    v = c.v
    h = 0
    while h < len(v) and subword(w, v[h + 1:]):
        h += 1
    cur = v[h:]
    steps = [(LOSS, Configuration(c.p, c.q, c.u, v[k:])) for k in range(1, h + 1)]
    # w embeds in cur but not in cur[1:], so the leftmost embedding uses
    # cur[0]: the first position where cur and w differ is never the head
    while cur != w:
        k = next((k for k, (x, y) in enumerate(zip(cur, w)) if x != y), len(w))
        cur = cur[:k] + cur[k + 1:]
        steps.append((LOSS, Configuration(c.p, c.q, c.u, cur)))
    return steps


def to_head_lossy(s, run, mode=LOSSY):
    """Equivalent head-lossy run with the same endpoints.

    Each round takes the first maximal block of consecutive losses that a
    rule step follows and that holds a loss behind the head of l.  The block
    goes from l = v to l = w; it is rewritten as the most head losses
    possible (the largest h with w a subword of v[h:]) followed by single
    deletions behind the head from v[h:] down to w.  The block's last loss,
    if it is behind the head, is then pushed past the rule step by
    `commute` (the no-contact case for a rule on r, the postponable-loss
    case otherwise).

    Termination measure: the sum, over losses behind the head, of the rule
    steps that follow each one; the run is head-lossy when it is 0.  The
    rewrite never raises it: the block keeps its length and gains head
    losses, if anything.  A rewrite that leaves no loss behind the head in
    the block lowers it, and so does the push.  Each round checks that it
    fell.

    Sound for l-tests that a letter inserted behind the head cannot flip
    (a⁻¹L upward-closed for every letter a): Z, N and head tests.  A run
    that needs a loss pushed past any other l-test, such as a parity test,
    raises FragmentError naming that rule.
    """
    cur = run
    weight = _non_head_loss_weight(cur)
    while weight:
        configs = cur.configs()
        labels = cur.labels()
        last_rule = max(i for i, label in enumerate(labels) if label != LOSS)
        i = next(i for i in range(last_rule)
                 if labels[i] == LOSS and configs[i + 1].v != configs[i].v[1:])
        start = end = i
        while start and labels[start - 1] == LOSS:
            start -= 1
        while labels[end] == LOSS:
            end += 1
        block = _canonical_losses(configs[start], configs[end].v)
        cur = Run(cur.start, cur.steps[:start] + tuple(block) + cur.steps[end:])
        j = start + len(block) - 1  # the block keeps its length, so j + 1 == end
        before = block[-2][1] if len(block) > 1 else configs[start]
        if block[-1][1].v != before.v[1:]:
            pushed = commute(s, cur, j, mode)
            if pushed is None:
                rid = labels[end]
                raise FragmentError(
                    f"a loss behind the head of l cannot be postponed past rule "
                    f"{rid} ({s.rule(rid)}): its test is not stable under a "
                    f"letter inserted behind the head")
            cur = pushed
        new_weight = _non_head_loss_weight(cur)
        if new_weight >= weight:
            raise RuntimeError("head-lossy normalization made no progress")
        weight = new_weight
    return cur


# -- lassos (the target `ucst gen thue` prints) ----------------------------------


@dataclass(frozen=True)
class LassoWitness:
    stem: Run   # from the initial configuration to the anchor
    cycle: Run  # from the anchor back to itself, at least one step

    @property
    def anchor(self):
        return self.stem.end


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


# -- embedding instance files (.pep) ---------------------------------------------


def _parse_image(text, gamma):
    text = text.strip()
    if text == "EPS" or not text:
        return ()
    out = tuple(text.split())
    for sym in out:
        if sym not in gamma:
            raise InputError(f"image symbol {sym!r} not in gamma")
    return out


def parse_pep(text):
    sigma = gamma = None
    u, v = {}, {}
    r_text = rp_text = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "sigma":
            sigma = tuple(rest.split())
            _check_keywords(sigma)
        elif key == "gamma":
            gamma = tuple(rest.split())
            _check_keywords(gamma)
        elif key in ("u", "v"):
            letter, _, image = rest.partition("->")
            letter = letter.strip()
            if sigma is None or letter not in sigma:
                raise InputError(f"line {lineno}: unknown letter {letter!r}")
            (u if key == "u" else v)[letter] = _parse_image(image, gamma or ())
        elif key == "R":
            r_text = rest
        elif key == "Rp":
            rp_text = rest
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    if sigma is None or gamma is None or r_text is None or rp_text is None:
        raise InputError("file needs sigma, gamma, R and Rp lines")

    def constraint(text_):
        if text_ == "NONE":
            return Nfa.nothing(sigma)
        return parse_regex(text_, sigma)

    return PepInstance(sigma, gamma, u, v, constraint(r_text),
                       constraint(rp_text))


def pep_equal(a, b):
    if (a.sigma, a.gamma, a.u, a.v) != (b.sigma, b.gamma, b.u, b.v):
        return False
    return language_equal(a.R, b.R) and language_equal(a.Rp, b.Rp)


# -- the reverse reduction, embedding problem to channel system ------------------


def pep_to_ucst(pinst):
    """Channel system that guesses a solution letter by letter: Sender tracks
    the R automaton and one state set of the complement-of-R' automaton (one
    fresh copy per committed position), writes the u image on r and the v
    image on l, and must drain l before any uncommitted position; Receiver
    reads matching letters off both channels."""
    rdfa = pinst.R.determinize()
    rp = pinst.Rp.determinize()
    not_rp_acc = frozenset(range(rp.n_states)) - rp.accepting
    rdist = _distances(rdfa.as_nfa())
    # the complement is built from the same determinization: same states
    comp_alive = _distances(pinst.Rp.complement())
    m = tuple(pinst.gamma)
    eps = Nfa.literal((), m)
    z_test = emptiness_test(m)
    receiver_states, receiver_rules = _proxy_receiver(m)
    names = _Names(receiver_states)
    core_name = {}

    def core(rs, copies):
        key = (rs, copies)
        if key not in core_name:
            core_name[key] = names.fresh(f"s{rs}_{len(core_name)}")
        return core_name[key]

    if rdist[rdfa.initial] is None:
        # R is empty: no solution and no run; emit the minimal dead instance
        system = Ucst(m, ("s_dead_in", "s_dead_fi"), receiver_states,
                      [], receiver_rules)
        return ReachInstance(system, "s_dead_in", "s_dead_fi",
                             "q_loop", "q_loop", eps, eps, eps, eps)

    start = (rdfa.initial, frozenset())
    todo = [start]
    seen = {start}
    sender_states = [core(*start)]
    sender_rules = []
    p_fi = names.fresh("p_fi")
    emit_after = []
    while todo:
        rs, copies = todo.pop(0)
        here = core(rs, copies)
        if rs in rdfa.accepting and set(copies) <= not_rp_acc:
            sender_rules.append(Rule(here, R, Action.nop(), p_fi))
        moves = []
        for a in sorted(pinst.sigma, key=symkey):
            rs2 = rdfa.transitions[(rs, a)]
            if rdist[rs2] is None:
                continue
            stepped = frozenset(rp.transitions[(t, a)] for t in copies)
            committed = stepped | {rp.transitions[(rp.initial, a)]}
            if all(comp_alive[t] is not None for t in stepped):
                moves.append((a, "wait", (rs2, stepped)))
            if all(comp_alive[t] is not None for t in committed):
                moves.append((a, "commit", (rs2, committed)))
        gates = {}
        for a, how, succ in moves:
            if how not in gates:
                gate = names.fresh(f"{here}.{how}")
                sender_states.append(gate)
                if how == "wait":
                    sender_rules.append(Rule(here, L, Action.test(z_test), gate))
                else:
                    sender_rules.append(Rule(here, R, Action.nop(), gate))
                gates[how] = gate
            if succ not in seen:
                seen.add(succ)
                sender_states.append(core(*succ))
                todo.append(succ)
            emit_after.append((gates[how], a, core(*succ)))
    for gate, a, target in emit_after:
        cur = gate
        writes = [(R, sym) for sym in pinst.u[a]] + [(L, sym) for sym in pinst.v[a]]
        for k, (ch, sym) in enumerate(writes):
            nxt = target if k == len(writes) - 1 else names.fresh(f"{gate}.{a}.{k}")
            if nxt != target:
                sender_states.append(nxt)
            sender_rules.append(Rule(cur, ch, Action.write(sym), nxt))
            cur = nxt
        if not writes:
            sender_rules.append(Rule(cur, R, Action.nop(), target))
    sender_states.append(p_fi)
    system = Ucst(m, sender_states, receiver_states,
                  sender_rules, receiver_rules)
    return ReachInstance(system, core(*start), p_fi, "q_loop", "q_loop",
                         eps, eps, eps, eps)


def _proxy_receiver(alphabet):
    """q_loop reading one letter from r then the same letter from l.

    The order matters here: if Receiver picked the letter off l first, it
    could smuggle a pre-wait l-letter past Sender's emptiness test and match
    it against a later r-letter, voiding the suffix conditions.
    """
    states = ["q_loop"]
    rules = []
    for sym in alphabet:
        aux = f"q_got_{sym}"
        states.append(aux)
        rules.append(Rule("q_loop", R, Action.read(sym), aux))
        rules.append(Rule(aux, L, Action.read(sym), "q_loop"))
    return states, rules
