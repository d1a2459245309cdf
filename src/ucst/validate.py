"""Cross-check suite: stage verdict agreement, stage trim, run/solution
round trips, printed languages, and the lossy vs write-lossy equivalence
harness.  Used by the command line and by the acceptance tests; seeded and
deterministic."""

import random

from .explore import Bound, UNREACHABLE, bounded_reach, reachable_nodes
from .fileformat import nfa_to_regex
from .model import LOSS, LOSSY, WRITE_LOSSY, Configuration, validate_run
from .pep import (
    advance_stabilize,
    bounded_solve,
    is_solution,
    postpone_stabilize,
    run_from_postpone_stable,
    run_to_presolution,
)
from .randomgen import random_instance, random_ucst, random_z1l_instance
from .reductions import (
    bridge_context,
    control_trim,
    elim_final,
    elim_initial,
    elim_n1,
    elim_receiver_tests,
    restrict,
    ucst_to_pep,
)
from .regdata import language_equal, parse_regex


class CheckResult:
    """The tally of one row of checks, with a note per failed check."""

    def __init__(self, name):
        self.name = name
        self.passed = self.failed = self.inconclusive = 0
        self.notes = []

    @property
    def ok(self):
        return self.failed == 0

    def record(self, ok, note=None):
        """One check: passed (True), inconclusive (None), or failed (False)
        with `note`."""
        if ok is None:
            self.inconclusive += 1
        elif ok:
            self.passed += 1
        else:
            self.failed += 1
            self.notes.append(note)

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        extra = f", {self.inconclusive} inconclusive" if self.inconclusive else ""
        return f"{status} {self.name}: {self.passed} checks{extra}"


def _receiver_test_steps(inst, run):
    s = inst.system
    count = 0
    for label, _ in run.steps:
        if label == LOSS or isinstance(label, tuple):
            continue
        if label >= s.n_sender_rules and s.rule(label).action.kind == "test":
            count += 1
    return count


# One row per stage family: row name, stage, the tests `random_ucst` draws,
# whether initial constraints are empty, the (length, steps) slack of the
# target bound from input to output, and the slacks of the source and target
# bounds from output to input.  The forward target bound also grows by one
# padding symbol per Receiver test step of the source witness; only
# receiver-tests inputs have such steps, and its length slack of 1 is the
# signal symbol.
_STAGES = (
    ("receiver-tests", elim_receiver_tests,
     {"sender_tests": (("Z", "l"), ("N", "r")),
      "receiver_tests": (("Z", "l"), ("N", "l"), ("Z", "r"))},
     False, (1, 3000), ((1, 3000), (1, 3000))),
    ("initial-constraints", elim_initial,
     {"sender_tests": (("Z", "l"), ("N", "r"))},
     False, (0, 1000), ((0, 0), (0, 0))),
    ("buffering", elim_n1,
     {"sender_tests": (("Z", "l"), ("N", "l"), ("N", "r"))},
     True, (0, 2000), ((0, 0), (1, 1000))),
    ("final-constraints", elim_final,
     {"sender_tests": (("Z", "l"), ("Z", "r"))},
     True, (1, 3000), ((1, 3000), (1, 1000))),
)


def _stage_samples(rng, samples):
    """(table row, input, stage output) for `samples` random inputs of each
    stage family in turn."""
    for row in _STAGES:
        _, stage, tests, empty_initial = row[:4]
        for _ in range(samples):
            inst = random_instance(rng, random_ucst(rng, **tests),
                                   empty_initial=empty_initial,
                                   bias_reachable=0.6)
            yield row, inst, stage(inst)


def _agree(result, src_inst, dst_inst, src_bound, dst_bound_of):
    """One verdict comparison, from source to target; positive verdicts
    must transfer.  A source with no witness within its bound compares
    nothing, so it counts as inconclusive."""
    a = bounded_reach(src_inst, src_bound, LOSSY)
    if not a.reachable:
        result.record(None)
        return
    b = bounded_reach(dst_inst, dst_bound_of(a), LOSSY)
    if b.reachable:
        result.record(validate_run(dst_inst.system, b.witness, LOSSY),
                      "transported witness does not validate")
    elif b.status == UNREACHABLE:
        result.record(False, f"positive became certified-unreachable: {src_inst}")
    else:
        result.record(None)


def check_stage_equivalence(seed, samples, bound_len=3, max_steps=2500):
    """Bounded verdicts agree across each reduction stage, both directions."""
    results = {row[0]: CheckResult(f"stage {row[0]}") for row in _STAGES}

    def bound(slack, extra_len=0):
        return Bound(bound_len + slack[0] + extra_len, max_steps + slack[1])

    rows = _stage_samples(random.Random(seed), samples)
    for (name, _, _, _, forward, backward), inst, out_inst in rows:
        res = results[name]
        _agree(res, inst, out_inst, bound((0, 0)),
               lambda a: bound(forward, _receiver_test_steps(inst, a.witness)))
        _agree(res, out_inst, inst, bound(backward[0]),
               lambda a: bound(backward[1]))
    return list(results.values())


def check_stage_trim(seed, samples, bound_len=3, max_steps=3000):
    """Each stage's output, drawn as in `check_stage_equivalence`, and its
    trim (`restrict` to `control_trim`, as `run_pipeline` applies it) have
    the same start-to-goal runs, so within one bound the explorer finds a
    witness on both or on neither (in particular, never REACHABLE on one
    and UNREACHABLE on the other), and a witness on the trim validates
    there."""
    res = CheckResult("stage trim")
    bound = Bound(bound_len + 1, max_steps)
    for (_, stage, *_), _, whole in _stage_samples(random.Random(seed), samples):
        trimmed = restrict(whole, *control_trim(whole))
        a = bounded_reach(whole, bound, LOSSY)
        b = bounded_reach(trimmed, bound, LOSSY)
        if a.reachable != b.reachable:
            res.record(False, f"{stage.__name__}: untrimmed {a}, trimmed {b}")
        else:
            res.record(not b.reachable
                       or validate_run(trimmed.system, b.witness, LOSSY),
                       f"{stage.__name__}: witness on the trim does not "
                       "validate")
    return res


def check_z1l_embedding(seed, samples, bound_len=4, max_steps=400):
    """Two rows over one draw of random Z1l instances and their embedding
    instances.  Round trips: witness runs become solutions, and solved words
    replay into runs.  Print: the expressions that `print_pep` writes for R
    and R′ denote the languages they were printed from."""
    rng = random.Random(seed)
    trips, printed = CheckResult("run/solution round trips"), CheckResult("print")
    for _ in range(samples):
        inst = random_z1l_instance(rng)
        pep = ucst_to_pep(inst)
        for lang in (pep.R, pep.Rp):
            text = nfa_to_regex(lang)
            printed.record(language_equal(parse_regex(text, pep.sigma), lang),
                           f"{text!r} denotes another language")
        ctx = bridge_context(inst)
        verdict = bounded_reach(inst, Bound(bound_len, max_steps), LOSSY)
        if verdict.reachable:
            word = run_to_presolution(ctx, verdict.witness)
            stable = advance_stabilize(ctx, word)
            trips.record(is_solution(pep, stable),
                         f"stabilized word {stable} is not a solution")
            solved = bounded_solve(pep, len(word))
        else:
            solved = bounded_solve(pep, 4)
        if solved is None:
            if not verdict.reachable:
                trips.record(None)
            continue
        run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, solved))
        trips.record(validate_run(inst.system, run, LOSSY)
                     and run.start == Configuration(inst.p_in, inst.q_in, (), ())
                     and run.end == Configuration(inst.p_fi, inst.q_fi, (), ()),
                     f"solved word {solved} did not replay")
    return trips, printed


def check_write_lossy_equivalence(seed, samples, bound_len=4):
    """Emptiness-test-only systems with acyclic Senders: bounded reachable
    sets under lossy and write-lossy semantics coincide from l-empty starts."""
    rng = random.Random(seed)
    res = CheckResult("write-lossy equivalence")
    for _ in range(samples):
        s = random_ucst(rng, n_sender=4, n_receiver=3, n_sender_rules=3,
                        n_receiver_rules=3,
                        sender_tests=(("Z", "l"), ("Z", "r")),
                        receiver_tests=(("Z", "l"),),
                        forward_sender=True)
        starts = [Configuration(s.sender_states[0], s.receiver_states[0], (), ()),
                  Configuration(s.sender_states[0], s.receiver_states[0],
                                (s.alphabet[0],), ())]
        bound = Bound(bound_len, 0)
        for start in starts:
            # one system, one word table: equal nodes are equal configurations
            lossy = reachable_nodes(s, [start], bound, LOSSY)
            wrlo = reachable_nodes(s, [start], bound, WRITE_LOSSY)
            differ = sorted(str(s.config(n)) for n in lossy ^ wrlo)
            res.record(lossy == wrlo, f"sets differ by {differ[:3]}")
    return res


def run_validation(seed, samples, bound_len=3):
    """The complete cross-check battery; deterministic for a fixed seed."""
    results = []
    results.extend(check_stage_equivalence(seed, samples, bound_len))
    results.extend(check_z1l_embedding(seed + 1, samples * 2))
    results.append(check_write_lossy_equivalence(seed + 2, max(samples, 10)))
    results.append(check_stage_trim(seed + 3, samples, bound_len))
    return results
