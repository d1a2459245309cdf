"""Cross-check suite: stage verdict agreement, run/solution round trips,
printed languages, and the lossy vs write-lossy equivalence harness.  Used
by the command line and by the acceptance tests; seeded and deterministic."""

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

    def record(self, ok, note):
        """One check: passed, or failed with `note`."""
        if ok:
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


def _agree(result, src_inst, dst_inst, src_bound, dst_bound_of):
    """One two-way verdict comparison; positive verdicts must transfer."""
    a = bounded_reach(src_inst, src_bound, LOSSY)
    if a.reachable:
        dst_bound = dst_bound_of(a)
        b = bounded_reach(dst_inst, dst_bound, LOSSY)
        if b.reachable:
            result.passed += 1
            if not validate_run(dst_inst.system, b.witness, LOSSY):
                result.failed += 1
                result.notes.append("transported witness does not validate")
        elif b.status == UNREACHABLE:
            result.failed += 1
            result.notes.append(f"positive became certified-unreachable: {src_inst}")
        else:
            result.inconclusive += 1


def check_stage_equivalence(seed, samples, bound_len=3, max_steps=2500):
    """Bounded verdicts agree across each reduction stage, both directions."""
    rng = random.Random(seed)
    out = []

    def small_bound(extra_len=0, extra_steps=0):
        return Bound(bound_len + extra_len, max_steps + extra_steps)

    # receiver-test elimination: forward bound grows by one signal symbol
    # plus one padding symbol per traded receiver test step
    res = CheckResult("stage receiver-tests")
    for _ in range(samples):
        s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")),
                        receiver_tests=(("Z", "l"), ("N", "l"), ("Z", "r")))
        inst = random_instance(rng, s, bias_reachable=0.6)
        out_inst = elim_receiver_tests(inst)
        _agree(res, inst, out_inst, small_bound(),
               lambda a: small_bound(1 + _receiver_test_steps(inst, a.witness),
                                     3000))
        _agree(res, out_inst, inst, small_bound(1, 3000),
               lambda a: small_bound(1, 3000))
    out.append(res)

    res = CheckResult("stage initial-constraints")
    for _ in range(samples):
        s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")))
        inst = random_instance(rng, s, bias_reachable=0.6)
        out_inst = elim_initial(inst)
        _agree(res, inst, out_inst, small_bound(), lambda a: small_bound(0, 1000))
        _agree(res, out_inst, inst, small_bound(), lambda a: small_bound())
    out.append(res)

    res = CheckResult("stage buffering")
    for _ in range(samples):
        s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "l"), ("N", "r")))
        inst = random_instance(rng, s, empty_initial=True, bias_reachable=0.6)
        out_inst = elim_n1(inst)
        _agree(res, inst, out_inst, small_bound(), lambda a: small_bound(0, 2000))
        _agree(res, out_inst, inst, small_bound(), lambda a: small_bound(1, 1000))
    out.append(res)

    res = CheckResult("stage final-constraints")
    for _ in range(samples):
        s = random_ucst(rng, sender_tests=(("Z", "l"), ("Z", "r")))
        inst = random_instance(rng, s, empty_initial=True, bias_reachable=0.6)
        out_inst = elim_final(inst)
        _agree(res, inst, out_inst, small_bound(),
               lambda a: small_bound(1, 3000))
        _agree(res, out_inst, inst, small_bound(1, 3000),
               lambda a: small_bound(1, 1000))
    out.append(res)
    return out


def check_stage_trim(seed, samples, bound_len=3, max_steps=3000):
    """Each stage's output, drawn as in `check_stage_equivalence`, and its
    trim (`restrict` to `control_trim`, as `run_pipeline` applies it) have
    the same start-to-goal runs, so within one bound the explorer finds a
    witness on both or on neither (in particular, never REACHABLE on one
    and UNREACHABLE on the other), and a witness on the trim validates
    there."""
    rng = random.Random(seed)
    res = CheckResult("stage trim")
    families = (
        (elim_receiver_tests, {"sender_tests": (("Z", "l"), ("N", "r")),
                               "receiver_tests": (("Z", "l"), ("N", "l"),
                                                  ("Z", "r"))}, False),
        (elim_initial, {"sender_tests": (("Z", "l"), ("N", "r"))}, False),
        (elim_n1, {"sender_tests": (("Z", "l"), ("N", "l"), ("N", "r"))}, True),
        (elim_final, {"sender_tests": (("Z", "l"), ("Z", "r"))}, True),
    )
    bound = Bound(bound_len + 1, max_steps)
    for stage, tests, empty_initial in families:
        for _ in range(samples):
            s = random_ucst(rng, **tests)
            inst = random_instance(rng, s, empty_initial=empty_initial,
                                   bias_reachable=0.6)
            whole = stage(inst)
            trimmed = restrict(whole, *control_trim(whole))
            a = bounded_reach(whole, bound, LOSSY)
            b = bounded_reach(trimmed, bound, LOSSY)
            if a.reachable != b.reachable:
                res.failed += 1
                res.notes.append(f"{stage.__name__}: untrimmed {a}, trimmed {b}")
            elif b.reachable and not validate_run(trimmed.system, b.witness,
                                                  LOSSY):
                res.failed += 1
                res.notes.append(f"{stage.__name__}: witness on the trim "
                                 "does not validate")
            else:
                res.passed += 1
    return res


def check_pep_roundtrips(seed, samples, bound_len=4, max_steps=400):
    """Witness runs become solutions; solved words replay into runs."""
    rng = random.Random(seed)
    res = CheckResult("run/solution round trips")
    for _ in range(samples):
        inst = random_z1l_instance(rng)
        pep = ucst_to_pep(inst)
        ctx = bridge_context(inst)
        verdict = bounded_reach(inst, Bound(bound_len, max_steps), LOSSY)
        if verdict.reachable:
            word = run_to_presolution(ctx, verdict.witness)
            stable = advance_stabilize(ctx, word)
            res.record(is_solution(pep, stable),
                       f"stabilized word {stable} is not a solution")
            solved = bounded_solve(pep, len(word))
        else:
            solved = bounded_solve(pep, 4)
        if solved is None:
            if not verdict.reachable:
                res.inconclusive += 1
            continue
        run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, solved))
        res.record(validate_run(inst.system, run, LOSSY)
                   and run.start == Configuration(inst.p_in, inst.q_in, (), ())
                   and run.end == Configuration(inst.p_fi, inst.q_fi, (), ()),
                   f"solved word {solved} did not replay")
    return res


def check_printed_languages(seed, samples):
    """The expressions that `print_pep` writes for R and R′ denote the
    languages they were printed from, on the samples that
    `check_pep_roundtrips` draws from the same seed."""
    rng = random.Random(seed)
    res = CheckResult("print")
    for _ in range(samples):
        pep = ucst_to_pep(random_z1l_instance(rng))
        for lang in (pep.R, pep.Rp):
            text = nfa_to_regex(lang)
            res.record(language_equal(parse_regex(text, pep.sigma), lang),
                       f"{text!r} denotes another language")
    return res


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
    results.append(check_pep_roundtrips(seed + 1, samples * 2))
    results.append(check_printed_languages(seed + 1, samples * 2))
    results.append(check_write_lossy_equivalence(seed + 2, max(samples, 10)))
    results.append(check_stage_trim(seed + 3, samples, bound_len))
    return results
