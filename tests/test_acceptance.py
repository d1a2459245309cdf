"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import random
import time

from ucst.explore import (
    Bound,
    bounded_reach,
    bounded_recurrent,
)
from ucst.generators import SemiThueSystem, gen_thue_recurrent
from ucst.model import (
    LOSS,
    LOSSY,
    WRITE_LOSSY,
    Configuration,
    classify_tests,
    commute,
    commute_case,
    is_head_lossy,
    successors,
    to_head_lossy,
    validate_run,
)
from ucst.pep import (
    advance_stabilize,
    bounded_solve,
    is_solution,
    postpone_stabilize,
    run_from_postpone_stable,
    run_to_presolution,
)
from ucst.randomgen import (
    random_instance,
    random_ucst,
    random_z1l_instance,
)
from ucst.reductions import (
    UpwardClosedSet,
    bounded_oracle,
    bridge_context,
    decide_eereach_z1,
    pre_star_z1l,
    ucst_to_pep,
)
from ucst.regdata import Nfa, parse_regex, subword
from ucst.validate import check_stage_equivalence, check_write_lossy_equivalence

from support import coreach_set, random_lossy_run, thue_find_loop

SOL = ("d0", "d4", "d1", "d5", "d2", "d3")
RUN_ORDER = ("d0", "d1", "d2", "d4", "d3", "d5")


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {label}: {status}{suffix}")
    assert ok, f"acceptance {num} {label}{suffix}"


def test_criterion_1_worked_example_anchor(fig6_instance):
    started = time.time()
    verdict = bounded_reach(fig6_instance, Bound(2, 1000), LOSSY)
    explore_time = time.time() - started
    pep = ucst_to_pep(fig6_instance)
    solved = bounded_solve(pep, 6)
    ok = (verdict.reachable
          and explore_time < 1.0
          and is_solution(pep, SOL)
          and not is_solution(pep, RUN_ORDER)
          and solved is not None)
    _report(1, "worked example anchor", ok,
            f"explore {explore_time * 1000:.0f}ms, solved {solved}")


def test_criterion_2_solution_run_round_trip():
    started = time.time()
    rng = random.Random(7_2024)
    failures = 0
    witnesses = solutions = 0
    for _ in range(200):
        inst = random_z1l_instance(rng)
        pep = ucst_to_pep(inst)
        ctx = bridge_context(inst)
        verdict = bounded_reach(inst, Bound(4, 0), LOSSY)
        if verdict.reachable:
            witnesses += 1
            word = run_to_presolution(ctx, verdict.witness)
            if not is_solution(pep, advance_stabilize(ctx, word)):
                failures += 1
            solve_len = min(len(word), 12)
        else:
            solve_len = 5
        solved = bounded_solve(pep, solve_len)
        if solved is None:
            continue
        solutions += 1
        try:
            run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, solved))
        except Exception:
            failures += 1
            continue
        if not (validate_run(inst.system, run, LOSSY)
                and run.start == Configuration(inst.p_in, inst.q_in, (), ())
                and run.end == Configuration(inst.p_fi, inst.q_fi, (), ())):
            failures += 1
    elapsed = time.time() - started
    ok = failures == 0 and elapsed < 60 and witnesses >= 20 and solutions >= 20
    _report(2, "solution/run round trips", ok,
            f"{witnesses} witnesses, {solutions} solutions, "
            f"{failures} failures, {elapsed:.1f}s")


def test_criterion_3_stage_verdict_agreement():
    results = check_stage_equivalence(3_2024, samples=100)
    detail = "; ".join(
        f"{r.name.removeprefix('stage ')}: {r.passed} ok/{r.inconclusive} inconcl"
        for r in results)
    ok = all(r.failed == 0 for r in results) and all(r.passed > 0 for r in results)
    _report(3, "stage verdict agreement", ok, detail)


def _bounded_content_system(rng):
    return random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                       n_sender_rules=3, n_receiver_rules=2,
                       sender_tests=(("Z", "l"),), forward_sender=True)


def test_criterion_4_backward_saturation_agreement(bounded_space):
    rng = random.Random(4_2024)
    oracle = bounded_oracle(Bound(4, 0))
    mismatches = 0
    for _ in range(15):
        s = _bounded_content_system(rng)
        goal = Configuration(s.sender_states[-1], s.receiver_states[-1], (), ())
        sat = pre_star_z1l(s, [goal], oracle)
        bound = Bound(4, 0)
        co = coreach_set(s, bounded_space(s, 4), [goal], bound)
        expected = UpwardClosedSet.of([c for c in co if c.u == ()])
        if sat != expected:
            mismatches += 1
    decided = agreements = 0
    while decided < 50:
        s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                        n_sender_rules=4, n_receiver_rules=2,
                        sender_tests=(("Z", "l"), ("Z", "r")),
                        test_weight=0.45, forward_sender=True)
        if not any(t.channel == "r" for t in classify_tests(s).tests):
            continue
        inst = random_instance(rng, s, empty_initial=True, empty_final=True,
                               bias_reachable=0.5)
        decided += 1
        want = bounded_reach(inst, Bound(4, 0), LOSSY).reachable
        got = decide_eereach_z1(inst, oracle)
        agreements += (want == got)
    ok = mismatches == 0 and agreements == 50
    _report(4, "backward saturation vs explicit search", ok,
            f"15 minimal-basis matches, {agreements}/50 decision agreements")


def test_criterion_5_commutation_and_head_lossy():
    rng = random.Random(5_2024)
    pairs = commutable = failures = 0
    runs_checked = 0
    while pairs < 10_000:
        s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r"), ("Z", "r")),
                        receiver_tests=(("Z", "l"), ("N", "l")))
        start = Configuration(s.sender_states[0], s.receiver_states[0], (), ())
        run = random_lossy_run(rng, s, start, rng.randrange(4, 30))
        runs_checked += 1
        for i in range(len(run.steps) - 1):
            pairs += 1
            if commute_case(s, run, i) is None:
                continue
            commutable += 1
            swapped = commute(s, run, i)
            if not (swapped is not None
                    and validate_run(s, swapped, LOSSY)
                    and swapped.start == run.start
                    and swapped.end == run.end):
                failures += 1
        fixed = to_head_lossy(s, run)
        if not (validate_run(s, fixed, LOSSY) and is_head_lossy(fixed)
                and fixed.start == run.start and fixed.end == run.end):
            failures += 1
    ok = failures == 0 and commutable > 500
    _report(5, "commutation lemma and head-lossy normal form", ok,
            f"{pairs} pairs, {commutable} commutable, {runs_checked} runs, "
            f"{failures} failures")


def test_criterion_6_write_lossy_set_equality():
    res = check_write_lossy_equivalence(6_2024, samples=50, bound_len=4)
    ok = res.failed == 0 and res.passed == 100
    _report(6, "lossy vs write-lossy bounded sets", ok,
            f"{res.passed} set equalities over 50 systems")


def test_criterion_7_rewriting_loop_generator():
    swap = SemiThueSystem(("a", "b"), (("ab", "ba"), ("ba", "ab")))
    loop = thue_find_loop(swap, 2, 10)
    s, p_in, q_in, p_loop, q_loop = gen_thue_recurrent(swap)
    lasso = bounded_recurrent(s, p_in, q_in, p_loop, q_loop, Bound(4, 0))
    lasso_ok = (lasso is not None
                and validate_run(s, lasso.stem, LOSSY)
                and validate_run(s, lasso.cycle, LOSSY)
                and lasso.anchor.p == p_loop and lasso.anchor.q == q_loop)
    oneway = SemiThueSystem(("a", "b"), (("ab", "ba"),))
    s2, p_in2, q_in2, p_loop2, q_loop2 = gen_thue_recurrent(oneway)
    no_lasso = bounded_recurrent(s2, p_in2, q_in2, p_loop2, q_loop2,
                                 Bound(4, 0), max_states=100_000)
    ok = loop == "ab" and lasso_ok and no_lasso is None
    _report(7, "string-rewriting loop generator", ok,
            f"loop {loop!r}, lasso cycle of {len(lasso.cycle)} steps"
            if lasso else "no lasso")


def _brute_interleavings(w1, w2):
    if not w1:
        return {tuple(w2)}
    if not w2:
        return {tuple(w1)}
    return ({(w1[0],) + rest for rest in _brute_interleavings(w1[1:], w2)}
            | {(w2[0],) + rest for rest in _brute_interleavings(w1, w2[1:])})


def _member_superword_exists(lang, w):
    """Independent oracle for downward-closure membership: search the product
    of the language automaton with a subword matcher for w."""
    a = lang.normalize()
    by_src = {}
    for src, sym, dst in a.transitions:
        by_src.setdefault(src, []).append((sym, dst))
    seen = {(s, 0) for s in a.initial}
    frontier = list(seen)
    while frontier:
        state, matched = frontier.pop()
        if matched == len(w) and state in a.accepting:
            return True
        for sym, dst in by_src.get(state, ()):
            nxt = (dst, matched + 1 if matched < len(w) and w[matched] == sym
                   else matched)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def test_criterion_8_automaton_numerics():
    mismatches = 0
    corpus = ["EPS", "a", "a b | b", "(ANY ANY)*", "a* b a*", "ANY+",
              "(a | b b)* a"]
    for alphabet in (("a", "b"), ("a", "b", "c")):
        words = [w for n in range(6)
                 for w in itertools.product(alphabet, repeat=n)]
        for rex in corpus:
            lang = parse_regex(rex, alphabet)
            comp = lang.complement()
            up, down = lang.upward_closure(), lang.downward_closure()
            members = [w for w in words if lang.accepts(w)]
            for w in words:
                if comp.accepts(w) == lang.accepts(w):
                    mismatches += 1
                # an upward witness is a subword of w, so length <= 5 suffices
                want_up = any(subword(m, w) for m in members)
                if up.accepts(w) != want_up:
                    mismatches += 1
                if down.accepts(w) != _member_superword_exists(lang, w):
                    mismatches += 1
    shuffle_checks = 0
    for w1 in [("a",), ("a", "b"), ("a", "b", "a"), ("b", "b", "a", "a")]:
        for w2 in [("b",), ("b", "a"), ("a", "a"), ("a", "b", "b", "a")]:
            sh = Nfa.literal(w1, ("a", "b")).shuffle(Nfa.literal(w2, ("a", "b")))
            n = len(w1) + len(w2)
            got = {w for w in itertools.product(("a", "b"), repeat=n)
                   if sh.accepts(w)}
            shuffle_checks += 1
            if got != _brute_interleavings(w1, w2):
                mismatches += 1
    ok = mismatches == 0
    _report(8, "automaton numerics vs brute force", ok,
            f"{shuffle_checks} shuffle checks, 0 mismatches" if ok
            else f"{mismatches} mismatches")
