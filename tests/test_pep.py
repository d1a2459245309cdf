import hashlib
import random

import pytest

from ucst.errors import InputError
from ucst.model import LOSS, LOSSY, Configuration, validate_run
from ucst.pep import (
    PepInstance,
    advance_stabilize,
    bounded_solve,
    is_pre_solution,
    is_solution,
    postpone_stabilize,
    run_from_postpone_stable,
    run_to_presolution,
)
from ucst.randomgen import random_instance, random_ucst, random_z1l_instance
from ucst.reductions import bridge_context, run_pipeline, ucst_to_pep
from ucst.regdata import Nfa, parse_regex, subword, symkey

from support import dfa_accepts, dfa_distances, enumerate_solutions, nothing

SOL = ("d0", "d4", "d1", "d5", "d2", "d3")       # writes interleaved with reads
RUNW = ("d0", "d1", "d2", "d4", "d3", "d5")      # the witness run's rule order


@pytest.fixture(scope="module")
def fig6_pep(fig6_instance):
    return ucst_to_pep(fig6_instance)


@pytest.fixture(scope="module")
def fig6_ctx(fig6_instance):
    return bridge_context(fig6_instance)


class TestSolutionChecking:
    def test_interleaved_word_is_solution(self, fig6_pep):
        assert is_solution(fig6_pep, SOL)

    def test_run_order_word_is_not(self, fig6_pep):
        # the r-write letter d1 is not followed by its matching read
        assert not fig6_pep.R.accepts(RUNW)
        assert not is_solution(fig6_pep, RUNW)

    def test_empty_word_with_eps_constraint(self):
        sigma = ("a",)
        inst = PepInstance(sigma, ("x",), {"a": ("x",)}, {"a": ()},
                           Nfa.literal((), sigma), nothing(sigma))
        assert is_solution(inst, ())

    def test_suffix_condition_bites(self):
        # one letter whose u does not embed after the marked suffix start
        sigma = ("t", "a")
        inst = PepInstance(
            sigma, ("x",),
            {"t": (), "a": ("x",)},
            {"t": ("x",), "a": ()},
            parse_regex("t a", sigma),
            parse_regex("a", sigma))
        # whole word: u = x (from a), v = x (from t): embeds; suffix "a" is in
        # Rp and there u = x but v is empty
        assert not is_solution(inst, ("t", "a"))

    def test_agrees_with_definition(self, random_nfa):
        # the definition through the DFAs, which share nothing with the
        # lazy membership steps `is_solution` takes
        rng = random.Random(7406)
        sigma, gammas = ("a", "b"), ("x", "y")
        words = Nfa.all_words(sigma).words_up_to(4)[0]
        for _ in range(60):
            u = {a: tuple(rng.choices(gammas, k=rng.randrange(0, 2))) for a in sigma}
            v = {a: tuple(rng.choices(gammas, k=rng.randrange(0, 3))) for a in sigma}
            inst = PepInstance(sigma, gammas, u, v, random_nfa(rng, sigma),
                               random_nfa(rng, sigma))
            rdfa, rpdfa = inst.R.determinize(), inst.Rp.determinize()
            for word in words:
                want = dfa_accepts(rdfa, word) and all(
                    subword(inst.image_u(word[i:]), inst.image_v(word[i:]))
                    for i in range(len(word) + 1)
                    if i == 0 or dfa_accepts(rpdfa, word[i:]))
                assert is_solution(inst, word) == want, word


class TestBoundedSolve:
    def test_finds_length_6_solution(self, fig6_pep):
        word = bounded_solve(fig6_pep, 6)
        assert word is not None and len(word) == 6
        assert is_solution(fig6_pep, word)

    def test_unembeddable_instance(self):
        sigma = ("a",)
        inst = PepInstance(sigma, ("x",), {"a": ("x",)}, {"a": ()},
                           parse_regex("a a*", sigma), nothing(sigma))
        assert bounded_solve(inst, 10) is None

    def test_returns_least_solution(self):
        sigma = ("a", "b")
        inst = PepInstance(sigma, ("x",),
                           {"a": (), "b": ()}, {"a": ("x",), "b": ()},
                           parse_regex("a a | b", sigma), nothing(sigma))
        assert bounded_solve(inst, 4) == ("b",)

    def test_agrees_with_brute_force(self):
        rng = random.Random(2024)
        gammas = ("x", "y")
        for _ in range(40):
            sigma = tuple("abc"[: rng.randrange(1, 4)])
            rex_pool = ["EPS"] + [f"{a}" for a in sigma] + [
                " ".join(rng.choices(sigma, k=2)) for _ in range(2)] + [
                f"({sigma[0]} | {sigma[-1]})*"]
            u = {a: tuple(rng.choices(gammas, k=rng.randrange(0, 2))) for a in sigma}
            v = {a: tuple(rng.choices(gammas, k=rng.randrange(0, 3))) for a in sigma}
            big_r = parse_regex(rng.choice(rex_pool), sigma)
            rp = parse_regex(rng.choice(rex_pool), sigma)
            inst = PepInstance(sigma, gammas, u, v, big_r, rp)
            sols = enumerate_solutions(inst, 4)
            got = bounded_solve(inst, 4)
            assert (got is None) == (not sols)
            if sols:
                assert got == sols[0]
                assert is_solution(inst, got)


def dfa_bounded_solve(inst, max_len):
    """Reference: the same BFS over the total subset DFAs of R and R'.

    Every letter is tried from every state, and the prunings read the DFAs'
    distances to acceptance; the solver under test steps lazily instead.
    """
    rdfa = inst.R.determinize()
    rpdfa = inst.Rp.determinize()
    rdist = dfa_distances(rdfa)
    rp_alive = [d is not None for d in dfa_distances(rpdfa)]
    letters = sorted(inst.sigma, key=symkey)
    max_write = max((len(inst.v[a]) for a in letters), default=0)

    def residual(pending, written):
        i = 0
        for sym in written:
            if i < len(pending) and pending[i] == sym:
                i += 1
        return pending[i:]

    def accepted(state):
        rs, res, obligations = state
        if rs not in rdfa.accepting or res != ():
            return False
        return all(r == () for st, r in obligations if st in rpdfa.accepting)

    init = (rdfa.initial, (), frozenset())
    if rdist[rdfa.initial] is None:
        return None
    frontier = [(init, ())]
    seen = {init}
    if accepted(init):
        return ()
    for length in range(1, max_len + 1):
        remaining = max_len - length
        nxt, nxt_seen = [], set()
        for (rs, res, obligations), word in frontier:
            for a in letters:
                rs2 = rdfa.transitions[(rs, a)]
                if rdist[rs2] is None or rdist[rs2] > remaining:
                    continue
                ua, va = tuple(inst.u[a]), tuple(inst.v[a])
                res2 = residual(res + ua, va)
                if len(res2) > remaining * max_write:
                    continue
                obl2 = set()
                for st, r in obligations:
                    st2 = rpdfa.transitions[(st, a)]
                    if rp_alive[st2]:
                        obl2.add((st2, residual(r + ua, va)))
                st0 = rpdfa.transitions[(rpdfa.initial, a)]
                if rp_alive[st0]:
                    obl2.add((st0, residual(ua, va)))
                state2 = (rs2, res2, frozenset(obl2))
                if state2 not in seen and state2 not in nxt_seen:
                    nxt_seen.add(state2)
                    nxt.append((state2, word + (a,)))
        for state2, word in nxt:
            if accepted(state2):
                return word
        seen.update(nxt_seen)
        frontier = nxt
    return None


class TestLazySubsetSolve:
    """`bounded_solve` steps R and R' lazily; the DFA search is the oracle."""

    def test_matches_dfa_reference(self, random_nfa):
        rng = random.Random(9406)
        gammas = ("x", "y")
        lengths = []
        with_eps = letters = unused = 0
        for _ in range(600):
            sigma = tuple("abcdef"[: rng.randint(1, 6)])
            # each letter reads (u) or writes (v), as rule letters do
            u, v = {}, {}
            for a in sigma:
                word = tuple(rng.choices(gammas, k=rng.randint(1, 2)))
                u[a], v[a] = ((word[:1], ()) if rng.random() < 0.5
                              else ((), word))
            big_r = random_nfa(rng, sigma, 6)
            if rng.random() < 0.5:
                big_r = big_r.concat(Nfa.one_of(sigma, sigma)).concat(
                    random_nfa(rng, sigma, 6))
            inst = PepInstance(sigma, gammas, u, v, big_r,
                               random_nfa(rng, sigma, 6))
            syms = {sym for _, sym, _ in big_r.transitions}
            with_eps += None in syms
            letters += len(sigma)
            unused += len(set(sigma) - syms)
            for max_len in (0, 3, 6):
                want = dfa_bounded_solve(inst, max_len)
                assert bounded_solve(inst, max_len) == want, (inst, max_len)
                if want is not None:
                    lengths.append(len(want))
        # solutions of several lengths, many R with epsilon moves, and many
        # letters that no move of R reads (dead from every subset)
        assert len(lengths) >= 400 and sum(n >= 2 for n in lengths) >= 20
        assert with_eps >= 200 and unused * 5 >= letters

    # sha256 prefixes of the `bounded_solve` words at max_len 3, 8 and 10 on
    # seeded Sender Z/N instances with regular constraints, reduced to PEP
    # through trimmed stages: (stages run, digest) per instance
    PINS = {4: (("input", "eg", "eez1"), "d9539656ff3398d0"),
            8: (("input", "eg", "eez1"), "473bf35301a17317"),
            9: (("input", "eg", "eez1"), "b2a74699c4740f17"),
            12: (("input", "eg", "egz1", "eez1"), "6961ba4fdc5805ef"),
            20: (("input", "eg", "eez1"), "9042fe3169d281d5"),
            27: (("input", "eg", "eez1"), "5bc7831cce98f1ae")}

    def test_needs_no_dfa(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bounded_solve built a DFA")

        rng = random.Random(43)
        traces = {}
        for i in range(max(self.PINS) + 1):
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=3,
                            sender_tests=(("Z", "l"), ("N", "l")),
                            test_weight=0.4)
            inst = random_instance(rng, s, bias_reachable=1.0)
            if i in self.PINS:
                traces[i] = run_pipeline(inst, to="pep")
        monkeypatch.setattr(Nfa, "determinize", refuse)
        for i, trace in traces.items():
            words = [bounded_solve(trace.pep, n) for n in (3, 8, 10)]
            stages, digest = self.PINS[i]
            assert tuple(st.name for st in trace.stages) == stages
            assert words[-1] is not None and is_solution(trace.pep, words[-1])
            assert hashlib.sha256(repr(words).encode()).hexdigest()[:16] == digest, i


class TestPreSolutions:
    def test_run_order_word_is_pre_solution(self, fig6_ctx):
        assert is_pre_solution(fig6_ctx, RUNW) == (True, None)

    def test_solution_is_pre_solution(self, fig6_ctx):
        assert is_pre_solution(fig6_ctx, SOL) == (True, None)

    def test_early_read_violates_c3(self, fig6_ctx):
        # swap the r-write and its read: the read comes first
        word = ("d0", "d4", "d5", "d1", "d2", "d3")
        assert is_pre_solution(fig6_ctx, word) == (False, "c3")

    def test_wrong_path_violates_c1(self, fig6_ctx):
        assert is_pre_solution(fig6_ctx, ("d1",))[1] == "c1"

    def test_unread_l_requirement_violates_c5(self, fig6_ctx):
        # postpone the read of b past the emptiness test
        word = ("d0", "d1", "d2", "d3", "d4", "d5")
        assert is_pre_solution(fig6_ctx, word) == (False, "c5")


class TestStabilizers:
    def test_advance_gives_solution(self, fig6_ctx, fig6_pep):
        word = advance_stabilize(fig6_ctx, RUNW)
        assert fig6_pep.R.accepts(word)
        assert is_solution(fig6_pep, word)

    def test_advance_fixpoint(self, fig6_ctx):
        stable = advance_stabilize(fig6_ctx, RUNW)
        assert advance_stabilize(fig6_ctx, stable) == stable

    def test_all_sender_word_unchanged(self, fig6_ctx):
        # no Receiver letters at all: nothing to move; needs its own context
        # with matching endpoints, so reuse the run order minus receiver rules
        word = ("d0", "d1", "d2", "d3", "d4", "d5")
        # not a pre-solution (c5); stabilizers refuse it
        with pytest.raises(InputError):
            advance_stabilize(fig6_ctx, word)

    def test_postpone_recovers_run_order(self, fig6_ctx):
        assert postpone_stabilize(fig6_ctx, SOL) == RUNW


class TestReplay:
    def test_replay_matches_paper_run(self, fig6_ctx, fig6_run):
        run = run_from_postpone_stable(fig6_ctx, RUNW)
        assert validate_run(fig6_ctx.instance.system, run, LOSSY)
        assert run == fig6_run

    def test_lossless_word_replays_without_losses(self, fig6_instance):
        # Sender writes then Receiver immediately consumes; no l content is
        # ever dropped in d0 d4 ... because b is read right after being written
        ctx = bridge_context(fig6_instance)
        word = postpone_stabilize(ctx, SOL)
        run = run_from_postpone_stable(ctx, word)
        assert run.end == Configuration("p_fi", "q_fi", (), ())

    def test_run_projection(self, fig6_ctx, fig6_run):
        assert run_to_presolution(fig6_ctx, fig6_run) == RUNW

    def test_projection_of_lossless_run(self, fig6_ctx):
        run = run_from_postpone_stable(fig6_ctx, RUNW)
        assert run_to_presolution(fig6_ctx, run) == RUNW


class TestRandomRoundTrips:
    def test_projection_always_pre_solution(self):
        from ucst.explore import Bound, bounded_reach

        rng = random.Random(77)
        positives = 0
        for _ in range(60):
            inst = random_z1l_instance(rng)
            verdict = bounded_reach(inst, Bound(3, 300), LOSSY)
            if not verdict.reachable:
                continue
            positives += 1
            ctx = bridge_context(inst)
            word = run_to_presolution(ctx, verdict.witness)
            assert is_pre_solution(ctx, word) == (True, None)
        assert positives >= 10
