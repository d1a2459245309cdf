import hashlib
import random

import pytest

from ucst.errors import InputError
from ucst.fileformat import (
    _Alternation,
    nfa_to_regex,
    parse_ucst,
    print_pep,
    print_ucst,
)
from ucst.randomgen import random_instance, random_ucst, random_z1l_instance
from ucst.reductions import run_pipeline, ucst_to_pep
from ucst.regdata import Nfa, language_equal, parse_regex

from support import instance_equal, parse_pep, pep_equal

FIG6_TEXT = """\
// the six-rule worked example
alphabet: a b c
sender: p_in p1 p2 p3 p_fi
receiver: q_in q1 q_fi
rule s: p_in -> p1 : l!a
rule s: p1 -> p2 : r!c
rule s: p2 -> p3 : l!b
rule s: p3 -> p_fi : l=EPS
rule r: q_in -> q1 : l?b
rule r: q1 -> q_fi : r?c
instance: p_in p_fi q_in q_fi
U: EPS
V: EPS
Up: EPS
Vp: EPS
"""


class TestNfaToRegex:
    def test_round_trips_language(self):
        corpus = ["EPS", "a", "a b | b a", "(ANY ANY)*", "a* b", "ANY+",
                  "(a | b b)* a"]
        for rex in corpus:
            lang = parse_regex(rex, ("a", "b"))
            back = parse_regex(nfa_to_regex(lang), ("a", "b"))
            assert language_equal(lang, back), rex

    def test_empty_language(self):
        assert nfa_to_regex(Nfa.nothing(("a",))) == "NONE"
        none = parse_regex("NONE", ("a",))
        assert none.distance(none.initial_subset()) is None

    def test_pad_closure_round_trips(self):
        lang = parse_regex("a | a b", ("a", "b")).pad_closure("n")
        back = parse_regex(nfa_to_regex(lang), ("a", "b", "n"))
        assert language_equal(lang, back)


def list_alt(x, y):
    """Alternation by its first definition: duplicates dropped by a list scan."""
    if x is None:
        return y
    if y is None:
        return x
    branches = []
    for node in (x, y):
        for part in (node[1] if node[0] == "alt" else (node,)):
            if part not in branches:
                branches.append(part)
    return branches[0] if len(branches) == 1 else ("alt", tuple(branches))


def random_regex_tree(rng, depth):
    kinds = ("eps", "sym", "sym", "star", "cat", "alt") if depth else ("eps", "sym")
    kind = rng.choice(kinds)
    if kind == "eps":
        return ("eps",)
    if kind == "sym":
        return ("sym", rng.choice("ab"))
    if kind == "star":
        return ("star", random_regex_tree(rng, depth - 1))
    return (kind, tuple(random_regex_tree(rng, depth - 1)
                        for _ in range(rng.randint(2, 3))))


def rebuilt(node):
    """An equal copy of `node` that shares no tuple with it."""
    if node[0] in ("cat", "alt"):
        return (node[0], tuple([rebuilt(part) for part in node[1]]))
    if node[0] == "star":
        return ("star", rebuilt(node[1]))
    return tuple(list(node))


class TestAlt:
    def test_agrees_with_list_definition(self):
        rng = random.Random(89)
        merged = 0
        for _ in range(300):
            got, want = _Alternation(), None
            trees = []
            for _ in range(rng.randint(1, 8)):
                if trees and rng.random() < 0.4:
                    node = rebuilt(rng.choice(trees))
                else:
                    node = random_regex_tree(rng, rng.randint(0, 3))
                trees.append(node)
                merged += want is not None and list_alt(want, node) == want
                got.add(node)
                want = list_alt(want, node)
                assert got.node == want
            one = _Alternation()
            one.add(want)
            assert _Alternation().node is None and one.node == want
        assert merged >= 100  # duplicate branches were really dropped


class TestUcstFormat:
    def test_parse_fig6(self, fig6_instance):
        inst, stage = parse_ucst(FIG6_TEXT)
        assert stage is None
        assert instance_equal(inst, fig6_instance)

    def test_print_parse_round_trip(self, fig6_instance):
        text = print_ucst(fig6_instance)
        inst, _ = parse_ucst(text)
        assert instance_equal(inst, fig6_instance)

    def test_random_round_trips(self):
        rng = random.Random(31)
        for _ in range(15):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")),
                            receiver_tests=(("Z", "r"),))
            inst = random_instance(rng, s)
            text = print_ucst(inst)
            back, _ = parse_ucst(text)
            assert instance_equal(back, inst)
            assert print_ucst(back) == text

    def test_reserved_symbols_rejected(self):
        bad = FIG6_TEXT.replace("alphabet: a b c", "alphabet: a z c")
        with pytest.raises(InputError):
            parse_ucst(bad)

    def test_stage_header_lifts_reservation(self):
        extended = FIG6_TEXT.replace("alphabet: a b c", "alphabet: a b c z")
        with pytest.raises(InputError):
            parse_ucst(extended)
        inst, stage = parse_ucst("stage: z1n1\n" + extended)
        assert stage == "z1n1" and "z" in inst.system.alphabet

    def test_emitted_stage_files_reparse(self, fig6_instance):
        inst, _ = parse_ucst(FIG6_TEXT)
        trace = run_pipeline(
            random_instance(random.Random(3),
                            random_ucst(random.Random(3),
                                        receiver_tests=(("Z", "l"), ("N", "l")))),
            to="eez1")
        emitted = print_ucst(trace.final_instance, stage="eez1")
        back, stage = parse_ucst(emitted)
        assert stage == "eez1"
        assert instance_equal(back, trace.final_instance)

    def test_equal_texts_share_one_automaton(self):
        inst, _ = parse_ucst(FIG6_TEXT + "rule s: p_in -> p_in : r=EPS\n"
                             "rule s: p1 -> p1 : l=a*\n")
        s = inst.system
        eps_lang = s.rules[3].action.lang
        assert all(c is eps_lang for c in inst.constraints())
        # Sender rules come first: the two new ones are rules 4 and 5
        assert s.rules[4].action.lang is eps_lang
        assert s.rules[5].action.lang is not eps_lang
        # one table per file: a second parse builds its own automata
        again, _ = parse_ucst(FIG6_TEXT)
        assert again.U is not inst.U

    @pytest.mark.parametrize("keyword", ["EPS", "ANY", "NONE"])
    def test_regex_keywords_rejected_as_symbols(self, keyword):
        # `ANY b*` over the alphabet `EPS b` printed back as `(EPS | b) b*`,
        # which reads EPS as the empty word
        bad = FIG6_TEXT.replace("alphabet: a b c", f"alphabet: a b c {keyword}")
        for text in (bad, "stage: eez1\n" + bad):
            with pytest.raises(InputError, match="keyword"):
                parse_ucst(text)

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_ucst("alphabet: a\nsender: p\nreceiver: q\n")
        with pytest.raises(InputError):
            parse_ucst(FIG6_TEXT + "\nbogus: x\n")


class TestPepFormat:
    def test_round_trip(self, fig6_instance):
        pep = ucst_to_pep(fig6_instance)
        text = print_pep(pep)
        back = parse_pep(text)
        assert pep_equal(back, pep)
        # emission works on the canonical minimal automaton, so it is stable
        assert print_pep(back) == text

    def test_empty_suffix_language(self):
        sigma = ("x",)
        from ucst.pep import PepInstance

        pep = PepInstance(sigma, ("g",), {"x": ("g",)}, {"x": ()},
                          parse_regex("x", sigma), Nfa.nothing(sigma))
        back = parse_pep(print_pep(pep))
        assert pep_equal(back, pep)

    @pytest.mark.parametrize("keyword", ["EPS", "ANY", "NONE"])
    def test_regex_keywords_rejected_as_letters(self, keyword):
        # an image line reads EPS as the empty image, and R and Rp are regexes
        for sigma, gamma in ((f"x {keyword}", "g"), ("x", f"g {keyword}")):
            with pytest.raises(InputError, match="keyword"):
                parse_pep(f"sigma: {sigma}\ngamma: {gamma}\n"
                          "u: x -> g\nv: x -> g\nR: x\nRp: x*\n")

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_pep("sigma: a\ngamma: g\nR: a\n")


class TestPrintPepPins:
    # sha256 prefixes of `print_pep` on seeded Sender Z/N instances with
    # regular constraints, reduced to PEP: (stages run, digest) per instance.
    # The first six are control-cut: the trimmed stages keep no rule, so R
    # is empty and each prints the same text; the last six are not.
    CUT = "71ae747194d254a6"
    PINS = {0: (("input", "eg", "eez1"), CUT),
            2: (("input", "eg", "eez1"), CUT),
            6: (("input", "eg", "eez1"), CUT),
            7: (("input", "eg", "eez1"), CUT),
            10: (("input", "eg", "eez1"), CUT),
            11: (("input", "eg", "eez1"), CUT),
            13: (("input", "eg", "eez1"), "767dbe8f21a78dda"),
            17: (("input", "eg", "eez1"), "5381ea3e62a94ccf"),
            21: (("input", "eg", "eez1"), "9e861ae3660cc593"),
            22: (("input", "eg", "eez1"), "4a77903ee494f489"),
            23: (("input", "eg", "egz1", "eez1"), "8ac18863ca7a6eb3"),
            25: (("input", "eg", "eez1"), "dac3cfa79cb769e4")}

    def test_reduced_zn_instances(self):
        rng = random.Random(43)
        for i in range(max(self.PINS) + 1):
            s = random_ucst(rng, alphabet=("a", "b"), n_sender=3, n_receiver=2,
                            n_sender_rules=4, n_receiver_rules=3,
                            sender_tests=(("Z", "l"), ("N", "l")),
                            test_weight=0.4)
            inst = random_instance(rng, s)
            if i not in self.PINS:
                continue
            trace = run_pipeline(inst, to="pep")
            text = print_pep(trace.pep)
            stages, digest = self.PINS[i]
            assert tuple(st.name for st in trace.stages) == stages
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, i
            assert pep_equal(parse_pep(text), trace.pep)


class TestRandomPepRoundTrip:
    def test_random_z1l_instances(self):
        rng = random.Random(37)
        for _ in range(12):
            pep = ucst_to_pep(random_z1l_instance(rng))
            text = print_pep(pep)
            back = parse_pep(text)
            assert pep_equal(back, pep)
            assert print_pep(back) == text


# characters that mean something to the line or regex syntax, plus letters
FUZZ_CHARS = " \t\n:|()*+!?=-></#acz0"


def mutate(rng, text):
    """`text` with one character or one line deleted, inserted, duplicated
    or cut."""
    kind = rng.randrange(5)
    if kind < 2:
        pos = rng.randrange(len(text) + 1)
        if kind == 0:
            return text[:pos] + text[pos + 1:]
        return text[:pos] + rng.choice(FUZZ_CHARS) + text[pos:]
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    if kind == 2:
        del lines[i]
    elif kind == 3:
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    return "\n".join(lines)


def fuzz(parse, texts, seed, n):
    """Parse `n` mutants of `texts`; the parser may only reject them with
    `InputError`.  Returns how many it rejected."""
    rng = random.Random(seed)
    rejected = 0
    for _ in range(n):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text)
        try:
            parse(text)
        except InputError:
            rejected += 1
    return rejected


class TestParserFuzz:
    def test_parse_ucst_mutants(self):
        rng = random.Random(41)
        texts = [FIG6_TEXT]
        for _ in range(4):
            s = random_ucst(rng, sender_tests=(("Z", "l"), ("N", "r")),
                            receiver_tests=(("Z", "r"),))
            texts.append(print_ucst(random_instance(rng, s)))
        assert 0 < fuzz(parse_ucst, texts, 43, 1500) < 1500

    def test_parse_pep_mutants(self, fig6_instance):
        rng = random.Random(47)
        texts = [print_pep(ucst_to_pep(fig6_instance))]
        texts += [print_pep(ucst_to_pep(random_z1l_instance(rng))) for _ in range(3)]
        assert 0 < fuzz(parse_pep, texts, 53, 1500) < 1500
