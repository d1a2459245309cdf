import pytest

from ucst.cli import main
from ucst.errors import ReplayError
from ucst.fileformat import parse_ucst
from ucst.model import LOSSY, validate_run
from ucst.pep import bounded_solve, postpone_stabilize, run_from_postpone_stable
from ucst.reductions import bridge_context, run_pipeline
from tests.test_fileformat import FIG6_TEXT

from support import parse_pep


@pytest.fixture
def fig6_file(tmp_path):
    path = tmp_path / "fig6.ucst"
    path.write_text(FIG6_TEXT)
    return str(path)


UNREACHABLE_TEXT = """\
alphabet: a
sender: p0 p1
receiver: q0
rule s: p0 -> p1 : r!a
instance: p0 p1 q0 q0
U: EPS
V: EPS
Up: EPS
Vp: EPS
"""

# Sender passes an r-emptiness test, so the pipeline answers by saturation
R_TEST_TEXT = """\
alphabet: a
sender: p0 p1 p2
receiver: q0 q1
rule s: p0 -> p1 : r!a
rule s: p1 -> p2 : r=EPS
rule r: q0 -> q1 : r?a
instance: p0 p2 q0 q1
U: EPS
V: EPS
Up: EPS
Vp: EPS
"""


class TestReach:
    def test_explore_fig6(self, fig6_file, capsys):
        code = main(["reach", fig6_file, "--bound", "2", "--steps", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "REACHABLE" in out and "rule s#0" in out

    def test_pipeline_fig6(self, fig6_file, capsys):
        code = main(["reach", fig6_file, "--method", "pipeline",
                     "--pep-len", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "REACHABLE" in out
        # seven steps: six rules and one loss
        assert out.count("\n  ") == 7 or "7." in out

    def test_trivial_self_instance(self, tmp_path, capsys):
        text = FIG6_TEXT.replace("instance: p_in p_fi q_in q_fi",
                                 "instance: p_in p_in q_in q_in")
        path = tmp_path / "self.ucst"
        path.write_text(text)
        assert main(["reach", str(path), "--bound", "1"]) == 0

    def test_unreachable_exits_1(self, tmp_path):
        path = tmp_path / "dead.ucst"
        path.write_text(UNREACHABLE_TEXT)
        assert main(["reach", str(path), "--bound", "4"]) == 1

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.ucst"
        path.write_text("alphabet: a\n")
        assert main(["reach", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_regex_keyword_symbol_exits_2(self, tmp_path, capsys):
        path = tmp_path / "keyword.ucst"
        path.write_text(FIG6_TEXT.replace("alphabet: a b c",
                                          "alphabet: a b c EPS"))
        for command in (["reach", str(path)],
                        ["reduce", str(path), "--to", "pep"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "'EPS'" in err

    def test_negative_pep_len_exits_2_before_any_output(self, fig6_file,
                                                        tmp_path, capsys):
        # both pipeline paths: the embedding solver (fig6) and the
        # saturation fallback (a Sender r-emptiness test)
        rtest = tmp_path / "rtest.ucst"
        rtest.write_text(R_TEST_TEXT)
        for path in (fig6_file, str(rtest)):
            code = main(["reach", path, "--method", "pipeline",
                         "--pep-len", "-1"])
            out, err = capsys.readouterr()
            assert code == 2, path
            assert out == "", path
            assert err.startswith("error: ") and "--pep-len" in err

    def test_internal_replay_failure_exits_2(self, fig6_file, capsys, monkeypatch):
        def fail(ctx, word):
            raise ReplayError(3, "rule 4 not enabled")

        monkeypatch.setattr("ucst.cli.run_from_postpone_stable", fail)
        code = main(["reach", fig6_file, "--method", "pipeline", "--pep-len", "6"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: internal: replay failed at position 3")

    def test_saturation_fallback_for_r_tests(self, tmp_path, capsys):
        path = tmp_path / "rtest.ucst"
        path.write_text(R_TEST_TEXT)
        code = main(["reach", str(path), "--method", "pipeline", "--bound", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saturation" in out


    def test_saturation_finds_a_nine_letter_minimal_element(self, tmp_path, capsys):
        # Sender writes a^9 on l, then tests r empty; Receiver reads a^9 from
        # l, so (p9, q0, eps, a^9) is a minimal element of the backward set
        writes = [f"rule s: p{i} -> p{i + 1} : l!a" for i in range(9)]
        reads = [f"rule r: q{i} -> q{i + 1} : l?a" for i in range(9)]
        text = "\n".join(
            ["alphabet: a",
             "sender: " + " ".join(f"p{i}" for i in range(11)),
             "receiver: " + " ".join(f"q{i}" for i in range(10))]
            + writes + ["rule s: p9 -> p10 : r=EPS"] + reads
            + ["instance: p0 p10 q0 q9", "U: EPS", "V: EPS", "Up: EPS", "Vp: EPS"])
        path = tmp_path / "long.ucst"
        path.write_text(text + "\n")
        code = main(["reach", str(path), "--method", "pipeline", "--bound", "9"])
        assert code == 0
        assert "REACHABLE (saturation" in capsys.readouterr().out


class TestReduce:
    def test_reduce_to_pep(self, fig6_file, tmp_path, capsys):
        out_file = tmp_path / "fig6.pep"
        code = main(["reduce", fig6_file, "--to", "pep", "-o", str(out_file)])
        assert code == 0
        pep = parse_pep(out_file.read_text())
        from ucst.pep import is_solution

        assert is_solution(pep, ("d0", "d4", "d1", "d5", "d2", "d3"))

    def test_reduce_stage_file_reparses(self, tmp_path, capsys):
        source = tmp_path / "zn.ucst"
        source.write_text("""\
alphabet: a
sender: p0 p1
receiver: q0 q1
rule s: p0 -> p1 : l!a
rule r: q0 -> q1 : l=EPS
instance: p0 p1 q0 q1
U: EPS
V: EPS
Up: EPS
Vp: EPS
""")
        out_file = tmp_path / "zn.z1n1.ucst"
        assert main(["reduce", str(source), "--to", "z1n1",
                     "-o", str(out_file)]) == 0
        inst, stage = parse_ucst(out_file.read_text())
        assert stage == "z1n1"
        assert "z" in inst.system.alphabet

    def test_identity_stage_is_noop(self, fig6_file, tmp_path, capsys):
        out_file = tmp_path / "same.ucst"
        assert main(["reduce", fig6_file, "--to", "z1n1",
                     "-o", str(out_file)]) == 0
        inst, _ = parse_ucst(out_file.read_text())
        original, _ = parse_ucst(FIG6_TEXT)
        from support import instance_equal

        assert instance_equal(inst, original)

    def test_fragment_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "parity.ucst"
        path.write_text("""\
alphabet: a
sender: p0 p1
receiver: q0
rule s: p0 -> p1 : r=(ANY ANY)*
instance: p0 p1 q0 q0
U: EPS
V: EPS
Up: EPS
Vp: EPS
""")
        assert main(["reduce", str(path), "--to", "z1n1"]) == 2


class TestGen:
    def test_gen_queue_parity(self, tmp_path, capsys):
        out_file = tmp_path / "qa.ucst"
        assert main(["gen", "queue-parity", "--ops", "w:a,r:a",
                     "-o", str(out_file)]) == 0
        inst, stage = parse_ucst(out_file.read_text())
        assert stage == "generated"
        from ucst.explore import Bound, bounded_reach

        assert bounded_reach(inst, Bound(3, 500), LOSSY).reachable

    @pytest.mark.parametrize("ops,bad", [("w:EPS,r:EPS", "'EPS'"),
                                         ("w:a|b", "'a|b'")])
    def test_gen_rejects_letters_reach_would_refuse(self, tmp_path, capsys,
                                                    ops, bad):
        # a keyword letter and a letter with a reserved character
        out_file = tmp_path / "qa.ucst"
        assert main(["gen", "queue-parity", "--ops", ops,
                     "-o", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err
        assert not out_file.exists()

    def test_gen_thue(self, tmp_path):
        out_file = tmp_path / "thue.ucst"
        assert main(["gen", "thue", "--rules", "ab>ba,ba>ab",
                     "-o", str(out_file)]) == 0
        inst, stage = parse_ucst(out_file.read_text())
        assert stage == "generated"
        assert "#" in inst.system.alphabet

    def test_gen_writelossy(self, tmp_path):
        out_file = tmp_path / "wl.ucst"
        assert main(["gen", "writelossy", "--ops", "w:a,r:a",
                     "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "--mode write-lossy" in text
        parse_ucst(text)


class TestValidateCommand:
    def test_small_run_passes_and_reproduces(self, capsys, monkeypatch):
        code = main(["validate", "--samples", "3", "--seed", "5"])
        first = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in first
        code = main(["validate", "--samples", "3", "--seed", "5"])
        second = capsys.readouterr().out
        assert code == 0 and first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("UCST_SEED", "5")
        main(["validate", "--samples", "3", "--seed", "99"])
        via_env = capsys.readouterr().out
        monkeypatch.delenv("UCST_SEED")
        main(["validate", "--samples", "3", "--seed", "5"])
        direct = capsys.readouterr().out
        assert via_env == direct

    def test_malformed_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("UCST_SEED", "abc")
        assert main(["validate", "--samples", "3"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: UCST_SEED") and out == ""

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_no_samples_exits_2(self, capsys, samples):
        assert main(["validate", "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: --samples") and "PASS" not in out


class TestWitnessesRevalidate:
    def test_printed_pipeline_witness_validates(self, fig6_file, capsys):
        main(["reach", fig6_file, "--method", "pipeline", "--pep-len", "6"])
        capsys.readouterr()
        # the pipeline transports the solved word back into a run; re-check
        # the same machinery end to end through the library
        from ucst.explore import Bound, bounded_reach
        from ucst.pep import bounded_solve, postpone_stabilize, run_from_postpone_stable
        from ucst.reductions import bridge_context, run_pipeline

        inst, _ = parse_ucst(FIG6_TEXT)
        trace = run_pipeline(inst, to="pep")
        word = bounded_solve(trace.pep, 6)
        ctx = bridge_context(trace.final_instance)
        run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, word))
        assert validate_run(trace.final_instance.system, run, LOSSY)


class TestStageNamesAvoidReceiverStates:
    # Receiver states spelled like the Sender states the stages make: the
    # mode state `p1<##>` of elim_final, and the buffer state `p2[-,-]` of
    # elim_n1 (whose modes are then `p1[-,-]<xy>`, so only its name clashes)
    CLASHES = {
        "elim_final": ("p0 p1", "p1<##> q1", "", ["input", "eez1"]),
        "elim_n1": ("p0 p1 p2", "p1<##> p2[-,-] q1",
                    "rule s: p1 -> p2 : l=ANY ANY*\n",
                    ["input", "egz1", "eez1"]),
    }

    @pytest.mark.parametrize("stage", sorted(CLASHES))
    def test_pipeline_answers_reachable(self, stage, tmp_path, capsys):
        sender, receiver, n_test, stages = self.CLASHES[stage]
        text = (f"alphabet: a\nsender: {sender}\nreceiver: {receiver}\n"
                f"rule s: p0 -> p1 : l!a\n{n_test}"
                "rule r: p1<##> -> q1 : l?a\n"
                "instance: p0 p1 p1<##> q1\n"
                "U: EPS\nV: EPS\nUp: EPS\nVp: a | EPS\n")
        path = tmp_path / "clash.ucst"
        path.write_text(text)
        assert main(["reach", str(path), "--method", "explore"]) == 0
        capsys.readouterr()
        assert main(["reach", str(path), "--method", "pipeline"]) == 0
        assert "\nREACHABLE\n" in capsys.readouterr().out
        assert main(["reduce", str(path), "--to", "pep"]) == 0

        inst, _ = parse_ucst(text)
        trace = run_pipeline(inst, to="pep")
        assert [st.name for st in trace.stages] == stages
        word = bounded_solve(trace.pep, 8)
        ctx = bridge_context(trace.final_instance)
        run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, word))
        assert validate_run(trace.final_instance.system, run, LOSSY)
