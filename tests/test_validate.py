from ucst import validate
from ucst.model import Action, ReachInstance, Rule, Ucst
from ucst.pep import PepInstance
from ucst.reductions import bridge_context, ucst_to_pep
from ucst.regdata import Nfa
from ucst.validate import (
    check_pep_roundtrips,
    check_stage_equivalence,
    check_stage_trim,
    check_write_lossy_equivalence,
    run_validation,
)

from support import check_solution_transport


def test_default_battery_is_clean():
    results = run_validation(20140801, 10)
    assert all(r.ok for r in results)
    assert sum(r.passed for r in results) > 30


def test_battery_is_deterministic():
    lines1 = [r.line() for r in run_validation(7, 5)]
    lines2 = [r.line() for r in run_validation(7, 5)]
    assert lines1 == lines2


def test_stage_equivalence_counts():
    results = check_stage_equivalence(1, 10)
    assert [r.name for r in results] == [
        "stage receiver-tests", "stage initial-constraints",
        "stage buffering", "stage final-constraints"]
    assert all(r.ok for r in results)


def test_stage_trim_row(monkeypatch):
    res = check_stage_trim(1, 10)
    assert res.name == "stage trim" and res.ok and res.passed == 40
    # a trim that drops every Receiver rule changes what is reachable
    trim = validate.control_trim
    monkeypatch.setattr(validate, "control_trim",
                        lambda inst: (trim(inst)[0], set()))
    broken = check_stage_trim(1, 10)
    assert not broken.ok
    assert any("untrimmed REACHABLE" in note for note in broken.notes)


def test_roundtrips_clean():
    res = check_pep_roundtrips(2, 30)
    assert res.ok and res.passed >= 10


def test_write_lossy_harness_clean():
    res = check_write_lossy_equivalence(3, 25)
    assert res.ok and res.passed == 50


def _order_sensitive_instance():
    m = ("x", "y")
    s = Ucst(m, ("p_in", "p1", "p_fi"), ("q_in", "q_fi"),
             [Rule("p_in", "r", Action.write("y"), "p1"),
              Rule("p1", "l", Action.write("x"), "p_fi")],
             [Rule("q_in", "r", Action.read("y"), "q_fi")])
    eps = Nfa.literal((), m)
    return ReachInstance(s, "p_in", "p_fi", "q_in", "q_fi",
                         eps, eps, eps, eps)


def test_mutant_without_order_constraint_fails_roundtrip():
    inst = _order_sensitive_instance()
    pep = ucst_to_pep(inst)
    ctx = bridge_context(inst)
    clean = check_solution_transport(ctx, pep, 3)
    assert clean.ok and clean.passed >= 1
    # drop the immediate-read pairing from R: keep only the interleavings
    sigma = pep.sigma
    shuffled = Nfa.literal(("d0", "d1"), sigma).shuffle(
        Nfa.literal(("d2",), sigma)).with_alphabet(sigma)
    mutant = PepInstance(sigma, pep.gamma, pep.u, pep.v, shuffled, pep.Rp)
    broken = check_solution_transport(ctx, mutant, 3)
    assert not broken.ok
    assert any("c3" in note or "c2" in note for note in broken.notes)
