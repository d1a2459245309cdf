"""One instance from `.ucst` text to a checked verdict, the way `ucst reach`
answers it.

Calls go through module attributes (`explore.bounded_reach`, not a name
imported from it), so that the traced run can wrap each layer's public
functions without editing the program.
"""

from dataclasses import dataclass

from ucst import errors, explore, fileformat, model, pep, reductions

REACHABLE = "REACHABLE"
UNREACHABLE = "UNREACHABLE"
NOT_WITHIN_BOUND = "NOT-WITHIN-BOUND"

# exit codes of `ucst reach`
EXIT_REACHABLE = 0
EXIT_NOT_WITHIN_BOUND = 1


@dataclass
class Outcome:
    verdict: str
    path: str                   # "explore", "pep" or "saturation"
    run: object = None          # witness Run, when there is one
    instance: object = None     # the ReachInstance the witness belongs to
    on_input: bool = True       # that instance is the parsed input itself
    witness_valid: bool = True  # validate_run on the witness

    @property
    def exit_code(self):
        return EXIT_REACHABLE if self.verdict == REACHABLE else EXIT_NOT_WITHIN_BOUND


def solve(case, text):
    """Verdict for `case` from its text, mirroring `ucst.cli.cmd_reach`.

    The report and witness renderings the command prints are built too, the
    embedding instance is printed as `ucst reduce --to pep` emits it when the
    case asks for that, and every witness is checked with `validate_run`.
    """
    inst, _ = fileformat.parse_ucst(text)
    bound = explore.Bound(case.bound, 0)
    if case.method == "explore":
        verdict = explore.bounded_reach(inst, bound, case.mode)
        if not verdict.reachable:
            return Outcome(str(verdict), "explore")
        model.format_run(inst.system, verdict.witness)
        return Outcome(REACHABLE, "explore", verdict.witness, inst, True,
                       model.validate_run(inst.system, verdict.witness,
                                          case.mode))
    try:
        trace = reductions.run_pipeline(inst, to="pep")
    except errors.FragmentError:
        trace = reductions.run_pipeline(inst, to="eez1")
        trace.report()
        found = reductions.decide_eereach_z1(
            trace.final_instance, reductions.bounded_oracle(bound))
        return Outcome(REACHABLE if found else NOT_WITHIN_BOUND, "saturation")
    final = trace.final_instance
    trace.report()
    if case.emit_pep:
        fileformat.print_pep(trace.pep)
    word = pep.bounded_solve(trace.pep, case.pep_len)
    if word is None:
        return Outcome(NOT_WITHIN_BOUND, "pep")
    ctx = reductions.bridge_context(final)
    run = pep.run_from_postpone_stable(ctx, pep.postpone_stabilize(ctx, word))
    model.format_run(final.system, run)
    return Outcome(REACHABLE, "pep", run, final, final is inst,
                   model.validate_run(final.system, run, model.LOSSY))
