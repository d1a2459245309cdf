"""Command line: parse instance files, explore, reduce, solve, validate, generate."""

import argparse
import os
import sys

from .errors import FragmentError, InputError, OracleInconclusive
from .explore import Bound, bounded_reach
from .fileformat import check_symbols, parse_ucst, print_pep, print_ucst
from .generators import (
    SemiThueSystem,
    gen_queue_head,
    gen_queue_parity,
    gen_thue_recurrent,
    gen_writelossy_queue,
    linear_queue_automaton,
)
from .model import LOSSY, MODES, ReachInstance, format_run
from .pep import bounded_solve, postpone_stabilize, run_from_postpone_stable
from .reductions import (
    STAGE_ORDER,
    bounded_oracle,
    bridge_context,
    decide_eereach_z1,
    run_pipeline,
)
from .regdata import Nfa
from .validate import run_validation

EXIT_REACHABLE = 0
EXIT_NOT_WITHIN_BOUND = 1
EXIT_ERROR = 2


def _read_instance(path):
    with open(path) as handle:
        return parse_ucst(handle.read())


def _emit(text, out):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def cmd_reach(args):
    inst, _ = _read_instance(args.file)
    bound = Bound(args.bound, args.steps)
    if args.pep_len < 0:
        raise InputError(f"--pep-len must be nonnegative, not {args.pep_len}")
    if args.method == "explore":
        verdict = bounded_reach(inst, bound, args.mode)
        print(verdict)
        if verdict.reachable:
            print(format_run(inst.system, verdict.witness))
            return EXIT_REACHABLE
        return EXIT_NOT_WITHIN_BOUND
    if args.mode != LOSSY:
        raise InputError("the pipeline method answers the lossy semantics")
    return run_pipeline_maybe_z1r(inst, args)


def run_pipeline_maybe_z1r(inst, args):
    """Pipeline method: reduce, then either solve the embedding instance and
    transport the solution back, or fall back to the saturation procedure
    when emptiness tests on r survive the reductions."""
    try:
        trace = run_pipeline(inst, to="pep")
    except FragmentError:
        trace = run_pipeline(inst, to="eez1")
        final = trace.final_instance
        print(trace.report())
        answer = decide_eereach_z1(final, bounded_oracle(Bound(args.bound,
                                                               args.steps)))
        print("REACHABLE (saturation, bound-relative oracle, no witness)"
              if answer else "NOT-WITHIN-BOUND (saturation, bound-relative oracle)")
        return EXIT_REACHABLE if answer else EXIT_NOT_WITHIN_BOUND
    final = trace.final_instance
    print(trace.report())
    word = bounded_solve(trace.pep, args.pep_len)
    if word is None:
        print("NOT-WITHIN-BOUND (no embedding solution up to "
              f"{args.pep_len} letters)")
        return EXIT_NOT_WITHIN_BOUND
    ctx = bridge_context(final)
    run = run_from_postpone_stable(ctx, postpone_stabilize(ctx, word))
    print("REACHABLE")
    print("solution:", " ".join(word))
    print(format_run(final.system, run))
    return EXIT_REACHABLE


def cmd_reduce(args):
    inst, _ = _read_instance(args.file)
    trace = run_pipeline(inst, to=args.to)
    print(trace.report())
    if args.to == "pep":
        _emit(print_pep(trace.pep), args.output)
    else:
        _emit(print_ucst(trace.final_instance, stage=args.to), args.output)
    return 0


def cmd_validate(args):
    seed = args.seed
    env_seed = os.environ.get("UCST_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InputError(f"UCST_SEED must be an integer, not {env_seed!r}")
    if args.samples < 1:
        # no samples would run no checks and still print PASS
        raise InputError(f"--samples must be at least 1, not {args.samples}")
    results = run_validation(seed, args.samples, args.bound)
    failures = 0
    for res in results:
        print(res.line())
        for note in res.notes[:5]:
            print(f"  - {note}")
        failures += res.failed
    print(f"total: {sum(r.passed for r in results)} passed, {failures} failed")
    return 0 if failures == 0 else 1


def _parse_ops(text):
    ops = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        kind, _, letter = piece.partition(":")
        if kind not in ("w", "r") or not letter:
            raise InputError(f"queue op {piece!r}; expected w:<letter> or r:<letter>")
        ops.append(("write" if kind == "w" else "read", letter))
    # the letters become the alphabet of a generated file: check them as
    # `reach` checks that file
    check_symbols([letter for _, letter in ops], "generated")
    return ops


def _parse_thue_rules(text):
    rules = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        lhs, sep, rhs = piece.partition(">")
        if not sep:
            raise InputError(f"rewrite rule {piece!r}; expected lhs>rhs")
        rules.append((lhs.strip(), rhs.strip()))
    return rules


def cmd_gen(args):
    if args.kind == "thue":
        rules = _parse_thue_rules(args.rules)
        alphabet = tuple(sorted({c for pair in rules for word in pair for c in word}))
        system, p_in, q_in, p_loop, q_loop = gen_thue_recurrent(
            SemiThueSystem(alphabet, tuple(rules)))
        anyw = Nfa.all_words(system.alphabet)
        eps = Nfa.literal((), system.alphabet)
        inst = ReachInstance(system, p_in, p_loop, q_in, q_loop,
                             eps, eps, anyw, anyw)
        text = print_ucst(inst, stage="generated")
        text += f"// lasso target: control pair ({p_loop}, {q_loop})\n"
        _emit(text, args.output)
        return 0
    qa = linear_queue_automaton(_parse_ops(args.ops))
    if args.kind == "queue-parity":
        inst = gen_queue_parity(qa)
        note = ""
    elif args.kind == "queue-head":
        inst = gen_queue_head(qa)
        note = ""
    else:
        inst, mode = gen_writelossy_queue(qa)
        note = f"// evaluate with --mode {mode}\n"
    _emit(print_ucst(inst, stage="generated") + note, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ucst",
        description="Channel systems with tests: explore, reduce, solve, generate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reach", help="decide a reachability instance")
    p.add_argument("file")
    p.add_argument("--mode", choices=sorted(MODES), default=LOSSY)
    p.add_argument("--method", choices=["explore", "pipeline"], default="explore")
    p.add_argument("--bound", type=int, default=4,
                   help="channel length bound for the explorer/oracle")
    p.add_argument("--steps", type=int, default=0,
                   help="step bound, 0 = closure of the bounded space")
    p.add_argument("--pep-len", type=int, default=8,
                   help="solution length bound for the pipeline method")
    p.set_defaults(run=cmd_reach)

    p = sub.add_parser("reduce",
                       help="run reduction stages, each output trimmed to its "
                            "start-to-goal control states, and emit the result")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=STAGE_ORDER,
                   help="last stage to run; the input itself is not trimmed")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("validate", help="run the seeded cross-check battery")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=20140801)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser(
        "gen", help="emit a generated stress instance",
        description="Emit a generated stress instance.  A thue file ends with "
                    "its lasso target, a control pair; no ucst command checks "
                    "it, and the test suite checks it with the lasso search in "
                    "tests/support.py.")
    p.add_argument("kind", choices=["queue-parity", "queue-head", "thue",
                                    "writelossy"])
    p.add_argument("--ops", default="w:a,r:a",
                   help="queue program, e.g. 'w:a,r:a'")
    p.add_argument("--rules", default="ab>ba,ba>ab",
                   help="rewrite rules, e.g. 'ab>ba,ba>ab'")
    p.add_argument("-o", "--output")
    p.set_defaults(run=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, OracleInconclusive, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:
        # a failed replay or stabilization is a fault of the toolkit, not of
        # the input; it still ends in exit code 2, not a traceback
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
