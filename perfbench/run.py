"""Benchmark of the `ucst` toolkit: three seeded workloads, each answered as
`ucst reach` answers it, with every verdict checked against an independent
reference.  See README.md in this directory for the metrics and workloads.

    python3 perfbench/run.py                       # all workloads, a table
    python3 perfbench/run.py --workload explore --seed 3 --seconds 30 --trace 0

With `--workload`, the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Each workload is a
closed loop with one client: one process answers the corpus's instances back
to back, in a freshly shuffled order on every pass, until `--seconds` have
passed and at least one whole pass is done.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import corpus  # noqa: E402
import reference  # noqa: E402
import solve  # noqa: E402
from spans import Tracer  # noqa: E402
from ucst import cli  # noqa: E402

WORKLOADS = ("explore", "pipeline", "saturation")
SETUP_PROBES = 9
CLI_SAMPLES_PER_FAMILY = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build_corpus(workload, seed):
    cases = corpus.build(workload, seed)
    return cases, [case.text() for case in cases]


def setup_probe(workload, seed):
    """Wall time of a fresh process that imports the program and builds the
    corpus, from process start to exit."""
    started = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)],
                   check=True, cwd=ROOT)
    return time.perf_counter() - started


# -- the timed loop ----------------------------------------------------------------

class Loop:
    """Answers instances back to back and keeps every outcome and latency."""

    def __init__(self, cases, texts, seed):
        self.cases, self.texts = cases, texts
        self.order_rng = random.Random(f"{seed}/order")
        self.first = [None] * len(cases)     # Outcome or exception of pass 1
        self.verdicts = [set() for _ in cases]
        self.latencies = []

    def run_pass(self, after=None, tracer=None):
        """One pass in a fresh order.  `after()` runs after each instance and
        ends the pass early by returning False."""
        order = list(range(len(self.cases)))
        self.order_rng.shuffle(order)
        for idx in order:
            if tracer is not None:
                tracer.instance_id = idx
            started = time.perf_counter()
            try:
                outcome = solve.solve(self.cases[idx], self.texts[idx])
                verdict = outcome.verdict
            except Exception as exc:  # recorded and checked, never fatal
                outcome = exc
                verdict = f"raised {type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - started)
            if self.first[idx] is None:
                self.first[idx] = outcome
            self.verdicts[idx].add(verdict)
            if after is not None and not after():
                return


def timed_loop(loop, seconds, workload, seed):
    """Passes until `seconds` of loop time are spent, the first one whole.

    The set-up probes run at evenly spaced points of the loop, which pauses
    for them, so that they meet the machine in the same states as the loop.
    Returns the loop's seconds and the probe times.
    """
    probes = []
    paused = 0.0
    started = time.perf_counter()

    def loop_time():
        return time.perf_counter() - started - paused

    def after(may_stop):
        nonlocal paused
        if len(probes) < SETUP_PROBES and \
                loop_time() >= len(probes) * seconds / SETUP_PROBES:
            probe_started = time.perf_counter()
            probes.append(setup_probe(workload, seed))
            paused += time.perf_counter() - probe_started
        return not may_stop or loop_time() < seconds

    loop.run_pass(lambda: after(False))
    while loop_time() < seconds:
        loop.run_pass(lambda: after(True))
    return loop_time(), probes


def traced_loop(loop, seconds):
    """An untraced pass, then whole traced passes until `seconds` have
    passed since the start."""
    started = time.perf_counter()
    loop.run_pass()
    untraced_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        passes = 0
        traced_from = time.perf_counter()
        while passes == 0 or time.perf_counter() - started < seconds:
            loop.run_pass(tracer=tracer)
            passes += 1
        traced_s = time.perf_counter() - traced_from
    finally:
        tracer.uninstall()
    metrics = tracer.layers(passes)
    metrics["traced.instances_per_s"] = (
        passes * len(loop.cases) / traced_s, "1/s")
    metrics["traced.overhead_share"] = (
        traced_s / passes / untraced_s - 1, "ratio")
    return metrics, tracer


# -- checks ------------------------------------------------------------------------

def _tuple(config):
    return (config.p, config.q, config.u, config.v)


def check(case, outcome, verdicts):
    """Problems with one instance's answer, as a list of messages."""
    if isinstance(outcome, Exception):
        return ["".join(traceback.format_exception(outcome)).rstrip()]
    if len(verdicts) > 1:
        return [f"verdict changed between passes: {sorted(verdicts)}"]
    problems = []
    ref = reference.answer(case)
    got = outcome.verdict
    if outcome.path == "explore":
        agrees = got == ref
    elif outcome.path == "saturation":  # the oracle's bound is the case's
        agrees = (got == solve.REACHABLE) == (ref == reference.REACHABLE)
    else:
        agrees = not (got == solve.REACHABLE and ref == reference.UNREACHABLE)
    if not agrees:
        problems.append(f"{outcome.path} verdict {got}, reference {ref}")
    run = outcome.run
    if run is not None:
        configs = [_tuple(c) for c in run.configs()]
        final = outcome.instance
        if not outcome.witness_valid:
            problems.append("witness fails validate_run")
        if outcome.on_input:
            if not reference.satisfies(case, configs[0], configs[-1]):
                problems.append("witness endpoints violate the constraints")
            if not reference.is_run(case, configs):
                problems.append("witness is not a run of the reference semantics")
        elif (configs[0] != (final.p_in, final.q_in, (), ())
              or configs[-1] != (final.p_fi, final.q_fi, (), ())):
            problems.append("witness does not run between the empty "
                            "configurations of the reduced instance")
    return problems


def cli_parity(cases, first):
    """Problems where `ucst.cli.main` answers a sampled case differently."""
    picked, per_family = [], {}
    for idx, case in enumerate(cases):
        if per_family.get(case.family, 0) < CLI_SAMPLES_PER_FAMILY:
            per_family[case.family] = per_family.get(case.family, 0) + 1
            picked.append(idx)
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for idx in picked:
            case, outcome = cases[idx], first[idx]
            if isinstance(outcome, Exception):
                continue
            path = os.path.join(tmp, "case.ucst")
            with open(path, "w") as handle:
                handle.write(case.text())
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(case.cli_args(path))
            except Exception as exc:
                problems.append((case.name, f"cli raised {type(exc).__name__}"))
                continue
            printed = [line.split()[0] for line in out.getvalue().splitlines()
                       if line.startswith((solve.REACHABLE, solve.UNREACHABLE,
                                           solve.NOT_WITHIN_BOUND))]
            if printed[:1] != [outcome.verdict] or code != outcome.exit_code:
                problems.append((case.name, f"cli printed {printed[:1]} exit "
                                 f"{code}, benchmark {outcome.verdict} exit "
                                 f"{outcome.exit_code}"))
    return problems, len(picked)


# -- reporting ---------------------------------------------------------------------

def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def _digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def header(args, texts, loop):
    verdicts = [sorted(v)[0] if v else "-" for v in loop.verdicts]
    return {"python": sys.version.split()[0], "commit": _commit(),
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "instances": len(texts),
            "verdicts_timed": len(loop.latencies), "src_lines": _src_lines(),
            "corpus_sha256": _digest(texts),
            "verdicts_sha256": _digest(verdicts)}


def run_workload(args):
    if args.setup_probe:
        build_corpus(args.workload, args.seed)
        return 0
    cases, texts = build_corpus(args.workload, args.seed)
    loop = Loop(cases, texts, args.seed)
    if args.trace:
        metrics, tracer = traced_loop(loop, args.seconds)
    else:
        elapsed, probes = timed_loop(loop, args.seconds, args.workload,
                                     args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    for case, outcome, verdicts in zip(cases, loop.first, loop.verdicts):
        errors += [(case.name, msg) for msg in check(case, outcome, verdicts)]
    parity, sampled = cli_parity(cases, loop.first)
    errors += parity
    failed = len({name for name, _ in errors})
    decided = sum(1 for v in loop.verdicts
                  if v & {solve.REACHABLE, solve.UNREACHABLE})

    print("header: " + json.dumps(header(args, texts, loop)))
    print(f"cli parity: {sampled} sampled cases, {len(parity)} mismatches")
    for name, msg in errors:
        print(f"error: {name}: {msg}")
    if args.trace:
        print(f"{'span':<34} {'calls':>10} {'incl s':>10} {'self s':>10}")
        for name, (calls, incl, own) in sorted(tracer.totals().items()):
            print(f"{name:<34} {calls:>10} {incl:>10.4f} {own:>10.4f}")
    else:
        lat = loop.latencies
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "instances_per_s": (len(lat) / elapsed, "1/s"),
            "verdict_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "verdict_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "decided_share": (decided / len(cases), "ratio"),
            "verified_share": (1 - failed / len(cases), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"error_share: {failed / len(cases)} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(cases), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process, then one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print()
    print(f"{'metric':<34} {'unit':<6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, first in results[WORKLOADS[0]]["metrics"].items():
        row = "".join(f"{results[w]['metrics'][name]['value']:>14.4g}"
                      for w in WORKLOADS)
        print(f"{name:<34} {first['unit']:<6}{row}")
    row = "".join(f"{results[w]['failed'] / results[w]['attempted']:>14.4g}"
                  for w in WORKLOADS)
    print(f"{'error_share':<34} {'ratio':<6}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
