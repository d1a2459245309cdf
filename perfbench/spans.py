"""Spans around the calls into each layer of `ucst`, recorded from outside.

`Tracer.install()` rebinds each traced function, in every `ucst` module that
imported it and on the `Nfa` class, to a wrapper that records one span per
call: name, start, end, parent span and instance id.  Spans sit in flat
arrays until the run ends; `Tracer.layers()` then derives each name's calls,
inclusive and self seconds, and the per-layer metrics.  Nothing inside the
program changes, and the untraced run installs nothing.
"""

import operator
import sys
import time
from array import array
from collections import Counter, defaultdict

from ucst import explore, fileformat, model, pep, reductions, regdata


def _count_outputs(counts, name, result):
    counts[name + ".out"] += len(result)


def _count_found(counts, name, result):
    counts[name + ".found"] += result is not None


def _count_rules(counts, name, result):
    counts[name + ".rules_out"] += len(result.system.rules)


def _count_r_states(counts, name, result):
    counts[name + ".r_states"] += result.R.n_states


def _count_positive(counts, name, result):
    counts[name + ".positive"] += bool(result)


# (owner, attribute, span name, counter on the result)
TRACED = (
    (model, "successors", "model.successors", _count_outputs),
    (model, "validate_run", "model.validate_run", None),
    (model, "classify_tests", "model.classify_tests", None),
    (explore, "bounded_reach", "explore.bounded_reach", None),
    (regdata.Nfa, "accepts", "regdata.Nfa.accepts", None),
    (regdata.Nfa, "determinize", "regdata.Nfa.determinize", None),
    (regdata.Nfa, "intersect", "regdata.Nfa.intersect", None),
    (regdata.Nfa, "shuffle", "regdata.Nfa.shuffle", None),
    (regdata.Nfa, "complement", "regdata.Nfa.complement", None),
    (regdata, "language_equal", "regdata.language_equal", None),
    (reductions, "run_pipeline", "reductions.run_pipeline", None),
    (reductions, "elim_initial", "reductions.elim_initial", _count_rules),
    (reductions, "elim_n1", "reductions.elim_n1", _count_rules),
    (reductions, "elim_final", "reductions.elim_final", _count_rules),
    (reductions, "ucst_to_pep", "reductions.ucst_to_pep", _count_r_states),
    (reductions, "decide_eereach_z1", "reductions.decide_eereach_z1", None),
    (reductions, "pre_star_z1l", "reductions.pre_star_z1l", None),
    (pep, "bounded_solve", "pep.bounded_solve", _count_found),
    (pep, "postpone_stabilize", "pep.postpone_stabilize", None),
    (pep, "run_from_postpone_stable", "pep.run_from_postpone_stable", None),
    (fileformat, "parse_ucst", "fileformat.parse_ucst", None),
    (fileformat, "print_pep", "fileformat.print_pep", None),
)

ORACLE = "reductions.oracle"


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.counts = Counter()
        self.instance_id = -1
        self._stack = [-1]
        self._restore = []

    def wrap(self, name, fn, count=None):
        """`fn` with a span recorded around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.instance.append(self.instance_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, name, result)
            return result

        return traced

    def _rebind(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [mod for key, mod in list(sys.modules.items())
                       if key == "ucst" or key.startswith("ucst.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._restore.append((target, key, original))

    def install(self):
        for owner, attr, name, count in TRACED:
            self._rebind(owner, attr, self.wrap(name, getattr(owner, attr), count))
        make_oracle = reductions.bounded_oracle

        def bounded_oracle(*args, **kwargs):
            return self.wrap(ORACLE, make_oracle(*args, **kwargs),
                             _count_positive)

        self._rebind(reductions, "bounded_oracle", bounded_oracle)

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        dur = array("d", map(operator.sub, self.end, self.start))
        child = array("d", bytes(8 * len(dur)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[i]
        rows = [[0, 0.0, 0.0] for _ in self.names]
        for i, nid in enumerate(self.name):
            row = rows[nid]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return dict(zip(self.names, rows))

    def expanded(self):
        """Calls to `successors` made directly by `bounded_reach`."""
        succ = self.names.index("model.successors")
        reach = self.names.index("explore.bounded_reach")
        return sum(1 for i in range(len(self.start))
                   if self.name[i] == succ and self.parent[i] >= 0
                   and self.name[self.parent[i]] == reach)

    def layers(self, passes):
        """Per-layer metrics, each per pass over the corpus."""
        totals = defaultdict(lambda: [0, 0.0, 0.0], self.totals())
        counts = self.counts

        def calls(name):
            return totals[name][0] / passes

        def seconds(name):
            return totals[name][1] / passes

        def per_call(numerator, name):
            return numerator / totals[name][0] if totals[name][0] else 0.0

        m = {}
        for name in ("model.successors", "model.classify_tests",
                     "explore.bounded_reach", "regdata.Nfa.accepts",
                     "regdata.Nfa.determinize", "regdata.language_equal",
                     "reductions.pre_star_z1l", "pep.bounded_solve"):
            m[name + ".calls"] = (calls(name), "count")
        for owner, attr, name, count in TRACED:
            m[name + ".s"] = (seconds(name), "s")
        m["model.successors.out_per_call"] = (
            per_call(counts["model.successors.out"], "model.successors"), "count")
        m["explore.bounded_reach.self_s"] = (
            totals["explore.bounded_reach"][2] / passes, "s")
        reach_s = totals["explore.bounded_reach"][1]
        m["explore.expanded_per_s"] = (
            self.expanded() / reach_s if reach_s else 0.0, "1/s")
        for stage in ("elim_initial", "elim_n1", "elim_final"):
            name = f"reductions.{stage}"
            m[name + ".rules_out"] = (
                per_call(counts[name + ".rules_out"], name), "count")
        m["reductions.ucst_to_pep.r_states"] = (
            per_call(counts["reductions.ucst_to_pep.r_states"],
                     "reductions.ucst_to_pep"), "count")
        m[ORACLE + ".queries"] = (calls(ORACLE), "count")
        m[ORACLE + ".s"] = (seconds(ORACLE), "s")
        m[ORACLE + ".positive_share"] = (
            per_call(counts[ORACLE + ".positive"], ORACLE), "ratio")
        m["pep.bounded_solve.found_share"] = (
            per_call(counts["pep.bounded_solve.found"], "pep.bounded_solve"),
            "ratio")
        return m
