"""Spans around the engine's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every
``procreal`` module that holds a reference to it (a name such as `step`
or `failures_equiv` is imported into several modules), and `restore` puts
the originals back.  A span records its name, start, end, parent span and
query id; spans stay in memory until `write` runs at the end.  A
recursive call inside an open span of the same function opens no span,
so `calls` counts outermost calls and their time is inclusive.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

from procreal.semantics import ExplorationBudget
from procreal.terms import print_term

# (module, attribute) -> metric prefix; "Class.method" patches a method
TARGETS = {
    ("procreal.semantics", "build_lts"): "semantics.build_lts",
    ("procreal.semantics", "step"): "semantics.step",
    ("procreal.semantics", "diverges"): "semantics.diverges",
    ("procreal.terms", "print_term"): "terms.print_term",
    ("procreal.terms", "term_depth"): "terms.term_depth",
    ("procreal.terms", "substitute_var"): "terms.substitute_var",
    ("procreal.names", "Renaming.apply_action"): "names.apply_action",
    ("procreal.names", "dual_action"): "names.dual_action",
    ("procreal.equivalence", "failures_equiv"): "equivalence.failures_equiv",
    ("procreal.equivalence", "failures_bounded"): "equivalence.failures_bounded",
    ("procreal.equivalence", "normal_form"): "equivalence.normal_form",
    ("procreal.equivalence", "weak_bisim"): "equivalence.weak_bisim",
    ("procreal.equivalence", "perp"): "equivalence.perp",
    ("procreal.semtypes", "classify"): "semtypes.classify",
    ("procreal.semtypes", "partition"): "semtypes.partition",
    ("procreal.semtypes", "total"): "semtypes.total",
    ("procreal.semtypes", "bang_type"): "semtypes.bang_type",
    ("procreal.semtypes", "tensor_type"): "semtypes.tensor_type",
    ("procreal.semtypes", "formula_to_type"): "semtypes.formula_to_type",
    ("procreal.extraction", "extract"): "extraction.extract",
    ("procreal.extraction", "verify_cut_soundness"): "extraction.verify_cut_soundness",
    ("procreal.logic", "cut_eliminate"): "logic.cut_eliminate",
}
COMBINATORS = ("tensor", "lapp", "rapp", "seq", "identity_wire", "pairing", "inj_l", "inj_r", "bang", "swap_halves")
TARGETS.update({("procreal.combinators", f): f"combinators.{f}" for f in COMBINATORS})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_query = -1
        self.enabled = False
        self._stack: list[int] = []
        self._open: list[int] = []  # per name: open spans of that name
        self._patches: list[tuple] = []
        # counters read from traced results; see the _observe_* methods
        self.lts_inputs: list = []
        self.lts_states = 0
        self.lts_transitions = 0
        self.incomplete_state_budget = 0
        self.incomplete_depth_cap = 0
        self.nf_nodes = 0
        self.verdicts = {"equal": 0, "distinguished": 0, "unknown": 0}

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._open.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._open[nid]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.query.append(tracer.current_query)
            tracer.end.append(0.0)
            tracer._open[nid] += 1
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer._open[nid] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def add_span(self, name: str, start: float, end: float, parent: int = -1, query: int = -1) -> int:
        """Appends a finished span; for tests and synthetic trees."""
        nid = self.names.index(name) if name in self.names else self._name_id(name)
        self.span_name.append(nid)
        self.parent.append(parent)
        self.query.append(query)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    # -- counters --------------------------------------------------------

    def _observe_lts(self, args, kwargs, lts):
        self.lts_inputs.append(args[0])
        self.lts_states += len(lts.terms)
        self.lts_transitions += sum(len(s) for s in lts.transitions.values())
        if not lts.complete:
            budget = args[1] if len(args) > 1 else kwargs.get("budget", ExplorationBudget())
            if len(lts.terms) >= budget.max_states:
                self.incomplete_state_budget += 1
            else:
                self.incomplete_depth_cap += 1

    def _observe_nf(self, args, kwargs, nf):
        self.nf_nodes += len(nf.families)

    def _observe_verdict(self, args, kwargs, res):
        self.verdicts[res.verdict] = self.verdicts.get(res.verdict, 0) + 1

    # -- installing ------------------------------------------------------

    def install(self):
        observers = {
            "semantics.build_lts": self._observe_lts,
            "equivalence.normal_form": self._observe_nf,
            "equivalence.failures_equiv": self._observe_verdict,
            "equivalence.weak_bisim": self._observe_verdict,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "procreal" or n.startswith("procreal.")]
        for (modname, attr), name in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(original, name, observers.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def write(self, path):
        """One tab-separated line per span, in opening order."""
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\tquery\n")
            for i in range(len(self.start)):
                name = self.names[self.span_name[i]]
                out.write(f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.query[i]}\n")


def self_times(starts, ends, parents) -> list:
    """Per span: its duration minus the part of its interval that its
    child spans cover (the union of the children's intervals, clipped to
    the parent)."""
    children: dict[int, list] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics over the spans of queries (query id >= 0)."""
    n = len(tracer.start)
    names = [tracer.names[tracer.span_name[i]] for i in range(n)]
    parents = tracer.parent
    self_s = self_times(tracer.start, tracer.end, parents)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    for i in range(n):
        if tracer.query[i] < 0:
            continue
        name = names[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (tracer.end[i] - tracer.start[i])
        excl[name] = excl.get(name, 0.0) + self_s[i]

    def ancestors(i):
        p = parents[i]
        while p >= 0:
            yield p
            p = parents[p]

    m: dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def count_time(name, with_self=False):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.s", incl.get(name, 0.0), "s")
        if with_self:
            put(f"{name}.self_s", excl.get(name, 0.0), "s")

    lts_calls = calls.get("semantics.build_lts", 0)
    distinct = len({print_term(t) for t in tracer.lts_inputs})
    count_time("semantics.build_lts", with_self=True)
    put("semantics.build_lts.distinct", distinct, "count")
    put("semantics.build_lts.distinct_ratio", distinct / lts_calls if lts_calls else 0.0, "ratio")
    put("semantics.states", tracer.lts_states, "count")
    put("semantics.transitions", tracer.lts_transitions, "count")
    put("semantics.incomplete.state_budget", tracer.incomplete_state_budget, "count")
    put("semantics.incomplete.depth_cap", tracer.incomplete_depth_cap, "count")
    for name in ("semantics.step", "semantics.diverges", "terms.print_term", "terms.term_depth",
                 "terms.substitute_var", "names.apply_action", "names.dual_action",
                 "equivalence.failures_bounded", "equivalence.perp"):
        count_time(name)
    count_time("equivalence.failures_equiv", with_self=True)
    count_time("equivalence.weak_bisim", with_self=True)
    count_time("equivalence.normal_form")
    put("equivalence.normal_form.nodes", tracer.nf_nodes, "count")
    fe_calls = calls.get("equivalence.failures_equiv", 0)
    bounded_route = {
        parents[i] for i in range(n)
        if tracer.query[i] >= 0 and names[i] == "equivalence.failures_bounded"
        and parents[i] >= 0 and names[parents[i]] == "equivalence.failures_equiv"
    }
    put("equivalence.bounded_route_ratio", len(bounded_route) / fe_calls if fe_calls else 0.0, "ratio")
    for verdict in ("equal", "distinguished", "unknown"):
        put(f"equivalence.verdict.{verdict}", tracer.verdicts.get(verdict, 0), "count")
    for name in ("classify", "partition", "total", "bang_type", "tensor_type", "formula_to_type"):
        count_time(f"semtypes.{name}")
    put(
        "semtypes.equiv_calls",
        sum(
            1 for i in range(n)
            if tracer.query[i] >= 0 and names[i] == "equivalence.failures_equiv"
            and any(names[a].startswith("semtypes.") for a in ancestors(i))
        ),
        "count",
    )
    comb_calls = 0
    comb_s = 0.0
    for i in range(n):
        if tracer.query[i] < 0 or not names[i].startswith("combinators."):
            continue
        comb_calls += 1
        if not any(names[a].startswith("combinators.") for a in ancestors(i)):
            comb_s += tracer.end[i] - tracer.start[i]
    put("combinators.calls", comb_calls, "count")
    put("combinators.s", comb_s, "s")
    for name in ("extraction.extract", "extraction.verify_cut_soundness", "logic.cut_eliminate"):
        count_time(name)
    return m
