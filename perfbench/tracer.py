"""Spans around the package's public functions, recorded from outside.

The tracer replaces each public function in the namespace where its caller
looks it up (``ambipref.analysis.solve``, the names ``ambipref.verify``
imported, ...) with a wrapper that records one span per call: name, start,
end, parent span and item id, plus a few facts read from the arguments and
the result.  Spans stay in memory; per-layer metrics are computed from them
after the run, and :meth:`Tracer.dump` writes them out.  No package code is
changed, and every wrapped name is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

AXIOMS = (
    "non_triviality", "reflexivity", "unambiguous_completeness",
    "unambiguous_transitivity", "monotonicity", "independence", "completeness",
    "transitivity", "constant_bound_transitivity", "favorable_mixing",
    "negative_completeness", "negative_constant_bound_transitivity",
)


def _info_audit(args, kwargs, result):
    return {"axiom": args[0].value, "checked": result.checked,
            "flags": result.boundary_flags}


def _info_weak_relation(args, kwargs, result):
    return {"flags": result[1]}


def _info_solve(args, kwargs, result):
    value = getattr(result, "value", None)
    return {"rows": len(args[0].constraints),
            "positive": value is not None and value > 0}


def _info_cutting(args, kwargs, result):
    return {"sets": len(args[0].sets), "found": result is not None}


def _info_pairwise(args, kwargs, result):
    return {"disjoint": sum(not e.intersects for e in result.entries)}


def _info_verify(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    fine = f"resolution={2 * (config.resolution if config else 2)} "
    lemma3 = [e for e in result.suites if e.theorem == "lemma3"]
    return {"escalations": sum(fine in b for e in lemma3 for b in e.batteries)}


# (span name, modules whose global the callers read, attribute, info reader)
TARGETS = (
    ("generate.instance", ("generate", "verify"), "generate_instance", None),
    ("axioms.grid", ("axioms", "verify"), "generate_act_grid",
     lambda a, k, r: {"acts": len(r)}),
    ("axioms.table", ("axioms", "verify"), "MarginTable",
     lambda a, k, r: {"rows": r.n}),
    ("axioms.audit", ("axioms", "verify"), "audit", _info_audit),
    ("axioms.audit_suite", ("axioms",), "audit_suite", None),
    ("axioms.weak_relation", ("axioms", "verify"), "weak_relation",
     _info_weak_relation),
    ("margins.model_margin", ("margins", "axioms", "verify"), "model_margin", None),
    ("margins.margin_profile", ("margins", "analysis", "slices"),
     "margin_profile", None),
    ("lp.solve", ("lp", "analysis"), "solve", _info_solve),
    ("analysis.polytopes_intersect", ("analysis",), "polytopes_intersect", None),
    ("analysis.pairwise", ("analysis", "verify"), "pairwise_intersection_holds",
     _info_pairwise),
    ("analysis.cutting", ("analysis", "verify"), "find_cutting_hyperplane",
     _info_cutting),
    ("analysis.commutativity", ("analysis", "verify"), "check_commutativity",
     lambda a, k, r: {"checked": r.checked}),
    ("analysis.witness", ("verify",), "build_incompleteness_witness", None),
    ("analysis.witness", ("verify",), "build_cbt_witness", None),
    ("analysis.collapse", ("analysis", "verify"), "seu_collapse_binary", None),
    ("analysis.phi_lattice", ("analysis", "verify"), "phi_lattice", None),
    ("analysis.analyze", ("analysis",), "analyze", None),
    ("slices.profile", ("slices",), "slice_profile",
     lambda a, k, r: {"samples": len(r.samples)}),
    ("slices.certify", ("slices",), "certify_slice_convexity", None),
    ("verify.verify", ("verify",), "verify", _info_verify),
    ("verify.suite_outcomes", ("verify",), "suite_outcomes", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "item": self.item,
                    "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, modules, attr, info in TARGETS:
                for mod_name in modules:
                    module = importlib.import_module(f"ambipref.{mod_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans)


def _self_times(spans) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _enclosing(spans, index, names):
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"] in names:
            return spans[parent]
        parent = spans[parent]["parent"]
    return None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and counters, named as the benchmark reports them."""
    own = _self_times(spans)
    t = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)
    for i, s in enumerate(spans):
        t[s["name"]] += own[i]
        calls[s["name"]] += 1
        for key in ("acts", "rows", "checked", "flags", "disjoint", "samples",
                    "escalations"):
            if key in s:
                total[(s["name"], key)] += s[key]
        if s["name"] == "axioms.audit":
            t["axioms.audit." + s["axiom"]] += own[i]
            total[("axioms.audit." + s["axiom"], "checked")] += s["checked"]
        if s["name"] == "analysis.cutting" and s["found"]:
            total[("analysis.cutting", "found")] += 1

    lp = defaultdict(int)
    for i, s in enumerate(spans):
        if s["name"] != "lp.solve":
            continue
        owner = _enclosing(spans, i, ("analysis.polytopes_intersect",
                                      "analysis.cutting"))
        if owner is None:
            continue
        if owner["name"] == "analysis.polytopes_intersect":
            lp["pairwise"] += 1
        elif s["rows"] == 2 * owner["sets"]:
            lp["leaves"] += 1
        else:
            lp["probes"] += 1
            lp["pruned"] += not s["positive"]

    m = {
        "generate.instance_s": t["generate.instance"],
        "axioms.grid_s": t["axioms.grid"],
        "axioms.grid_acts": total[("axioms.grid", "acts")],
        "axioms.table_s": t["axioms.table"],
        "axioms.table_builds": calls["axioms.table"],
        "axioms.table_rows": total[("axioms.table", "rows")],
        "axioms.audit_s": t["axioms.audit"] + t["axioms.audit_suite"],
        "axioms.audit_calls": calls["axioms.audit"],
        "axioms.audit_checked": total[("axioms.audit", "checked")],
    }
    for axiom in AXIOMS:
        m[f"axioms.audit.{axiom}_s"] = t["axioms.audit." + axiom]
        m[f"axioms.audit.{axiom}_checked"] = total[("axioms.audit." + axiom, "checked")]
    m.update({
        "axioms.weak_relation_s": t["axioms.weak_relation"],
        "axioms.weak_relation_calls": calls["axioms.weak_relation"],
        "axioms.boundary_flags": total[("axioms.audit", "flags")]
        + total[("axioms.weak_relation", "flags")],
        "margins.model_margin_calls": calls["margins.model_margin"],
        "margins.model_margin_s": t["margins.model_margin"],
        "margins.margin_profile_calls": calls["margins.margin_profile"],
        "margins.margin_profile_s": t["margins.margin_profile"],
        "lp.solve_calls": calls["lp.solve"],
        "lp.solve_s": t["lp.solve"],
        "lp.pairwise_solves": lp["pairwise"],
        "lp.cutting_solves": lp["probes"] + lp["leaves"],
        "lp.cutting_probes": lp["probes"],
        "lp.cutting_leaves": lp["leaves"],
        "lp.cutting_prune_ratio": lp["pruned"] / lp["probes"] if lp["probes"] else 0.0,
        "analysis.pairwise_s": t["analysis.pairwise"] + t["analysis.polytopes_intersect"],
        "analysis.pairwise_calls": calls["analysis.pairwise"],
        "analysis.disjoint_pairs": total[("analysis.pairwise", "disjoint")],
        "analysis.cutting_s": t["analysis.cutting"],
        "analysis.cutting_calls": calls["analysis.cutting"],
        "analysis.cutting_found": total[("analysis.cutting", "found")],
        "analysis.commutativity_s": t["analysis.commutativity"],
        "analysis.commutativity_checked": total[("analysis.commutativity", "checked")],
        "analysis.witness_s": t["analysis.witness"],
        "slices.profile_s": t["slices.profile"],
        "slices.samples": total[("slices.profile", "samples")],
        "slices.certify_s": t["slices.certify"],
        "verify.self_s": t["verify.verify"] + t["verify.suite_outcomes"],
        "verify.lemma3_escalations": total[("verify.verify", "escalations")],
    })
    return m
