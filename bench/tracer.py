"""Layer spans recorded around the package's public functions.

``Tracer.install`` wraps each traced function on every binding a call can
go through: the defining module, every ``tropquad`` module that imported
the name (``cli`` does ``from .companions import companion_table``), and
class attributes such as ``QuadraticForm.beta``.  ``restore`` puts every
original back.  Spans stay in memory as ``[name, start, end, parent,
call]`` and are written out once at the end; a layer's self time is its
spans' duration minus the time of their child spans.  Functions called
too often for a span per call are only counted.

Run as a script, ``tracer.py OUT ARG...`` executes ``tropquad ARG...``
under the tracer and writes its spans and counts to OUT, for the
subprocess workload.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> [(module, attribute)], attribute "Class.method" for methods
SPANS = {
    "cli.invariants": [("cli", "_cell_invariant_violations")],
    "serialize.parse": [("cli", "_read_json")] + [
        ("serialize", f)
        for f in (
            "semifield_from_json", "form_from_json", "vector_from_json", "vector_from_text",
            "bilinear_from_json", "matrix_from_json", "table_from_json", "ratform_from_json",
            "supervaluation_from_args",
        )
    ],
    "serialize.emit": [("cli", "_emit")] + [
        ("serialize", f)
        for f in (
            "form_to_json", "vector_to_json", "bilinear_to_json", "matrix_to_json",
            "table_to_json", "class_tag_to_json",
        )
    ],
    "forms.construct": [("forms", "QuadraticForm.__init__"), ("forms", "SymmetricBilinearForm.__init__")],
    "forms.beta": [("forms", "QuadraticForm.beta")],
    "forms.eval": [("forms", "eval_quadratic")],
    "companions.table": [("companions", "companion_table")],
    "companions.predicates": [
        ("companions", "is_rigid"), ("companions", "is_quasilinear"), ("companions", "functionally_equal"),
    ],
    "companions.witness": [("companions", "equality_witness")],
    "companions.oracle": [
        ("companions", "companion_membership_oracle"), ("companions", "diagonal_membership_oracle"),
    ],
    "probes.battery": [("probes", "boundary_probe_elements")],
    "decomposition.extrema": [("decomposition", "rig_extrema")],
    "matrices": [
        ("matrices", "monomial_decomposition"), ("matrices", "invert"), ("matrices", "MonomialMatrix.to_general"),
        ("matrices", "GeneralMatrix.__init__"), ("matrices", "MonomialMatrix.__init__"),
    ],
    "stropicalize": [
        ("stropicalize", f)
        for f in (
            "stropicalize_form", "balanced_companion_of_strop", "stropicalize_bilinear",
            "ring_companion_matrix", "square_class_sequence", "RationalQuadraticForm.__init__",
        )
    ],
}

# counter name -> [(module, attribute)]
COUNTS = {
    "serialize.elements_parsed": [("semiring", "Semifield.parse_element"), ("serialize", "rational_from_json")],
    "stropicalize.coeff.calls": [("stropicalize", "RationalQuadraticForm.coeff")],
    "semiring.between.calls": [("semiring", "Semifield.between")],
    "semiring.leq.calls": [("semiring", "leq_minimal")],
}

# counters fed from a traced function's result
RESULT_COUNTS = {
    "companions.table": ("companions.table.cells", lambda table: table.n * table.n),
    "probes.battery": ("probes.elements", len),
}

ROOT = "cli.self"
WRAPPED = "__bench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.call]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if counted:
                self.counts[counted[0]] += counted[1](result)
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "tropquad"}
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, targets in table.items():
                for module, attr in targets:
                    home = modules[f"tropquad.{module}"]
                    self._patch(modules, home, attr, make(name, _resolve(home, attr)))

    def _patch(self, modules: dict, home, attr: str, wrapper):
        original = getattr(wrapper, WRAPPED)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owners = [(getattr(home, cls_name), meth)]
        else:
            owners = [
                (mod, key) for mod in modules.values() for key, value in vars(mod).items() if value is original
            ]
        for owner, key in owners:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, wrapper)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "calls": self.call}


def _resolve(module, attr: str):
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def wrapped_bindings(package_modules) -> list[str]:
    """Bindings that still hold a tracer wrapper; empty after ``restore``."""
    found = []
    for mod in package_modules:
        for key, value in vars(mod).items():
            if hasattr(value, WRAPPED):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{m}" for m, v in vars(value).items() if hasattr(v, WRAPPED)]
    return found


def summarize(dump: dict) -> dict:
    """Per-call self milliseconds per span name, plus counts per call."""
    self_s: Counter = Counter()
    counts: Counter = Counter(dump["counts"])
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for k, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += end - start - child[k]
        counts[f"{name}.spans"] += 1
        if name == "forms.eval" and parent >= 0 and spans[parent][0] == "companions.witness":
            counts["companions.witness.evals"] += 1
    calls = max(dump["calls"], 1)
    metrics = {f"{name}_ms": self_s[name] * 1000 / calls for name in [ROOT, *SPANS]}
    per_call = {
        "forms.construct.calls": counts["forms.construct.spans"],
        "forms.beta.calls": counts["forms.beta.spans"],
        "forms.eval.calls": counts["forms.eval.spans"],
        "companions.oracle.calls": counts["companions.oracle.spans"],
        # each candidate vector is evaluated under both forms
        "companions.witness.candidates": counts["companions.witness.evals"] / 2,
        "companions.table.cells": counts["companions.table.cells"],
        "probes.elements": counts["probes.elements"],
        **{name: counts[name] for name in COUNTS},
    }
    metrics.update({name: value / calls for name, value in per_call.items()})
    return metrics


def main(argv: list[str]) -> int:
    """Run one CLI call under the tracer; write its spans to argv[0]."""
    out, cli_args = argv[0], argv[1:]
    from tropquad import cli

    tracer = Tracer()
    tracer.install()
    tracer.call = 1
    rec = tracer.begin(ROOT)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(rec)
        tracer.restore()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
