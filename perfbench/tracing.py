"""Spans around mvop's public functions, installed from outside the package.

``Tracer.install()`` replaces each target function or method with a wrapper
that records a span (name, thread id, start, end, parent span on the same
thread).  A module-level function is also replaced wherever another mvop
module bound it with ``from ... import``, so calls through those names are
seen too.  ``Tracer.uninstall()`` puts every original back.  Spans stay in
memory until ``write()``.
"""

import bisect
import functools
import json
import sys
import threading
import time

#: (layer name, module, attribute path, optional work measure)
TARGETS = [
    ("scalar_families.gauss_rule", "mvop.scalar_families", "gauss_rule",
     lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["m"]),
    ("scalar_families.recurrence_coefficients", "mvop.scalar_families",
     "recurrence_coefficients", None),
    ("scalar_families.polynomial", "mvop.scalar_families",
     "MonicScalarSequence.polynomial", None),
    ("weight_model.rule", "mvop.weight_model", "InnerProductEngine.rule", None),
    ("weight_model.weight_eval", "mvop.weight_model", "weight_eval", None),
    ("mvop_core.init", "mvop.mvop_core", "MVOPSequence.__init__", None),
    ("mvop_core.gram_qt", "mvop.mvop_core", "MVOPSequence.gram_qt", None),
    ("mvop_core.verify_orthogonality", "mvop.mvop_core",
     "MVOPSequence.verify_orthogonality", None),
    ("mvop_core.three_term_coefficients", "mvop.mvop_core",
     "MVOPSequence.three_term_coefficients", None),
    ("mvop_core.build_Q", "mvop.mvop_core", "MVOPSequence.build_Q", None),
    ("mvop_core.build_QT", "mvop.mvop_core", "MVOPSequence.build_QT", None),
    ("matrix_poly.mul", "mvop.matrix_poly", "MatrixPolynomial.__mul__", None),
    ("matrix_poly.left_mul", "mvop.matrix_poly", "MatrixPolynomial.left_mul",
     None),
    ("matrix_poly.max_coeff_norm", "mvop.matrix_poly",
     "MatrixPolynomial.max_coeff_norm", None),
    ("diff_operators.op_apply", "mvop.diff_operators", "op_apply", None),
    ("diff_operators.op_compose", "mvop.diff_operators", "op_compose", None),
    ("diff_operators.eigencheck", "mvop.diff_operators", "eigencheck", None),
    ("darboux.darboux_verify", "mvop.darboux", "darboux_verify", None),
    ("darboux.builtin_n5_laguerre", "mvop.darboux", "builtin_n5_laguerre",
     None),
    # rows of the stacked symmetry system: sample points times 2 N^2
    ("irreducibility.order_zero_symmetries", "mvop.irreducibility",
     "order_zero_symmetries",
     lambda args, kwargs, result: (len(result.sample_points)
                                   * 2 * (args[0] if args else kwargs["spec"]).N ** 2)),
    ("cli.run", "mvop.cli", "run", None),
]

#: per-check spans come from wrapping the values of this dict in mvop.cli
CHECK_TABLE = ("mvop.cli", "_CHECKS")


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []          # [name, thread id, start, end, parent, work]
        self._local = threading.local()
        self._undo = []          # (class, module or dict, key, original)

    def _wrap(self, name, fn, work=None):
        spans, local = self.spans, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, threading.get_ident(), clock(), None,
                    stack[-1] if stack else None, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[5] = work(args, kwargs, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every target; module functions also where re-bound."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mvop_modules = [m for n, m in sys.modules.items()
                        if (n == "mvop" or n.startswith("mvop.")) and m]
        for name, modname, path, work in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(name, original, work)
            self._set(owner, parts[-1], wrapper)
            if len(parts) == 1:              # from-import bindings elsewhere
                for mod in mvop_modules:
                    if mod is not owner and vars(mod).get(path) is original:
                        self._set(mod, path, wrapper)
        table = getattr(sys.modules[CHECK_TABLE[0]], CHECK_TABLE[1])
        for check in list(table):
            self._set(table, check, self._wrap(f"cli.check.{check}",
                                               table[check]))

    def uninstall(self):
        """Restore every original, in reverse order of patching."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path):
        """One JSON list per span: name, thread id, start, end, parent index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s[4])] if s[4] is not None else -1
                fh.write(json.dumps([s[0], s[1], s[2], s[3], parent]) + "\n")


def layer_metrics(spans, check_names):
    """Per-layer counts and times from finished spans of one pass.

    Self time is a span's duration minus the durations of its child spans
    (children are recorded on the parent's thread).  ``cli.check_wait_s``
    sums, over checks, the time from the enclosing ``cli.run`` start to the
    check's start; ``cli.run.self_s`` is run time no traced layer claims.
    """
    calls, self_s, work = {}, {}, {}
    child = {}
    for s in spans:
        if s[4] is not None:
            child[id(s[4])] = child.get(id(s[4]), 0.0) + (s[3] - s[2])
    for s in spans:
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = (self_s.get(name, 0.0)
                        + (s[3] - s[2]) - child.get(id(s), 0.0))
        work[name] = work.get(name, 0) + s[5]

    runs = sorted(s[2] for s in spans if s[0] == "cli.run")
    wait = 0.0
    for s in spans:
        if s[0].startswith("cli.check."):
            i = bisect.bisect_right(runs, s[2])
            if i:
                wait += s[2] - runs[i - 1]

    def total(name):
        return sum((s[3] - s[2] for s in spans if s[0] == name), 0.0)

    out = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["scalar_families.gauss_rule.nodes"] = work.get(
        "scalar_families.gauss_rule", 0)
    out["irreducibility.order_zero_symmetries.rows"] = work.get(
        "irreducibility.order_zero_symmetries", 0)
    rule_calls = calls.get("weight_model.rule", 0)
    out["weight_model.rule.hit_ratio"] = (
        1.0 - calls.get("scalar_families.gauss_rule", 0) / rule_calls
        if rule_calls else 0.0)
    for check in check_names:
        out[f"cli.check.{check}.s"] = total(f"cli.check.{check}")
    out["cli.check_wait_s"] = wait
    return out
