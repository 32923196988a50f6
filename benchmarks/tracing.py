"""Span tracing for the untraced-versus-traced comparison run.

``Tracer.install`` replaces package functions, as module and class
attributes, with wrappers that record one span per call: name, start, end,
parent span and operation id.  Spans live in flat arrays and are written out
when the run ends; every per-layer number is derived from them afterwards.
Counts that need a call's arguments or result (matrix cells, cover size,
resolution depth, profile level) are taken after the span closes, and that
measuring time is kept out of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from time import perf_counter

# Layer -> wrapped names.  A module name alone stands for every public
# function defined in that module.  The oracle and linalg are split finer
# because their parts are what later changes target; the few private names
# are the only way to see the kernel, stable-Hom and Ext steps.
LAYERS = {
    "linalg.mat_vec": ["linalg.mat_vec"],
    "linalg.echelon": ["linalg.echelon"],
    "linalg.nullspace": ["linalg.nullspace"],
    "linalg.solve_many": ["linalg.solve_many"],
    "linalg.mat_mul": ["linalg.mat_mul"],
    "oracle.cover": ["oracle.projective_cover", "oracle.top_lifts"],
    "oracle.kernel": ["oracle._kernel_blocks"],
    "oracle.closure": ["oracle.syzygy_step"],
    "oracle.resolve": ["oracle.resolve"],
    "oracle.homext": ["oracle.hom_basis", "oracle.hom_basis_from_cyclic",
                      "oracle._hom_family_basis", "oracle.hom_dim", "oracle.stable_hom_dim",
                      "oracle._stable_hom0_dim", "oracle.ext_dim", "oracle._ext_from_trace"],
    "oracle.modules": ["oracle.path_module_rep", "oracle.regular_rep",
                       "oracle.dual_regular_rep", "oracle.injective_summand_rep",
                       "oracle.simple_rep", "oracle.direct_sum", "oracle._build_projective"],
    "oracle.profile": ["oracle.injective_dimension_profile"],
    "oracle.checks": ["oracle.crosscheck_classification", "oracle.gorenstein_projective_test",
                      "oracle.is_torsionless", "oracle._iso_witness",
                      "oracle.verify_omega_T_ext_vanishing", "oracle.global_dimension",
                      "oracle.resolution_trace_report"],
    "presentation": ["presentation",
                     "presentation.MonomialPresentation.word_is_nonzero",
                     "presentation.MonomialPresentation.automaton",
                     "presentation.MonomialPresentation.automaton_cycle",
                     "presentation.MonomialPresentation.basis",
                     "presentation.MonomialPresentation.cyclic_module_basis",
                     "presentation.MonomialPresentation.opposite"],
    "perfection": ["perfection"],
    "gorenstein": ["gorenstein"],
    "graded": ["graded"],
    "gluing": ["gluing"],
    "cli": ["cli"],
    "corpus": ["corpus"],
}

# Per-layer metrics reported by the traced run: (name, unit, better).
PER_LAYER = [
    ("linalg.mat_vec.calls", "count", "lower"),
    ("linalg.mat_vec.self_s", "s", "lower"),
    ("linalg.mat_vec.cells", "count", "lower"),
    ("linalg.mat_vec.nnz_frac", "ratio", "higher"),
    ("linalg.echelon.calls", "count", "lower"),
    ("linalg.echelon.self_s", "s", "lower"),
    ("linalg.echelon.cells", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.solve_many.calls", "count", "lower"),
    ("linalg.solve_many.self_s", "s", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("oracle.cover.calls", "count", "lower"),
    ("oracle.cover.self_s", "s", "lower"),
    ("oracle.cover.max_dim", "count", "lower"),
    ("oracle.kernel.self_s", "s", "lower"),
    ("oracle.closure.self_s", "s", "lower"),
    ("oracle.resolve.calls", "count", "lower"),
    ("oracle.resolve.steps", "count", "lower"),
    ("oracle.resolve.self_s", "s", "lower"),
    ("oracle.resolve.useful_depth_frac", "ratio", "higher"),
    ("oracle.homext.calls", "count", "lower"),
    ("oracle.homext.self_s", "s", "lower"),
    ("oracle.modules.builds", "count", "lower"),
    ("oracle.modules.self_s", "s", "lower"),
    ("oracle.regular_rep.calls", "count", "lower"),
    ("oracle.profile.calls", "count", "lower"),
    ("oracle.profile.self_s", "s", "lower"),
    ("oracle.profile.undecided", "count", "lower"),
    ("oracle.checks.self_s", "s", "lower"),
    ("presentation.calls", "count", "lower"),
    ("presentation.self_s", "s", "lower"),
    ("presentation.word_checks", "count", "lower"),
    ("perfection.calls", "count", "lower"),
    ("perfection.self_s", "s", "lower"),
    ("gorenstein.calls", "count", "lower"),
    ("gorenstein.self_s", "s", "lower"),
    ("graded.calls", "count", "lower"),
    ("graded.self_s", "s", "lower"),
    ("gluing.calls", "count", "lower"),
    ("gluing.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.parser_s", "s", "lower"),
    ("corpus.draws", "count", "lower"),
    ("corpus.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.measure_s", "s", "lower"),
    ("trace.unwrapped_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

SETUP_OP = -1


def _mat_vec_counts(args, result):
    A, v = args[0], args[1]
    nonzero = [j for j, x in enumerate(v) if x]
    return len(A) * len(v), sum(1 for row in A for j in nonzero if row[j])


def _echelon_counts(args, result):
    A = args[0]
    return len(A) * (len(A[0]) if A else 0), 0


def _cover_counts(args, result):
    return result[0].rep.total_dim, 0


def _resolve_counts(args, result):
    return len(result.layers), 0


def _profile_counts(args, result):
    return (-1 if result.level is None else result.level), int(result.decided)


MEASURES = {
    "linalg.mat_vec": _mat_vec_counts,
    "linalg.echelon": _echelon_counts,
    "oracle.projective_cover": _cover_counts,
    "oracle.resolve": _resolve_counts,
    "oracle.injective_dimension_profile": _profile_counts,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.measure = array("d")  # measuring time spent right after this span
        self.stack = []
        self.op_id = SETUP_OP
        self.restore = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qualname, layer, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        measure = MEASURES.get(qualname)
        stack = self.stack
        span_name, parent, op, start, end = (self.span_name, self.parent, self.op,
                                             self.start, self.end)
        a_col, b_col, m_col = self.a, self.b, self.measure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            a_col.append(0)
            b_col.append(0)
            m_col.append(0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if measure is not None:
                a_col[idx], b_col[idx] = measure(args, result)
                m_col[idx] = perf_counter() - t1
            return result

        return wrapper

    def install(self, pkg):
        """Wrap every traced function of the package, everywhere it is bound."""
        originals = {}  # id(function) -> (function, wrapper)
        for layer, entries in LAYERS.items():
            for entry in entries:
                parts = entry.split(".")
                module = getattr(pkg, parts[0])
                if len(parts) == 1:
                    for name, fn in vars(module).items():
                        if (callable(fn) and getattr(fn, "__module__", None) == module.__name__
                                and not name.startswith("_") and not isinstance(fn, type)):
                            originals[id(fn)] = (fn, self._wrap(f"{parts[0]}.{name}", layer, fn))
                    continue
                owner = module if len(parts) == 2 else getattr(module, parts[1])
                fn = vars(owner)[parts[-1]]
                originals[id(fn)] = (fn, self._wrap(entry, layer, fn))
        for mod_name in vars(pkg):
            module = getattr(pkg, mod_name)
            for owner in [module] + [c for c in vars(module).values()
                                     if isinstance(c, type) and c.__module__ == module.__name__]:
                for name, value in list(vars(owner).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        self.restore.append((owner, name, value))
                        setattr(owner, name, originals[id(value)][1])
                    elif isinstance(value, dict):  # dispatch tables such as cli.HANDLERS
                        for key, item in list(value.items()):
                            if id(item) in originals and originals[id(item)][0] is item:
                                self.restore.append((value, key, item))
                                value[key] = originals[id(item)][1]

    def uninstall(self):
        for owner, name, value in reversed(self.restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self.restore = []

    # -- derived numbers ----------------------------------------------------

    def layer_metrics(self, untraced_pass_s, traced_pass_s):
        """Per-layer numbers from the spans: self times, entries, counts."""
        n = len(self.span_name)
        names, layer_of = self.names, self.layer_of
        span_name, parent, op = self.span_name, self.parent, self.op
        start, end, a, b, measure = self.start, self.end, self.a, self.b, self.measure
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i] + measure[i]
        agg = {}  # (in setup?, layer) -> [self time, entries]
        calls, a_sum, b_sum, a_max = {}, {}, {}, {}
        level_in_gp_test = {}  # GP-test span -> level from its profile call
        useful = total = 0
        undecided_ops = set()
        measure_s = pass_self = 0.0
        for i in range(n):
            setup = op[i] == SETUP_OP
            layer = layer_of[span_name[i]]
            self_s = end[i] - start[i] - child[i]
            p = parent[i]
            bucket = agg.setdefault((setup, layer), [0.0, 0])
            bucket[0] += self_s
            if p < 0 or layer_of[span_name[p]] != layer:
                bucket[1] += 1
            if setup:
                continue
            pass_self += self_s
            measure_s += measure[i]
            q = names[span_name[i]]
            calls[q] = calls.get(q, 0) + 1
            if q in MEASURES:
                a_sum[q] = a_sum.get(q, 0) + a[i]
                b_sum[q] = b_sum.get(q, 0) + b[i]
                a_max[q] = max(a_max.get(q, 0), a[i])
            parent_name = names[span_name[p]] if p >= 0 else None
            if q == "oracle.injective_dimension_profile":
                if b[i] == 0:
                    undecided_ops.add(op[i])
                if parent_name == "oracle.gorenstein_projective_test":
                    level_in_gp_test[p] = a[i]
            elif q == "oracle.resolve" and level_in_gp_test.get(p, -1) >= 0:
                total += a[i]
                useful += min(a[i], level_in_gp_test[p] + 2)

        def self_time(layer, setup=False):
            return agg.get((setup, layer), [0.0, 0])[0]

        def entries(layer, setup=False):
            return agg.get((setup, layer), [0.0, 0])[1]

        mv_cells = a_sum.get("linalg.mat_vec", 0)
        m = {
            "linalg.mat_vec.cells": mv_cells,
            "linalg.mat_vec.nnz_frac": b_sum.get("linalg.mat_vec", 0) / mv_cells
            if mv_cells else 0.0,
            "linalg.echelon.cells": a_sum.get("linalg.echelon", 0),
            "oracle.cover.calls": calls.get("oracle.projective_cover", 0),
            "oracle.cover.max_dim": a_max.get("oracle.projective_cover", 0),
            "oracle.resolve.calls": calls.get("oracle.resolve", 0),
            "oracle.resolve.steps": calls.get("oracle.syzygy_step", 0),
            "oracle.resolve.useful_depth_frac": useful / total if total else 0.0,
            "oracle.homext.calls": entries("oracle.homext"),
            "oracle.modules.builds": entries("oracle.modules"),
            "oracle.regular_rep.calls": calls.get("oracle.regular_rep", 0),
            "oracle.profile.calls": calls.get("oracle.injective_dimension_profile", 0),
            "oracle.profile.undecided": len(undecided_ops),
            "presentation.word_checks": calls.get(
                "presentation.MonomialPresentation.word_is_nonzero", 0),
            "cli.parser_s": sum(end[i] - start[i] for i in range(n)
                                if names[span_name[i]] == "cli.build_parser"),
            "trace.pass_s": traced_pass_s,
            "trace.untraced_pass_s": untraced_pass_s,
            "trace.overhead_s": traced_pass_s - untraced_pass_s,
            "trace.measure_s": measure_s,
            "trace.unwrapped_s": traced_pass_s - pass_self - measure_s,
            "trace.spans": n,
        }
        for layer in LAYERS:
            setup = layer == "corpus"  # corpus draws happen in set-up only
            m[f"{layer}.self_s"] = self_time(layer, setup)
            if layer.startswith("linalg."):
                m[f"{layer}.calls"] = calls.get(layer, 0)
            elif "." not in layer:
                m[f"{layer}.draws" if setup else f"{layer}.calls"] = entries(layer, setup)
        return m

    def op_records(self, verdicts, op_times):
        """Per operation: id, verdict, time, syzygy steps and largest cover."""
        steps, cover = {}, {}
        for i in range(len(self.span_name)):
            q = self.names[self.span_name[i]]
            k = self.op[i]
            if q == "oracle.syzygy_step":
                steps[k] = steps.get(k, 0) + 1
            elif q == "oracle.projective_cover":
                cover[k] = max(cover.get(k, 0), self.a[i])
        return [{"op": op_id, "verdict": verdict, "time_s": t,
                 "syzygy_steps": steps.get(k, 0), "max_cover": cover.get(k, 0)}
                for k, ((op_id, verdict), t) in enumerate(zip(verdicts, op_times))]

    def write(self, path, record):
        """JSON lines, gzip-compressed: the record with the span names, then one
        line per span column (name, parent, op, start, end, a, b).  ``op``
        indexes the record's ``ops``; -1 marks set-up."""
        columns = {"name": self.span_name, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end, "a": self.a, "b": self.b}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(dict(record, span_names=self.names), default=str) + "\n")
            for key, col in columns.items():
                fh.write(json.dumps({key: col.tolist()}) + "\n")
