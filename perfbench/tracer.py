"""Out-of-library tracing for the benchmark's traced run.

`install()` replaces the public functions listed in LAYERS by timing
wrappers, from outside the library: module-level functions are rebound
under every name a `kostka_forge` module holds them by (so `from .x
import f` aliases are caught), and methods, dunder methods included, are
replaced on their class.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; `Trace.write()` dumps them at the end.
`layer_metrics()` turns spans plus the wrappers' counters into the
per-layer metrics.

This module imports nothing from kostka_forge at import time, so the
span arithmetic can be tested on synthetic spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path).  Spans sharing a name are one layer
# metric; the four serializers all count towards cli.serialize.
LAYERS = [
    ("qt.gcd", "kostka_forge.qt", "QTPolynomial.gcd"),
    ("qt.exact_divide", "kostka_forge.qt", "QTPolynomial.exact_divide"),
    ("qt.poly_mul", "kostka_forge.qt", "QTPolynomial.__mul__"),
    ("qt.scalar_add", "kostka_forge.qt", "ExactScalar.__add__"),
    ("qt.scalar_mul", "kostka_forge.qt", "ExactScalar.__mul__"),
    ("zpoly.add", "kostka_forge.zpoly", "ZPolynomial.__add__"),
    ("zpoly.scalar_mul", "kostka_forge.zpoly", "ZPolynomial.scalar_mul"),
    ("zpoly.substitute", "kostka_forge.zpoly", "ZPolynomial.substitute"),
    ("zpoly.exact_divide", "kostka_forge.zpoly", "ZPolynomial.exact_divide"),
    ("zpoly.eval_float", "kostka_forge.zpoly", "ZPolynomial.eval_float"),
    ("weights.order_leq", "kostka_forge.weights", "order_leq"),
    ("weights.distinct_permutations", "kostka_forge.weights", "distinct_permutations"),
    ("hecke.apply_hecke", "kostka_forge.hecke", "apply_hecke"),
    ("hecke.apply_delta", "kostka_forge.hecke", "apply_delta"),
    ("hecke.apply_xi", "kostka_forge.hecke", "apply_xi"),
    ("hecke.apply_X_lambda", "kostka_forge.hecke", "apply_X_lambda"),
    ("hecke.hecke_symmetrize", "kostka_forge.hecke", "hecke_symmetrize"),
    ("macdonald.nonsym_calE", "kostka_forge.macdonald", "nonsym_calE"),
    ("macdonald.sym_calJ", "kostka_forge.macdonald", "sym_calJ"),
    ("macdonald.solve", "kostka_forge.macdonald", "_solve_scalar_system"),
    ("macdonald.eigen_oracle_E", "kostka_forge.macdonald", "eigen_oracle_E"),
    ("macdonald.expand", "kostka_forge.macdonald", "expand_in_partial_t_monomials"),
    ("macdonald.t_monomial_partial", "kostka_forge.macdonald", "t_monomial_partial"),
    ("symfunc.t_schur", "kostka_forge.symfunc", "t_schur_polynomial"),
    ("symfunc.bialternant", "kostka_forge.symfunc", "schur_bialternant"),
    ("symfunc.msym_coords", "kostka_forge.symfunc", "msym_coords"),
    ("jack.jack_nonsym", "kostka_forge.jack", "jack_nonsym"),
    ("jack.jack_sym", "kostka_forge.jack", "jack_sym"),
    ("jack.numeric_limit_check", "kostka_forge.jack", "numeric_limit_check"),
    ("verify.run_suite", "kostka_forge.verify", "run_suite"),
    ("cli.serialize", "kostka_forge.cli", "canonical_json"),
    ("cli.serialize", "kostka_forge.zpoly", "ZPolynomial.to_json_dict"),
    ("cli.serialize", "kostka_forge.macdonald", "KostkaMatrix.to_json_dict"),
    ("cli.serialize", "kostka_forge.macdonald", "BasisExpansion.to_json_dict"),
]

SPAN_NAMES = sorted({name for name, _, _ in LAYERS})

# Per-layer metrics: (metric name, unit, better).  Order is the report order.
PER_LAYER = [
    ("qt.gcd.calls", "count", "lower"),
    ("qt.gcd.self_s", "s", "lower"),
    ("qt.gcd.nontrivial_ratio", "ratio", "higher"),
    ("qt.exact_divide.calls", "count", "lower"),
    ("qt.exact_divide.self_s", "s", "lower"),
    ("qt.poly_mul.calls", "count", "lower"),
    ("qt.poly_mul.self_s", "s", "lower"),
    ("qt.scalar_add.calls", "count", "lower"),
    ("qt.scalar_add.self_s", "s", "lower"),
    ("qt.scalar_mul.calls", "count", "lower"),
    ("qt.scalar_mul.self_s", "s", "lower"),
    ("zpoly.add.calls", "count", "lower"),
    ("zpoly.add.self_s", "s", "lower"),
    ("zpoly.scalar_mul.calls", "count", "lower"),
    ("zpoly.scalar_mul.self_s", "s", "lower"),
    ("zpoly.substitute.self_s", "s", "lower"),
    ("zpoly.exact_divide.calls", "count", "lower"),
    ("zpoly.exact_divide.self_s", "s", "lower"),
    ("zpoly.eval_float.self_s", "s", "lower"),
    ("zpoly.terms_out", "count", "lower"),
    ("weights.order_leq.calls", "count", "lower"),
    ("weights.order_leq.self_s", "s", "lower"),
    ("weights.distinct_permutations.calls", "count", "lower"),
    ("weights.distinct_permutations.self_s", "s", "lower"),
    ("hecke.apply_hecke.calls", "count", "lower"),
    ("hecke.apply_hecke.self_s", "s", "lower"),
    ("hecke.apply_delta.calls", "count", "lower"),
    ("hecke.apply_delta.self_s", "s", "lower"),
    ("hecke.apply_xi.calls", "count", "lower"),
    ("hecke.apply_xi.incl_s", "s", "lower"),
    ("hecke.apply_X_lambda.calls", "count", "lower"),
    ("hecke.apply_X_lambda.incl_s", "s", "lower"),
    ("hecke.hecke_symmetrize.calls", "count", "lower"),
    ("hecke.hecke_symmetrize.incl_s", "s", "lower"),
    ("macdonald.nonsym_calE.calls", "count", "lower"),
    ("macdonald.nonsym_calE.hit_ratio", "ratio", "higher"),
    ("macdonald.sym_calJ.incl_s", "s", "lower"),
    ("macdonald.solve.incl_s", "s", "lower"),
    ("macdonald.eigen_oracle_E.incl_s", "s", "lower"),
    ("macdonald.expand.incl_s", "s", "lower"),
    ("macdonald.t_monomial_partial.incl_s", "s", "lower"),
    ("symfunc.t_schur.calls", "count", "lower"),
    ("symfunc.t_schur.incl_s", "s", "lower"),
    ("symfunc.bialternant.incl_s", "s", "lower"),
    ("symfunc.msym_coords.self_s", "s", "lower"),
    ("jack.jack_nonsym.incl_s", "s", "lower"),
    ("jack.jack_sym.incl_s", "s", "lower"),
    ("jack.numeric_limit_check.incl_s", "s", "lower"),
    ("verify.run_suite.self_s", "s", "lower"),
    ("verify.checks_run", "count", "higher"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.output_bytes", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly between two traced runs of the same code.
DETERMINISTIC = [
    name
    for name, _, _ in PER_LAYER
    if name.endswith(".calls")
    or name
    in (
        "zpoly.terms_out",
        "cli.output_bytes",
        "macdonald.nonsym_calE.hit_ratio",
        "verify.checks_run",
        "trace.spans",
    )
]

# Extra counters a wrapper records beside its span.
COUNTERS = ["qt.gcd.nontrivial", "macdonald.nonsym_calE.repeat", "zpoly.terms_out", "verify.checks_run"]


class Trace:
    """Spans as parallel arrays; index order is start order."""

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.seen_calE = set()

    def __len__(self):
        return len(self.name)

    def write(self, path):
        """Dump the spans: one JSON header line, then the four arrays raw."""
        header = {"names": SPAN_NAMES, "count": len(self), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)

    # -- installation ------------------------------------------------------

    def _wrapper(self, span, fn, extra):
        nid = SPAN_NAMES.index(span)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extra is not None:
                extra(args, out)
            return out

        return traced

    def _extra(self, span):
        counters = self.counters
        if span == "qt.gcd":

            def gcd_extra(args, out):
                if not out.is_one():
                    counters["qt.gcd.nontrivial"] += 1

            return gcd_extra
        if span == "macdonald.nonsym_calE":
            seen = self.seen_calE

            def calE_extra(args, out):
                key = tuple(args[0])
                if key in seen:
                    counters["macdonald.nonsym_calE.repeat"] += 1
                else:
                    seen.add(key)

            return calE_extra
        if span.startswith("zpoly.") and span != "zpoly.eval_float":

            def terms_extra(args, out):
                counters["zpoly.terms_out"] += len(out.terms)

            return terms_extra
        if span == "verify.run_suite":

            def checks_extra(args, out):
                counters["verify.checks_run"] += len(out["checks"])

            return checks_extra
        return None

    def install(self):
        """Wrap every LAYERS entry; raises if one of them does not exist."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "kostka_forge" or k.startswith("kostka_forge.")]
        for span, modname, attr in LAYERS:
            module = importlib.import_module(modname)
            extra = self._extra(span)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    fn = raw.__func__
                    new = staticmethod(self._wrapper(span, fn, extra))
                else:
                    new = self._wrapper(span, raw, extra)
                setattr(cls, meth, new)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrapper(span, fn, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        return self


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def read_trace(path):
    """Inverse of Trace.write: (header, name, start, end, parent)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("H", "q", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return (header, *arrays)


def span_times(names, name, start, end, parent):
    """Per span name: calls, self_ns and incl_ns.

    Spans are parallel sequences in start order, parent being the index of
    the enclosing span or -1.  Self time is a span's duration minus the
    union of its direct children's intervals.  Inclusive time counts only
    spans with no ancestor of the same name, so recursion is not counted
    twice.
    """
    count = len(name)
    covered = [0] * count
    reach = list(start)  # end of the child coverage accumulated so far
    for i in range(count):
        p = parent[i]
        if p >= 0 and end[i] > reach[p]:
            covered[p] += end[i] - max(start[i], reach[p])
            reach[p] = end[i]
    out = {n: {"calls": 0, "self_ns": 0, "incl_ns": 0} for n in names}
    recs = [out[n] for n in names]
    open_count = [0] * len(names)  # open ancestors per name
    chain = []  # indices of the open spans, outermost first
    for i in range(count):
        while chain and chain[-1] != parent[i]:
            open_count[name[chain.pop()]] -= 1
        nid = name[i]
        rec = recs[nid]
        dur = end[i] - start[i]
        rec["calls"] += 1
        rec["self_ns"] += dur - covered[i]
        if not open_count[nid]:
            rec["incl_ns"] += dur
        open_count[nid] += 1
        chain.append(i)
    return out


def layer_metrics(paths, scales, output_bytes):
    """The PER_LAYER metrics, except trace.overhead_s, over written traces.

    Counts and times add up across the traces, each trace's times
    multiplied by its entry in scales; ratios are taken of the sums.
    """
    times = {n: {"calls": 0, "self_ns": 0, "incl_ns": 0} for n in SPAN_NAMES}
    counters = dict.fromkeys(COUNTERS, 0)
    spans = 0
    for path, scale in zip(paths, scales):
        header, name, start, end, parent = read_trace(path)
        for span, rec in span_times(header["names"], name, start, end, parent).items():
            times[span]["calls"] += rec["calls"]
            times[span]["self_ns"] += rec["self_ns"] * scale
            times[span]["incl_ns"] += rec["incl_ns"] * scale
        for key, value in header["counters"].items():
            counters[key] += value
        spans += header["count"]
    out = {}
    for metric, _, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = times[span]["calls"]
        elif field in ("self_s", "incl_s"):
            out[metric] = times[span][field[:-2] + "_ns"] / 1e9

    def ratio(counter, span):
        calls = times[span]["calls"]
        return counters[counter] / calls if calls else 0.0

    out["qt.gcd.nontrivial_ratio"] = ratio("qt.gcd.nontrivial", "qt.gcd")
    out["macdonald.nonsym_calE.hit_ratio"] = ratio("macdonald.nonsym_calE.repeat", "macdonald.nonsym_calE")
    out["zpoly.terms_out"] = counters["zpoly.terms_out"]
    out["verify.checks_run"] = counters["verify.checks_run"]
    out["cli.serialize_s"] = times["cli.serialize"]["incl_ns"] / 1e9
    out["cli.output_bytes"] = output_bytes
    out["trace.spans"] = spans
    return out, {span: rec["calls"] for span, rec in times.items()}
