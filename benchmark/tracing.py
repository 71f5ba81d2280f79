"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces the module attributes that callers inside `sparsefglm`
actually look up (for example `sparsefglm.fglm.shape_prob`, which `toplevel`
resolves through its own module globals) with thin wrappers, and puts every
original back on exit.  Stage calls become spans kept in memory; the hot
matrix-vector products are only counted and timed, since recording a span
for each would cost more than the product itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); "matvec" marks the hot calls
WRAPPED_FUNCTIONS = [
    ("sparsefglm.fglm", "shape_prob", "shape.prob"),
    ("sparsefglm.fglm", "shape_det", "shape.det"),
    ("sparsefglm.fglm", "bms_change", "bms.change"),
    ("sparsefglm.fglm", "classic_fglm", "fglm.fallback"),
    ("sparsefglm.fglm", "apply", "matvec"),
    ("sparsefglm.shape", "apply", "matvec"),
    ("sparsefglm.shape", "apply_transpose", "matvec"),
    ("sparsefglm.shape", "berlekamp_massey", "linrec.bm"),
    ("sparsefglm.shape", "hankel_solve", "linrec.hankel"),
    ("sparsefglm.bms", "sakata_update", "bms.sakata"),
    ("sparsefglm.bms", "reduce_set", "bms.reduce_set"),
    ("sparsefglm.bms", "is_gb", "bms.is_gb"),
    ("sparsefglm.quotient", "apply", "matvec"),
]
STAGES = ("shape.prob", "shape.det", "bms.change")
METHODS = ("shape-prob", "shape-det", "bms", "fglm")


class Tracer:
    """Spans and hot-call counters of one traced run, all in memory.

    A span is a dict with id, parent, system (the id of the root span, shared
    by every span of one system), name, start/end (ns since the tracer was
    made), outcome ("ok", "fail" for a returned `Fail`, or the exception
    class) and child_ns, the part of its interval covered by its direct
    children, so self time is end - start - child_ns.
    """

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.matvec_calls = 0
        self.matvec_ns = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "system": self.stack[0]["id"] if self.stack else len(self.spans),
            "name": name,
            "start": time.perf_counter_ns() - self.t0,
            "end": None,
            "outcome": "ok",
            "child_ns": 0,
            **attrs,
        }
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["outcome"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter_ns() - self.t0
            self.stack.pop()
            if self.stack:
                self.stack[-1]["child_ns"] += rec["end"] - rec["start"]

    def _wrap_span(self, fn, name, fail_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if isinstance(out, fail_type):
                    rec["outcome"] = "fail"
                return out

        return wrapper

    def _wrap_matvec(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t
                self.matvec_calls += 1
                self.matvec_ns += dt
                if self.stack:
                    self.stack[-1]["child_ns"] += dt

        return wrapper

    def _wrap_matrix(self, fn):
        @functools.wraps(fn)
        def matrix(Q, j):
            if not (1 <= j <= Q.n and Q.matrices[j - 1] is None):
                return fn(Q, j)  # cached (or invalid): not a build
            with self.span("quotient.tj_build", j=j) as rec:
                T = fn(Q, j)
                rec["case3"] = T.column_cases.count(3)
                return T

        return matrix

    def _wrap_init(self, fn):
        @functools.wraps(fn)
        def __init__(Q, *args, **kwargs):
            with self.span("quotient.init"):
                fn(Q, *args, **kwargs)

        return __init__

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore and verify the originals on exit."""
        fail_type = sys.modules["sparsefglm.poly"].Fail
        QS = sys.modules["sparsefglm.quotient"].QuotientStructure
        saved = []
        for mod_name, attr, name in WRAPPED_FUNCTIONS:
            owner = sys.modules[mod_name]
            fn = getattr(owner, attr)
            wrapped = self._wrap_matvec(fn) if name == "matvec" else self._wrap_span(fn, name, fail_type)
            saved.append((owner, attr, fn, wrapped))
        for attr, wrap in (("matrix", self._wrap_matrix), ("__init__", self._wrap_init)):
            fn = QS.__dict__[attr]
            saved.append((QS, attr, fn, wrap(fn)))
        try:
            for owner, attr, _, wrapped in saved:
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, fn, _ in saved:
                setattr(owner, attr, fn)
        unrestored = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, fn, _ in saved
            if vars(owner).get(attr) is not fn
        ]
        if unrestored:
            raise RuntimeError(f"traced attributes not restored: {unrestored}")

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"matvec_calls": self.matvec_calls, "matvec_ns": self.matvec_ns}) + "\n")


def layer_metrics(tr: Tracer, attempted: int, methods: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run: name -> (value, unit).

    Times are totals divided by systems attempted; counts are totals;
    `*_ok_ratio` is successes over calls (0 when there were no calls);
    `*_self_ms` excludes the time of the span's direct children.
    """
    calls: dict[str, int] = {}
    ok: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    case3 = 0
    declined_ns = 0
    for s in tr.spans:
        name = s["name"]
        dur = s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        ok[name] = ok.get(name, 0) + (s["outcome"] == "ok")
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - s["child_ns"]
        case3 += s.get("case3", 0)
        if name in STAGES and s["outcome"] == "fail":
            declined_ns += dur

    def ms(name, table=total):
        return (table.get(name, 0) / 1e6 / attempted, "ms")

    def count(name):
        return (calls.get(name, 0), "count")

    def ratio(name):
        return (ok.get(name, 0) / calls[name] if calls.get(name) else 0.0, "ratio")

    out = {
        "sysio.parse_ms": ms("sysio.parse"),
        "buchberger.ms": ms("buchberger"),
        "quotient.init_ms": ms("quotient.init"),
        "quotient.tj_build_ms": ms("quotient.tj_build"),
        "quotient.tj_built": count("quotient.tj_build"),
        "quotient.case3_columns": (case3, "count"),
        "quotient.matvec_calls": (tr.matvec_calls, "count"),
        "quotient.matvec_ms": (tr.matvec_ns / 1e6 / attempted, "ms"),
        "linrec.bm_calls": count("linrec.bm"),
        "linrec.bm_ms": ms("linrec.bm"),
        "linrec.hankel_calls": count("linrec.hankel"),
        "linrec.hankel_ms": ms("linrec.hankel"),
        "shape.prob_calls": count("shape.prob"),
        "shape.prob_ok_ratio": ratio("shape.prob"),
        "shape.prob_self_ms": ms("shape.prob", self_ns),
        "shape.det_calls": count("shape.det"),
        "shape.det_ok_ratio": ratio("shape.det"),
        "shape.det_self_ms": ms("shape.det", self_ns),
        "bms.calls": count("bms.change"),
        "bms.ok_ratio": ratio("bms.change"),
        "bms.passes": count("bms.sakata"),
        "bms.sakata_ms": ms("bms.sakata"),
        "bms.reduce_set_ms": ms("bms.reduce_set"),
        "bms.is_gb_ms": ms("bms.is_gb"),
        "bms.self_ms": ms("bms.change", self_ns),
        "fglm.fallback_calls": count("fglm.fallback"),
        "fglm.fallback_ms": ms("fglm.fallback"),
        "toplevel.declined_share": (
            declined_ns / total["toplevel"] if total.get("toplevel") else 0.0,
            "ratio",
        ),
    }
    for m in METHODS:
        out[f"toplevel.method_share.{m}"] = (methods.count(m) / attempted, "ratio")
    return out
