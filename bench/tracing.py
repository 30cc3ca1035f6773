"""Spans and counts at esym's public layer boundaries, from outside.

Tracer.install() replaces the public functions and methods of each esym
module (field, poly, symfunc, symmodel, certificate, v2space, formula,
border, cli) with wrappers, wherever a module holds a reference to them, and
uninstall() puts the originals back.  A span records its name
(<module>.<function>), the job it belongs to, its parent span, start and end;
its self time is its duration minus the time its child spans cover.  The
field's raw operations, Polynomial construction and series products are
only counted, because a timed wrapper would swamp such small calls.  Spans
are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks


class Tracer:
    """Wrap, record, unwrap.  Records only between start_job and stop_job."""

    def __init__(self):
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "esym" or name.startswith("esym.")}
        self.spans: list = []        # (name, job, parent index, start, end, self s)
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()   # outermost inclusive seconds per key
        self.selfs: Counter = Counter()    # self seconds per key
        self._stack: list = []             # [span index, child seconds]
        self._open: Counter = Counter()
        self._patches: list = []
        self.job = None
        self.active = False

    # -- recording ---------------------------------------------------------

    def start_job(self, job: str) -> None:
        self.job = job
        self.active = True

    def stop_job(self) -> None:
        self.active = False

    def _span(self, name: str, key: str, fn, after=None):
        tracer, spans, stack, open_ = self, self.spans, self._stack, self._open
        totals, selfs, counts = self.totals, self.selfs, self.counts

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            open_[key] += 1
            counts[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                open_[key] -= 1
                if not open_[key]:
                    totals[key] += duration
                if stack:
                    stack[-1][1] += duration
                selfs[key] += duration - frame[1]
                spans[index] = (name, tracer.job, parent, start, end, duration - frame[1])
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _method(self, cls, attr, wrapper_factory):
        if attr in cls.__dict__:
            self._set(cls, attr, wrapper_factory(cls.__dict__[attr]))

    def _function(self, module: str, attr: str, key: str, after=None):
        """Wrap a module-level function in every esym module that holds it."""
        fn = getattr(self.modules[f"esym.{module}"], attr)
        wrapper = self._span(f"{module}.{attr}", key, fn, after)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapper)

    def install(self) -> None:
        m = self.modules
        field = m["esym.field"]
        for cls in vars(field).values():
            if isinstance(cls, type) and cls.__module__ == field.__name__:
                for op in ("add", "mul", "inv", "pow"):
                    self._method(cls, f"{op}_raw",
                                 lambda fn, op=op: self._counter(f"field.{op}_calls", fn))
        self._function("field", "make_field", "field.make_field")

        P = m["esym.poly"].Polynomial

        def after_mul(counts, args, result):
            a, b = args
            if result is NotImplemented:
                return
            counts["poly.term_products"] += a.term_count() * (
                b.term_count() if isinstance(b, P) else 1)
            counts["poly.mul_out_terms"] += result.term_count()

        for attr in ("__mul__", "__rmul__"):
            self._method(P, attr, lambda fn: self._span("poly.Polynomial.__mul__",
                                                        "poly.mul", fn, after_mul))
        for attr in ("__add__", "__radd__"):
            self._method(P, attr, lambda fn: self._span("poly.Polynomial.__add__",
                                                        "poly.add", fn))
        for attr, key in (("__pow__", "poly.pow"), ("substitute_linear", "poly.substitute"),
                          ("evaluate", "poly.evaluate"), ("partial_derivative", "poly.derivative")):
            self._method(P, attr, lambda fn, attr=attr, key=key:
                         self._span(f"poly.Polynomial.{attr}", key, fn))
        self._method(P, "__init__", lambda fn: self._counter("poly.construct_calls", fn))
        self._function("poly", "parse_polynomial", "poly.parse")

        self._function("symfunc", "verify_identity", "symfunc.verify_identity")
        self._function("symfunc", "esp_table_of_forms", "symfunc.esp_table")
        self._function("symfunc", "gen_esp", "symfunc.gen_esp")

        for attr in ("quadratic_gadget", "quadratic_to_sym", "reducible_to_sym",
                     "append_linear_power"):
            self._function("symmodel", attr, "symmodel.build")
        self._function("symmodel", "newton_decompose", "symmodel.newton")
        self._function("symmodel", "verify_representation", "symmodel.verify")

        def after_partition_sum(counts, args, result):
            f, p = args[0], args[1]
            if f.nvars % (p + 1) == 0:
                counts["certificate.partitions_covered"] += checks.partitions(f.nvars, p + 1)

        self._function("certificate", "partition_sum", "certificate.partition_sum",
                       after_partition_sum)
        self._function("certificate", "random_member", "certificate.random_member")

        def after_enumerate(counts, args, result):
            n, _, F = args[:3]
            counts["v2space.points_scanned"] += F.order ** n
            counts["v2space.points_found"] += result.count

        self._function("v2space", "enumerate_v2", "v2space.enumerate", after_enumerate)
        self._function("v2space", "is_order2_zero", "v2space.order2")

        for attr, key in (("peel_decompose", "formula.peel"),
                          ("find_degree_vertex", "formula.find_vertex"),
                          ("split_linear", "formula.split"),
                          ("replace_with_constant", "formula.replace"),
                          ("ben_or", "formula.ben_or")):
            self._function("formula", attr, key)
        F = m["esym.formula"].Formula
        self._method(F, "formal_degree", lambda fn: self._span(
            "formula.Formula.formal_degree", "formula.formal_degree", fn))
        self._method(F, "poly", lambda fn: self._span("formula.Formula.poly",
                                                      "formula.expand", fn))

        for attr, key in (("kumar_fanin2", "border.kumar"),
                          ("approx_extract", "border.extract"),
                          ("depth3_to_sym", "border.depth3")):
            self._function("border", attr, key)
        S = m["esym.border"].EpsSeries
        for attr in ("__mul__", "__rmul__"):
            self._method(S, attr, lambda fn: self._counter("border.series_mul_calls", fn))

        self._function("cli", "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def per_layer(self) -> dict:
        """{metric name: (value, unit)} for every per-layer metric."""
        c, t, s = self.counts, self.totals, self.selfs

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for op in ("add", "mul", "inv", "pow"):
            out[f"field.{op}_calls"] = (c[f"field.{op}_calls"], "count")
        out["field.make_field_s"] = (t["field.make_field"], "s")
        out.update({
            "poly.mul_calls": (c["poly.mul"], "count"),
            "poly.mul_s": (t["poly.mul"], "s"),
            "poly.term_products": (c["poly.term_products"], "count"),
            "poly.mul_out_terms": (c["poly.mul_out_terms"], "count"),
            "poly.merge_ratio": (ratio(c["poly.mul_out_terms"], c["poly.term_products"]),
                                 "ratio"),
            "poly.add_calls": (c["poly.add"], "count"),
            "poly.add_s": (t["poly.add"], "s"),
            "poly.pow_s": (t["poly.pow"], "s"),
            "poly.substitute_s": (t["poly.substitute"], "s"),
            "poly.evaluate_calls": (c["poly.evaluate"], "count"),
            "poly.evaluate_s": (t["poly.evaluate"], "s"),
            "poly.derivative_s": (t["poly.derivative"], "s"),
            "poly.construct_calls": (c["poly.construct_calls"], "count"),
            "poly.parse_s": (t["poly.parse"], "s"),
            "symfunc.verify_identity_calls": (c["symfunc.verify_identity"], "count"),
            "symfunc.verify_identity_s": (t["symfunc.verify_identity"], "s"),
            "symfunc.esp_table_s": (t["symfunc.esp_table"], "s"),
            "symfunc.gen_esp_s": (t["symfunc.gen_esp"], "s"),
            "symmodel.build_s": (t["symmodel.build"], "s"),
            "symmodel.newton_s": (t["symmodel.newton"], "s"),
            "symmodel.verify_s": (t["symmodel.verify"], "s"),
            "certificate.partition_sum_calls": (c["certificate.partition_sum"], "count"),
            "certificate.partition_sum_s": (t["certificate.partition_sum"], "s"),
            "certificate.partitions_covered": (c["certificate.partitions_covered"], "count"),
            "certificate.random_member_s": (t["certificate.random_member"], "s"),
            "v2space.enumerate_calls": (c["v2space.enumerate"], "count"),
            "v2space.enumerate_s": (t["v2space.enumerate"], "s"),
            "v2space.points_scanned": (c["v2space.points_scanned"], "count"),
            "v2space.points_found": (c["v2space.points_found"], "count"),
            "v2space.hit_ratio": (ratio(c["v2space.points_found"], c["v2space.points_scanned"]),
                                  "ratio"),
            "v2space.order2_checks": (c["v2space.order2"], "count"),
            "v2space.order2_s": (t["v2space.order2"], "s"),
            "formula.peel_calls": (c["formula.peel"], "count"),
            "formula.peel_s": (t["formula.peel"], "s"),
            "formula.peel_rounds": (c["formula.find_vertex"], "count"),
            "formula.find_vertex_s": (t["formula.find_vertex"], "s"),
            "formula.split_s": (t["formula.split"], "s"),
            "formula.replace_s": (t["formula.replace"], "s"),
            "formula.formal_degree_s": (t["formula.formal_degree"], "s"),
            "formula.expand_s": (t["formula.expand"], "s"),
            "formula.ben_or_calls": (c["formula.ben_or"], "count"),
            "formula.ben_or_s": (t["formula.ben_or"], "s"),
            "border.kumar_s": (t["border.kumar"], "s"),
            "border.extract_s": (t["border.extract"], "s"),
            "border.depth3_s": (t["border.depth3"], "s"),
            "border.series_mul_calls": (c["border.series_mul_calls"], "count"),
            "cli.main_calls": (c["cli.main"], "count"),
            "cli.main_s": (t["cli.main"], "s"),
            "cli.self_s": (s["cli.main"], "s"),
        })
        return out

    def self_time_table(self) -> list[str]:
        rows = sorted(self.selfs.items(), key=lambda kv: -kv[1])
        lines = ["  self time by span key: calls, inclusive s, self s"]
        for key, self_s in rows:
            lines.append(f"    {key:<28}{self.counts[key]:>10}{self.totals[key]:>12.4f}"
                         f"{self_s:>12.4f}")
        return lines

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, job, parent, start, end, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "job": job, "parent": parent,
                                     "start": start, "end": end, "self": self_s}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}, sort_keys=True) + "\n")
        return path
