"""Per-layer tracing from the benchmark's side of each qsl2 layer boundary.

The tracer wraps the public functions and methods listed in SPANS by
patching module and class attributes (every module that imported a
function by name gets the wrapper too), runs one traced pass, and restores
the originals.  A span is recorded each time control crosses into a
boundary from outside it; calls a boundary makes into itself are part of
the same span.  A span's self time is its duration minus its child spans.

The scalar layer is called hundreds of thousands of times per pass, so
``CycRat`` operations are not spans: they are counted and timed in
aggregate, and their time is subtracted from the enclosing span's self
time instead.
"""

from __future__ import annotations

from time import perf_counter

# boundary -> (module, attribute) pairs wrapped as spans
SPANS = {
    "ncalg.poly_mul": [("qsl2.ncalg", "NCPoly.__mul__")],
    "ncalg.tensor": [("qsl2.ncalg", "TensorPoly.__mul__"),
                     ("qsl2.ncalg", "TensorPoly.expand_leg")],
    "rewrite.complete": [("qsl2.rewrite", "build_presentation"),
                         ("qsl2.rewrite", "quotient_presentation")],
    "rewrite.nf": [("qsl2.rewrite", "Presentation.nf_word_terms"),
                   ("qsl2.rewrite", "Presentation.nf_terms"),
                   ("qsl2.rewrite", "normal_form"),
                   ("qsl2.rewrite", "tensor_normal_form")],
    "rewrite.confluence": [("qsl2.rewrite", "check_confluence")],
    "rewrite.basis": [("qsl2.rewrite", "enumerate_basis"),
                      ("qsl2.rewrite", "dimension"),
                      ("qsl2.rewrite", "basis_words")],
    "presentations.base": [("qsl2.presentations", "oq_sl2"),
                           ("qsl2.presentations", "o_minus1_sl2"),
                           ("qsl2.presentations", "sl2_algebra"),
                           ("qsl2.presentations", "classical_sl2")],
    "hopf.extend": [("qsl2.hopf", "NamedAlgebra.delta_word"),
                    ("qsl2.hopf", "NamedAlgebra.antipode_word"),
                    ("qsl2.hopf", "NamedAlgebra.counit_word")],
    "hopf.battery": [("qsl2.hopf", "run_battery"),
                     ("qsl2.hopf", "check_axioms"),
                     ("qsl2.hopf", "check_structure_well_defined")],
    "hopf.finite_model": [("qsl2.hopf", "FiniteModel.__init__"),
                          ("qsl2.hopf", "grouplikes"),
                          ("qsl2.hopf", "coinvariants")],
    "hopf.span": [("qsl2.hopf", "subalgebra_span"),
                  ("qsl2.hopf", "check_normal"),
                  ("qsl2.hopf", "check_central")],
    "exactla.echelon": [("qsl2.exactla", "Echelon.reduce"),
                        ("qsl2.exactla", "Echelon.add"),
                        ("qsl2.exactla", "Echelon.contains"),
                        ("qsl2.exactla", "span_dim")],
    "exactla.kernel": [("qsl2.exactla", "kernel_of_columns")],
    "subgroups.construct": [("qsl2.subgroups", "construct_quotient")],
    "subgroups.kernel": [("qsl2.subgroups", "kernel_sigma_t")],
    "catalog.entry": [("qsl2.catalog", "verify_entry")],
    "cli.render": [("workloads", "render_report")],
}

CYCLO_OPS = {"mul": ("__mul__", "__rmul__"),
             "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
             "inverse": ("inverse",)}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cyclo.mul.calls", "count"), ("cyclo.mul.self_s", "s"),
    ("cyclo.mul.unit_share", "ratio"), ("cyclo.mul.integral_share", "ratio"),
    ("cyclo.add.calls", "count"), ("cyclo.add.self_s", "s"),
    ("cyclo.inverse.calls", "count"), ("cyclo.inverse.self_s", "s"),
    ("ncalg.poly_mul.calls", "count"), ("ncalg.poly_mul.self_s", "s"),
    ("ncalg.tensor.calls", "count"), ("ncalg.tensor.self_s", "s"),
    ("rewrite.complete.calls", "count"), ("rewrite.complete.self_s", "s"),
    ("rewrite.complete.rules", "count"),
    ("rewrite.nf.calls", "count"), ("rewrite.nf.self_s", "s"),
    ("rewrite.nf.words", "count"), ("rewrite.nf.repeat_share", "ratio"),
    ("rewrite.find_redex.calls", "count"),
    ("rewrite.confluence.calls", "count"), ("rewrite.confluence.self_s", "s"),
    ("rewrite.basis.calls", "count"), ("rewrite.basis.self_s", "s"),
    ("rewrite.basis.words", "count"),
    ("presentations.base.calls", "count"),
    ("presentations.base.total_s", "s"),
    ("presentations.base.repeat_share", "ratio"),
    ("hopf.extend.calls", "count"), ("hopf.extend.self_s", "s"),
    ("hopf.battery.total_s", "s"), ("hopf.finite_model.total_s", "s"),
    ("hopf.span.total_s", "s"),
    ("exactla.echelon.calls", "count"), ("exactla.echelon.self_s", "s"),
    ("exactla.kernel.calls", "count"), ("exactla.kernel.self_s", "s"),
    ("exactla.kernel.columns", "count"),
    ("subgroups.construct.total_s", "s"),
    ("subgroups.construct.rejected_share", "ratio"),
    ("subgroups.kernel.self_s", "s"),
    ("catalog.entry.total_s", "s"), ("cli.render.self_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def _share(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counters of one traced pass at a time.

    modules maps module names ("qsl2.rewrite", "workloads", ...) to the
    loaded modules whose attributes are patched.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self._patches: list = []
        # per boundary: [calls, self_s, total_s]; zeroed in place per pass
        self.stats = {b: [0, 0.0, 0.0] for b in SPANS}
        self.cyclo = {k: [0, 0.0] for k in CYCLO_OPS}
        self.spans: list = []
        self._units: dict = {}
        self._next_id = 0
        self.begin_pass(keep_spans=False)

    # -- pass lifecycle ----------------------------------------------------

    def begin_pass(self, keep_spans: bool):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for agg in self.cyclo.values():
            agg[:] = [0, 0.0]
        self.counts = dict.fromkeys(
            ("mul_unit", "mul_integral", "find_redex", "rules", "nf_words",
             "nf_repeats", "basis_words", "base_repeats", "kernel_columns",
             "rejected"), 0)
        self.keep_spans = keep_spans
        self._stack: list = []
        self._depth = 0
        self._base_args: set = set()
        self._nf_seen: dict = {}
        self.op_id = None

    def run_op(self, op_id: int, fn):
        """Run one op under a root span, so every span has an op id."""
        self.op_id = op_id
        self._nf_seen = {}       # holds the op's presentations until it ends
        self._next_id += 1
        root = [None, 0.0, self._next_id]
        self._stack = [root]
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack = []
            if self.keep_spans:
                self.spans.append((op_id, root[2], None, "op", t0, t1,
                                   t1 - t0 - root[1]))

    def snapshot(self) -> dict:
        """The per-layer metrics of the pass just traced."""
        out = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        for kind, (calls, secs) in self.cyclo.items():
            out[f"cyclo.{kind}.calls"] = calls
            out[f"cyclo.{kind}.self_s"] = secs
        c = self.counts
        muls = self.cyclo["mul"][0]
        out["cyclo.mul.unit_share"] = _share(c["mul_unit"], muls)
        out["cyclo.mul.integral_share"] = _share(c["mul_integral"], muls)
        out["rewrite.find_redex.calls"] = c["find_redex"]
        out["rewrite.complete.rules"] = c["rules"]
        out["rewrite.nf.words"] = c["nf_words"]
        out["rewrite.nf.repeat_share"] = _share(c["nf_repeats"], c["nf_words"])
        out["rewrite.basis.words"] = c["basis_words"]
        out["presentations.base.repeat_share"] = _share(
            c["base_repeats"], self.stats["presentations.base"][0])
        out["exactla.kernel.columns"] = c["kernel_columns"]
        out["subgroups.construct.rejected_share"] = _share(
            c["rejected"], self.stats["subgroups.construct"][0])
        return out

    # -- patching ------------------------------------------------------------

    def install(self):
        hooks = {"build_presentation": self._on_complete,
                 "quotient_presentation": self._on_complete,
                 "Presentation.nf_word_terms": self._on_nf_word,
                 "enumerate_basis": self._on_basis,
                 "kernel_of_columns": self._on_kernel,
                 "construct_quotient": self._on_construct}
        for boundary, targets in SPANS.items():
            for modname, attr in targets:
                hook = hooks.get(attr)
                if boundary == "presentations.base":
                    hook = self._base_hook(attr)
                self._patch(modname, attr,
                            lambda fn, b=boundary, h=hook: self._span(b, fn, h))
        self._patch("qsl2.rewrite", "Presentation.find_redex", self._counted)
        for kind, names in CYCLO_OPS.items():
            for name in names:
                self._patch("qsl2.cyclo", f"CycRat.{name}",
                            lambda fn, k=kind: self._scalar(k, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, modname, attr, make_wrapper):
        module = self.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, boundary, fn, hook):
        stat = self.stats[boundary]
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent[0] is stat:            # a call the boundary makes into itself
                result = fn(*args, **kwargs)
                if hook:
                    hook(args, kwargs, result, None, False)
                return result
            tracer._next_id += 1
            frame = [stat, 0.0, tracer._next_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(boundary, stat, frame, parent, t0)
                if hook:
                    hook(args, kwargs, None, exc, True)
                raise
            tracer._close(boundary, stat, frame, parent, t0)
            if hook:
                hook(args, kwargs, result, None, True)
            return result

        return wrapper

    def _close(self, boundary, stat, frame, parent, t0):
        t1 = perf_counter()
        self._stack.pop()
        duration = t1 - t0
        self_s = duration - frame[1]
        parent[1] += duration
        stat[0] += 1
        stat[1] += self_s
        stat[2] += duration
        if self.keep_spans:
            self.spans.append((self.op_id, frame[2], parent[2], boundary,
                               t0, t1, self_s))

    def _counted(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["find_redex"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scalar(self, kind, fn):
        agg = self.cyclo[kind]
        classify = self._classify_mul if kind == "mul" else None
        tracer = self

        def wrapper(*args):
            stack = tracer._stack
            if tracer._depth or not stack:   # inner op of an outer scalar op
                return fn(*args)
            tracer._depth = 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                tracer._depth = 0
                agg[0] += 1
                agg[1] += dt
                stack[-1][1] += dt
                if classify:
                    classify(*args)

        return wrapper

    def _unit_words(self, a):
        units = self._units.get(a.ell)
        if units is None:
            q_power = type(a).q_power
            units = set()
            for k in range(a.ell):
                num = q_power(a.ell, k).num
                units.add(num)
                units.add(tuple(-c for c in num))
            self._units[a.ell] = units
        return units

    def _classify_mul(self, a, b):
        c = self.counts
        if isinstance(b, type(a)):
            units = self._unit_words(a)
            unit = ((a.den == 1 and a.num in units)
                    or (b.den == 1 and b.num in units))
            integral = a.den == 1 and b.den == 1
        else:                                # int or Fraction operand
            unit = b in (1, -1) or (a.den == 1 and a.num in self._unit_words(a))
            integral = a.den == 1 and getattr(b, "denominator", 1) == 1
        c["mul_unit"] += unit
        c["mul_integral"] += integral

    # -- hooks: counters measured where the work happens ----------------------

    def _on_complete(self, args, kwargs, result, exc, outermost):
        if outermost and result is not None:
            self.counts["rules"] += len(result.rules)

    def _on_nf_word(self, args, kwargs, result, exc, outermost):
        pres, word = args[0], args[1]
        entry = self._nf_seen.get(id(pres))
        if entry is None:
            entry = self._nf_seen[id(pres)] = (pres, set())
        self.counts["nf_words"] += 1
        if word in entry[1]:
            self.counts["nf_repeats"] += 1
        else:
            entry[1].add(word)

    def _on_basis(self, args, kwargs, result, exc, outermost):
        if result is not None:
            self.counts["basis_words"] += sum(len(level) for level in result)

    def _on_kernel(self, args, kwargs, result, exc, outermost):
        if outermost:
            self.counts["kernel_columns"] += len(args[0])

    def _on_construct(self, args, kwargs, result, exc, outermost):
        if outermost and type(exc).__name__ == "InconsistentDatum":
            self.counts["rejected"] += 1

    def _base_hook(self, attr):
        def on_base(args, kwargs, result, exc, outermost):
            if outermost:
                key = (attr, args, tuple(sorted(kwargs.items())))
                if key in self._base_args:
                    self.counts["base_repeats"] += 1
                self._base_args.add(key)
        return on_base
