"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of every ``solvpoly`` module,
in every module namespace that imported them, plus the CLI's command table
and the hot public methods (scalar arithmetic, the monomial product,
polynomial and vector arithmetic).  Nothing under ``src/`` changes.

Wrapped module functions record spans (id, name, start, end, parent) in
memory; hot methods and helpers only add to counters and timers, since
they run millions of times.  A layer's self time is the time its wrappers ran
minus the time of the wrapped calls they made.  ``run.py`` imports this
module only for a traced run.
"""

import inspect
import json
import re
import statistics
import sys
import time
from collections import Counter

LAYERS = ("coeff", "algebra", "presentation", "modfree", "groebner",
          "syzres", "graded", "filtered", "cli")

# Hot public methods, wrapped on their classes: counted and timed, no spans.
HOT_METHODS = {
    ("coeff", "Scalar"): ("__add__", "__sub__", "__mul__", "__truediv__",
                          "__neg__", "inverse"),
    ("algebra", "SolvableAlgebra"): ("__init__", "mono_mul", "multiply",
                                     "parse", "poly_str"),
    ("algebra", "Poly"): ("__init__", "__add__", "__sub__", "__neg__",
                          "scale", "monic"),
    ("modfree", "Vect"): ("__init__", "__add__", "__sub__", "__neg__",
                          "scale", "monic", "lmul", "rmul"),
    ("presentation", "FreePoly"): ("__init__", "__add__", "__sub__",
                                   "scale", "sandwich"),
}
SCALAR_OPS = set(HOT_METHODS[("coeff", "Scalar")])
# Public helpers on exponent vectors and words, called hundreds of thousands
# of times per round: counted and timed like the hot methods, no spans.
HOT_FUNCTIONS = {
    "algebra": {"exp_add", "exp_sub", "exp_max", "exp_divides", "zero_exp",
                "unit_exp"},
    "modfree": {"mono_divides"},
    "presentation": {"occurrences", "word_divides"},
}

# per-layer metric -> (kind, function or span name)
SPAN_TIMERS = {
    "modfree.divide_s": "modfree.left_divide_module",
    "groebner.buchberger_s": "groebner.buchberger",
    "groebner.reduce_basis_s": "groebner.reduce_basis",
    "groebner.member_s": "groebner.is_member",
    "syzres.syzygy_s": "syzres.syzygy_of_generators",
    "syzres.free_resolution_s": "syzres.free_resolution",
    "syzres.pdim_s": "syzres.projective_dimension",
    "graded.resolution_s": "graded.minimal_graded_resolution",
    "filtered.resolution_s": "filtered.minimal_filtered_resolution",
    "filtered.min_standard_basis_s": "filtered.minimal_standard_basis",
    "filtered.sigma_s": "filtered.sigma",
    "presentation.verify_s": "presentation.verify_presentation",
}
CALL_COUNTS = {
    "algebra.mono_mul_calls": "algebra.SolvableAlgebra.mono_mul",
    "algebra.multiply_calls": "algebra.SolvableAlgebra.multiply",
    "modfree.divide_calls": "modfree.left_divide_module",
    "modfree.right_divide_calls": "modfree.right_divide_module",
    "groebner.buchberger_calls": "groebner.buchberger",
}

# Integers in output strings that are not exponents or parts of a name.
_COEFF_INT = re.compile(r"(?<![\^\w])(\d+)")


class Tracer:
    def __init__(self):
        self.stack = []             # frames: [span id, layer, start, child]
        self.active = Counter()     # names with a frame on the stack
        self.spans = []             # (id, name, start, end, parent id)
        self.next_id = 0
        self.rounds = []            # one dict of counters per round
        self.cur = None
        self.algebras = []

    # -- installing the wrappers ------------------------------------------------

    def install(self):
        mods = {name: sys.modules["solvpoly." + name] for name in LAYERS}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrap = (self._hot if name in HOT_FUNCTIONS.get(layer, ())
                        else self._span)
                wrapped = wrap(layer, "%s.%s" % (layer, name), fn)
                for other in sys.modules.values():
                    if (getattr(other, "__name__", "").startswith("solvpoly")
                            and getattr(other, name, None) is fn):
                        setattr(other, name, wrapped)
        commands = mods["cli"]._COMMANDS
        for key, fn in commands.items():
            if not hasattr(fn, "__wrapped__"):
                commands[key] = self._span("cli", "cli." + fn.__name__, fn)
        for (layer, cls_name), methods in HOT_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                full = "%s.%s.%s" % (layer, cls_name, meth)
                setattr(cls, meth, self._hot(layer, full, cls.__dict__[meth]))

    def _enter(self, layer, name):
        sid = self.next_id
        self.next_id += 1
        self.active[name] += 1
        frame = [sid, layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, name):
        end = time.perf_counter()
        self.stack.pop()
        self.active[name] -= 1
        dur = end - frame[2]
        cur = self.cur
        cur["self:" + frame[1]] += dur - frame[3]
        if self.stack:
            self.stack[-1][3] += dur
        if not self.active[name]:          # outermost call of this name
            cur["incl:" + name] += dur
        cur["calls:" + name] += 1
        return end

    def _span(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = tracer._enter(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer._leave(frame, name)
                tracer.spans.append((frame[0], name, frame[2], end, parent))
                tracer._observe(name, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _hot(self, layer, name, fn):
        tracer = self
        if name == "algebra.SolvableAlgebra.mono_mul":
            def wrapper(alg, a, b):
                if (tuple(a), tuple(b)) in alg.product_cache:
                    tracer.cur["mono_mul_hits"] += 1
                frame = tracer._enter(layer, name)
                try:
                    return fn(alg, a, b)
                finally:
                    tracer._leave(frame, name)
        elif name == "algebra.SolvableAlgebra.__init__":
            def wrapper(alg, *args, **kwargs):
                tracer.algebras.append(alg)
                frame = tracer._enter(layer, name)
                try:
                    return fn(alg, *args, **kwargs)
                finally:
                    tracer._leave(frame, name)
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leave(frame, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observe(self, name, result):
        """Counts read off a finished call's result."""
        cur = self.cur
        if name == "groebner.buchberger" and result is not None:
            cur["basis_elems"] += len(result.elements)
        elif name == "groebner.reduce_basis" and result is not None:
            cur["reduced_elems"] += len(result.elements)
        elif (name == "modfree.left_divide_module" and result is not None
              and self.active["groebner.buchberger"]):
            cur["bb_divides"] += 1
            if not result[1].is_zero():
                cur["bb_useful"] += 1

    # -- rounds and operations ---------------------------------------------------

    def begin_round(self):
        self.cur = Counter()
        self.rounds.append(self.cur)

    def detach(self):
        """Count what follows apart from the rounds."""
        self.cur = Counter()

    def begin_op(self):
        self.algebras = []

    def end_op(self, stdout):
        cur = self.cur
        entries = sum(len(a.product_cache) for a in self.algebras)
        cur["cache_entries"] = max(cur["cache_entries"], entries)
        cur["out_bytes"] += len(stdout.encode())
        self.algebras = []
        bits = 0
        for text in _strings(json.loads(stdout)) if stdout else ():
            for m in _COEFF_INT.finditer(text):
                bits = max(bits, int(m.group(1)).bit_length())
        cur["max_bits"] = max(cur["max_bits"], bits)

    # -- results ----------------------------------------------------------------

    def counts_repeat(self):
        """Every count is the same in every round."""
        def counts(r):
            return {k: v for k, v in r.items() if not isinstance(v, float)}
        return all(counts(r) == counts(self.rounds[0]) for r in self.rounds)

    def metrics(self, traced_wall_s):
        first = self.rounds[0]

        def med(key):
            return statistics.median(r[key] for r in self.rounds)

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(layer + ".self_s", med("self:" + layer), "s")
        put("coeff.max_bits", first["max_bits"], "bits")
        put("coeff.calls", sum(first["calls:coeff.Scalar." + m]
                               for m in SCALAR_OPS), "count")
        for metric, name in CALL_COUNTS.items():
            put(metric, first["calls:" + name], "count")
        mm = first["calls:algebra.SolvableAlgebra.mono_mul"]
        put("algebra.cache_hit_ratio",
            first["mono_mul_hits"] / mm if mm else 0.0, "ratio")
        put("algebra.cache_entries", first["cache_entries"], "count")
        put("groebner.basis_elems", first["basis_elems"], "count")
        put("groebner.reduced_elems", first["reduced_elems"], "count")
        put("groebner.useful_ratio",
            first["bb_useful"] / first["bb_divides"]
            if first["bb_divides"] else 0.0, "ratio")
        put("groebner.spair_divides", first["bb_divides"], "count")
        for metric, name in SPAN_TIMERS.items():
            put(metric, med("incl:" + name), "s")
        put("graded.min_gens_s", med("incl:graded.min_homogeneous_gens")
            + med("incl:graded.min_gens_quotient"), "s")
        put("cli.parse_s", med("incl:cli.parse_problem")
            + med("incl:algebra.build_algebra"), "s")
        emit = [r["incl:cli.main"] - r["incl:cli.parse_problem"]
                - sum(v for k, v in r.items()
                      if k.startswith("incl:cli.cmd_"))
                for r in self.rounds]
        put("cli.emit_s", statistics.median(emit), "s")
        put("cli.out_bytes", first["out_bytes"], "bytes")
        put("traced.wall_s", traced_wall_s, "s")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for x in doc:
            yield from _strings(x)
    elif isinstance(doc, dict):
        for x in doc.values():
            yield from _strings(x)
