"""Spans around calls into the symplie layers, recorded from outside the package.

Modules bind names with ``from .x import y``, so patching only the defining
module would miss calls such as bialgebra -> check_plsa.  ``Tracer.install``
therefore rebinds every attribute of every loaded ``symplie`` module that holds
a traced function object, and ``Tracer.restore`` puts every original back and
checks that no wrapper is left anywhere.

A span is (name, start, end, parent, job, dim), kept in memory.  ``start`` and
``end`` are readings of the tracer's clock: ``time.perf_counter`` for the timed
pass, or the running count of ``Fraction.__new__`` calls for the counting pass.
"""

import sys
import time
from fractions import Fraction

# The layer boundaries: (module, function) pairs, in report order.
LAYERS = {
    "bialgebra": ("drinfeld_double", "slsba_double", "plsca_check", "plsba_check",
                  "R_operators", "rr_brackets", "coboundary_coproducts",
                  "coboundary_conditions", "slsba_check", "slsba_coboundary",
                  "check_parakahler"),
    "matched": ("check_matched_pair", "build_double_plsa", "dual_actions",
                "double_extension"),
    "checks": ("check_plsa", "check_left_symmetric", "check_bimodule",
               "check_hypersymplectic", "check_special_symplectic", "check_jacobi",
               "check_closed", "nijenhuis_torsion"),
    "constructions": ("tangent_double", "cotangent_double", "family_JE",
                      "dual_left_action"),
    "linalg": ("mat_mul", "mat_rank", "mat_inverse", "tensor_contract"),
    "cli": ("parse_algebra_file", "emit_algebra_file", "cmd_verify", "cmd_construct"),
}

TRACED = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns)

JOB = "job"  # name of the root span around each benchmark job


def _symplie_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symplie" or name.startswith("symplie."))]


class Tracer:
    """Records spans at the layer boundaries while installed.

    Set ``job`` and ``dim`` before each job; ``run_job`` wraps the job call
    in a root span so that every span of one job shares its identifier."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [JOB] + list(TRACED)
        self.spans = []
        self.job = None
        self.dim = None
        self._stack = []
        self._bound = []  # (module, attribute, original)
        self._wrappers = set()

    def _wrap(self, name_id, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job, self.dim)

        return traced

    def install(self):
        if self._bound:
            raise RuntimeError("tracer already installed")
        mods = _symplie_modules()
        for name_id, qual in enumerate(TRACED, 1):
            mod_name, fn_name = qual.split(".")
            fn = getattr(sys.modules["symplie." + mod_name], fn_name)
            wrapper = self._wrap(name_id, fn)
            self._wrappers.add(wrapper)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, fn))

    def restore(self):
        for mod, attr, fn in reversed(self._bound):
            setattr(mod, attr, fn)
        self._bound = []
        wrappers = {id(w) for w in self._wrappers}
        left = [(mod.__name__, attr) for mod in _symplie_modules()
                for attr, value in vars(mod).items() if id(value) in wrappers]
        if left:
            raise RuntimeError("tracer wrappers left after restore: %s" % left)

    def run_job(self, fn):
        return self._wrap(0, fn)()

    def summary(self, scales=None):
        """Per traced name: call count, inclusive total and self total, each
        extent multiplied by ``scales[job]`` when given.

        Self is a span's extent minus the extent of its direct children;
        spans never overlap their siblings because the run is
        single-threaded."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0, 0] for name in self.names}
        for idx, (name_id, start, end, _, job, _) in enumerate(self.spans):
            k = scales[job] if scales else 1
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += (end - start) * k
            row[2] += (end - start - child[idx]) * k
        return out

    def span_records(self):
        return [{"name": self.names[n], "start": s, "end": e, "parent": p,
                 "job": j, "dim": d} for n, s, e, p, j, d in self.spans]


class FractionCounter:
    """Counts ``Fraction.__new__`` calls while installed; ``reading`` is the
    clock the counting pass hands to a Tracer."""

    def __init__(self):
        self.count = 0
        self._original = None

    def reading(self):
        return self.count

    def install(self):
        self._original = Fraction.__dict__["__new__"]
        new = self._original.__func__

        def counted_new(cls, *args, **kwargs):
            self.count += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    def restore(self):
        Fraction.__new__ = self._original
        if Fraction.__dict__["__new__"] is not self._original:
            raise RuntimeError("Fraction.__new__ not restored")
