"""Per-layer spans recorded from outside the program.

install() wraps the public functions of each covercones module, in every
module namespace that binds them (hilbert_basis, for instance, is imported
by name into blowup, checks and cli), plus the lazy facet and generator
properties of IntegerCone.  Each wrapped call is a span with a layer, a
parent and a start and end time.  A layer's self time is its spans'
durations minus their child spans; its calls are the entries into the
layer from another layer.  Work counts are taken from return values and
from the span stack.

The per-vector helpers of linalg (dot, vec_add, vec_sub, gcd_vec,
primitive, sign_normalized) are left unwrapped: they run inside every inner
loop, and a span around each would cost more than the work it measures.
Of cones, only the functions listed in _CONES are wrapped; make_halfspace,
polyhedron, polyhedron_feasible and the LP oracles of cones are not.  The
time of an unwrapped function counts as self time of its caller's layer.
"""

import functools
import inspect
import sys
import time

LAYERS = ("textio", "clutters", "cones.dd", "cones.hilbert",
          "cones.membership", "cones.polyhedra", "lp", "linalg", "blowup",
          "checks", "cli")

COUNTS = ("cones.dd.facets_out", "cones.hilbert.elements_out",
          "cones.hilbert.triangulation_dd_calls",
          "cones.membership.grading_lp_calls", "cones.polyhedra.vertices_out",
          "lp.ilp_calls", "linalg.rank_int.calls")

# functions of the cones module, by layer; the rest of cones is unwrapped
_CONES = {
    "cones.dd": ("facets_of_generators", "extreme_rays_of_halfspaces",
                 "extreme_rays_of_halfspaces_or_lineality"),
    "cones.hilbert": ("hilbert_basis",),
    "cones.membership": ("semigroup_member", "positive_grading"),
    "cones.polyhedra": ("vertices", "is_integral", "lattice_points_dilation"),
}
_CONE_PROPERTIES = ("facets", "generators")     # lazy IntegerCone views
_CONE_METHODS = ("extreme_rays",)
_LINALG_SKIPPED = ("dot", "vec_add", "vec_sub", "gcd_vec", "primitive",
                   "sign_normalized")
_WHOLE_MODULES = ("textio", "clutters", "lp", "linalg", "blowup", "checks")
_CLI = ("main", "run")


metric_names = tuple(f"{layer}.{kind}" for layer in LAYERS
                     for kind in ("calls", "self_s")) + COUNTS


def unit(name):
    return "s" if name.endswith(".self_s") else "count"


class Tracer:
    """Collects a span for every wrapped call made while `active` is set."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.spans = []        # [layer, name, parent, start, end]
        self.stack = []        # indices of open spans
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, layer, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            record = [layer, name, parent, time.perf_counter(), None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, parent)
            return result

        return traced

    def _inside(self, parent, name):
        while parent >= 0:
            span = self.spans[parent]
            if span[1] == name:
                return True
            parent = span[2]
        return False

    # work counters, fed with each wrapped call's result and parent span
    def _facets_out(self, result, parent):
        self.counts["cones.dd.facets_out"] += len(result)
        if self._inside(parent, "hilbert_basis"):
            self.counts["cones.hilbert.triangulation_dd_calls"] += 1

    def _elements_out(self, result, parent):
        self.counts["cones.hilbert.elements_out"] += len(result.elements)

    def _grading(self, result, parent):
        self.counts["cones.membership.grading_lp_calls"] += 1

    def _vertices_out(self, result, parent):
        self.counts["cones.polyhedra.vertices_out"] += len(result)

    def _ilp(self, result, parent):
        self.counts["lp.ilp_calls"] += 1

    def _rank(self, result, parent):
        self.counts["linalg.rank_int.calls"] += 1

    def summary(self):
        """Per-layer calls and self seconds, plus the work counts."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        child = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (layer, name, parent, start, end) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != layer:
                calls[layer] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(self.counts)
        return out


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer):
    """Wrap every traced function of the imported covercones package.
    Returns the number of namespace bindings replaced."""
    import covercones
    from covercones import cones
    packages = [m for name, m in sys.modules.items()
                if name == "covercones" or name.startswith("covercones.")]
    hooks = {"facets_of_generators": tracer._facets_out,
             "hilbert_basis": tracer._elements_out,
             "positive_grading": tracer._grading,
             "vertices": tracer._vertices_out,
             "solve_ilp_bounded": tracer._ilp,
             "rank_int": tracer._rank}

    targets = {}        # original function object -> wrapped function
    def add(layer, module, name):
        fn = getattr(module, name)
        targets[fn] = tracer.wrap(layer, name, fn, hooks.get(name))

    for short in _WHOLE_MODULES:
        module = getattr(covercones, short)
        for name in _public_functions(module):
            if short == "linalg" and name in _LINALG_SKIPPED:
                continue
            add(short, module, name)
    for layer, names in _CONES.items():
        for name in names:
            add(layer, cones, name)
    for name in _CLI:
        add("cli", covercones.cli, name)

    replaced = 0
    for module in packages:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in targets:
                setattr(module, name, targets[obj])
                replaced += 1

    cls = cones.IntegerCone
    for name in _CONE_PROPERTIES:
        prop = inspect.getattr_static(cls, name)
        setattr(cls, name, property(tracer.wrap("cones.dd", name, prop.fget)))
        replaced += 1
    for name in _CONE_METHODS:
        setattr(cls, name, tracer.wrap("cones.dd", name, getattr(cls, name)))
        replaced += 1
    return replaced
