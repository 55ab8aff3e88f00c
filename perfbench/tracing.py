"""Per-layer tracing of smallpoly from outside the package.

``Tracer`` replaces selected functions of ``cli``, ``geometry``, ``reduced``,
``solver`` and ``asymptotics`` with timing wrappers.  A function is replaced
in every smallpoly namespace that binds it, so the names bound by
``from ... import`` (``reduced.maximize_box``, ``asymptotics.reduced_objective``
and so on) are traced too, and a lazy import inside a function body picks up
the wrapper from the module attribute at call time.

Each call records a span (name, start, end, parent) in CPU seconds of the
calling thread (``time.thread_time``), unscaled.  Layer self time is the
time during which the innermost open span belongs to that layer, i.e. the
layer's time minus child spans in other layers.  ``dd`` and ``reference`` are
not wrapped: ``dd`` arithmetic is too fine-grained to wrap without distorting
the numbers and ``reference`` is static data, so their time lands in the
calling layer (mostly ``reduced.self_s``).  The same holds for callbacks a
layer runs without a wrapped entry point: ``brentq``'s closure-residual
evaluations count as solver time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

WRAPPED = {
    "cli": ("main", "PolygonRecord.to_json", "PolygonRecord.from_json"),
    "geometry": (
        "validate",
        "max_pairwise_distance",
        "boundary_order",
        "vertices_from_angles",
        "polygon_from_vertices",
    ),
    "reduced": (
        "objective",
        "derive",
        "area_deficit",
        "construct_Q",
        "construct_Q_theorem",
        "expand_angles",
    ),
    "solver": (
        "maximize_box",
        "brentq",
        "solve_full_nlp",
        "objective_gradient",
        "nlp_objective",
        "constraint_jacobian",
    ),
    "asymptotics": ("estimate_q_numeric", "minimize_cubic", "verify_certificates"),
}

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.PolygonRecord.to_json.s": ("s", "lower"),
    "cli.PolygonRecord.from_json.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "geometry.validate.calls": ("count", "lower"),
    "geometry.validate.s": ("s", "lower"),
    "geometry.max_pairwise_distance.s": ("s", "lower"),
    "geometry.boundary_order.s": ("s", "lower"),
    "geometry.vertices_from_angles.s": ("s", "lower"),
    "geometry.self_s": ("s", "lower"),
    "reduced.objective.calls": ("count", "lower"),
    "reduced.objective.s": ("s", "lower"),
    "reduced.objective.feasible_ratio": ("ratio", "higher"),
    "reduced.derive.s": ("s", "lower"),
    "reduced.area_deficit.calls": ("count", "lower"),
    "reduced.construct_Q.calls": ("count", "lower"),
    "reduced.construct_Q.s": ("s", "lower"),
    "reduced.construct_Q_theorem.s": ("s", "lower"),
    "reduced.self_s": ("s", "lower"),
    "solver.maximize_box.calls": ("count", "lower"),
    "solver.maximize_box.s": ("s", "lower"),
    "solver.maximize_box.iterations": ("count", "lower"),
    "solver.maximize_box.nfev": ("count", "lower"),
    "solver.maximize_box.converged_ratio": ("ratio", "higher"),
    "solver.brentq.calls": ("count", "lower"),
    "solver.brentq.s": ("s", "lower"),
    "solver.solve_full_nlp.calls": ("count", "lower"),
    "solver.solve_full_nlp.s": ("s", "lower"),
    "solver.solve_full_nlp.reported_iterations": ("count", "lower"),
    "solver.objective_gradient.calls": ("count", "lower"),
    "solver.objective_gradient.s": ("s", "lower"),
    "solver.nlp_objective.calls": ("count", "lower"),
    "solver.constraint_jacobian.calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "asymptotics.estimate_q_numeric.s": ("s", "lower"),
    "asymptotics.minimize_cubic.s": ("s", "lower"),
    "asymptotics.verify_certificates.s": ("s", "lower"),
    "asymptotics.self_s": ("s", "lower"),
    "traced.cpu_s": ("s", "lower"),
}

# spans shorter than this are counted but not kept; parents always outlast
# their children, so the kept spans still form closed trees
KEEP_SPAN_S = 1e-3


def _observe_objective(extra, value):
    # the reduced objective returns <= -1 (a graded penalty) when derivation fails
    extra["reduced.objective.feasible"] += value > -1.0


def _observe_maximize_box(extra, result):
    diag = result[2]
    extra["solver.maximize_box.iterations"] += diag.iterations
    extra["solver.maximize_box.nfev"] += diag.nfev
    extra["solver.maximize_box.converged"] += bool(diag.converged)


def _observe_solve_full_nlp(extra, result):
    extra["solver.solve_full_nlp.reported_iterations"] += result[2].iterations


OBSERVERS = {
    "reduced.objective": _observe_objective,
    "solver.maximize_box": _observe_maximize_box,
    "solver.solve_full_nlp": _observe_solve_full_nlp,
}


class Tracer:
    """Install with ``with Tracer() as t:``; the originals return on exit."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = []  # (layer, span id)
        self._mark = 0.0
        self._next_id = 0
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer):
        now = time.thread_time()
        if self._stack:
            self.self_s[self._stack[-1][0]] += now - self._mark
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append((layer, self._next_id))
        self._mark = now
        return self._next_id, parent, now

    def _exit(self, name, span_id, parent, start):
        now = time.thread_time()
        layer, _ = self._stack.pop()
        self.self_s[layer] += now - self._mark
        self._mark = now
        self.calls[name] += 1
        self.seconds[name] += now - start
        if now - start >= KEEP_SPAN_S:
            self.spans.append((span_id, parent, name, start, now))

    def span(self, layer, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own, e.g. one benchmark operation."""
        span_id, parent, start = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, span_id, parent, start)

    def wrap(self, layer, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, span_id, parent, start)
            if observe is not None:
                observe(self.extra, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def __enter__(self):
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "smallpoly"]
        for layer, names in WRAPPED.items():
            module = sys.modules[f"smallpoly.{layer}"]
            for dotted in names:
                name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(layer, name, raw.__func__))
                    else:
                        new = self.wrap(layer, name, raw)
                    self._replace(cls, meth, raw, new)
                    continue
                original = getattr(module, dotted)
                wrapper = self.wrap(layer, name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, attr, original, wrapper)
        return self

    def _replace(self, owner, attr, original, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------------

    def metrics(self, traced_cpu_s):
        """Every PER_LAYER metric as ``{name: {"value": v, "unit": u}}``."""
        values = {}
        for metric, (unit, _) in PER_LAYER.items():
            if metric == "traced.cpu_s":
                value = traced_cpu_s
            elif metric.endswith(".calls"):
                value = self.calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                value = self.self_s[metric[: -len(".self_s")]]
            elif metric.endswith("_ratio"):
                name, stem = metric.rsplit(".", 1)
                hits = self.extra[f"{name}.{stem[: -len('_ratio')]}"]
                value = hits / self.calls[name] if self.calls[name] else 0.0
            elif metric.endswith(".s"):
                value = self.seconds[metric[: -len(".s")]]
            else:
                value = self.extra[metric]
            values[metric] = {"value": value, "unit": unit}
        return values
