"""Per-layer spans recorded from outside hkgeo.

:meth:`Tracer.install` wraps the public callables of each layer module at
every name they are bound to (module attributes of every ``hkgeo`` module,
so names imported into ``checks``, ``geometry`` and ``reduction`` too, and
methods of the classes the layer defines), plus ``scipy.integrate.quad`` as
the quadrature layer.  Each call records one span ``(name, start, end,
parent)`` in flat in-memory arrays; :meth:`Tracer.summary` turns them into
per-layer self times and counts when the run ends.  The program itself is
not edited.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np

#: Layer modules, in the order their metrics are reported.
LAYERS = ("jets", "fields", "geometry", "kahler", "reduction", "mechanics",
          "models", "sampling")

#: Call counts reported per layer (summed over classes for methods).
CALLS = {
    "jets": ("evaluate_jet", "fd_oracle"),
    "fields": ("jet", "value", "jacobian"),
    "geometry": ("christoffel", "christoffel_fd", "christoffel_with_derivative",
                 "riemann", "riemann_lowered", "covariant_derivative_02",
                 "killing_deviation", "gaussian_curvature"),
    "kahler": ("heavenly_check", "triple_at", "coset_metric"),
    "reduction": ("pullback_metric", "pullback_form", "quotient_metric",
                  "quotient_form", "exterior_derivative", "recover_moment_map"),
    "mechanics": ("poisson_bracket", "legendre_to_hamiltonian",
                  "constrain_and_reduce"),
    "models": ("build",),
    "sampling": (),
}

#: Operator methods of jet classes that are traced besides public names.
_OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__"))

ROOT = "checks"


def metric_units():
    """Name and unit of every per-layer metric a traced child emits."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        if layer == "jets":
            out["jets.Jet2.created"] = "count"
        if layer == "geometry":
            out["geometry.mp.self_s"] = "s"
        if layer == "sampling":
            out.update({"sampling.points": "count",
                        "sampling.candidates": "count",
                        "sampling.accept_ratio": "ratio"})
        for name in CALLS[layer]:
            out[f"{layer}.{name}.calls"] = "count"
        out[f"{layer}.errors"] = "count"
    out.update({"quadrature.self_s": "s", "quadrature.calls": "count",
                "quadrature.neval": "count", "quadrature.errors": "count",
                "checks.self_s": "s", "checks.errors": "count",
                "trace.root_s": "s", "trace.spans": "count"})
    return out


class _CountingPredicate:
    """First exclusion of a sampling spec, counting the candidates it sees."""

    def __init__(self, excl, tracer):
        self.excl = excl
        self.name = getattr(excl, "name", repr(excl))
        self.tracer = tracer

    def __call__(self, point):
        self.tracer.candidates += 1
        return self.excl(point)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names = []  # span name table; index is the name id
        self.layer_of = []  # layer of each name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_mp = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.errors = {}
        self.last_error = None
        self.jets_created = [0]  # a list cell: bumped on every Jet2 creation
        self.candidates = 0
        self.points = 0
        self.neval = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer, dps_index=None):
        nid = self._name_id(name, layer)
        span_name, span_parent, span_mp = (
            self.span_name, self.span_parent, self.span_mp)
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            if dps_index is None:
                span_mp.append(0)
            else:
                dps = kwargs.get("dps", args[dps_index] if len(args) > dps_index else None)
                span_mp.append(dps is not None)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self.last_error:
                    self.last_error = exc
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span (layer ``checks``)."""
        return self._wrap(fn, ROOT, ROOT)(*args)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer of the already imported ``hkgeo`` package."""
        import scipy.integrate

        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"hkgeo.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(
                        self._hook(layer, attr, obj), f"{layer}.{attr}", layer,
                        _dps_index(obj))
        quad = scipy.integrate.quad
        replaced[id(quad)] = self._wrap(self._counting_quad(quad),
                                        "quadrature.quad", "quadrature")
        scipy.integrate.quad = replaced[id(quad)]
        for modname, mod in list(sys.modules.items()):
            if modname == "hkgeo" or modname.startswith("hkgeo."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            wrapped = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer,
                                 _dps_index(fn))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)
        if cls.__name__ == "Jet2":
            init, created = cls.__init__, self.jets_created

            def counted_init(obj, *args, **kwargs):
                created[0] += 1
                init(obj, *args, **kwargs)

            cls.__init__ = counted_init

    def _hook(self, layer, attr, fn):
        if (layer, attr) != ("sampling", "sample_points"):
            return fn

        def sample_points(spec):
            if spec.exclusions:  # every candidate meets the first guard
                first = _CountingPredicate(spec.exclusions[0], self)
                spec = dataclasses.replace(
                    spec, exclusions=(first,) + tuple(spec.exclusions[1:]))
            out = fn(spec)
            self.points += len(out)
            if not spec.exclusions:  # no guard: every candidate is kept
                self.candidates += len(out)
            return out

        return sample_points

    def _counting_quad(self, quad):
        def counting_quad(func, *args, **kwargs):
            def counted(*a):
                self.neval += 1
                return func(*a)

            return quad(counted, *args, **kwargs)

        return counting_quad

    # -- summary ---------------------------------------------------------

    def summary(self):
        """Per-layer metrics, plus the self-check of span accounting.

        Returns ``(metrics, problems)``; ``problems`` lists every violated
        invariant (open spans, self times not summing to the root span).
        """
        problems = []
        if len(self.stack) != 1:
            problems.append(f"{len(self.stack) - 1} spans still open")
        n = len(self.start)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=n)
        self_t = dur - child
        # a span is on the mpmath path when it or an ancestor had ``dps`` set
        mp = np.frombuffer(self.span_mp, dtype=np.int8).astype(bool)
        safe_parent = np.where(parent >= 0, parent, 0)
        while True:
            nxt = mp | (mp[safe_parent] & (parent >= 0))
            if (nxt == mp).all():
                break
            mp = nxt

        layers = LAYERS + ("quadrature", ROOT)
        layer_idx = np.array([layers.index(x) for x in self.layer_of])
        span_layer = layer_idx[names]
        layer_self = np.bincount(span_layer, weights=self_t, minlength=len(layers))
        calls_by_name = np.bincount(names, minlength=len(self.names))

        m = {}
        for i, layer in enumerate(layers):
            m[f"{layer}.self_s"] = float(layer_self[i])
            m[f"{layer}.errors"] = self.errors.get(layer, 0)
        geo = span_layer == layers.index("geometry")
        m["geometry.mp.self_s"] = float(self_t[geo & mp].sum())
        for layer in LAYERS:
            for call in CALLS[layer]:
                m[f"{layer}.{call}.calls"] = int(sum(
                    calls_by_name[i] for i, nm in enumerate(self.names)
                    if self.layer_of[i] == layer and nm.rsplit(".", 1)[1] == call))
        m["jets.Jet2.created"] = self.jets_created[0]
        m["sampling.points"] = self.points
        m["sampling.candidates"] = self.candidates
        m["sampling.accept_ratio"] = (m["sampling.points"] / m["sampling.candidates"]
                                      if m["sampling.candidates"] else 0.0)
        m["quadrature.calls"] = int(calls_by_name[self.layer_of.index("quadrature")])
        m["quadrature.neval"] = self.neval
        roots = np.flatnonzero(parent < 0)
        m["trace.root_s"] = float(dur[roots].sum())
        m["trace.spans"] = n
        if abs(layer_self.sum() - m["trace.root_s"]) > 1e-6 * max(1.0, m["trace.root_s"]):
            problems.append("layer self times do not sum to the root span")
        return m, problems

    def save(self, path):
        """Write the raw spans (name table, name id, parent, start, end)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _dps_index(fn):
    """Positional index of a ``dps`` parameter of ``fn``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("dps") if "dps" in params else None
