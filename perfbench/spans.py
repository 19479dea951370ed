"""Span and counter recorder that traces potkit from outside the library.

While a ``Tracer`` is installed it rebinds every public function of the
``potkit.*`` modules in each module namespace (and module-level registry)
that holds it, and every public method on the modules' classes, so calls
made through ``from .x import f`` are seen too.  Each wrapped call records a
span (name, start, end, parent) in memory; the parent comes from a
``contextvars`` variable.  A span is named ``layer:function``; for methods the
layer is the module of the instance's class, so ``ScalarField.evaluate_array``
on a ``Potential`` is a ``potentials`` span and on a ``GreenModel`` a ``green``
span.  Hooks keyed by function add work counters at the same boundaries.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import time
import weakref
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("geometry", "kernels", "quadrature", "measures", "fields", "potentials",
           "green", "balayage", "duality", "zeros", "presets", "cli")


class Recorder:
    """Spans in parallel arrays plus named counters, all kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()  # "module.qualname" -> calls
        self.current = contextvars.ContextVar("perfbench_span", default=-1)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def layer_of(self, span: int) -> str:
        return self.names[self.name[span]].split(":", 1)[0] if span >= 0 else ""

    def open(self, name_id: int) -> tuple[int, contextvars.Token]:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current.get())
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx, self.current.set(idx)

    def close(self, idx: int, token: contextvars.Token):
        self.end[idx] = time.perf_counter()
        self.current.reset(token)

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        layers = [n.split(":", 1)[0] for n in self.names]
        for i, s in enumerate(self.self_times()):
            out[layers[self.name[i]]] += s
        return dict(out)

    def write(self, path):
        """Spans as gzipped TSV: id, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging child spans never count twice or below zero.
    """
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in sorted(kids, key=lambda j: start[j]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


# ---------------------------------------------------------------------------
# work counters at layer boundaries


def _npoints(pts) -> int:
    a = np.asarray(pts)
    return 1 if a.ndim < 2 else int(a.shape[0])


class _PotentialShape:
    """Per-Potential source sizes, computed once from its public charge."""

    def __init__(self):
        self._cache = weakref.WeakKeyDictionary()
        try:
            from potkit import potentials

            sig = inspect.signature(potentials._chunked_kernel_sum)
            self.block = int(sig.parameters["block"].default)
        except (ImportError, AttributeError, KeyError, TypeError, ValueError):
            self.block = 0  # no chunked dense kernel sum to size

    def __call__(self, pot):
        try:
            return self._cache[pot]
        except KeyError:
            pass
        from potkit.measures import Atom, GridDensity

        atoms, live = 0, []
        for c in pot.charge.components:
            if isinstance(c, Atom):
                atoms += 1
            elif isinstance(c, GridDensity):
                live.append(int(np.count_nonzero(np.asarray(c.values))))
        shape = (atoms, live, pot.charge.dimension)
        self._cache[pot] = shape
        return shape


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list = []
        self._depth: Counter = Counter()
        self._pot_shape = _PotentialShape()
        # "module.qualname" -> callable(layer, args, kwargs, result) adding counters
        self._count_hooks = {
            "fields.ScalarField.evaluate_array": self._count_eval,
            "geometry.GridDomain.index_of": self._count("geometry.index_of_calls"),
            "geometry.Ball.contains_array": self._count_points("geometry.contains_points"),
            "geometry.Annulus.contains_array": self._count_points("geometry.contains_points"),
            "geometry.GridDomain.contains_array":
                self._count_points("geometry.contains_points"),
            "kernels.k_eval_array": self._count_kernel,
            "measures.integrate": self._count("measures.integrate_calls"),
            "measures.restrict": self._count("measures.restrict_calls"),
            "fields.check_subharmonic": self._count_probe_rows,
            "fields.riesz_measure": self._count_riesz,
            "green.harmonic_measure": self._count("green.harmonic_measure_calls"),
            "balayage.check_linear": self._count_check,
            "balayage.check_affine": self._count_check,
            "duality.verify_poisson_jensen": self._count("duality.pj_calls"),
            "zeros.check_thm_hol": self._count("zeros.check_calls"),
            "zeros.check_criterium3_forward": self._count("zeros.check_calls"),
            "zeros.poincare_lelong_check": self._count("zeros.check_calls"),
        }
        for fn in ("circle_nodes", "sphere_spiral_nodes", "sphere_rule", "sphere_mc_nodes",
                   "ball_rule", "gauss_legendre_cell"):
            self._count_hooks[f"quadrature.{fn}"] = self._count_rule
        # "module.qualname" -> metric receiving the inclusive time of outermost calls
        self._time_hooks = {
            "measures.integrate": "measures.integrate_s",
            "measures.convolve_balayage": "measures.convolve_s",
            "fields.glue_max": "fields.glue_s",
            "fields.glue_quantitative": "fields.glue_s",
            "fields.glue_with_green": "fields.glue_s",
            "fields.riesz_measure": "fields.riesz_s",
            "balayage.check_linear": "balayage.check_s",
            "balayage.check_affine": "balayage.check_s",
            "balayage.harmonic_kernel_family": "balayage.family_build_s",
            "balayage.standard_jensen_family": "balayage.family_build_s",
            "balayage.build_test_family": "balayage.family_build_s",
            "duality.to_potential": "duality.to_potential_s",
            "duality.from_potential": "duality.from_potential_s",
            "duality.verify_poisson_jensen": "duality.pj_s",
        }
        self.wrapped: list[str] = []  # every "module.qualname" wrapped, for coverage

    # -- hooks ----------------------------------------------------------------

    def _count(self, metric):
        def hook(layer, args, kwargs, result):
            self.rec.counters[metric] += 1
        return hook

    def _count_points(self, metric):
        def hook(layer, args, kwargs, result):
            self.rec.counters[metric] += _npoints(args[1])
        return hook

    def _count_eval(self, layer, args, kwargs, result):
        n = _npoints(args[1])
        c = self.rec.counters
        if layer == "potentials":
            atoms, live, d = self._pot_shape(args[0])
            c["potentials.eval_calls"] += 1
            c["potentials.eval_points"] += n
            c["potentials.kernel_pairs"] += n * (atoms + sum(live))
            if self._pot_shape.block and live:
                m = max(live)
                rows = min(n, max(1, self._pot_shape.block // m))
                c["potentials.chunk_bytes_max"] = max(c["potentials.chunk_bytes_max"],
                                                      rows * m * d * 8)
        elif layer == "green":
            c["green.eval_points"] += n
        else:
            c["fields.eval_points"] += n

    def _count_kernel(self, layer, args, kwargs, result):
        self.rec.counters["kernels.k_eval_elements"] += int(np.size(args[1]))

    def _count_rule(self, layer, args, kwargs, result):
        # only outermost rule builds: ball_rule's inner sphere_rule is one build
        if self.rec.layer_of(self.rec.current.get()) == "quadrature":
            return
        nodes = result[0] if isinstance(result, tuple) else result
        self.rec.counters["quadrature.rule_calls"] += 1
        self.rec.counters["quadrature.rule_nodes"] += _npoints(nodes)

    def _count_probe_rows(self, layer, args, kwargs, result):
        self.rec.counters["fields.probe_rows"] += len(result.rows)

    def _count_riesz(self, layer, args, kwargs, result):
        grid = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("grid")
        if grid is None:
            grid = getattr(args[0], "grid", None)
        self.rec.counters["fields.riesz_calls"] += 1
        if grid is not None:
            self.rec.counters["fields.riesz_cells"] += int(np.asarray(grid.mask).size)

    def _count_check(self, layer, args, kwargs, result):
        family = args[2] if len(args) > 2 else kwargs.get("family")
        self.rec.counters["balayage.check_calls"] += 1
        self.rec.counters["balayage.members"] += len(family.members)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, method: bool):
        rec = self.rec
        count = self._count_hooks.get(key)
        timer = self._time_hooks.get(key)
        depth = self._depth
        qual = fn.__qualname__
        fixed_id = rec.name_id(f"{layer}:{qual}")
        ids: dict[str, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_layer = layer
            name_id = fixed_id
            if method and args:
                mod = type(args[0]).__module__
                if mod.startswith("potkit.") and mod[7:] != layer:
                    span_layer = mod[7:]
                    name_id = ids.get(span_layer)
                    if name_id is None:
                        name_id = ids[span_layer] = rec.name_id(f"{span_layer}:{qual}")
            rec.calls[key] += 1
            outer = False
            if timer is not None:
                outer = depth[timer] == 0
                depth[timer] += 1
            idx, token = rec.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx, token)
                if timer is not None:
                    depth[timer] -= 1
                    if outer:
                        rec.counters[timer] += rec.end[idx] - rec.start[idx]
            if count is not None:
                count(span_layer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new, registry=None):
        if registry is not None:
            old = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, old))

    def __enter__(self):
        mods = {m: importlib.import_module(f"potkit.{m}") for m in MODULES}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    w = self._wrap(obj, layer, key, method=False)
                    self.wrapped.append(key)
                    self._rebind_everywhere(mods, obj, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        return self

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, key, method=False))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, key, method=True)
            else:
                continue  # properties, class attributes
            self.wrapped.append(key)
            self._patch(cls, attr, new)

    def _rebind_everywhere(self, mods, obj, wrapper):
        for mod in mods.values():
            for name, val in list(vars(mod).items()):
                if val is obj:
                    self._patch(mod, name, wrapper)
                elif isinstance(val, dict):
                    # registries such as presets.PRESETS hold functions in tuples
                    for k, entry in list(val.items()):
                        if isinstance(entry, tuple) and any(e is obj for e in entry):
                            new = tuple(wrapper if e is obj else e for e in entry)
                            self._patch(val, k, new, registry=True)

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metric values from one traced run."""
    c = rec.counters
    self_s = rec.layer_self_s()
    potential_s = sum(rec.end[i] - rec.start[i] for i in range(len(rec.start))
                      if rec.names[rec.name[i]] == "potentials:ScalarField.evaluate_array"
                      and rec.layer_of(rec.parent[i]) != "potentials")
    pairs = c["potentials.kernel_pairs"]
    out = {
        "potentials.eval_calls": c["potentials.eval_calls"],
        "potentials.eval_points": c["potentials.eval_points"],
        "potentials.kernel_pairs": pairs,
        "potentials.self_s": self_s.get("potentials", 0.0),
        "potentials.pairs_per_s": pairs / potential_s if potential_s > 0 else 0.0,
        "potentials.chunk_bytes_max": c["potentials.chunk_bytes_max"],
        "kernels.k_eval_elements": c["kernels.k_eval_elements"],
        "kernels.self_s": self_s.get("kernels", 0.0),
        "geometry.index_of_calls": c["geometry.index_of_calls"],
        "geometry.contains_points": c["geometry.contains_points"],
        "geometry.self_s": self_s.get("geometry", 0.0),
        "quadrature.rule_calls": c["quadrature.rule_calls"],
        "quadrature.rule_nodes": c["quadrature.rule_nodes"],
        "quadrature.self_s": self_s.get("quadrature", 0.0),
        "measures.integrate_calls": c["measures.integrate_calls"],
        "measures.integrate_s": c["measures.integrate_s"],
        "measures.restrict_calls": c["measures.restrict_calls"],
        "measures.convolve_s": c["measures.convolve_s"],
        "measures.self_s": self_s.get("measures", 0.0),
        "fields.eval_points": c["fields.eval_points"],
        "fields.glue_s": c["fields.glue_s"],
        "fields.probe_rows": c["fields.probe_rows"],
        "fields.riesz_calls": c["fields.riesz_calls"],
        "fields.riesz_cells": c["fields.riesz_cells"],
        "fields.riesz_s": c["fields.riesz_s"],
        "fields.self_s": self_s.get("fields", 0.0),
        "green.eval_points": c["green.eval_points"],
        "green.harmonic_measure_calls": c["green.harmonic_measure_calls"],
        "green.self_s": self_s.get("green", 0.0),
        "balayage.check_calls": c["balayage.check_calls"],
        "balayage.members": c["balayage.members"],
        "balayage.check_s": c["balayage.check_s"],
        "balayage.family_build_s": c["balayage.family_build_s"],
        "balayage.self_s": self_s.get("balayage", 0.0),
        "duality.to_potential_s": c["duality.to_potential_s"],
        "duality.from_potential_s": c["duality.from_potential_s"],
        "duality.pj_calls": c["duality.pj_calls"],
        "duality.pj_s": c["duality.pj_s"],
        "duality.self_s": self_s.get("duality", 0.0),
        "zeros.check_calls": c["zeros.check_calls"],
        "zeros.self_s": self_s.get("zeros", 0.0),
        "presets.self_s": self_s.get("presets", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
    return {k: float(v) for k, v in out.items()}


def coverage(rec: Recorder, wrapped) -> dict[str, dict[str, list[str]]]:
    """Per layer: wrapped public functions reached and not reached."""
    out: dict[str, dict[str, list[str]]] = {}
    for key in wrapped:
        layer, name = key.split(".", 1)
        entry = out.setdefault(layer, {"reached": [], "unreached": []})
        entry["reached" if rec.calls[key] else "unreached"].append(name)
    return out
