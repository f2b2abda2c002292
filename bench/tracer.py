"""Span tracer that instruments dyadlab from outside its source.

`Tracer.install` replaces every public module-level function of the traced
modules, and every public method and property of the classes they define,
with a timing wrapper.  Functions are rebound in every traced module that
binds them (``from .grids import enumerate_intervals`` makes a second binding),
so calls are seen the way callers make them.  `Tracer.uninstall` restores the
originals, so untraced passes run unmodified code.

Module-level functions record one span each, with the span that called them.
Methods, properties and the per-interval functions in HOT_FUNCTIONS run far
too often for one record per call; they are aggregated per (calling span,
name) into a count and a self time instead.  Self time is a call's duration
minus the duration of the traced calls it made.  Spans and aggregates stay in
memory until `record` writes them out.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter, defaultdict

HOT_FUNCTIONS = frozenset({"grid_shift", "haar_coefficient"})
GEOMETRY = frozenset(
    f"DyadicInterval.{name}" for name in ("left", "right", "length", "mid")
)
ASSEMBLY = frozenset(
    {
        "hilbert_matrix",
        "paraproduct_matrix",
        "paraproduct_adjoint_matrix",
        "haar_shift_matrix",
        "haar_multiplier_matrix",
        "remainder_matrix",
        "remainder_matrix_derived",
    }
)
CONJUGATION = frozenset({"multiplication_commutator", "weight_conjugate"})
MIB = float(1 << 20)


class Tracer:
    """Instruments the modules of `layers` (layer name -> module)."""

    def __init__(self, layers: dict):
        self.layers = dict(layers)
        self._undo: list[tuple[object, str, object]] = []
        # Wrappers close over these containers, so `reset` clears them in place.
        self._stack: list[list[float]] = [[0.0]]
        self._span_ids: list[int] = [0]
        self._next_id = [0]
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counters: Counter = Counter()
        self._seen_tables: set = set()
        self._seen_integrals: set = set()

    # ------------------------------------------------------------------ setup

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer, mod in self.layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, layer, name, name in HOT_FUNCTIONS)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in self.layers.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                fget = self._wrap(member.fget, layer, qual, True)
                new = property(fget, member.fset, member.fdel, member.__doc__)
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, layer, qual, True))
            elif inspect.isfunction(member):
                new = self._wrap(member, layer, qual, True)
            else:
                continue
            self._undo.append((cls, attr, member))
            setattr(cls, attr, new)

    def _hook_for(self, layer: str, name: str):
        if name == "enumerate_intervals":
            return self._on_enumerate
        if layer == "weights" and name.endswith(".integral"):
            return self._on_integral
        if layer == "operators" and "." not in name:
            return self._on_operator
        if layer == "spectrum" and name == "singular_values":
            return self._on_spectrum
        if layer == "spectrum" and name == "numerical_rank":
            return self._on_rank
        return None

    def _wrap(self, fn, layer: str, name: str, leaf: bool):
        stack = self._stack
        span_ids = self._span_ids
        hook = self._hook_for(layer, name)
        perf = time.perf_counter

        if leaf:
            leaves = self.leaves

            def leaf_wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    agg = leaves[(span_ids[-1], layer, name)]
                    agg[0] += 1
                    agg[1] += dur - frame[0]
                if hook is not None:
                    hook(args, kwargs, result)
                return result

            return leaf_wrapper

        spans = self.spans
        next_id = self._next_id

        def span_wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            next_id[0] += 1
            sid = next_id[0]
            parent = span_ids[-1]
            span_ids.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                span_ids.pop()
                stack.pop()
                stack[-1][0] += t1 - t0
                spans.append((sid, parent, layer, name, t0, t1, t1 - t0 - frame[0]))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span_wrapper

    # ------------------------------------------------------------------ hooks

    def _on_enumerate(self, args, kwargs, result) -> None:
        key = args + tuple(kwargs.values())  # (grid, window)
        if key in self._seen_tables:
            self.counters["enumerate_repeats"] += 1
        self._seen_tables.add(key)

    def _on_integral(self, args, kwargs, result) -> None:
        if len(args) < 3:
            return
        key = hash((args[0], float(args[1]), float(args[2])))
        if key in self._seen_integrals:
            self.counters["integral_repeats"] += 1
        self._seen_integrals.add(key)

    def _on_operator(self, args, kwargs, result) -> None:
        mat = getattr(result, "mat", None)
        if mat is not None:
            self.counters["matrix_bytes"] += mat.shape[0] * mat.shape[1] * 8

    def _on_spectrum(self, args, kwargs, result) -> None:
        self.counters["spectrum_cells"] += args[0].shape[0] * args[0].shape[1]

    def _on_rank(self, args, kwargs, result) -> None:
        self.counters["rank_sum"] += result
        self.counters["rank_n"] += args[0].size

    # ---------------------------------------------------------------- results

    def reset(self) -> None:
        """Forget everything recorded; used between traced passes."""
        self._stack[:] = [[0.0]]
        self._span_ids[:] = [0]
        self._next_id[0] = 0
        self.spans.clear()
        self.leaves.clear()
        self.counters.clear()
        self._seen_tables.clear()
        self._seen_integrals.clear()

    def _outermost_time(self, names: frozenset) -> float:
        """Summed duration of spans in `names` not nested in another such span."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for sid, parent, _layer, name, t0, t1, _self in self.spans:
            if name not in names:
                continue
            while parent in by_id and by_id[parent][3] not in names:
                parent = by_id[parent][1]
            if parent not in by_id:
                total += t1 - t0
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _sid, _parent, layer, name, _t0, _t1, own in self.spans:
            self_s[layer] += own
            calls[(layer, name)] += 1
        for (_sid, layer, name), (count, own) in self.leaves.items():
            self_s[layer] += own
            calls[(layer, name)] += count
        enum_calls = calls[("grids", "enumerate_intervals")]
        integrals = sum(n for (layer, name), n in calls.items()
                        if layer == "weights" and name.endswith(".integral"))
        c = self.counters
        return {
            "grids.self_s": self_s["grids"],
            "grids.geometry_calls": sum(calls[("grids", name)] for name in GEOMETRY),
            "grids.enumerate_repeat_frac": _ratio(c["enumerate_repeats"], enum_calls),
            "weights.self_s": self_s["weights"],
            "weights.integral_calls": integrals,
            "weights.quadrature_calls": calls[("weights", "QuadratureWeight.integral")],
            "weights.repeat_frac": _ratio(c["integral_repeats"], integrals),
            "symbols.self_s": self_s["symbols"],
            "symbols.haar_coeff_calls": calls[("symbols", "haar_coefficient")],
            "besov.self_s": self_s["besov"],
            "besov.calls": sum(n for (layer, name), n in calls.items()
                               if layer == "besov" and "." not in name),
            "operators.assembly_s": self._outermost_time(ASSEMBLY),
            "operators.conjugate_s": self._outermost_time(CONJUGATION),
            "operators.expansion_s": self._outermost_time(frozenset({"expansion_residual"})),
            "operators.matrix_mib": c["matrix_bytes"] / MIB,
            "spectrum.self_s": self_s["spectrum"],
            "spectrum.cells": c["spectrum_cells"],
            "spectrum.rank_frac": _ratio(c["rank_sum"], c["rank_n"]),
        }

    def record(self) -> dict:
        """Spans and leaf aggregates of the last pass, for the run record."""
        return {
            "span_fields": ["id", "parent", "layer", "name", "t0", "t1", "self_s"],
            "spans": [list(span) for span in self.spans],
            "leaves": [
                {"span": sid, "layer": layer, "name": name, "count": n, "self_s": own}
                for (sid, layer, name), (n, own) in self.leaves.items()
            ],
            "counters": dict(self.counters),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
