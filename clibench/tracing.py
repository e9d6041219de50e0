"""Spans around the public functions of each arrfan module, recorded from outside.

`Tracer.install` replaces every public function of the traced modules by a
wrapper, in every arrfan namespace that bound the same function object (so
`fan.enumerate_chambers` and `polytope.is_crystallographic`, bound with
`from .x import f`, are traced too).  Spans (name, start, end, parent) are
kept in memory as flat arrays and written as JSON by `write`, together with
the index of the first span of each CLI operation.

The elementwise helpers of intlinalg are not wrapped: they make up most of
the calls, each shorter than a span's own cost, so their time is counted in
the self time of whichever function called them.
"""
from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("intlinalg", "arrangement", "fan", "polytope", "poset", "surface", "svgplot", "cli")

HELPERS = frozenset(
    {
        "freeze", "identity", "transpose", "vec_dot", "vec_add", "vec_sub", "vec_neg",
        "vec_scale", "vec_mat", "mat_mul", "primitive", "canonical_sign",
        "fraction_row_to_primitive",
    }
)

INTLINALG_KERNELS = (
    "extreme_rays", "mat_inverse_fraction", "rank", "solve_in_row_space",
    "particular_solution", "hnf", "snf_with_transforms", "kernel_basis", "det",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self._op_inputs: dict = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ops: list[tuple[str, int]] = []
        self.counters.clear()

    # -------------------------------------------------------------- wrapping

    def install(self) -> None:
        package = importlib.import_module("arrfan")
        mods = {m: importlib.import_module(f"arrfan.{m}") for m in MODULES}
        namespaces = [package, *mods.values()]
        for mod_name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or attr in HELPERS:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._restore.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- per operation

    def begin_op(self, label: str) -> None:
        self.ops.append((label, len(self.name)))
        self._op_inputs = {}

    def end_op(self) -> None:
        self.counters["arrangement.chambers_distinct"] += sum(self._op_inputs.values())

    # -------------------------------------------------------------- results

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time (duration minus child spans) and call count."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s, calls = Counter(), Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            self_s[key] += self.end[i] - self.start[i] - child[i]
            calls[key] += 1
        return self_s, calls

    def write(self, path) -> None:
        columns = {
            "names": lambda: self.names,
            "name": lambda: list(self.name),
            "start": lambda: list(self.start),
            "end": lambda: list(self.end),
            "parent": lambda: list(self.parent),
            "ops": lambda: self.ops,
            "counters": lambda: dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            # one column at a time, so only one is ever held as a list
            for i, (key, column) in enumerate(columns.items()):
                fh.write(("{" if i == 0 else ",") + json.dumps(key) + ":")
                json.dump(column(), fh)
            fh.write("}\n")


def _on_chambers(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["arrangement.chambers_enumerated"] += len(result)
    tracer._op_inputs[args[0]] = len(result)


def _on_make_fan(tracer: Tracer, args, kwargs, result) -> None:
    if kwargs.get("check_faces", True):
        tracer.counters["fan.cones_validated"] += len(result.max_cones)


def _on_poset(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["poset.flats"] += len(result.flats)


_HOOKS = {
    "arrangement.enumerate_chambers": _on_chambers,
    "fan.make_fan": _on_make_fan,
    "poset.intersection_poset": _on_poset,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, before the CLI-level ones are added."""
    self_s, calls = tracer.self_times()
    c = tracer.counters
    out: dict[str, float] = {}

    def module_total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    out["cli.self_s"] = module_total("cli")
    for k in INTLINALG_KERNELS:
        out[f"intlinalg.{k}.self_s"] = self_s[f"intlinalg.{k}"]
        out[f"intlinalg.{k}.calls"] = calls[f"intlinalg.{k}"]
    out["intlinalg.self_s"] = module_total("intlinalg")
    for k in ("enumerate_chambers", "is_crystallographic", "make_arrangement", "decompose"):
        out[f"arrangement.{k}.self_s"] = self_s[f"arrangement.{k}"]
    out["arrangement.enumerate_chambers.calls"] = calls["arrangement.enumerate_chambers"]
    out["arrangement.chambers_enumerated"] = c["arrangement.chambers_enumerated"]
    out["arrangement.chambers_distinct"] = c["arrangement.chambers_distinct"]
    distinct = c["arrangement.chambers_distinct"]
    out["arrangement.enumeration_repeat_ratio"] = (
        c["arrangement.chambers_enumerated"] / distinct if distinct else 0.0
    )
    for k in ("load_fan", "make_fan", "check_properties", "fan_automorphisms",
              "roots_from_fan", "star_fan", "restrict_fan", "insert_hyperplane"):
        out[f"fan.{k}.self_s"] = self_s[f"fan.{k}"]
    out["fan.fan_from_arrangement.calls"] = calls["fan.fan_from_arrangement"]
    out["fan.cones_validated"] = c["fan.cones_validated"]
    for k in ("build_polytope", "phi_certificate", "verify_normal_fan"):
        out[f"polytope.{k}.self_s"] = self_s[f"polytope.{k}"]
    out["poset.intersection_poset.self_s"] = self_s["poset.intersection_poset"]
    out["poset.flat_leq.calls"] = calls["poset.flat_leq"]
    out["poset.flats"] = c["poset.flats"]
    out["poset.parabolic_arrangement.self_s"] = self_s["poset.parabolic_arrangement"]
    out["surface.self_s"] = module_total("surface")
    out["surface.calls"] = sum(v for k, v in calls.items() if k.startswith("surface."))
    out["svgplot.self_s"] = module_total("svgplot")
    return out
