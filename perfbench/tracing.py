"""In-memory span tracing of pforge from outside the package.

`install()` wraps the public module-level functions of each traced pforge
module and rebinds every name under which a pforge module (or the package
itself) refers to the original, so calls made through `from .x import f`
bindings are traced too.  Each call records one span: name, start, end,
parent and an optional attribute (a small summary of the result, or the
name of the exception that left the function).  Spans stay in memory until
`Tracer.dump()` writes them out at the end of the process.

`aggregate()` turns a dump into per-layer figures: calls, inclusive time,
self time (a span's duration minus the time its child spans cover) and the
counts the benchmark's per-layer metrics are built from.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("cli", "search", "families", "numtheory", "pell", "curve", "intpoly")

# Public functions called far more than ~1e5 times per run would mostly
# measure the wrapper; they stay unwrapped (integer_sqrt is the only
# module-level one; QuadraticInteger.__mul__, IntPoly.evaluate and the
# Miller-Rabin witness are methods or private and never wrapped).
UNWRAPPED = frozenset({"numtheory.integer_sqrt"})

# Functions whose result is summarised into the span attribute.
_OBSERVERS = {
    "pell.continued_fraction_sqrt": lambda cf: [cf.dprime, cf.period],
    "pell.base_solutions": len,
    "pell.enumerate_solutions": len,
    "families.filter_discriminant_k10": lambda decision: decision.accepted,
    "numtheory.is_probable_prime": bool,
    "families.instantiate": lambda record: record.reason or record.status.value,
    "search.SearchConfig.q_bits_ok": bool,
}

_CACHED = ("pell.continued_fraction_sqrt", "pell.fundamental_unit")


class Tracer:
    """Spans of one process.  A span is [name_id, start_ns, end_ns,
    parent_index, attr]; parent_index is -1 for a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]
        self._originals: dict[str, object] = {}

    def _open(self, name_id: int) -> int:
        index = len(self.spans)
        self.spans.append([name_id, 0, 0, self._stack[-1], None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def _close(self, index: int, attr) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = attr
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        self._originals[name] = fn

        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration, not just generator creation.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                index = self._open(name_id)
                attr = None
                try:
                    yield from fn(*args, **kwargs)
                except Exception as exc:
                    attr = "!" + type(exc).__name__
                    raise
                finally:
                    self._close(index, attr)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index, "!" + type(exc).__name__)
                raise
            self._close(index, None)
            if observe is not None:
                self.spans[index][4] = observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced modules' public functions in place."""
        import pforge
        from pforge import search

        modules = [sys.modules[f"pforge.{short}"] for short in TRACED_MODULES]
        replacements: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{short}.{attr}"
                if name not in UNWRAPPED:
                    replacements[id(obj)] = self.wrap(name, obj)
        # Rebind at every name a caller looks the function up by.
        for module in [pforge, *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
        config = search.SearchConfig
        config.q_bits_ok = self.wrap("search.SearchConfig.q_bits_ok", config.q_bits_ok)

    def dump(self, path: str) -> None:
        caches = {
            name: self._originals[name].cache_info().misses
            for name in _CACHED
            if name in self._originals
        }
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "cache_misses": caches}, fh)


def _bucket(reason: str) -> str:
    """Rejection bucket of an `instantiate` result, from its reason text."""
    if reason.startswith("Hasse"):
        return "hasse"
    if reason.startswith("q("):
        return "q_composite"
    if reason.startswith("n("):
        return "n_composite"
    if reason.startswith("CM equation"):
        return "cm_equation"
    return "other"


def aggregate(dump: dict) -> dict[str, float]:
    """Per-layer figures of one traced process, keyed by metric name."""
    names, spans = dump["names"], dump["spans"]
    stats: dict[str, dict] = {}
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    periods: dict[int, int] = {}
    outcomes: dict[str, int] = {}
    for index, (name_id, start, end, parent, attr) in enumerate(spans):
        name = names[name_id]
        entry = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "attrs": []})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index]
        # Inclusive time counts only the outermost span of a recursive call.
        ancestor = parent
        while ancestor >= 0 and names[spans[ancestor][0]] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["ns"] += end - start
        if name == "pell.continued_fraction_sqrt" and isinstance(attr, list):
            periods[attr[0]] = attr[1]
        elif name == "families.instantiate" and attr is not None:
            outcomes[attr] = outcomes.get(attr, 0) + 1
        elif attr is not None:
            entry["attrs"].append(attr)

    out: dict[str, float] = {}
    for name, entry in stats.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.s"] = entry["ns"] / 1e9
        out[f"{name}.self_s"] = entry["self_ns"] / 1e9

    def attrs(name: str) -> list:
        return stats.get(name, {"attrs": []})["attrs"]

    errors = sum(1 for a in attrs("pell.base_solutions") if a == "!CapacityError")
    out["pell.base_solutions.classes"] = sum(a for a in attrs("pell.base_solutions") if type(a) is int)
    out["pell.base_solutions.capacity_errors"] = errors
    out["pell.enumerate_solutions.elements"] = sum(
        a for a in attrs("pell.enumerate_solutions") if type(a) is int
    )
    out["pell.cf_period_sum"] = sum(periods.values())
    for name in _CACHED:
        out[f"{name}.cache_misses"] = dump["cache_misses"].get(name, 0)
    out["families.filter_discriminant_k10.accepted"] = attrs(
        "families.filter_discriminant_k10"
    ).count(True)
    out["numtheory.is_probable_prime.true"] = attrs("numtheory.is_probable_prime").count(True)
    out["families.instantiate.prime_ok"] = outcomes.pop("PRIME_OK", 0)
    for bucket in ("hasse", "q_composite", "n_composite", "cm_equation", "other"):
        out[f"families.instantiate.rejected.{bucket}"] = 0
    for reason, count in outcomes.items():
        out[f"families.instantiate.rejected.{_bucket(reason)}"] += count
    out["search.d_visited"] = out.get("families.filter_discriminant_k10.calls", 0) + out.get(
        "search.search_mnt.calls", 0
    )
    out["search.d_skipped_cap"] = errors
    out["search.x_candidates"] = out.get("families.instantiate.calls", 0)
    out["search.q_bits_filtered"] = attrs("search.SearchConfig.q_bits_ok").count(False)
    return out
