"""Per-layer tracing of starpull from outside the library.

The tracer wraps public callables of each layer module with a span
recorder and rebinds every reference that a ``starpull`` module holds,
so that calls between layers cannot bypass it.  Spans (name, start,
end, parent, error flag) live in flat arrays while the workload runs;
self times are derived from them afterwards, and ``write`` dumps them.

A layer's self time is the time its spans cover minus the time covered
by their child spans; time in unwrapped code is charged to the nearest
wrapped caller.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("kernel", "lattices", "base_domain", "pullback", "star_ops",
          "class_groups", "exprlang", "harness")

# arithmetic dunders are the kernel's public API; other dunders are glue
_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__divmod__",
    "__floordiv__", "__mod__",
))

# FieldElem methods run millions of times per run, inside Poly operations
# or the cyclic-generator search, so they get no spans and their time is
# charged to the caller; the constructor is counted only.
_SKIP_CLASSES = {"kernel": {"FieldElem"}}
_EXTRA_SPANS = {
    "kernel": ("RatFunc.__init__",),
    # dmod_colon calls this only on a _COLON_CACHE miss
    "base_domain": ("_dmod_colon_raw",),
}
_COUNTED = {"kernel": ("FieldElem.__init__",)}

# span names that the per-layer metrics read; install() fails if one is missing
REQUIRED = (
    "kernel.RatFunc.__mul__", "kernel.poly_gcd", "kernel.Poly.__divmod__",
    "kernel.FieldElem.__init__", "lattices.hnf_rows", "lattices.rational_rref",
    "base_domain.dmod_predicates", "base_domain.dmod_colon", "base_domain._dmod_colon_raw",
    "base_domain.BaseDomain.unit_module", "pullback.member_R", "pullback.oracle_colon_member",
    "pullback.oracle_v_member", "pullback.colon_R", "pullback.structured_hull",
    "star_ops.star_eval", "class_groups.invertibility_R", "class_groups.is_principal_R",
    "exprlang.parse_expression", "harness.run_suite",
)

# useful-outcome predicates: the share of calls whose result is useful
_OUTCOMES = {
    "pullback.oracle_v_member": lambda verdict: verdict.status != "inconclusive",
    "class_groups.is_principal_R": lambda gen: gen is not None,
}


def _modules() -> dict:
    importlib.import_module("starpull")
    importlib.import_module("starpull.cli")
    return {name: mod for name, mod in sys.modules.items()
            if (name == "starpull" or name.startswith("starpull.")) and mod is not None}


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def discover() -> list[tuple[str, object, str, str]]:
    """(span name, owner, attribute, mode) for every callable to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"starpull.{layer}")
        extra = set(_EXTRA_SPANS.get(layer, ()))
        counted = set(_COUNTED.get(layer, ()))
        for name, value in sorted(vars(mod).items()):
            if isinstance(value, FunctionType) and value.__module__ == mod.__name__ \
                    and (not name.startswith("_") or name in extra):
                out.append((f"{layer}.{name}", mod, name, "span"))
            elif isinstance(value, type) and value.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                skip = name in _SKIP_CLASSES.get(layer, set())
                for attr, raw in sorted(vars(value).items()):
                    qual = f"{name}.{attr}"
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not isinstance(func, FunctionType):
                        continue
                    if qual in counted:
                        out.append((f"{layer}.{qual}", value, attr, "count"))
                    elif qual in extra or (not skip and _public(attr)):
                        out.append((f"{layer}.{qual}", value, attr, "span"))
    return out


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, typed_errors: tuple = ()):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.err = array("b")
        self.counts: list[int] = []
        self.useful: list[int] = []
        self._stack = [-1]
        self._typed = typed_errors
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- wrappers ---------------------------------------------------------
    def _span(self, fn, sid: int, outcome):
        stack, clock = self._stack, time.perf_counter_ns
        name_add, parent_add = self.name.append, self.parent.append
        start, end, err = self.start, self.end, self.err
        start_add, end_add, err_add = start.append, end.append, err.append
        typed, useful = self._typed, self.useful

        def traced(*args, **kwargs):
            idx = len(start)
            name_add(sid)
            parent_add(stack[-1])
            start_add(0)
            end_add(0)
            err_add(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except typed:
                err[idx] = 1
                raise
            except BaseException:
                err[idx] = 2
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if outcome is not None and outcome(result):
                useful[sid] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count(self, fn, sid: int):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[sid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install ----------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every discovered callable; returns the span names."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = discover()
        found = {t[0] for t in targets}
        missing = [n for n in REQUIRED if n not in found]
        if missing:
            raise RuntimeError(f"traced functions not found: {missing}")
        modules = _modules()
        if not self.names:  # a reinstall keeps the ids of the first install
            self.names = [t[0] for t in targets]
            self.counts = [0] * len(targets)
            self.useful = [0] * len(targets)
        for sid, (qual, owner, attr, mode) in enumerate(targets):
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            wrapped = (self._count(func, sid) if mode == "count"
                       else self._span(func, sid, _OUTCOMES.get(qual)))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._originals[id(func)] = qual
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # rebind every module-level name that imported the function
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is func:
                        self._restore.append((mod, name, func))
                        setattr(mod, name, wrapped)
        return list(self.names)

    def escapes(self) -> list[str]:
        """References to unwrapped originals left in starpull modules."""
        found = []
        for modname, mod in _modules().items():
            for name, value in vars(mod).items():
                values = [value]
                if isinstance(value, dict):
                    values += list(value.values())
                elif isinstance(value, (list, tuple)):
                    values += list(value)
                for v in values:
                    if isinstance(v, FunctionType) and id(v) in self._originals:
                        found.append(f"{modname}.{name} -> {self._originals[id(v)]}")
        return found

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds, errors, useful."""
        n = len(self.start)
        start, end, parent, name, err = self.start, self.end, self.parent, self.name, self.err
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls, total, selft = [0] * k, [0] * k, [0] * k
        typed_roots = [0] * k
        for i in range(n):
            s = name[i]
            d = end[i] - start[i]
            calls[s] += 1
            total[s] += d
            selft[s] += d - child[i]
            if err[i] == 1 and parent[i] < 0:
                typed_roots[s] += 1
        out = {}
        for s, qual in enumerate(self.names):
            out[qual] = {"calls": calls[s] + self.counts[s], "total_ns": total[s],
                         "self_ns": selft[s], "typed_errors_from_outside": typed_roots[s],
                         "useful": self.useful[s]}
        return out

    def write(self, path) -> None:
        """Header line (JSON) then the raw arrays, gzip-compressed."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "H"], ["start", "q"], ["end", "q"],
                             ["parent", "i"], ["err", "b"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.err):
                fh.write(arr.tobytes())


def read_spans(path) -> tuple[dict, dict]:
    """Inverse of ``Tracer.write``: (header, {array name: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            arrays[key] = arr
    return header, arrays
