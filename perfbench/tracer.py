"""Outside-in tracer: times calls into a library by rebinding its functions.

No library source changes.  A free function is rebound at every module
binding site in the package (``from .ifs import fundamental_domain`` copies
the name into other modules, so rebinding only the defining module would
miss those callers).  A method is rebound on its class.  ``restore`` puts
every original back.

Each call is aggregated per (name, parent name) into calls, total time and
self time.  Self time is the call's duration minus the time covered by
traced calls made inside it.  Total time counts only the outermost active
call of a name, so a name that re-enters itself is not counted twice.
Names marked as spans also keep one record per call (op, id, parent, name,
start, end) in memory, for latency percentiles and for the detail file
written when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# hook(tracer, parent_name, args, kwargs, result) -> None; runs after a call
# that returned, so counters read work done from arguments and results.
Hook = Callable[["Tracer", "str | None", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One traced callable: `attr` is "func" or "Class.method" in `module`."""

    module: str
    attr: str
    name: str
    span: bool = False
    hook: Hook | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total, self]
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[list] = []  # frames: [name, child_time, span_id]
        self._active: dict[str, int] = {}
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn: Callable, name: str, span: bool = False, hook: Hook | None = None) -> Callable:
        clock, stack, agg, active = self.clock, self._stack, self.agg, self._active

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else 0
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[name] -= 1
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                if not active[name]:
                    a[1] += dt
                a[2] += dt - frame[1]
                if span:
                    self.spans.append((self.op_id, span_id, parent[2] if parent else 0, name, t0, t1))
            if hook is not None:
                hook(self, key[1], args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installing -----------------------------------------------------------

    def install(self, targets: list[Target], package: str) -> None:
        """Rebind every target; a free function at each binding site inside
        `package` (the package module and its submodules)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for t in targets:
                owner: Any = sys.modules[t.module]
                cls_name, _, meth = t.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    sites = [(cls, meth)]
                else:
                    orig = getattr(owner, t.attr)
                    sites = [(mod, k)
                             for mod_name, mod in list(sys.modules.items())
                             if mod_name == package or mod_name.startswith(package + ".")
                             for k, v in list(vars(mod).items()) if v is orig]
                wrapped = self.wrap(orig, t.name, t.span, t.hook)
                for obj, k in sites:
                    self._patches.append((obj, k, orig))
                    setattr(obj, k, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading --------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per name: [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, self_t) in self.agg.items():
            o = out.setdefault(name, [0, 0.0, 0.0])
            o[0] += calls
            o[1] += total
            o[2] += self_t
        return out

    def span_durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name]
