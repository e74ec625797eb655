"""Layer tracing from outside the program.

`Tracer.install()` replaces the program's public functions and a few
methods with wrappers that record one span per call: name, parent span,
start and end.  Modules such as `audit` and `preference` import
functions by name, so every `qdtbench` module namespace that holds the
original function gets the wrapper.  Spans of one request (one
`cli.main` call) are kept in memory with their parent links and folded
into per-name totals when the request ends.  A span's self time is its
duration minus the durations of its child spans; the root span's self
time is the `untraced` remainder, so self times over all names add up to
the traced total.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: modules whose public functions are traced, as layer names
LAYERS = ("hilbert", "problem", "forge", "preference", "audit", "branching",
          "classical", "io")

#: (module, class, method, span name) for traced methods
METHODS = (
    ("hilbert", "PartialIsometryAct", "apply", "hilbert.act_apply"),
    ("problem", "QuantumDecisionProblem", "event_of", "problem.event_of"),
    ("forge", "ActForge", "reward_act", "forge.reward_act"),
    ("forge", "ActForge", "branching_act", "forge.branching_act"),
    ("forge", "ActForge", "weighted_act", "forge.weighted_act"),
    ("forge", "ActForge", "erasure_pair", "forge.erasure_pair"),
    ("forge", "ActForge", "compat_combine", "forge.compat_combine"),
    ("preference", "BornOracle", "compare", "preference.compare.born"),
    ("preference", "CountingOracle", "compare", "preference.compare.counting"),
    ("preference", "TableOracle", "compare", "preference.compare.table"),
    ("classical", "PlantedMeasureOracle", "compare", "classical.act_compare"),
    ("classical", "PMEUOracle", "compare", "classical.lottery_compare"),
    ("classical", "LexicographicOracle", "compare",
     "classical.lottery_compare"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        # spans of the current request, one array per field
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._ok = bytearray()
        self._stack: list[int] = []
        # totals over finished requests
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, oks, stack = (
            self._name, self._parent, self._start, self._end, self._ok,
            self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            oks.append(0)
            stack.append(i)
            t0 = perf_counter()
            starts[i] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            oks[i] = 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def end_request(self) -> None:
        """Fold the current request's spans into the totals and drop them."""
        n = len(self._start)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self._start, self._end)]
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        for i in range(n):
            name = self.names[self._name[i]]
            self.calls[name] += 1
            self.failed[name] += not self._ok[i]
            self.self_s[name] += durations[i] - child[i]
            self.incl_s[name] += durations[i]
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        del self._ok[:]

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "qdtbench" or mod_name.startswith("qdtbench.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, package) -> None:
        """Trace `package`'s layers; `package` is the imported qdtbench."""
        counters = {
            "preference.elicit_utility": lambda r: self.counts.update(
                {"preference.elicit_utility.queries": r.queries}),
            "branching.grow": lambda r: self.counts.update(
                {"branching.grow.nodes": len(r.nodes)}),
        }
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._replace_everywhere(fn, self.wrap(name, fn,
                                                       counters.get(name)))
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; the root's self time is `untraced`."""
        out: defaultdict = defaultdict(float)
        for name, s in self.self_s.items():
            out["untraced" if name == ROOT else name.split(".")[0]] += s
        return dict(out)

    @property
    def total_s(self) -> float:
        return self.incl_s[ROOT]
