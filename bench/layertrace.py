"""Per-layer tracing for the benchmark's traced run.

The layers are the modules of ``rankinglab``.  Two instruments are
installed from here, never from inside the program, and both undo
themselves on exit:

* ``Spans`` wraps every public function of each layer and the
  ``SplitMix64`` methods with a timing wrapper.  A span is recorded only
  when a call crosses from one layer into another, aggregated per (caller
  layer, callee) with a count, a total time and a self time, and kept in
  memory until the run writes it out.  A span's self time is its time
  minus the time covered by its child spans.
* ``Counts`` is the separate counting pass: wrappers on hot inner
  functions (``next_u64``, ``step``, ``partner``, ``shifts_to`` and a few
  more) that count calls and never read the clock, so the counts do not
  inflate the traced times.

A wrapped name is rebound in every ``rankinglab`` module that imported it,
and in module-level dicts that hold it (the suite table).  For spans the
defining module keeps its own binding, so calls inside a layer run
unwrapped and recursion depth is unchanged; attribute reads on the module
(``module.name`` and imports inside a function) are routed to the wrapper
through a module subclass.  The counting pass rebinds the defining module
too, because inner calls are what it counts.

Methods of the other classes (``Permutation``, ``BipartiteInstance``) are
not wrapped, so their time counts toward the layer that calls them.  The
``SplitMix64`` methods are wrapped on the class, so its calls among
themselves also pass through the same-layer check; that cost shows in
``trace.overhead_ratio`` on the mc workload.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

PACKAGE = "rankinglab"
LAYERS = (
    "cli",
    "reporting",
    "fileformat",
    "generators",
    "rng",
    "engine",
    "graph",
    "probability",
    "structure",
    "suites",
)
ROOT = "bench"


def layer_of(module_name: str) -> str:
    """The layer a module belongs to, or the root for code outside the package."""
    head, _, tail = module_name.partition(".")
    return tail if head == PACKAGE and tail in LAYERS else ROOT


def error_layer(exc: BaseException) -> str:
    """The layer an escaped exception is charged to.

    The layer owning the most frames of the traceback wins, ties going to
    the innermost, so a recursion overflow is charged to the recursing
    layer and a missed deadline inside a search to the searching layer.
    """
    frames: List[str] = []
    tb = exc.__traceback__
    while tb is not None:
        layer = layer_of(tb.tb_frame.f_globals.get("__name__", ""))
        if layer != ROOT:
            frames.append(layer)
        tb = tb.tb_next
    if not frames:
        return ROOT
    tally = Counter(frames)
    return max(reversed(frames), key=lambda layer: tally[layer])


def _modules() -> Iterator[types.ModuleType]:
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield mod


def _layer_modules() -> Iterator[types.ModuleType]:
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is not None:
            yield mod


def _public_functions(mod: types.ModuleType) -> Iterator[Tuple[str, Callable]]:
    for name, obj in list(vars(mod).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        ):
            yield name, obj


class _Patch:
    """Reversible assignments into namespaces, dicts and classes."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def item(self, d: dict, key, value) -> None:
        old = d[key]
        d[key] = value
        self._undo.append(lambda: d.__setitem__(key, old))

    def attr(self, obj, name: str, value) -> None:
        old = obj.__dict__[name]
        setattr(obj, name, value)
        self._undo.append(lambda: setattr(obj, name, old))

    def module_class(self, mod: types.ModuleType, cls: type) -> None:
        mod.__class__ = cls
        self._undo.append(lambda: setattr(mod, "__class__", types.ModuleType))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _module_class(wrappers: Dict[int, Tuple[Callable, Callable]]) -> type:
    class TracedModule(types.ModuleType):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            pair = wrappers.get(id(value))
            return pair[1] if pair is not None and pair[0] is value else value

    return TracedModule


class _Instrument:
    """Shared install/uninstall: rebind every binding of each wrapped function."""

    rebind_definer = False

    def __init__(self):
        self._patch = _Patch()
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    def _targets(self) -> Iterator[Tuple[object, str, Callable]]:
        """(owner, name, original) for every function to wrap."""
        raise NotImplementedError

    def _wrap(self, owner, name: str, fn: Callable) -> Callable:
        raise NotImplementedError

    def __enter__(self):
        classes = []
        for owner, name, fn in self._targets():
            wrapper = functools.wraps(fn)(self._wrap(owner, name, fn))
            self._wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                classes.append((owner, name, wrapper))
        for cls, name, wrapper in classes:
            self._patch.attr(cls, name, wrapper)
        for mod in _modules():
            self._rebind(mod)
        return self

    def _rebind(self, mod: types.ModuleType) -> None:
        ns = vars(mod)
        for key, value in list(ns.items()):
            if key.startswith("__"):
                continue
            pair = self._wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                if self.rebind_definer or value.__module__ != mod.__name__:
                    self._patch.item(ns, key, pair[1])
            elif type(value) is dict:
                for k, v in list(value.items()):
                    pair = self._wrappers.get(id(v))
                    if pair is not None and pair[0] is v:
                        self._patch.item(value, k, pair[1])

    def __exit__(self, *exc):
        self._patch.undo()
        return False


def _rng_class():
    return getattr(sys.modules.get(f"{PACKAGE}.rng"), "SplitMix64", None)


class Spans(_Instrument):
    """Cross-layer spans with count, total and self time per (caller layer, callee)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__()
        self.clock = clock
        self.stack: List[list] = [[ROOT, 0.0]]  # [layer, time covered by child spans]
        self.spans: Dict[Tuple[str, str], List[float]] = {}

    def _targets(self):
        for mod in _layer_modules():
            for name, fn in _public_functions(mod):
                yield mod, name, fn
        cls = _rng_class()
        if cls is not None:
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not name.startswith("__"):
                    yield cls, name, fn

    def _wrap(self, owner, name, fn):
        layer = layer_of(fn.__module__)
        callee = f"{layer}.{name}"
        stack, call = self.stack, self.call

        def traced(*args, **kwargs):
            if stack[-1][0] == layer:  # same layer: no span
                return fn(*args, **kwargs)
            return call(layer, callee, fn, args, kwargs)

        return traced

    def call(self, layer: str, callee: str, fn: Callable, args, kwargs):
        stack = self.stack
        caller = stack[-1]
        if caller[0] == layer:
            return fn(*args, **kwargs)
        depth = len(stack)
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            del stack[depth:]
            caller[1] += dt
            rec = self.spans.get((caller[0], callee))
            if rec is None:
                rec = self.spans[(caller[0], callee)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

    def __enter__(self):
        super().__enter__()
        cls = _module_class(self._wrappers)
        for mod in _layer_modules():
            self._patch.module_class(mod, cls)
        return self

    def reset(self) -> None:
        """Drop spans left open by an op that was interrupted mid-bookkeeping."""
        del self.stack[1:]

    def self_seconds(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (_, callee), (_, _, self_s) in self.spans.items():
            layer = callee.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls_into(self, layer: str) -> int:
        return sum(
            int(rec[0])
            for (_, callee), rec in self.spans.items()
            if callee.split(".", 1)[0] == layer
        )

    def table(self) -> List[dict]:
        return [
            {"caller": c, "callee": f, "calls": int(n), "total_s": t, "self_s": s}
            for (c, f), (n, t, s) in sorted(self.spans.items())
        ]


class Counts(_Instrument):
    """Call counters on hot inner functions, for the separate counting pass."""

    rebind_definer = True

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()
        self.max_path_len = 0

    _SIMPLE = {
        ("rng", "next_u64"): "rng.u64_draws",
        ("engine", "step"): "engine.step_calls",
        ("engine", "online_match"): "engine.online_match_calls",
        ("engine", "is_ranking_matching"): "engine.predicate_calls",
        ("graph", "max_card_matching"): "graph.max_matching_calls",
        ("graph", "find_augmenting_path"): "graph.augment_searches",
        ("graph", "neighbors"): "graph.neighbors_calls",
        ("fileformat", "parse_instance"): "fileformat.parse_calls",
        ("fileformat", "serialize_instance"): "fileformat.serialize_calls",
        ("probability", "exact_expected_size"): "probability.exact_calls",
        ("structure", "shifts_to"): "structure.shifts_to_calls",
    }

    def _targets(self):
        for (layer, name) in self._SIMPLE:
            yield from self._lookup(layer, name)
        for layer, name in (
            ("graph", "partner"),
            ("probability", "mc_expected_size"),
            ("structure", "removal_diff_online"),
            ("structure", "removal_diff_offline"),
        ):
            yield from self._lookup(layer, name)
        suites = sys.modules.get(f"{PACKAGE}.suites")
        for fn in getattr(suites, "SUITES", {}).values():
            yield suites, fn.__name__, fn
        cls = _rng_class()
        for name in ("next_u64", "below"):
            if cls is not None and name in vars(cls):
                yield cls, name, vars(cls)[name]

    def _lookup(self, layer, name):
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn):
            yield mod, name, fn

    def _wrap(self, owner, name, fn):
        counts = self.counts
        layer = layer_of(fn.__module__) if not isinstance(owner, type) else "rng"
        key = self._SIMPLE.get((layer, name))
        if key is not None:

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        if name == "below":

            def counted(*args, **kwargs):
                before = counts["rng.u64_draws"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    used = counts["rng.u64_draws"] - before
                    counts["rng.below_draws"] += used
                    counts["rng.rejections"] += max(used - 1, 0)

            return counted
        if name == "partner":
            structure = sys.modules.get(f"{PACKAGE}.structure")
            cascade = {
                f.__code__
                for f in (getattr(structure, "zig", None), getattr(structure, "zag", None))
                if inspect.isfunction(f)
            }

            def counted(*args, **kwargs):
                counts["graph.partner_calls"] += 1
                # zig and zag each look up one partner per cascade step
                if sys._getframe(1).f_code in cascade:
                    counts["structure.zigzag_calls"] += 1
                return fn(*args, **kwargs)

            return counted
        if name == "mc_expected_size":
            sig = inspect.signature(fn)

            def counted(*args, **kwargs):
                counts["probability.mc_samples"] += int(
                    sig.bind(*args, **kwargs).arguments["samples"]
                )
                return fn(*args, **kwargs)

            return counted
        if name.startswith("removal_diff_"):

            def counted(*args, **kwargs):
                diff = fn(*args, **kwargs)
                if diff.path is not None:
                    self.max_path_len = max(self.max_path_len, len(diff.path))
                return diff

            return counted

        def counted(*args, **kwargs):  # a suite
            result = fn(*args, **kwargs)
            counts["suites.cases"] += result.cases
            return result

        return counted
