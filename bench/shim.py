"""Boundary tracing from outside the program.

``Shim.install()`` wraps, at class level and before the system under
test is built, every public method of every public class (and every
public module-level function) of each layer package of ``src/repro``.
Callables handed across a boundary -- callbacks given to the
scheduler's ``post``/``post_at``/``schedule``/``schedule_at``, handlers
given to ``register_handler``, driver actions, ledger appenders a hub
hands out -- are wrapped by the layer of the module that defines them.

A span opens only when a call crosses from one layer into another.  A
layer's self time is its spans' duration minus the child spans inside
them.  Names are resolved at install time and absence is tolerated
(``missing_boundaries``), so a later change that renames or deletes a
function cannot break the benchmark.

Caveat: every wrapped call pays the wrapper's bookkeeping, and that
cost lands in the *caller's* self time, so layers that make many small
cross-layer calls look larger here than they are untraced.  Use the
shares to find where to look, and the untraced end-to-end metrics to
judge a change.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import json
import re
import sys
from functools import partial
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Callable, Dict, List, Optional

#: the layers, named after the packages of ``src/repro``.
LAYERS = (
    "sim", "clock", "hosts", "net", "net.search", "net.reliable", "mutex",
    "groups", "multicast", "proxy", "metrics", "workload", "mobility",
    "monitor", "obs", "faults", "recovery", "scenario", "scale", "pool",
    "facade", "cli",
)

#: modules whose layer is not simply their package name.
_MODULE_LAYERS = {
    "repro": "cli",
    "repro.__main__": "cli",
    "repro.errors": "cli",
    "repro.net.search": "net.search",
    "repro.net.cache_search": "net.search",
    "repro.net.regional_search": "net.search",
    "repro.net.reliable": "net.reliable",
}

#: everything that is not the program: the benchmark's own drivers.
OUTSIDE = "bench"

#: Boundaries that need more than a plain wrapper, by (module, class,
#: function).  What crosses the boundary, and how:
#:   ("event", parameter)    a callback the scheduler will fire: wrapped by
#:                           the layer of its module, counted as one event;
#:   ("call", parameter)     a callback the callee will invoke later;
#:   ("handler", parameter)  a message handler, counted per message kind;
#:   ("result",)             the returned callable (a ledger appender);
#:   ("build",)              a constructor, timed as its layer's build step;
#:   ("probe", predicate)    calls whose arguments satisfy the predicate are
#:                           counted under ``<key>?``.
_BOUNDARIES = {
    ("repro.sim.scheduler", "Scheduler", "post"): ("event", "action"),
    ("repro.sim.scheduler", "Scheduler", "post_at"): ("event", "action"),
    ("repro.sim.scheduler", "Scheduler", "schedule"): ("event", "action"),
    ("repro.sim.scheduler", "Scheduler", "schedule_at"): ("event", "action"),
    ("repro.sim.process", "PoissonProcess", "__init__"): ("call", "action"),
    ("repro.sim.process", "PeriodicProcess", "__init__"): ("call", "action"),
    ("repro.hosts.base", "Host", "register_handler"): ("handler", "handler"),
    ("repro.monitor.hub", "MonitorHub", "call_site_batch"): ("result",),
    ("repro.facade", "Simulation", "__init__"): ("build",),
    ("repro.scale.store", "PopulationStore", "__init__"): ("build",),
    # A message a MSS sends to itself: delivered locally, never priced.
    ("repro.net.network", "Network", "send_fixed"): (
        "probe", lambda network, message: message.src == message.dst),
}


def layer_of_module(module_name: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or ``None``."""
    if not module_name:
        return None
    layer = _MODULE_LAYERS.get(module_name)
    if layer is not None:
        return layer
    parts = module_name.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


class Shim:
    """Per-layer call counts, self times and the first spans of a run."""

    def __init__(self, span_events: int = 2000) -> None:
        self.span_events = span_events
        #: every call of a wrapped function, spans or not.
        self.calls: Dict[str, int] = {}
        #: (calling layer, function) -> [spans opened, inclusive seconds].
        self.opened: Dict[tuple, list] = {}
        #: layer -> [spans opened into it, self seconds].
        self.layers = {layer: [0, 0.0] for layer in LAYERS + (OUTSIDE,)}
        #: callbacks handed to the scheduler, and those it fired.
        self.posts = 0
        self.events = 0
        self.missing_boundaries = 0
        self.spans: List[tuple] = []
        #: the layer whose code is running right now.
        self.layer = OUTSIDE
        self._stack: List[list] = []
        self._next_span = 0
        self._fire_ref = self._fire
        self._callable_layers: Dict[Optional[str], str] = {}
        self._origin = perf_counter()

    # ------------------------------------------------------------------
    # The span machinery
    # ------------------------------------------------------------------

    def _span(self, f, layer: str, key: str, args, kwargs):
        outer = self.layer
        self.layer = layer
        stack = self._stack
        span_id = self._next_span
        self._next_span = span_id + 1
        frame = [0.0, span_id]
        parent = stack[-1][1] if stack else None
        stack.append(frame)
        event = self.events
        started = perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            ended = perf_counter()
            stack.pop()
            self.layer = outer
            elapsed = ended - started
            if stack:
                stack[-1][0] += elapsed
            totals = self.layers[layer]
            totals[0] += 1
            totals[1] += elapsed - frame[0]
            try:
                totals = self.opened[outer, key]
            except KeyError:
                totals = self.opened[outer, key] = [0, 0.0]
            totals[0] += 1
            totals[1] += elapsed
            if event <= self.span_events:
                self.spans.append((
                    span_id, parent, event, layer,
                    getattr(f, "__qualname__", key), started, ended,
                ))

    def _wrap(self, f, layer: str, key: str,
              adapt: Optional[Callable[[tuple], tuple]] = None):
        """Wrap ``f`` of ``layer``; ``adapt`` may rewrite the arguments."""
        calls = self.calls
        calls.setdefault(key, 0)
        span = self._span
        shim = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if adapt is not None:
                args = adapt(args)
            if shim.layer == layer:
                return f(*args, **kwargs)
            return span(f, layer, key, args, kwargs)

        for attribute in ("__name__", "__qualname__", "__module__",
                          "__doc__"):
            try:
                setattr(wrapper, attribute, getattr(f, attribute))
            except AttributeError:
                pass
        wrapper.__wrapped__ = f
        return wrapper

    def _fire(self, layer: str, key: str, f, *args):
        """A scheduler callback firing: one simulated event."""
        self.events += 1
        if self.layer == layer:
            return f(*args)
        return self._span(f, layer, key, args, {})

    def _callable_layer(self, f) -> str:
        if isinstance(f, partial):
            f = f.func
        module = getattr(f, "__module__", None)
        try:
            return self._callable_layers[module]
        except KeyError:
            layer = layer_of_module(module) or OUTSIDE
            self._callable_layers[module] = layer
            return layer

    def _adapter(self, f, how: str, parameter: str):
        """An ``adapt`` that wraps the callable passed as ``parameter``."""
        try:
            index = list(inspect.signature(f).parameters).index(parameter)
        except (ValueError, TypeError):
            self.missing_boundaries += 1
            return None
        fire = self._fire_ref
        kind_index = index - 1  # register_handler(kind, handler)

        def adapt(args: tuple) -> tuple:
            if len(args) <= index:
                return args  # passed by keyword: left alone
            target = args[index]
            if not callable(target):
                return args
            if how == "event":
                if type(target) is partial and target.func is fire:
                    return args  # post() -> post_at(): already wrapped
                self.posts += 1
                layer = self._callable_layer(target)
                wrapped = partial(fire, layer, f"{layer}:<event>", target)
            elif how == "handler":
                wrapped = self._wrap(
                    target, self._callable_layer(target),
                    f"handler:{args[kind_index]}",
                )
            else:
                layer = self._callable_layer(target)
                wrapped = self._wrap(target, layer, f"{layer}:<callback>")
            return args[:index] + (wrapped,) + args[index + 1:]

        return adapt

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary reachable right now."""
        for layer in LAYERS:
            if layer in ("cli", "facade") or "." in layer:
                continue  # not packages of their own / never in-process
            try:
                importlib.import_module(f"repro.{layer}")
            except ImportError:
                self.missing_boundaries += 1
        found = set()
        replaced: Dict[int, Callable] = {}
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of_module(module_name)
            if (layer is None or module_name == "repro"
                    or not isinstance(module, ModuleType)):
                continue
            for name, obj in list(vars(module).items()):
                if (name.startswith("_")
                        or getattr(obj, "__module__", None) != module_name):
                    continue
                if isinstance(obj, FunctionType):
                    replaced[id(obj)] = self._wrap(
                        obj, layer, f"{module_name}.{name}")
                elif inspect.isclass(obj) and not issubclass(
                        obj, (enum.Enum, BaseException)):
                    found |= self._install_class(obj, layer)
        self.missing_boundaries += len(set(_BOUNDARIES) - found)
        # Module-level functions are bound by name wherever they were
        # imported (the benchmark's own modules included).
        for module in list(sys.modules.values()):
            if not isinstance(module, ModuleType):
                continue
            for name, obj in list(vars(module).items()):
                if type(obj) is FunctionType and id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _install_class(self, cls, layer: str) -> set:
        """Wrap the public functions of ``cls`` (and the private ones
        ``_BOUNDARIES`` names); returns the boundary rules it applied.
        A rule named for a class also covers overrides in subclasses
        defined beside it."""
        module_name = cls.__module__
        family = [base.__name__ for base in cls.__mro__
                  if base.__module__ == module_name]
        found = set()
        for name, f in list(vars(cls).items()):
            if not isinstance(f, FunctionType):
                continue
            rule = next((rule for rule in (
                (module_name, base, name) for base in family)
                if rule in _BOUNDARIES), None)
            if name.startswith("_") and rule is None:
                continue
            key = f"{module_name}.{cls.__name__}.{name}"
            kind, *detail = _BOUNDARIES.get(rule, ("plain",))
            adapt = None
            if kind in ("event", "call", "handler"):
                adapt = self._adapter(f, kind, *detail)
            elif kind == "probe":
                adapt = self._probe(key, *detail)
            wrapped = self._wrap(f, layer, key, adapt)
            if kind == "result":
                wrapped = self._wrap_result(wrapped, layer, key)
            setattr(cls, name, wrapped)
            if rule is not None:
                found.add(rule)
        return found

    def _probe(self, key: str, predicate):
        probe_key = key + "?"
        self.calls[probe_key] = 0
        calls = self.calls

        def adapt(args: tuple) -> tuple:
            if predicate(*args):
                calls[probe_key] += 1
            return args

        return adapt

    def _wrap_result(self, f, layer: str, key: str):
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            if callable(result):
                result = self._wrap(result, layer, key + ":<result>")
            return result

        wrapper.__wrapped__ = f
        return wrapper

    # ------------------------------------------------------------------
    # Reading the results
    # ------------------------------------------------------------------

    def count(self, *keys: str) -> int:
        """Total calls of the named functions; a name the program no
        longer has counts as zero."""
        return sum(self.calls.get(key, 0) for key in keys)

    def count_prefix(self, prefix: str) -> int:
        return sum(n for key, n in self.calls.items()
                   if key.startswith(prefix))

    def spans_opened(self, key: str, caller: Optional[str] = None):
        """``(count, inclusive seconds)`` of the spans ``key`` opened
        (from the ``caller`` layer only, when given)."""
        count, seconds = 0, 0.0
        for (outer, name), (n, s) in self.opened.items():
            if name == key and caller in (None, outer):
                count += n
                seconds += s
        return count, seconds

    def reset(self) -> None:
        """Zero every count and time, in place (the installed wrappers
        keep pointing at these tables)."""
        for key in self.calls:
            self.calls[key] = 0
        for totals in self.layers.values():
            totals[:] = [0, 0.0]
        self.opened.clear()
        self.spans.clear()
        self.posts = self.events = 0
        self._origin = perf_counter()

    def write_spans(self, path: str) -> None:
        """The span records of the first ``span_events`` events, one
        JSON object per line; times are seconds since installation."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, event, layer, name, start, end in sorted(
                    self.spans):
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "event": event,
                    "layer": layer, "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                }) + "\n")


# ----------------------------------------------------------------------
# cli_cold: the traced run is ``python -X importtime``
# ----------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def fold_importtime(stderr: str):
    """Fold ``-X importtime`` output by module prefix.

    Returns ``(self_seconds_by_layer, modules_by_layer, import_seconds,
    modules_imported, unattributed_repro_seconds)``.
    """
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_modules = dict.fromkeys(LAYERS, 0)
    total = unattributed = 0.0
    modules = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_s = int(match.group(1)) / 1e6
        name = match.group(4)
        total += self_s
        modules += 1
        layer = layer_of_module(name)
        if layer is not None:
            layer_self[layer] += self_s
            layer_modules[layer] += 1
        elif name.split(".")[0] == "repro":
            unattributed += self_s
    return layer_self, layer_modules, total, modules, unattributed
