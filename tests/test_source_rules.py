"""Static rules over the source of ``repro``, checked on one parse.

A running system of MSSs and MHs is a plain value: ``copy.deepcopy`` of
it mid-run is a fork (``tests/test_pack_forks.py``).  Most rules here
keep it so; the rest keep the package free of dead hooks and its
records whole.  :func:`repro_trees` parses each module under
``src/repro`` once per session, and each rule is one function from that
``{path: tree}`` mapping to the hits it finds:

* ``lambda`` -- callbacks are bound methods or ``functools.partial``
  objects, whose function and arguments deep-copy with a fork; a
  lambda's closure does not.
* ``handed_on`` -- a function or class nested in a function and read
  there as anything but the callee of a call (passed, stored, returned,
  wrapped or decorated) outlives its call, and a deep copy shares it
  with the original by reference.  (The ledger's site emitters were
  such closures, and a forked monitored run wrote its rows into the
  original's ledger.)
* ``call_local`` -- every other nested definition is listed with the
  reason it is only called in place.
* ``container_method`` -- a builtin container's method
  (``self.missed.append``) deep-copies by reference too, so none is
  passed to a call.
* ``unused_hook`` -- every ``add_*_listener`` has a caller in
  ``repro``: a hook that serves only its own test costs every event a
  loop.
* ``discarded_handle`` -- ``schedule``/``schedule_at`` build a
  cancellable :class:`Event` handle; fire-and-forget work is ``post``-ed
  and builds none.
* ``name_table_copy`` -- the group-strategy, proxy-policy and search
  names live in one table each, in :mod:`repro.workload`.
* ``double_fault_record`` -- a traced fault is one call,
  ``Network.fault``, which counts (``record_fault``) and traces
  (``emit``) it under one name; a function making both calls itself
  writes the fault down twice.
* ``undocumented_fault`` -- every literal fault name is listed in
  docs/metrics.md.
* ``unanchored_module`` -- every module docstring names its source
  (``tools/check_docstrings.py``).

An allow-list maps ``"path:qualname"`` (the path under ``src/repro``)
to the reason that hit is kept.  An entry that matches no hit fails: a
stale allowance could later let a new hit of the same name through.
:data:`PLANTED` gives every rule planted source and the hits it must
report.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import os
import re

import pytest

from repro.workload import GROUP_STRATEGIES, PROXY_POLICIES, SEARCHES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "src", "repro")
METRICS_DOC = os.path.join(ROOT, "docs", "metrics.md")

_spec = importlib.util.spec_from_file_location(
    "check_docstrings", os.path.join(ROOT, "tools", "check_docstrings.py"))
check_docstrings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docstrings)

#: nested definitions called in place only, with the reason.
CALL_LOCAL = {
    "cli.py:build_parser.common": (
        "adds the shared options to one subparser while the parser is "
        "built"
    ),
    "commands/compare.py:run.row": (
        "prints one comparison row and counts a mismatch"
    ),
    "commands/compare.py:run.fresh": (
        "builds the Simulation for one comparison"
    ),
    "monitor/health.py:HealthMonitor.to_prometheus.gauge": (
        "appends one gauge's exposition lines to the text being built"
    ),
    "trace/export.py:to_chrome.tid_of": (
        "numbers the hosts of one export"
    ),
    "trace/export.py:to_mermaid.seen": (
        "collects the participants of one diagram"
    ),
    "scenario/runner.py:_Run.evaluate.check": (
        "records one failed expectation of the run being evaluated"
    ),
}

#: nested definitions that are handed on, with why no running
#: simulation holds them.
HANDED_ON = {
    "__init__.py:_lazy_exports.__getattr__": (
        "a package's PEP 562 attribute hook: a module global, never "
        "part of a simulation"
    ),
    "__init__.py:_lazy_exports.__dir__": (
        "a package's PEP 562 dir() hook: a module global, never part "
        "of a simulation"
    ),
    "obs/service.py:_make_httpd.Handler": (
        "the HTTP server's request handler class: the serving thread "
        "builds one per request, and it only reads the simulation"
    ),
}

#: functions that count a fault and emit a trace event themselves,
#: with the reason.
DOUBLE_FAULT_RECORDS = {
    "net/network.py:Network.fault": "the one helper every site calls",
    "faults/injector.py:FaultInjector._rejoin": (
        "fault.mh_rejoin must parent the reconnect, while mh.rejoined "
        "is counted after it so the faults the reconnect records keep "
        "their place in the CLI's first-occurrence order"
    ),
    "hosts/mh.py:MobileHost.reconnect": (
        "counts mh.rerouted_reconnect, a count-only fault; its emit is "
        "the mh.reconnect mobility step, not a fault event"
    ),
    "mutex/r2.py:R2Mutex._finish_access": (
        "counts r2.orphan_return, a count-only fault, on one branch and "
        "traces token.append, a protocol step, on another"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: builtin-container methods, found by name (the scan sees no types).
CONTAINER_METHODS = {"add", "append", "appendleft", "discard", "extend",
                     "insert", "pop", "remove", "setdefault", "update",
                     "__setitem__"}
HOOK = re.compile(r"add_\w+_listener")
#: scheduler methods whose result is the cancellable handle.
HANDLE_METHODS = ("schedule", "schedule_at")
#: the one home of the name tables.
HOME = "workload/__init__.py"
NAME_TABLES = (GROUP_STRATEGIES, PROXY_POLICIES, SEARCHES)
#: calls whose first argument names a fault.
FAULT_CALLS = ("record_fault", "fault")


def parse(root: str) -> dict:
    """``{path relative to root: tree}`` of every module under
    ``root``."""
    trees = {}
    for path in check_docstrings.iter_modules(root):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        trees[os.path.relpath(path, root).replace(os.sep, "/")] = tree
    return trees


@functools.cache
def repro_trees() -> dict:
    """:func:`parse` of ``src/repro``, once per session: the per-scope
    views in ``test_no_lambda.py``, ``test_no_escaping_closures.py``
    and ``test_no_handler_closures.py`` read the same trees."""
    return parse(REPRO)


@pytest.fixture(scope="module")
def trees():
    return repro_trees()


@functools.cache
def _nodes(tree: ast.AST) -> tuple:
    """``(node, scope)`` of every node in ``tree``, in one walk:
    ``scope`` is the innermost function or class holding the node, as
    ``(qualname, definition)``, or ``None`` at module level."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        found.append((node, scope))
        if isinstance(node, DEFINITIONS):
            scope = (f"{scope[0]}.{node.name}" if scope else node.name,
                     node)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return tuple(found)


def _walk(trees: dict, kind):
    """``(path, node)`` of every ``kind`` node in ``trees``."""
    for path, tree in trees.items():
        for node, _ in _nodes(tree):
            if isinstance(node, kind):
                yield path, node


def _definitions(tree: ast.AST):
    """``(qualname, definition, enclosing definition)`` of every
    function or class in ``tree``."""
    for node, scope in _nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield ((f"{scope[0]}.{node.name}", node, scope[1]) if scope
                   else (node.name, node, None))


def _handed_on(outer: ast.AST, inner: ast.AST) -> bool:
    """Whether ``inner``, defined in the function ``outer``, is
    decorated or read in ``outer`` other than as a callee."""
    if inner.decorator_list:
        return True
    callees = {id(node.func) for node in ast.walk(outer)
               if isinstance(node, ast.Call)}
    return any(
        isinstance(node, ast.Name) and node.id == inner.name
        and isinstance(node.ctx, ast.Load) and id(node) not in callees
        for node in ast.walk(outer)
    )


def _nested(trees: dict, handed: bool) -> list:
    """``path:qualname`` of every definition nested in a function that
    is (or is not) handed on."""
    return [f"{path}:{qualname}" for path, tree in trees.items()
            for qualname, node, outer in _definitions(tree)
            if isinstance(outer, FUNCTIONS)
            and _handed_on(outer, node) == handed]


def handed_on(trees: dict) -> list:
    return _nested(trees, True)


def call_local(trees: dict) -> list:
    return _nested(trees, False)


def lambdas(trees: dict) -> list:
    return [f"{path}:{node.lineno}"
            for path, node in _walk(trees, ast.Lambda)]


def container_methods(trees: dict) -> list:
    return [f"{path}:{arg.lineno}"
            for path, call in _walk(trees, ast.Call)
            for arg in call.args + [kw.value for kw in call.keywords]
            if isinstance(arg, ast.Attribute)
            and arg.attr in CONTAINER_METHODS]


def unused_hooks(trees: dict) -> list:
    defined, called = [], set()
    for path, node in _walk(trees, (ast.FunctionDef, ast.Call)):
        if isinstance(node, ast.FunctionDef):
            if HOOK.fullmatch(node.name):
                defined.append((path, node.lineno, node.name))
        elif isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return [f"{path}:{line} {name}" for path, line, name in defined
            if name not in called]


def discarded_handles(trees: dict) -> list:
    return [f"{path}:{node.lineno}"
            for path, node in _walk(trees, ast.Expr)
            if isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in HANDLE_METHODS]


def table_literals(tree: ast.AST) -> list:
    """``(line, names)`` of every dict/set/list/tuple literal in
    ``tree`` whose string items hold a whole name table."""
    found = []
    for node, _ in _nodes(tree):
        if isinstance(node, ast.Dict):
            items = node.keys + node.values
        elif isinstance(node, (ast.Set, ast.List, ast.Tuple)):
            items = node.elts
        else:
            continue
        strings = {item.value for item in items
                   if isinstance(item, ast.Constant)
                   and isinstance(item.value, str)}
        found += [(node.lineno, sorted(table)) for table in NAME_TABLES
                  if set(table) <= strings]
    return found


def name_table_copies(trees: dict) -> list:
    return [f"{path}:{line}" for path, tree in trees.items()
            if path != HOME for line, _ in table_literals(tree)]


def double_fault_records(trees: dict) -> list:
    called = {}
    for path, tree in trees.items():
        for node, scope in _nodes(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and scope and isinstance(scope[1], FUNCTIONS)):
                called.setdefault((path, scope), set()).add(node.func.attr)
    return [f"{path}:{qualname}"
            for (path, (qualname, _)), names in called.items()
            if {"record_fault", "emit"} <= names]


def fault_names(trees: dict):
    """``(path, line, text, whole)`` of every literal fault name handed
    to ``record_fault``/``fault`` or carried as a ``FaultDecision``
    reason; an f-string name gives its literal parts, not ``whole``
    (``recovery.{reason}`` gives ``recovery.``)."""
    for path, call in _walk(trees, ast.Call):
        func = call.func
        callee = (func.attr if isinstance(func, ast.Attribute)
                  else func.id if isinstance(func, ast.Name) else None)
        args = call.args[:1] if callee in FAULT_CALLS else []
        if callee == "FaultDecision":
            args = [kw.value for kw in call.keywords if kw.arg == "reason"]
        for arg in args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield path, arg.lineno, arg.value, True
            elif isinstance(arg, ast.JoinedStr):
                for part in arg.values:
                    if isinstance(part, ast.Constant):
                        yield path, arg.lineno, part.value, False


def undocumented_faults(trees: dict) -> list:
    with open(METRICS_DOC, encoding="utf-8") as handle:
        doc = handle.read()
    return [f"{path}:{line} {text}"
            for path, line, text, whole in fault_names(trees)
            if (f"`{text}`" if whole else text) not in doc]


def unanchored_modules(trees: dict) -> list:
    return [f"{path}: {problem}" for path, tree in trees.items()
            if (problem := check_docstrings.check_tree(tree))]


#: rule name -> (rule, allow-list).
RULES = {
    "lambda": (lambdas, {}),
    "handed_on": (handed_on, HANDED_ON),
    "call_local": (call_local, CALL_LOCAL),
    "container_method": (container_methods, {}),
    "unused_hook": (unused_hooks, {}),
    "discarded_handle": (discarded_handles, {}),
    "name_table_copy": (name_table_copies, {}),
    "double_fault_record": (double_fault_records, DOUBLE_FAULT_RECORDS),
    "undocumented_fault": (undocumented_faults, {}),
    "unanchored_module": (unanchored_modules, {}),
}


@pytest.mark.parametrize("name", RULES)
def test_source_rule(name, trees):
    rule, allowed = RULES[name]
    hits = rule(trees)
    assert [hit for hit in hits if hit not in allowed] == []
    assert [entry for entry in allowed if entry not in hits] == []


def test_the_parse_sees_what_the_rules_guard(trees):
    packages = {f"{name}/__init__.py" for name in os.listdir(REPRO)
                if os.path.isfile(os.path.join(REPRO, name, "__init__.py"))}
    required = {path.replace(os.sep, "/")
                for path in check_docstrings.REQUIRED_MODULES}
    assert packages | required | {
        "facade.py", "trace/events.py", "commands/multicast.py",
        "hosts/mh.py", "net/network.py"} <= set(trees)
    assert sorted(names for _, names in table_literals(trees[HOME])) == (
        sorted(sorted(table) for table in NAME_TABLES))
    assert {"rel.retransmit", "mss.crash", "fixed.dropped",
            "recovery.meta_forwarded", "r2.token_reissued"} <= {
        text for _, _, text, whole in fault_names(trees) if whole}


LEDGER = {
    "pkg/ledger.py": (
        "class Tracer:\n"
        "    def call_site_batch(self, etype):\n"
        "        def append(scope, src, dst, _rows=self._ledger):\n"
        "            _rows.append((scope, src, dst))\n"
        "        return append\n"
        "    def install(self, network):\n"
        "        def emit(row):\n"
        "            self.rows.append(row)\n"
        "        network.emit = emit\n"
        "    def report(self):\n"
        "        def line(text):\n"
        "            return text.upper()\n"
        "        return line('ok')\n"
    ),
    "top.py": (
        "def serve():\n"
        "    class Handler:\n"
        "        def do_GET(self):\n"
        "            def inner():\n"
        "                pass\n"
        "    return Server(Handler)\n"
    ),
}

TRAFFIC = {
    "commands/multicast.py": (
        "def run(args, emit):\n"
        "    sent = [0]\n"
        "    def send_one():\n"
        "        sent[0] += 1\n"
        "    traffic = PoissonProcess(sim.scheduler, 0.05, send_one)\n"
        "    def report(line):\n"
        "        emit(line)\n"
        "    report('done')\n"
        "    def stored():\n"
        "        pass\n"
        "    hooks = [stored]\n"
    ),
}

STATION = {
    "sub/mod.py": (
        "class Station:\n"
        "    def crash(self, net):\n"
        "        net.metrics.record_fault('x.crash')\n"
        "        if net._trace_on:\n"
        "            net._trace.emit('fault.x_crash', src='x')\n"
        "    def count_only(self, net):\n"
        "        net.metrics.record_fault('x.count')\n"
        "    def trace_only(self, net):\n"
        "        net._trace.emit('x.event')\n"
        "    def split(self, net):\n"
        "        def inner():\n"
        "            net._trace.emit('x.inner')\n"
        "        net.metrics.record_fault('x.split')\n"
        "        return inner\n"
        "def helper(net, why):\n"
        "    net.fault('x.helper', 'fault.x_helper', src='x')\n"
        "    net.fault(f'zz_planted.{why}')\n"
        "    return FaultDecision(drop=True, reason='x.decided')\n"
    ),
}

#: rule, planted modules, the hits the rule must report.
PLANTED = [
    pytest.param("lambda", {"sub/mod.py": (
        "def wire(host, node):\n"
        "    host.register_handler('k', lambda m: node.on(m.payload))\n"
    )}, ["sub/mod.py:2"], id="lambda"),
    pytest.param("handed_on", LEDGER, [
        "pkg/ledger.py:Tracer.call_site_batch.append",
        "pkg/ledger.py:Tracer.install.emit",
        "top.py:serve.Handler",
    ], id="handed_on-returned-stored-passed"),
    pytest.param("call_local", LEDGER, [
        "pkg/ledger.py:Tracer.report.line",
        "top.py:serve.Handler.do_GET.inner",
    ], id="call_local"),
    pytest.param("handed_on", {"pkg/mod.py": (
        "class Host:\n"
        "    def wire(self, network):\n"
        "        @network.register\n"
        "        def on_message(message):\n"
        "            self.inbox.append(message)\n"
    )}, ["pkg/mod.py:Host.wire.on_message"], id="handed_on-decorated"),
    pytest.param("handed_on", TRAFFIC, [
        "commands/multicast.py:run.send_one",
        "commands/multicast.py:run.stored",
    ], id="handed_on-command-traffic"),
    pytest.param("call_local", TRAFFIC, [
        "commands/multicast.py:run.report",
    ], id="call_local-command"),
    pytest.param("container_method", {"messenger.py": (
        "def deliver(self, letter):\n"
        "    keep = self.delivered.append\n"
        "    keep(letter)\n"
        "    self.manager.deliver(letter, on_missed=self.missed.append)\n"
        "    PoissonProcess(self.scheduler, 0.1, self.queue.pop)\n"
    )}, ["messenger.py:4", "messenger.py:5"], id="container_method"),
    pytest.param("unused_hook", {
        "pkg/host.py": (
            "class Host:\n"
            "    def add_join_listener(self, listener):\n"
            "        self._join.append(listener)\n"
            "\n"
            "    def add_leave_listener(self, listener):\n"
            "        self._leave.append(listener)\n"
        ),
        "user.py": (
            "def wire(host, protocol):\n"
            "    host.add_join_listener(protocol.on_join)\n"
        ),
    }, ["pkg/host.py:5 add_leave_listener"], id="unused_hook"),
    pytest.param("discarded_handle", {"sub/mod.py": (
        "def wire(self, scheduler):\n"
        "    self._timer = scheduler.schedule(1.0, self.fire)\n"
        "    scheduler.post(2.0, self.fire)\n"
        "    if self.late:\n"
        "        self.network.scheduler.schedule_at(\n"
        "            9.0, self.fire)\n"
    )}, ["sub/mod.py:5"], id="discarded_handle"),
    pytest.param("name_table_copy", {
        HOME: "GROUP_STRATEGIES = {'pure_search': A, 'always_inform': B,"
              " 'location_view': C}\n",
        "pkg/names.py": (
            "A = {'pure_search': X, 'always_inform': Y,\n"
            "     'location_view': Z}\n"
            "B = ('fixed', 'local', 'adaptive')\n"
            "C = ['fixed', 'local']\n"
            "D = {'fixed', 'local', 'adaptive', 'other'}\n"
            "E = f(['pure_search', 'always_inform', 'location_view'])\n"
            "F = ['abstract', 'broadcast', 'home-agent',\n"
            "     'caching', 'regional']\n"
        ),
    }, ["pkg/names.py:1", "pkg/names.py:3", "pkg/names.py:5",
        "pkg/names.py:6", "pkg/names.py:7"], id="name_table_copy"),
    pytest.param("double_fault_record", STATION, ["sub/mod.py:Station.crash"],
                 id="double_fault_record"),
    pytest.param("undocumented_fault", STATION, [
        "sub/mod.py:3 x.crash", "sub/mod.py:7 x.count",
        "sub/mod.py:13 x.split", "sub/mod.py:16 x.helper",
        "sub/mod.py:17 zz_planted.", "sub/mod.py:18 x.decided",
    ], id="undocumented_fault"),
    pytest.param("unanchored_module", {
        "anchored.py": '"""Implements the paper\'s Section 2 protocol."""\n',
        "bare.py": '"""No anchor here."""\n',
        "naked.py": "x = 1\n",
    }, [
        "bare.py: docstring lacks a source anchor "
        "(Section N / ROADMAP / paper / ICDCS / [n])",
        "naked.py: missing module docstring",
    ], id="unanchored_module"),
]


@pytest.mark.parametrize("name, modules, hits", PLANTED)
def test_a_planted_breach_is_found(name, modules, hits):
    trees = {path: ast.parse(source, path) for path, source in
             modules.items()}
    assert sorted(RULES[name][0](trees)) == sorted(hits)
