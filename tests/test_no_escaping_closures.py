"""No function nested in a function of ``repro`` outlives its call.

``copy.deepcopy`` of a running simulation copies bound methods and
``functools.partial`` objects with their state, but a closure by
reference: a nested function that is returned, stored on an attribute
or otherwise handed on keeps driving the original's objects from inside
the copy.  (The ledger's site emitters were such closures, and a forked
monitored run wrote its rows into the original's ledger.)  The scan
walks every module of ``src/repro`` and fails on

* a nested function or class that is handed on -- read as anything but
  the callee of a call -- unless :data:`HANDED_ON` says why no running
  simulation holds it, and
* a nested definition listed in neither table, or a stale entry: each
  call-local helper is listed in :data:`CALL_LOCAL` with its reason.

A builtin container's method (``self.missed.append``) deep-copies by
reference too, so none is passed to a call either.
"""

from __future__ import annotations

import ast
import os

from test_no_handler_closures import _handed_on

REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
    "repro",
)

#: nested helpers called in place only: ``module:outer.name`` -> reason.
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
    "scale/store.py:PopulationStore.__init__.filled": (
        "builds one constant array while the store is constructed"
    ),
}

#: nested definitions that are handed on, with why no running
#: simulation holds them: ``module:outer.name`` -> reason.
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

#: builtin-container methods, found by name (the scan sees no types).
CONTAINER_METHODS = {"add", "append", "appendleft", "discard", "extend",
                     "insert", "pop", "remove", "setdefault", "update",
                     "__setitem__"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested(node: ast.AST, path: str, outer, found: list) -> None:
    """Record each definition under ``node`` whose nearest enclosing
    scope is the function ``outer`` (methods of a nested class belong
    to the class)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            name = f"{path}.{child.name}" if path else child.name
            if outer is not None:
                # Its allowance covers what it defines in turn.
                found.append((name, _handed_on(outer, child.name)))
            else:
                _nested(child, name,
                        child if isinstance(child, FUNCTIONS) else None,
                        found)
        else:
            _nested(child, path, outer, found)


def modules(root: str):
    """``(path relative to root, parsed tree)`` of every module under
    ``root``."""
    for directory, _, files in sorted(os.walk(root)):
        for module in sorted(files):
            if module.endswith(".py"):
                path = os.path.join(directory, module)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                yield os.path.relpath(path, root).replace(os.sep, "/"), tree


def nested_definitions(root: str) -> list:
    """``(module:outer.name, handed on)`` of every function or class
    defined in a function of a module under ``root``."""
    found = []
    for module, tree in modules(root):
        nested: list = []
        _nested(tree, "", None, nested)
        found += [(f"{module}:{name}", handed_on)
                  for name, handed_on in nested]
    return found


def offenders(root: str, call_local, handed_on) -> list:
    """Nested definitions the two tables do not allow as they are."""
    return [name for name, handed in nested_definitions(root)
            if name not in (handed_on if handed else call_local)]


def test_no_nested_definition_outlives_its_call():
    assert os.path.isfile(os.path.join(REPRO, "trace", "events.py"))
    assert offenders(REPRO, CALL_LOCAL, HANDED_ON) == []
    # Every allowance is still needed: a stale entry could later let a
    # new closure of the same name through.
    assert sorted(name for name, _ in nested_definitions(REPRO)) == sorted(
        {**CALL_LOCAL, **HANDED_ON})


def test_the_scan_finds_a_returned_or_stored_closure(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ledger.py").write_text(
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
    )
    (tmp_path / "top.py").write_text(
        "def serve():\n"
        "    class Handler:\n"
        "        def do_GET(self):\n"
        "            def inner():\n"
        "                pass\n"
        "    return Server(Handler)\n"
    )
    assert nested_definitions(str(tmp_path)) == [
        ("top.py:serve.Handler", True),
        ("pkg/ledger.py:Tracer.call_site_batch.append", True),
        ("pkg/ledger.py:Tracer.install.emit", True),
        ("pkg/ledger.py:Tracer.report.line", False),
    ]
    assert offenders(str(tmp_path), {"pkg/ledger.py:Tracer.report.line"},
                     {"top.py:serve.Handler"}) == [
        "pkg/ledger.py:Tracer.call_site_batch.append",
        "pkg/ledger.py:Tracer.install.emit",
    ]
    # Listed as call-local, a closure that is returned still fails.
    assert "pkg/ledger.py:Tracer.call_site_batch.append" in offenders(
        str(tmp_path),
        {"pkg/ledger.py:Tracer.call_site_batch.append",
         "pkg/ledger.py:Tracer.report.line"},
        {"top.py:serve.Handler"})


def container_methods_passed(root: str) -> list:
    """``module:line`` of every container method (by name) passed as an
    argument to a call in a module under ``root``."""
    return [
        f"{module}:{arg.lineno}"
        for module, tree in modules(root)
        for call in ast.walk(tree) if isinstance(call, ast.Call)
        for arg in call.args + [kw.value for kw in call.keywords]
        if isinstance(arg, ast.Attribute) and arg.attr in CONTAINER_METHODS
    ]


def test_no_container_method_is_handed_to_a_call():
    assert container_methods_passed(REPRO) == []


def test_the_scan_finds_a_handed_on_list_append(tmp_path):
    (tmp_path / "messenger.py").write_text(
        "def deliver(self, letter):\n"
        "    keep = self.delivered.append\n"
        "    keep(letter)\n"
        "    self.manager.deliver(letter, on_missed=self.missed.append)\n"
        "    PoissonProcess(self.scheduler, 0.1, self.queue.pop)\n"
    )
    assert container_methods_passed(str(tmp_path)) == [
        "messenger.py:4", "messenger.py:5"]
