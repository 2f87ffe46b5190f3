"""Start-up cost is proportional to what a run uses.

The paper's structuring rule is that a participant carries only what
its own computation needs; these tests hold the package to it at import
time.  Each probe runs in a fresh interpreter and inspects
``sys.modules`` after the fact, so nothing this test session already
imported can hide a regression.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: layers (and stdlib machinery) an L2 mutex run never touches.
UNUSED_BY_A_MUTEX_RUN = (
    "repro.monitor", "repro.recovery", "repro.groups", "repro.proxy",
    "repro.multicast", "repro.scenario", "repro.scale",
    "http.server", "ssl",
)


def modules_after(code: str) -> set:
    """Names in ``sys.modules`` once ``code`` has run in a fresh python."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_repro_loads_no_layer():
    loaded = modules_after("import repro")
    assert not loaded.intersection(UNUSED_BY_A_MUTEX_RUN)
    assert {name for name in loaded if name.startswith("repro")} == {"repro"}


#: the subcommands; each is one module under ``repro.commands``.
COMMANDS = ("mutex", "groups", "proxy", "multicast", "compare", "trace",
            "monitor", "scenarios", "scale", "serve")


def test_cli_mutex_run_loads_only_its_layers():
    loaded = modules_after(
        "from repro.cli import main\n"
        "status = main(['mutex', '--algorithm', 'L2', '--n-mss', '4',\n"
        "               '--n-mh', '8', '--duration', '50', '--seed', '7'],\n"
        "              emit=lambda line: None)\n"
        "assert status == 0"
    )
    assert not loaded.intersection(UNUSED_BY_A_MUTEX_RUN)
    assert "repro.mutex" in loaded and "repro.net" in loaded
    # Only the chosen algorithm, handler and trace half are compiled.
    assert {"repro.mutex.l2", "repro.commands.mutex"} <= loaded
    assert not loaded.intersection(
        [f"repro.mutex.{name}" for name in ("l1", "r1", "r2", "ring_core")]
        + [f"repro.commands.{name}" for name in COMMANDS if name != "mutex"]
        + ["repro.trace.export"]
    )
    # The budget: 39 while repro.mutex and repro.trace loaded whole and
    # every handler lived in repro.cli.
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert len(ours) <= 36, sorted(ours)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_help_exits_0(command):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro", command, "--help"], env=env,
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: repro {command}")


def test_monitored_simulation_loads_monitors_but_no_http_server():
    loaded = modules_after(
        "from repro import Simulation\n"
        "sim = Simulation(n_mss=2, n_mh=2, monitors=True)\n"
        "sim.drain()\n"
        "sim.assert_invariants()"
    )
    assert "repro.monitor" in loaded and "repro.obs" in loaded
    assert "http.server" not in loaded and "ssl" not in loaded


def test_traced_simulation_loads_no_monitor_layer():
    """A kept trace is the tracer's own drain step: tracing without
    monitors never pulls in the monitor layer."""
    loaded = modules_after(
        "from repro import Simulation\n"
        "sim = Simulation(n_mss=2, n_mh=2, trace=True)\n"
        "sim.mh(0).move_to(sim.mss_id(1))\n"
        "sim.drain()\n"
        "assert sim.tracer.events and sim.monitor_hub is None"
    )
    assert "repro.trace.events" in loaded
    assert not {name for name in loaded
                if name.split(".")[:2] == ["repro", "monitor"]}


def test_population_store_run_is_stdlib_only():
    loaded = modules_after(
        "import random\n"
        "from repro import Simulation\n"
        "from repro.scale import CrowdChurn\n"
        "sim = Simulation(n_mss=4, n_mh=200, population_store=True)\n"
        "churn = CrowdChurn(sim.population, sim.scheduler, tick=5.0,\n"
        "                   move_fraction=0.1, disconnect_fraction=0.05,\n"
        "                   reconnect_fraction=0.5, rng=random.Random(1))\n"
        "churn.start()\n"
        "sim.run(until=5.0)\n"
        "assert churn.ticks == 1 and churn.moved"
    )
    assert "repro.scale" in loaded
    assert "numpy" not in loaded


def test_telemetry_server_loads_http_server_on_first_use():
    loaded = modules_after(
        "from repro import Simulation\n"
        "from repro.obs import TelemetryServer\n"
        "import sys\n"
        "assert 'http.server' not in sys.modules\n"
        "with TelemetryServer(Simulation(n_mss=1, n_mh=1), port=0):\n"
        "    pass"
    )
    assert "http.server" in loaded


#: the packages that serve their public names on first access, with a
#: name each to star-import.
LAZY_PACKAGES = {"repro": "L2Mutex", "repro.mutex": "L2Mutex",
                 "repro.trace": "to_jsonl"}


def test_every_public_name_is_the_layer_s_own_object():
    assert isinstance(repro.__version__, str)
    for package in map(importlib.import_module, LAZY_PACKAGES):
        for name in package.__all__:
            if name == "__version__":
                continue
            source = importlib.import_module(package._SOURCE_OF[name])
            assert getattr(package, name) is getattr(source, name), name
            assert vars(package)[name] is getattr(source, name)  # cached


def test_dir_lists_every_public_name():
    for package in map(importlib.import_module, LAZY_PACKAGES):
        assert set(package.__all__) <= set(dir(package))
        assert package.__all__ == sorted(set(package.__all__))


def test_star_import_binds_every_public_name():
    for package, name in LAZY_PACKAGES.items():
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)
        assert namespace[name] is getattr(module, name)


def test_unknown_attribute_raises_attribute_error_naming_it():
    for package in LAZY_PACKAGES:
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec(f"from {package} import no_such_name", {})


def test_an_algorithm_loads_only_its_own_modules():
    loaded = modules_after("from repro.mutex import L2Mutex")
    assert {"repro.mutex.l2", "repro.mutex.lamport_core",
            "repro.mutex.resource"} <= loaded
    assert not loaded.intersection(
        f"repro.mutex.{name}" for name in ("l1", "r1", "r2", "ring_core"))
    assert "repro.trace.export" not in loaded
