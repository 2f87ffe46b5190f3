#!/usr/bin/env python3
"""Check that every function in ``src/repro`` is reached by a product run.

ROADMAP item 19: the package keeps the paper's behaviour in the least
code, so a function that no product run enters is either deleted or
listed in :data:`ALLOWED` with the reason it stays.  This script runs
the product surface in one process under :func:`sys.setprofile` and
:func:`threading.setprofile`:

* every ``python -m repro`` example of ``docs/cli.md`` through
  :func:`repro.cli.main`;
* every builtin scenario spec at its own seed through
  :func:`repro.scenario.run_scenario`;
* every ``examples/*.py`` script through :mod:`runpy`;
* the E/A paper-claim suite, ``pytest benchmarks --benchmark-disable``;
* ``tools/gen_walkthroughs.py --check`` and
  ``tools/run_scaling_examples.py`` (the ``docs/scaling.md`` examples);
* the six workloads of ``bench/workloads.py`` in their tiny form;
* one :class:`repro.obs.service.TelemetryServer` scrape of
  ``/metrics``, ``/health`` and ``/invariants`` on a free local port.

Tests are not product runs: a function that only a test calls is
unreached.  Every ``def`` under ``src/repro`` is listed by AST as
``path:qualname`` (the path under ``src/repro``) and keyed on its file
and first line -- the first decorator's line for a decorated function,
as ``co_firstlineno`` is.  The script exits 1 on an unreached function
that :data:`ALLOWED` does not name, and on an :data:`ALLOWED` entry that
names no unreached function: a stale allowance could later let a new
hit of the same name through.

Every reason in :data:`ALLOWED` starts with one of :data:`KINDS`:

* ``product path:`` -- reachable by a run that no builtin spec makes
  yet; the reason names the ROADMAP item 2 cell that will make it;
* ``public API:`` -- documented for users; the reason names the doc;
* ``reference path:`` -- the per-event or violation path that a fused
  fast path stands in for on the runs above;
* ``debug helper:`` -- a ``__repr__`` or a pinned value contract.

    PYTHONPATH=src python tools/check_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import re
import runpy
import shlex
import sys
import threading
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(REPO, "src", "repro")

#: the reason kinds an :data:`ALLOWED` entry starts with.
KINDS = ("product path:", "public API:", "reference path:", "debug helper:")

L1_MH_CRASH = ("product path: L1's MH-crash and amnesiac-rejoin handling; "
               "no spec crashes an L1 participant yet (ROADMAP item 2 "
               "cell L1 x MH crash)")
L2_MH_CRASH = ("product path: L2's MH-crash handling; every MH-crash spec "
               "runs R2'' (ROADMAP item 2 cell L2 x MH crash)")
R1_MH_CRASH = ("product path: R1's MH-crash handling and ring repair; no "
               "spec runs R1 (ROADMAP item 2 cell R1 x MH crash)")
ORDERED_LOSS = ("product path: the ordered group's NACK repair of a "
                "holdback hole; no spec runs the ordered group (ROADMAP "
                "item 2 cell ordered x link loss/dup/delay)")
ORDERED_SYNC = ("product path: the ordered group's sync of a member that "
                "moved or joined a cell mid-stream; no spec runs the "
                "ordered group (ROADMAP item 2 cell ordered x link "
                "loss/dup/delay, whose probe moves members)")
AI_MEMBERSHIP = ("product path: an always-inform membership change "
                 "(docs/api-tour.md add_member/remove_member); no spec "
                 "changes membership (ROADMAP item 2 row always_inform)")
LV_MEMBERSHIP = ("product path: a location-view membership change "
                 "(docs/api-tour.md add_member/remove_member); no spec "
                 "changes membership (ROADMAP item 2 row location_view)")
PROXY_MH_CRASH = ("product path: a proxy policy's MH-crash hook; the proxy "
                  "specs are fault-free (ROADMAP item 2 cell proxy x MH "
                  "crash)")
PROXIED_MUTEX = ("public API: ProxiedMutex, L2 with per-host proxies "
                 "(README, docs/algorithms.md); no CLI command or spec "
                 "builds it")
PROXY_POLICY = ("public API: the ProxyPolicy interface a custom policy "
                "implements (docs/algorithms.md)")
STORE_DEMOTION = ("public API: population-store demotion "
                  "(docs/scaling.md); no product run sets max_active "
                  "low enough to demote")
SWEEPS = ("public API: repro.analysis.sweeps (README, "
          "docs/api-tour.md), a library for users' own experiments")
MONITOR_REFERENCE = ("reference path: the per-event monitor check that "
                     "the fused MonitorHub._consume_standard loop stands "
                     "in for; it runs under replay_events and custom "
                     "monitor lists")
RECOVERY_CLIENT = ("public API: the RecoveryClient interface and "
                   "MutexCheckpointClient (docs/api-tour.md)")
INSPECTION = ("debug helper: a read-only accessor that tests and "
              "interactive sessions inspect state through")
TRACE_EXPORT = ("public API: the JSONL and Chrome exporters "
                "(docs/metrics.md, `repro trace --format jsonl|chrome` "
                "in docs/cli.md)")
TIMELINE = ("public API: TimelineCollector, the per-event metrics "
            "collector (docs/metrics.md)")
COST_MODEL = ("debug helper: CostModel's immutable value contract "
              "(equality, hash, pickle, repr), pinned by "
              "tests/test_run_classes.py")

#: ``"path:qualname"`` -> why the function stays although no product
#: run above enters it.
ALLOWED = {
    "__init__.py:_lazy_exports.__dir__": (
        "debug helper: dir(repro) lists the lazily loaded names"),
    "analysis/sweeps.py:Summary.__repr__": SWEEPS,
    "analysis/sweeps.py:Summary.stderr": SWEEPS,
    "analysis/sweeps.py:_run_cell": SWEEPS,
    "analysis/sweeps.py:dominates": SWEEPS,
    "analysis/sweeps.py:series": SWEEPS,
    "analysis/sweeps.py:summarize": SWEEPS,
    "analysis/sweeps.py:sweep": SWEEPS,
    "clock/lamport.py:LamportClock.counter": (
        "public API: repro.clock's Lamport clock (README's package "
        "table); the protocols read stamps, tests read the counter"),
    "clock/lamport.py:LamportClock.witness": (
        "public API: repro.clock's Lamport receive rule returning the "
        "stamp (README's package table); the protocols use merge"),
    "clock/lamport.py:Timestamp.__getnewargs__": (
        "debug helper: Timestamp's value contract: copy, deepcopy and "
        "pickle rebuild a stamp through it, as a forked run does "
        "(tests/test_clock.py, tools/check_batched_equivalence.py)"),
    "clock/lamport.py:Timestamp.__repr__": "debug helper: repr",
    "clock/lamport.py:Timestamp.counter": INSPECTION,
    "clock/lamport.py:Timestamp.node_id": INSPECTION,
    "faults/plan.py:FaultPlan.load": (
        "public API: `--fault-plan PATH` reads a plan file "
        "(docs/cli.md); the examples pass inline JSON"),
    "faults/plan.py:FaultPlan.to_dict": (
        "debug helper: FaultPlan's value contract, the inverse of "
        "from_dict (tests/test_faults_plan_validation.py)"),
    "groups/always_inform.py:AlwaysInformGroup._on_goodbye": AI_MEMBERSHIP,
    "groups/always_inform.py:AlwaysInformGroup._on_hello": AI_MEMBERSHIP,
    "groups/always_inform.py:AlwaysInformGroup._on_member_added": (
        AI_MEMBERSHIP),
    "groups/always_inform.py:AlwaysInformGroup._on_member_removed": (
        AI_MEMBERSHIP),
    "groups/always_inform.py:AlwaysInformGroup._on_welcome": AI_MEMBERSHIP,
    "groups/always_inform.py:AlwaysInformGroup._unreachable": (
        "product path: a directed copy whose fallback search finds the "
        "member detached; the groups specs crash no MH (ROADMAP item 2 "
        "cell always_inform x MH crash)"),
    "groups/base.py:GroupStrategy._on_member_added": (
        "public API: the no-op membership hook of pure search "
        "(docs/api-tour.md add_member)"),
    "groups/base.py:GroupStrategy._on_member_removed": (
        "public API: the no-op membership hook of pure search "
        "(docs/api-tour.md remove_member)"),
    "groups/base.py:GroupStrategy.add_member": (
        "public API: membership extension (docs/api-tour.md, "
        "docs/algorithms.md)"),
    "groups/base.py:GroupStrategy.deliveries_of": (
        "public API: who received a payload (docs/api-tour.md)"),
    "groups/base.py:GroupStrategy.remove_member": (
        "public API: membership extension (docs/algorithms.md)"),
    "groups/location_view.py:LocationViewGroup._on_member_added": (
        LV_MEMBERSHIP),
    "groups/location_view.py:LocationViewGroup._on_member_removed": (
        LV_MEMBERSHIP),
    "groups/ordered.py:OrderedGroup._deliver_repair": ORDERED_LOSS,
    "groups/ordered.py:OrderedGroup._on_nack_uplink": ORDERED_LOSS,
    "groups/ordered.py:OrderedGroup._on_repair": ORDERED_LOSS,
    "groups/ordered.py:OrderedGroup._repair": ORDERED_LOSS,
    "groups/ordered.py:OrderedGroup._request_repair": ORDERED_LOSS,
    "groups/ordered.py:OrderedGroup._on_cell_sync": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_cell_sync_at": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_member_join": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_sync": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_sync_req": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_sync_rsp": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup._on_view_add": ORDERED_SYNC,
    "groups/ordered.py:OrderedGroup.messages_sent": INSPECTION,
    "groups/pure_search.py:PureSearchGroup._missed": (
        "product path: a pure-search copy whose search finds the member "
        "detached; the groups specs crash no MH (ROADMAP item 2 cell "
        "pure_search x MH crash)"),
    "hosts/base.py:Host.__repr__": "debug helper: repr",
    "hosts/base.py:Host._arrived_while_crashed": (
        "product path: the no-op a message landing on a crashed MH "
        "takes (stations override it); the MH-crash specs never land "
        "one (ROADMAP item 2 column MH crash)"),
    "hosts/base.py:Host.unregister_handler": R1_MH_CRASH,
    "hosts/mh.py:MobileHost.wake": (
        "public API: the end of doze mode (docs/api-tour.md doze)"),
    "hosts/mss.py:HandoffParticipant.handoff_state": (
        "public API: the HandoffParticipant defaults "
        "(docs/system-model.md); every participant overrides them"),
    "hosts/mss.py:HandoffParticipant.install_handoff_state": (
        "public API: the HandoffParticipant defaults "
        "(docs/system-model.md); every participant overrides them"),
    "metrics/cost.py:CostModel.__delattr__": COST_MODEL,
    "metrics/cost.py:CostModel.__eq__": COST_MODEL,
    "metrics/cost.py:CostModel.__hash__": COST_MODEL,
    "metrics/cost.py:CostModel.__reduce__": COST_MODEL,
    "metrics/cost.py:CostModel.__repr__": COST_MODEL,
    "metrics/cost.py:CostModel.__setattr__": COST_MODEL,
    "metrics/cost.py:CostModel._values": COST_MODEL,
    "metrics/timeline.py:TimelineCollector.cumulative_cost": TIMELINE,
    "metrics/timeline.py:TimelineCollector.record_search_probe": TIMELINE,
    "metrics/timeline.py:TimelineCollector.record_wireless_bulk": TIMELINE,
    "metrics/timeline.py:TimelineCollector.scopes_over_time": TIMELINE,
    "mobility/models.py:GraphMobility.__init__": (
        "public API: GraphMobility (docs/api-tour.md)"),
    "mobility/models.py:GraphMobility.adjacency_from_graph": (
        "public API: GraphMobility (docs/api-tour.md)"),
    "mobility/models.py:GraphMobility.choose_destination": (
        "public API: GraphMobility (docs/api-tour.md)"),
    "mobility/models.py:TraceMobility.__init__": (
        "public API: TraceMobility (docs/api-tour.md)"),
    "mobility/models.py:TraceMobility._move": (
        "public API: TraceMobility (docs/api-tour.md)"),
    "monitor/base.py:Monitor.on_event": MONITOR_REFERENCE,
    "monitor/health.py:HealthMonitor.on_event": MONITOR_REFERENCE,
    "monitor/hub.py:MonitorHub._consume_generic": (
        "reference path: the scratch-event replay a custom monitor "
        "list takes (docs/observability.md); the standard list takes "
        "the fused loop"),
    "monitor/hub.py:MonitorHub.dispatch": (
        "reference path: per-event dispatch, the reference the batched "
        "equivalence check compares against (docs/observability.md)"),
    "monitor/hub.py:_startswith_mss": (
        "reference path: FifoOrderMonitor's station test when a replay "
        "has no network bound"),
    "monitor/hub.py:replay_events": (
        "reference path: per-event replay of a recorded stream "
        "(docs/observability.md, tools/check_batched_equivalence.py)"),
    "monitor/liveness.py:LivenessMonitor._stall": (
        "reference path: the scheduler-stall violation; a certified "
        "run never stalls"),
    "monitor/liveness.py:LivenessMonitor.on_event": MONITOR_REFERENCE,
    "monitor/safety.py:FifoOrderMonitor._is_mss": MONITOR_REFERENCE,
    "monitor/safety.py:FifoOrderMonitor.on_event": MONITOR_REFERENCE,
    "monitor/safety.py:LocationViewMonitor.watch": (
        "product path: the location-view coverage check; nothing "
        "watches a group until the LV(G) race is repaired (ROADMAP "
        "item 2 cell location_view, docs/observability.md)"),
    "mutex/l1.py:L1Mutex._on_mh_crash": L1_MH_CRASH,
    "mutex/l1.py:L1Mutex._on_mh_recover": L1_MH_CRASH,
    "mutex/lamport_core.py:LamportMutexNode.forget_origin": L1_MH_CRASH,
    "mutex/lamport_core.py:LamportMutexNode.reannounce_to": L1_MH_CRASH,
    "mutex/lamport_core.py:LamportMutexNode.reset_volatile": L1_MH_CRASH,
    "mutex/lamport_core.py:LamportMutexNode.held_tags": INSPECTION,
    "mutex/lamport_core.py:LamportMutexNode.queue_size": INSPECTION,
    "mutex/lamport_core.py:MutexTransport.peers": (
        "public API: the MutexTransport interface "
        "(docs/performance.md); every transport overrides it"),
    "mutex/lamport_core.py:MutexTransport.send": (
        "public API: the MutexTransport interface "
        "(docs/performance.md); every transport overrides it"),
    "mutex/l2.py:L2Mutex._on_mh_crash": L2_MH_CRASH,
    "mutex/resource.py:RegionClient.disclaim": L2_MH_CRASH,
    "mutex/l2.py:L2Mutex.node": INSPECTION,
    "mutex/r1.py:R1Mutex._detecting_mss": R1_MH_CRASH,
    "mutex/r1.py:R1Mutex._on_mh_crash": R1_MH_CRASH,
    "mutex/r1.py:R1Mutex._on_mh_recover": R1_MH_CRASH,
    "mutex/r1.py:R1Mutex._regenerate": R1_MH_CRASH,
    "mutex/r1.py:R1Mutex.node": INSPECTION,
    "mutex/r2.py:R2Mutex._reissue": (
        "product path: R2's reissue of a token granted to a host that "
        "then crashed; the MH-crash specs run R2'' (ROADMAP item 2 "
        "cell R2 x MH crash)"),
    "mutex/r2.py:R2Mutex.node": INSPECTION,
    "net/cache_search.py:CachingSearch.on_mh_crashed": (
        "product path: caching search purging a crashed host's entries; "
        "no MH-crash spec uses `--search caching` (ROADMAP item 2 "
        "column MH crash)"),
    "net/latency.py:ConstantLatency.__repr__": "debug helper: repr",
    "net/latency.py:UniformLatency.__repr__": "debug helper: repr",
    "net/network.py:Network._fifo_arrival": (
        "public API: per-channel FIFO under a non-constant latency "
        "such as UniformLatency (docs/api-tour.md); the product runs "
        "use constant latencies"),
    "net/network.py:Network.trace": (
        "public API: the getter of `network.trace` "
        "(docs/observability.md); the program reads `_trace`"),
    "net/network.py:Network.unregister_mh": STORE_DEMOTION,
    "net/search.py:SearchProtocol.charge_disconnect_reply": (
        "public API: the SearchProtocol default "
        "(docs/system-model.md); every protocol overrides it"),
    "net/search.py:SearchProtocol.search": (
        "public API: the SearchProtocol interface "
        "(docs/system-model.md); every protocol overrides it"),
    "proxy/adaptive.py:AdaptiveProxyPolicy.on_mh_crashed": PROXY_MH_CRASH,
    "proxy/adaptive.py:AdaptiveProxyPolicy.proxy_of": PROXIED_MUTEX,
    "proxy/manager.py:ProxyManager._on_mh_crash": PROXY_MH_CRASH,
    "proxy/manager.py:ProxyManager.proxies": PROXIED_MUTEX,
    "proxy/messenger.py:ProxiedMessenger.deliveries_of": INSPECTION,
    "proxy/mutex.py:ProxiedMutex.__init__": PROXIED_MUTEX,
    "proxy/mutex.py:ProxiedMutex._on_granted": PROXIED_MUTEX,
    "proxy/mutex.py:ProxiedMutex._on_uplinked_init": PROXIED_MUTEX,
    "proxy/mutex.py:ProxiedMutex._participants": PROXIED_MUTEX,
    "proxy/mutex.py:ProxiedMutex._wire_requests": PROXIED_MUTEX,
    "proxy/mutex.py:ProxiedMutex.request": PROXIED_MUTEX,
    "proxy/policy.py:FixedProxyPolicy.on_mh_crashed": PROXY_MH_CRASH,
    "proxy/policy.py:LocalProxyPolicy.proxy_of": PROXIED_MUTEX,
    "proxy/policy.py:LocationRegister.__contains__": INSPECTION,
    "proxy/policy.py:LocationRegister.__getitem__": INSPECTION,
    "proxy/policy.py:LocationRegister.purge": PROXY_MH_CRASH,
    "proxy/policy.py:ProxyPolicy.deliver": PROXY_POLICY,
    "proxy/policy.py:ProxyPolicy.on_inform": PROXY_POLICY,
    "proxy/policy.py:ProxyPolicy.on_mh_crashed": PROXY_POLICY,
    "proxy/policy.py:ProxyPolicy.proxy_of": PROXY_POLICY,
    "proxy/policy.py:ProxyPolicy.wire": PROXY_POLICY,
    "recovery/clients.py:MutexCheckpointClient.__init__": RECOVERY_CLIENT,
    "recovery/clients.py:MutexCheckpointClient.capture": RECOVERY_CLIENT,
    "recovery/clients.py:MutexCheckpointClient.note_completed": (
        RECOVERY_CLIENT),
    "recovery/clients.py:MutexCheckpointClient.note_requested": (
        RECOVERY_CLIENT),
    "recovery/clients.py:MutexCheckpointClient.on_crash": RECOVERY_CLIENT,
    "recovery/clients.py:MutexCheckpointClient.restore": RECOVERY_CLIENT,
    "recovery/clients.py:RecoveryClient.capture": RECOVERY_CLIENT,
    "recovery/clients.py:RecoveryClient.on_crash": RECOVERY_CLIENT,
    "recovery/clients.py:RecoveryClient.restore": RECOVERY_CLIENT,
    "recovery/manager.py:RecoveryManager._restart_from_nothing": (
        "product path: a restore with no surviving checkpoint "
        "(`--recovery none`, or the checkpoint's station crashed); "
        "no spec makes one (ROADMAP item 2 column MH crash)"),
    "recovery/manager.py:RecoveryManager.store": INSPECTION,
    "recovery/manager.py:_meta_seq": (
        "product path: picks the freshest checkpoint meta when an MH "
        "crash raced a handoff and several stations hold one (ROADMAP "
        "item 2 column MH crash)"),
    "recovery/policy.py:CheckpointPolicy.on_progress": (
        "public API: `--recovery none` takes the no-op default "
        "(docs/cli.md)"),
    "scale/store.py:PopulationStore._check_cells": (
        "public API: an explicit placement list under the population "
        "store (docs/scaling.md); the product runs place periodically"),
    "scale/store.py:PopulationStore._copy_cells": (
        "public API: an explicit placement list under the population "
        "store (docs/scaling.md); the product runs place periodically"),
    "scale/store.py:PopulationStore._enforce_cap": STORE_DEMOTION,
    "scale/store.py:PopulationStore._put": STORE_DEMOTION,
    "scale/store.py:PopulationStore._widen": STORE_DEMOTION,
    "scale/store.py:PopulationStore.demotable": STORE_DEMOTION,
    "scale/store.py:PopulationStore.demote": STORE_DEMOTION,
    "scale/store.py:PopulationStore.all_ids": (
        "public API: every id of a population (docs/scaling.md)"),
    "scale/store.py:PopulationStore.covers": (
        "public API: Network.mh_ids under the population store "
        "(docs/scaling.md all_ids)"),
    "scale/store.py:PopulationStore.is_crashed": (
        "product path: Network.is_mh_crashed of a passive host; no "
        "population run crashes an MH (ROADMAP item 2 column MH crash)"),
    "scale/store.py:PopulationStore.occupancy": (
        "public API: per-cell occupancy (docs/scaling.md)"),
    "scale/store.py:PopulationStore.passive_connected": INSPECTION,
    "scale/store.py:PopulationStore.passive_disconnected": INSPECTION,
    "scale/store.py:PopulationStore.passive_local": (
        "public API: MobileSupportStation.is_local of a passive host, "
        "asked by a group, multicast or proxy protocol on a "
        "population-store run (docs/system-model.md); `repro scale` "
        "wires L2 only"),
    "scale/stream.py:FixedHistogram.as_dict": INSPECTION,
    "scale/stream.py:FixedHistogram.total": INSPECTION,
    "scenario/loader.py:_Check.fail": (
        "public API: the located error of a malformed spec "
        "(docs/scenarios.md's error table)"),
    "scenario/registry.py:ScenarioRegistry.__contains__": INSPECTION,
    "scenario/registry.py:ScenarioRegistry.__len__": INSPECTION,
    "scenario/registry.py:ScenarioRegistry.tags": INSPECTION,
    "scenario/runner.py:_Run._event_request": (
        "public API: the `request` scenario event (docs/scenarios.md); "
        "no builtin spec schedules one"),
    "scenario/runner.py:certify": (
        "public API: certify a spec over seeds "
        "(docs/observability.md); `repro scenarios` runs the seeds "
        "itself"),
    "scenario/spec.py:ScenarioSpec.to_dict": (
        "debug helper: ScenarioSpec's value contract, the inverse of "
        "the loader (tests/test_scenario_platform.py)"),
    "sim/process.py:PoissonProcess.rate": INSPECTION,
    "sim/scheduler.py:Event.__repr__": "debug helper: repr",
    "trace/events.py:Tracer.by_type": (
        "public API: kept events by type (docs/observability.md)"),
    "trace/events.py:Tracer.clear": (
        "public API: drop kept events (docs/observability.md)"),
    "trace/export.py:_jsonable": TRACE_EXPORT,
    "trace/export.py:event_to_dict": TRACE_EXPORT,
    "trace/export.py:to_chrome": TRACE_EXPORT,
    "trace/export.py:to_chrome.tid_of": TRACE_EXPORT,
    "trace/export.py:to_jsonl": TRACE_EXPORT,
    "trace/null.py:NullTracer.clear": (
        "public API: Tracer.clear on the no-op tracer "
        "(docs/observability.md)"),
    "trace/null.py:_null_append": (
        "reference path: the emitter NullTracer hands out; every site "
        "tests the trace flag before it would call one"),
    "trace/walkthroughs.py:write_all": (
        "public API: tools/gen_walkthroughs.py's write mode; this "
        "check runs its --check mode"),
    "workload/generators.py:MutexWorkload.request_now": (
        "public API: the `request` scenario event (docs/scenarios.md); "
        "no builtin spec schedules one"),
    "workload/generators.py:_Traffic.set_rate": (
        "public API: the `set_rate` scenario event on message traffic "
        "(docs/scenarios.md); the builtin specs change mutex rates"),
}


# ----------------------------------------------------------------------
# What is defined, what is entered, what is missing
# ----------------------------------------------------------------------

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def definitions(trees: dict) -> dict:
    """``{(path, first line): "path:qualname"}`` of every function in
    ``trees`` (``{path: module tree}``); a decorated function's first
    line is its first decorator's."""
    found = {}
    for path, tree in trees.items():
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, DEFINITIONS):
                    qualname = prefix + child.name
                    if isinstance(child, FUNCTIONS):
                        line = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        found[(path, line)] = f"{path}:{qualname}"
                    stack.append((child, qualname + "."))
                else:
                    stack.append((child, prefix))
    return found


def unreached(defined: dict, entered: set) -> list:
    """The ``path:qualname`` of every definition whose
    ``(path, first line)`` is not in ``entered``."""
    return sorted({name for key, name in defined.items()
                   if key not in entered})


def check(missing: list, allowed: dict) -> list:
    """One line per problem: an unreached function that ``allowed``
    does not name, an entry of ``allowed`` that names no unreached
    function, an entry whose reason starts with none of :data:`KINDS`,
    and a product path that names no ROADMAP item 2 cell."""
    return (
        [f"unreached with no reason: {name}"
         for name in missing if name not in allowed]
        + [f"stale allow-list entry: {entry}"
           for entry in sorted(set(allowed) - set(missing))]
        + [f"reason without a kind {KINDS}: {entry}"
           for entry, reason in sorted(allowed.items())
           if not reason.startswith(KINDS)]
        + [f"product path without its ROADMAP item 2 cell: {entry}"
           for entry, reason in sorted(allowed.items())
           if reason.startswith("product path:")
           and "ROADMAP item 2" not in reason])


def parse(root: str) -> dict:
    """``{path relative to root: tree}`` of every module under
    ``root``."""
    trees = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    trees[os.path.relpath(path, root).replace(os.sep, "/")] = (
                        ast.parse(handle.read(), filename=path))
    return trees


def entered_keys(codes: set, root: str) -> set:
    """``(path under root, first line)`` of every code object in
    ``codes`` that was compiled from a file under ``root``."""
    prefix = os.path.join(os.path.realpath(root), "")
    keys = set()
    for code in codes:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            keys.add((os.path.relpath(filename, root).replace(os.sep, "/"),
                      code.co_firstlineno))
    return keys


# ----------------------------------------------------------------------
# The product surface
# ----------------------------------------------------------------------

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def doc_commands(doc: str) -> list:
    """The argument vectors of the ``python -m repro`` lines in the
    fenced blocks of ``doc``; a leading ``$`` prompt is dropped, and a
    synopsis line with a ``<placeholder>`` is no example."""
    with open(os.path.join(REPO, doc), encoding="utf-8") as handle:
        text = handle.read()
    found = []
    for lang, block in _FENCE.findall(text):
        if lang == "python":
            continue
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip().removeprefix("$ ")
            if line.startswith("python -m repro ") and "<" not in line:
                found.append(shlex.split(line)[3:])
    return found


def run_cli_examples() -> None:
    from repro.cli import main
    for argv in doc_commands(os.path.join("docs", "cli.md")):
        main(argv, emit=_discard)


def run_builtin_specs() -> None:
    from repro.scenario import builtin_registry, run_scenario
    for spec in builtin_registry().specs():
        run_scenario(spec)


def run_examples() -> None:
    folder = os.path.join(REPO, "examples")
    for filename in sorted(os.listdir(folder)):
        if filename.endswith(".py"):
            runpy.run_path(os.path.join(folder, filename),
                           run_name="__main__")


def run_paper_claims() -> None:
    import pytest
    code = pytest.main([os.path.join(REPO, "benchmarks"),
                        "--benchmark-disable", "-q", "-p",
                        "no:cacheprovider"])
    if code != 0:
        raise RuntimeError(f"pytest benchmarks exited {code}")


def run_tools() -> None:
    walkthroughs = _load(os.path.join(REPO, "tools", "gen_walkthroughs.py"),
                         "gen_walkthroughs")
    if walkthroughs.main(["--check"]) != 0:
        raise RuntimeError("docs/walkthroughs are stale")
    scaling = _load(os.path.join(REPO, "tools", "run_scaling_examples.py"),
                    "run_scaling_examples")
    if scaling.main() != 0:
        raise RuntimeError("docs/scaling.md examples failed")


def run_bench_workloads() -> None:
    workloads = _load(os.path.join(REPO, "bench", "workloads.py"),
                      "workloads")
    for cls in workloads.WORKLOADS.values():
        workload = cls(7, tiny=True)
        workload.build()
        for step in workload.steps():
            step()
        workload.outcome()


def run_telemetry_scrape() -> None:
    from repro import Simulation
    from repro.obs.service import TelemetryServer
    from repro.workload import build
    sim = Simulation(n_mss=4, n_mh=12, seed=7, monitors=True)
    build(sim, {"kind": "mutex", "algorithm": "L2", "cs_duration": 0.3,
                "request_rate": 0.05}, 7, {"kind": "uniform", "rate": 0.02})
    with TelemetryServer(sim) as server:
        sim.run(until=100.0)
        for route in ("/metrics", "/health", "/invariants"):
            with urllib.request.urlopen(server.url + route,
                                        timeout=10) as response:
                response.read()


#: name -> one slice of the product surface.
SURFACE = {
    "docs/cli.md examples": run_cli_examples,
    "builtin scenario specs": run_builtin_specs,
    "examples/*.py": run_examples,
    "paper claims (benchmarks/)": run_paper_claims,
    "tools": run_tools,
    "bench workloads (tiny)": run_bench_workloads,
    "telemetry scrape": run_telemetry_scrape,
}


def _discard(line: str) -> None:
    pass


def entered(runs: dict, quiet: bool = False) -> set:
    """The code objects that the callables of ``runs`` (name ->
    callable) enter, in this thread and in the threads they start.
    With ``quiet``, what a run prints is dropped and its wall time is
    logged to stderr instead."""
    codes = set()
    add = codes.add

    def profile(frame, event, arg):
        add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for name, run in runs.items():
            if not quiet:
                run()
                continue
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run()
            print(f"[reach] {name}: {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return codes


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    defined = definitions(parse(REPRO))
    missing = unreached(defined,
                        entered_keys(entered(SURFACE, quiet=True), REPRO))
    problems = check(missing, ALLOWED)
    for line in problems:
        print(line)
    print(f"{len(defined)} functions in src/repro; {len(missing)} "
          f"unreached, each allowed with a reason"
          if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
