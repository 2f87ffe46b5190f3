"""Byte-identity of the engine: pinned chaos-pack report digests.

The scheduler's queue layout, the network's send frames and the mutex
queue bookkeeping are *performance* choices: they may not change a
single simulated step.  This file used to prove that by running the
certified pack with event pooling on and off; with the pools gone
(``docs/performance.md#what-one-message-costs``) there is no second
engine to compare against, so the oracle is a recording instead --
the full report (costs, message counts, faults, workload stats,
monitor verdicts, health snapshot) of every scenario in the pack at
seed 7, digested at the last commit that still had pools (PR 17,
``46ab2e2``).

If an engine change ever moves a simulated step, a digest here moves
and the test names the first scenario that diverged.  A change that
*means* to alter behaviour re-records the table and says so.  The
canonical trace scenarios' event streams are pinned byte for byte by
``tests/test_walkthroughs.py``.
"""

from __future__ import annotations

import hashlib
import inspect
import json

from repro.facade import Simulation
from repro.scenario import builtin_registry, run_scenario

#: scenario -> SHA-256 of its seed-7 report, recorded at the parent of
#: the PR that deleted ``repro.pool`` (see the module docstring).
PACK_DIGESTS_SEED_7 = {
    "adversarial_r2pp":
        "7b1734bb12a4b512a78fbc89bc1d443d"
        "5e0c8b55d2abb7ca6314789422199ee4",
    "airplane_long_disconnect":
        "c35c44dd29cef3890f72af166a4493c7"
        "bda59871683ac9cd8443183edfc6d20d",
    "crash_during_partition":
        "32f7b57271df05617922b6182c70eb92"
        "b3b8a1e2827268d89eccddec9799bd22",
    "diurnal_load":
        "6845dfdf46dce082547384dddce1baaa"
        "d5d3afee2dce160e30d7fb57f5463a73",
    "dup_delay_jitter":
        "ff1e2852d66f6f8a75b0421de3ffab9e"
        "812ef7932562f1ac4c889b284ee18d07",
    "flash_crowd":
        "a15435337c0444cfbf6e2e3c9947b2de"
        "4665d4c981e28a7f9eec276e85eb09ae",
    "handoff_racing_crash":
        "5738f8c6b996e4915c531c17ac0e8258"
        "ef3606f1036d470b12b3d698711206db",
    "kitchen_sink":
        "4f15a2e69dfe8cd39bbc269b43651e6c"
        "2c17d7459823110cabda56bc38dbcbaf",
    "localized_groups_churn":
        "74d36cb2b2cdb22e5c08528c3af0835a"
        "3792424b9076d8989a8d7b33208e7cbf",
    "lossy_ring":
        "1d8253d26688202a85fcd45b14b1dfbf"
        "45c15a52d37eccc99949f91ff012a27e",
    "mass_reconnect_storm":
        "5bd4d9eb8e6c522b1db97f00cf44a51e"
        "054b74415b957035352151b749051d76",
    "mh_amnesia_storm":
        "5aa379c374d07d17aebdc914425ab80c"
        "c9070b9c599fefd73b7a3926a67ad7e4",
    "mh_crash_wave":
        "841600f40f2a366c8033f942bafb1adb"
        "ebd7914aa01eca7942b17b7d0b5d3f9a",
    "mss_failure_storm":
        "a403c183e91d0b72d50cfae7e5854d87"
        "0b80b7ef7d7fe4dff2d95af38cc99ae1",
    "mss_rolling_outage":
        "259904b06a3eca67bd1aca5ec81d35a7"
        "600017024679d602baf20858a924cc53",
    "orphan_rejoin_churn":
        "70f36ca31143186f5c0c00de6cb038dc"
        "2e39f67186d71b45d36192137677f47c",
    "partition_during_handoff":
        "1f6bc2b4d7530a829ebaa2549122b999"
        "6094f3254b440bd1837fed02e496188c",
    "partition_flapping":
        "3e464def39af4a0cf1bcafc908f2ffaa"
        "a859a652646db5f0e79a1bbc7dbbe1c5",
    "partition_heal_storm":
        "6dd87eb4b8e13f2221157bbc8c697447"
        "30f599a945e001e345459578e696ed0e",
    "proxy_churn":
        "c1227100f04164a36d207ba35d2bc308"
        "c82845dd34df082fa3f48e522a5fad63",
    "quiet_baseline":
        "e9391bab4f47ab0ec2997c53967af8bc"
        "81123772a3625a091303484e4bff535e",
    "stadium_egress":
        "fa34dc29e4badd9a33ca2681b60f9f5b"
        "9b8e6cccded70ee667ceaeb84a7a7b68",
    "tunnel_mass_disconnect":
        "0233131b5bcabb949a5e18fa95442299"
        "be6cf5b1ad70811909c7586360c67206",
}


def _report_digest(spec, seed):
    report = dict(run_scenario(spec, seed=seed).report)
    report.pop("wall_time_s")  # the only nondeterministic field
    return hashlib.sha256(
        json.dumps(report, sort_keys=True, default=repr).encode()
    ).hexdigest()


def test_chaos_pack_reports_match_the_recorded_digests():
    registry = builtin_registry()
    names = sorted(registry.names())
    assert len(names) >= 20  # the pack floor; keep the sweep honest
    assert names == sorted(PACK_DIGESTS_SEED_7), (
        "the pack changed: record the new scenario's digest")
    diverged = next(
        (name for name in names
         if _report_digest(registry.get(name), 7)
         != PACK_DIGESTS_SEED_7[name]),
        None,
    )
    assert diverged is None, f"{diverged!r} diverged from its recording"


def test_simulation_has_no_performance_switch():
    """The tier-1 twin of ``bench/run.py``'s ``KNOBS`` guard: every
    engine alternative was measured and deleted, none may come back as
    a constructor argument."""
    knobs = {"scheduler", "pooling", "monitor_sampling", "monitor_mode"}
    assert not knobs & set(inspect.signature(Simulation).parameters)
