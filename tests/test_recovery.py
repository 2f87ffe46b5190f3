"""The ``repro.recovery`` subsystem: policies, the checkpoint store,
trail-walking restores, and the crash-recovery invariant monitors.

The headline property under test is Khatri-style distance-based
checkpointing: the trail a recovery fetch walks can never exceed the
policy's distance bound, so the restore cost depends on how far the
host moved since its last checkpoint -- never on how long the run is.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan, MhCrash, MssCrash, Simulation
from repro.errors import ConfigurationError
from repro.monitor import (
    CrashRecoveryMonitor,
    TokenConservationMonitor,
    replay_events,
)
from repro.net import ConstantLatency, NetworkConfig
from repro.recovery import (
    CheckpointPolicy,
    CounterClient,
    DistancePolicy,
    MutexCheckpointClient,
    NoCheckpointPolicy,
    PerMessagePolicy,
    PeriodicPolicy,
    policy_from_spec,
)
from repro.trace.events import TraceEvent


def make_sim(recovery, plan=None, n_mss=4, n_mh=2, seed=1):
    config = NetworkConfig(
        fixed_latency=ConstantLatency(1.0),
        wireless_latency=ConstantLatency(0.5),
    )
    return Simulation(
        n_mss=n_mss, n_mh=n_mh, seed=seed, config=config,
        fault_plan=plan, recovery=recovery,
    )


class TestPolicySpec:
    def test_instances_pass_through(self):
        policy = DistancePolicy(3)
        assert policy_from_spec(policy) is policy

    def test_parses_every_spec_form(self):
        assert isinstance(policy_from_spec("none"), NoCheckpointPolicy)
        assert isinstance(
            policy_from_spec("per-message"), PerMessagePolicy
        )
        periodic = policy_from_spec("periodic:7.5")
        assert isinstance(periodic, PeriodicPolicy)
        assert periodic.interval == 7.5
        distance = policy_from_spec("distance:4")
        assert isinstance(distance, DistancePolicy)
        assert distance.distance == 4

    @pytest.mark.parametrize("spec", [
        "distance:x", "distance:", "periodic:abc", "periodic:",
        "bogus", "per-message:3", "none:1", 42,
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            policy_from_spec(spec)

    def test_policy_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            DistancePolicy(0)
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(0.0)


class TestPolicies:
    def test_per_message_checkpoints_every_unit(self):
        sim = make_sim("per-message")
        counter = CounterClient(sim.recovery)
        for _ in range(3):
            counter.note_work("mh-0")
        sim.drain()
        assert sim.recovery.checkpoints_taken == 3
        assert sim.recovery.seq_of("mh-0") == 3

    def test_periodic_coalesces_a_burst_into_one_save(self):
        sim = make_sim("periodic:10.0")
        counter = CounterClient(sim.recovery)
        for _ in range(5):
            counter.note_work("mh-0")
        sim.drain()
        assert sim.recovery.checkpoints_taken == 1
        assert counter.work["mh-0"] == 5

    def test_distance_checkpoints_first_progress_then_on_dth_move(self):
        sim = make_sim("distance:2")
        counter = CounterClient(sim.recovery)
        counter.note_work("mh-0")
        sim.drain()
        # The first unit is protected immediately: before it there is
        # nothing to trail back to.
        assert sim.recovery.checkpoints_taken == 1
        counter.note_work("mh-0")
        sim.mh(0).move_to("mss-1")
        sim.drain()
        assert sim.recovery.checkpoints_taken == 1  # 1 move < distance 2
        sim.mh(0).move_to("mss-2")
        sim.drain()
        # The second move hit the bound: a fresh checkpoint was homed
        # at the current cell and the trail restarted.
        assert sim.recovery.checkpoints_taken == 2
        meta = sim.recovery.store("mss-2").meta("mh-0")
        assert meta.home_mss_id == "mss-2"
        assert meta.trail == ()


class TestTrailMechanics:
    def test_payload_stays_home_while_the_meta_walks(self):
        sim = make_sim("distance:10")
        counter = CounterClient(sim.recovery)
        counter.note_work("mh-0")
        sim.drain()
        home = sim.mh(0).current_mss_id
        assert home == "mss-0"
        sim.mh(0).move_to("mss-1")
        sim.drain()
        sim.mh(0).move_to("mss-2")
        sim.drain()
        meta = sim.recovery.store("mss-2").meta("mh-0")
        assert meta.home_mss_id == "mss-0"
        assert meta.trail == ("mss-1", "mss-0")
        # The payload never moved; only the pointer did.
        assert sim.recovery.store("mss-0").payload("mh-0") is not None
        assert sim.recovery.store("mss-1").payload("mh-0") is None
        assert sim.recovery.store("mss-2").payload("mh-0") is None
        assert sim.recovery.store("mss-1").meta("mh-0") is None


class TestRestore:
    def test_crash_and_recover_restores_checkpointed_work(self):
        plan = FaultPlan(
            mh_crashes=(MhCrash("mh-0", at=10.0, recover_at=20.0),),
            seed=1,
        )
        sim = make_sim("per-message", plan)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        sim.scheduler.schedule_at(2.0, counter.note_work, "mh-0")
        sim.drain()
        assert counter.work["mh-0"] == 2
        assert counter.lost["mh-0"] == 0
        assert [(m, seq) for (_, m, seq) in sim.recovery.restored] == \
            [("mh-0", 2)]
        assert sim.metrics.fault_total("recovery.restored") == 1

    def test_work_after_the_last_checkpoint_is_recomputation(self):
        # distance:999 never re-checkpoints, so only the first unit is
        # protected; the other two are the recomputation cost.
        plan = FaultPlan(
            mh_crashes=(MhCrash("mh-0", at=10.0, recover_at=20.0),),
            seed=1,
        )
        sim = make_sim("distance:999", plan)
        counter = CounterClient(sim.recovery)
        for t in (1.0, 2.0, 3.0):
            sim.scheduler.schedule_at(t, counter.note_work, "mh-0")
        sim.drain()
        assert counter.work["mh-0"] == 1
        assert counter.lost["mh-0"] == 2

    def test_restart_from_nothing_without_any_checkpoint(self):
        plan = FaultPlan(
            mh_crashes=(MhCrash("mh-0", at=5.0, recover_at=12.0),),
            seed=1,
        )
        sim = make_sim("none", plan)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        sim.drain()
        assert sim.metrics.fault_total("recovery.no_checkpoint") == 1
        assert [(m, seq) for (_, m, seq) in sim.recovery.restored] == \
            [("mh-0", -1)]
        assert counter.work["mh-0"] == 0
        assert counter.lost["mh-0"] == 1

    def test_checkpoint_lost_when_the_home_station_dies(self):
        plan = FaultPlan(
            crashes=(MssCrash("mss-0", at=8.0),),
            mh_crashes=(MhCrash("mh-0", at=10.0, recover_at=20.0),),
            seed=1,
        )
        sim = make_sim("distance:999", plan)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        sim.scheduler.schedule_at(3.0, sim.mh(0).move_to, "mss-1")
        sim.drain()
        # The checkpoint was homed at mss-0, which is permanently dark
        # when the recovered host comes asking: explicit loss, restart.
        assert sim.metrics.fault_total("recovery.checkpoint_lost") == 1
        assert [(m, seq) for (_, m, seq) in sim.recovery.restored] == \
            [("mh-0", -1)]

    def test_restore_re_homes_the_payload_at_the_requester(self):
        plan = FaultPlan(
            mh_crashes=(
                MhCrash("mh-0", at=16.0, recover_at=26.0),
                MhCrash("mh-0", at=36.0, recover_at=46.0),
            ),
            seed=1,
        )
        sim = make_sim("distance:999", plan)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        sim.scheduler.schedule_at(3.0, sim.mh(0).move_to, "mss-1")
        sim.scheduler.schedule_at(9.0, sim.mh(0).move_to, "mss-2")
        sim.run(until=32.0)
        # First recovery: the fetch walked the trail to mss-0 and the
        # payload was re-homed where the host now lives.
        assert len(sim.recovery.restored) == 1
        assert sim.recovery.store("mss-2").payload("mh-0") is not None
        assert sim.recovery.store("mss-0").payload("mh-0") is None
        cost_first = sim.cost("recovery.restore")
        sim.drain()
        # Second crash without further moves: the fetch is purely local
        # (zero fixed hops), only the wireless restore downlink is paid.
        assert len(sim.recovery.restored) == 2
        second = sim.cost("recovery.restore") - cost_first
        assert 0 < second < cost_first
        assert counter.work["mh-0"] == 1

    def test_amnesiac_crash_still_restores(self):
        # Amnesia wipes the host's own memory, not the fixed network's:
        # the flagged cell vouches, the meta rides the handoff, and the
        # restore proceeds as usual.
        plan = FaultPlan(
            mh_crashes=(
                MhCrash("mh-0", at=10.0, recover_at=20.0, amnesia=True),
            ),
            seed=1,
        )
        sim = make_sim("per-message", plan)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        sim.drain()
        assert counter.work["mh-0"] == 1
        assert [(m, seq) for (_, m, seq) in sim.recovery.restored] == \
            [("mh-0", 1)]


class TestClients:
    def test_mutex_client_resubmits_an_unserved_request(self):
        plan = FaultPlan(
            mh_crashes=(MhCrash("mh-0", at=5.0, recover_at=15.0),),
            seed=1,
        )
        sim = make_sim("per-message", plan)
        resubmitted = []
        client = MutexCheckpointClient(sim.recovery, resubmitted.append)
        sim.scheduler.schedule_at(1.0, client.note_requested, "mh-0")
        sim.drain()
        # The crash hit between request and grant; the restore found
        # the outstanding claim in the checkpoint and resubmitted it.
        assert resubmitted == ["mh-0"]
        assert client.resubmitted == ["mh-0"]
        assert "mh-0" in client.outstanding

    def test_completed_requests_are_not_resubmitted(self):
        plan = FaultPlan(
            mh_crashes=(MhCrash("mh-0", at=5.0, recover_at=15.0),),
            seed=1,
        )
        sim = make_sim("per-message", plan)
        resubmitted = []
        client = MutexCheckpointClient(sim.recovery, resubmitted.append)
        sim.scheduler.schedule_at(1.0, client.note_requested, "mh-0")
        sim.scheduler.schedule_at(2.0, client.note_completed, "mh-0")
        sim.scheduler.schedule_at(3.0, client.note_requested, "mh-0")
        sim.scheduler.schedule_at(3.5, client.note_completed, "mh-0")
        sim.drain()
        # The *latest* checkpoint (seq 4) captured no outstanding
        # request, so recovery resubmits nothing.
        assert resubmitted == []

    def test_duplicate_client_names_are_rejected(self):
        sim = make_sim("none")
        CounterClient(sim.recovery)
        with pytest.raises(ConfigurationError):
            CounterClient(sim.recovery)


class TestRunLengthIndependence:
    """The PR-6 property (the history table in docs/performance.md) as
    a unit test: under distance-based checkpointing the restore cost is
    a function of the distance bound, not of how long the host has been
    running and moving."""

    @staticmethod
    def _restore_cost(policy: str, n_moves: int) -> float:
        # Moves are spaced so the migrating meta catches up with the
        # host while it is connected; the crash lands after the last
        # meta arrival, the recovery after the crash window.
        plan = FaultPlan(
            mh_crashes=(
                MhCrash("mh-0", at=10.0 + 6.0 * n_moves,
                        recover_at=20.0 + 6.0 * n_moves),
            ),
            seed=1,
        )
        sim = make_sim(policy, plan, n_mss=4)
        counter = CounterClient(sim.recovery)
        sim.scheduler.schedule_at(1.0, counter.note_work, "mh-0")
        for i in range(n_moves):
            sim.scheduler.schedule_at(
                3.0 + 6.0 * i, sim.mh(0).move_to, f"mss-{(i + 1) % 4}"
            )
        sim.drain()
        assert len(sim.recovery.restored) == 1
        assert sim.recovery.restored[0][2] > 0  # a real restore
        return sim.cost("recovery.restore")

    def test_distance_bound_makes_cost_independent_of_run_length(self):
        # 5 vs 25 moves: same residue against the distance bound, so
        # the trail at crash time -- and with it the whole restore
        # bill -- is identical no matter how long the host wandered.
        short = self._restore_cost("distance:2", 5)
        long = self._restore_cost("distance:2", 25)
        assert short == long > 0

    def test_without_the_bound_cost_grows_with_the_run(self):
        short = self._restore_cost("distance:999", 5)
        long = self._restore_cost("distance:999", 25)
        assert long > short > 0


# ---------------------------------------------------------------------
# The crash-recovery monitors, driven by synthetic event streams
# ---------------------------------------------------------------------

_IDS = iter(range(1, 10_000)).__next__


def ev(time, etype, scope="S", src=None, dst=None, **detail):
    return TraceEvent(
        id=_IDS(), parent_id=None, time=time, etype=etype,
        scope=scope, category=None, src=src, dst=dst, kind=None,
        detail=detail,
    )


def violated(monitor, events):
    hub = replay_events(events, [monitor])
    return {v.invariant for v in hub.violations}


class TestCrashRecoveryMonitor:
    def test_ghost_entry_is_flagged(self):
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "fault.mh_crash", src="mh-0"),
            ev(2.0, "cs.enter", src="mh-0"),
        ]) >= {"recovery.ghost_entry"}

    def test_unaborted_exit_after_crash_is_flagged(self):
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "cs.enter", src="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(3.0, "cs.exit", src="mh-0"),
        ]) == {"recovery.unaborted_exit"}

    def test_aborted_exit_after_crash_is_the_legal_path(self):
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "cs.enter", src="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(2.0, "cs.exit", src="mh-0", aborted=True,
               reason="mh.crash"),
        ]) == set()

    def test_lingering_occupancy_is_flagged_at_finalize(self):
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "cs.enter", src="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
        ]) == {"recovery.unaborted_occupancy"}

    def test_recovered_host_may_enter_again(self):
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "fault.mh_crash", src="mh-0"),
            ev(2.0, "fault.mh_recover", src="mh-0"),
            ev(3.0, "cs.enter", src="mh-0"),
            ev(4.0, "cs.exit", src="mh-0"),
        ]) == set()

    def test_scopes_are_independent(self):
        # An occupancy in one scope is not confused with another's.
        assert violated(CrashRecoveryMonitor(), [
            ev(1.0, "cs.enter", scope="A", src="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(2.0, "cs.exit", scope="A", src="mh-0", aborted=True),
            ev(3.0, "fault.mh_recover", src="mh-0"),
            ev(4.0, "cs.enter", scope="B", src="mh-0"),
            ev(5.0, "cs.exit", scope="B", src="mh-0"),
        ]) == set()


class TestTokenConservationMonitor:
    def test_token_lost_to_a_crashed_holder(self):
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
        ]) == {"recovery.token_lost"}

    def test_reissue_is_proof_of_life(self):
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(3.0, "r2.token_reissued", src="mss-0"),
        ]) == set()

    def test_regeneration_is_proof_of_life(self):
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(3.0, "r2.regenerate", src="mss-1"),
        ]) == set()

    def test_completed_grant_retires_the_risk(self):
        # The holder finished its access before dying: the token was
        # back with the grantor, nothing was lost.
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "cs.exit", src="mh-0"),
            ev(3.0, "fault.mh_crash", src="mh-0"),
        ]) == set()

    def test_aborted_exit_does_not_retire_the_grant(self):
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(2.0, "cs.exit", src="mh-0", aborted=True),
        ]) == {"recovery.token_lost"}

    def test_fresh_grant_in_the_scope_is_proof_of_life(self):
        assert violated(TokenConservationMonitor(), [
            ev(1.0, "token.grant", src="mss-0", dst="mh-0"),
            ev(2.0, "fault.mh_crash", src="mh-0"),
            ev(3.0, "token.grant", src="mss-0", dst="mh-1"),
        ]) == set()


class TestHandoffCrashRace:
    """A MSS crash racing the MH's handoff must leave exactly one live
    copy of the checkpoint meta somewhere -- never zero (lost pointer)
    and never two (a stale shelf a later fetch could resurrect).

    Timeline with these latencies (fixed 1.0, wireless 0.5, transit
    2.0): move at 3.0 -> join reaches the target at 5.5 -> the handoff
    request reaches the origin at 6.5 (meta popped) -> the reply lands
    back at the target at 7.5 (meta installed).
    """

    def _race(self, *crashes, n_mh=1):
        plan = FaultPlan(
            crashes=tuple(crashes),
            mh_crashes=(MhCrash("mh-0", at=30.0, recover_at=36.0),),
            seed=1,
        )
        sim = make_sim("per-message", plan=plan, n_mh=n_mh)
        counter = CounterClient(sim.recovery)
        counter.note_work("mh-0")
        sim.scheduler.schedule_at(3.0, sim.mh(0).move_to, "mss-1")
        sim.run(until=60.0)
        sim.drain()
        metas = [
            m for m in sim.network.mss_ids()
            if sim.recovery.store(m).meta("mh-0") is not None
        ]
        payloads = [
            m for m in sim.network.mss_ids()
            if sim.recovery.store(m).payload("mh-0") is not None
        ]
        return sim, counter, metas, payloads

    def _assert_one_copy_and_restored(self, sim, counter, metas, payloads):
        assert len(metas) == 1, f"meta copies at {metas}"
        assert len(payloads) == 1, f"payload copies at {payloads}"
        # The crash at 30.0 wiped the live counter; the recovery at
        # 36.0 must find the pointer and reinstate the checkpoint.
        assert [(m, s) for _, m, s in sim.recovery.restored] == [("mh-0", 1)]
        assert counter.work["mh-0"] == 1
        assert counter.lost["mh-0"] == 0

    def test_origin_dark_before_the_request_arrives(self):
        # mss-0 is down 6.0..12.0: the handoff request vanishes at the
        # crashed station; the reliable layer retransmits it until the
        # origin returns, so the meta migrates late but exactly once.
        sim, counter, metas, payloads = self._race(
            MssCrash("mss-0", at=6.0, recover_at=12.0)
        )
        self._assert_one_copy_and_restored(sim, counter, metas, payloads)
        assert metas == ["mss-1"]
        assert payloads == ["mss-1"]  # re-homed by the fetch at 36.0

    def test_origin_dies_with_the_reply_in_flight(self):
        # The origin popped the meta at 6.5 and crashed at 7.0 while
        # the reply travelled: the reply still lands (the wire already
        # carried it), and the origin's later retransmit is a suppressed
        # duplicate, not a second copy.
        sim, counter, metas, payloads = self._race(
            MssCrash("mss-0", at=7.0, recover_at=12.0)
        )
        self._assert_one_copy_and_restored(sim, counter, metas, payloads)
        assert metas == ["mss-1"]

    def test_target_dark_when_the_reply_arrives(self):
        # mss-1 crashes at 7.0 with the reply in flight: the reply is
        # dropped at the dark station and the MH is orphaned into some
        # other cell.  The retransmitted reply eventually lands at the
        # recovered mss-1 -- a station the host abandoned -- and the
        # manager must chase the host with it rather than strand it.
        sim, counter, metas, payloads = self._race(
            MssCrash("mss-1", at=7.0, recover_at=14.0)
        )
        self._assert_one_copy_and_restored(sim, counter, metas, payloads)
        # The single surviving copy sits wherever the host rejoined,
        # not at the abandoned target.
        mh = sim.network.mobile_host("mh-0")
        assert metas == [mh.current_mss_id]
        assert sim.metrics.fault_total("recovery.meta_forwarded") >= 1

    def test_no_crash_control_case(self):
        sim, counter, metas, payloads = self._race()
        self._assert_one_copy_and_restored(sim, counter, metas, payloads)
        assert metas == ["mss-1"]


class TestRecoveryBench:
    """The measured policy benchmark behind `repro compare
    --experiment recovery` (acceptance: distance-based recovery cost is
    independent of run length; eager checkpointing pays per unit)."""

    def test_table_shape_and_headline_claims(self):
        from repro.recovery import run_length_table

        rows = run_length_table()
        by = {(r.policy, r.n_moves): r for r in rows}
        assert len(by) == 6
        # Everyone really recovered from a checkpoint, not from nothing.
        assert all(r.restored_seq > 0 for r in rows)
        # Eager checkpointing: overhead grows with the run...
        assert (by[("per-message", 25)].ckpt_cost
                > 3 * by[("per-message", 5)].ckpt_cost)
        # ...but nothing is ever lost.
        assert by[("per-message", 25)].work_lost == 0
        # Distance-bounded: the restore bill is identical for runs
        # congruent modulo the bound, however much longer one wandered.
        assert (by[("distance:2", 5)].restore_cost
                == by[("distance:2", 25)].restore_cost > 0)
        # And strictly cheaper overhead than eager checkpointing.
        assert (by[("distance:2", 25)].ckpt_cost
                < by[("per-message", 25)].ckpt_cost)

    def test_compare_cli_reports_the_recovery_experiment(self):
        from repro.cli import main

        lines = []
        code = main(
            ["compare", "--experiment", "recovery"], emit=lines.append
        )
        out = "\n".join(lines)
        assert code == 0
        assert "distance-bounded restore cost independent" in out
        assert "OK" in out
