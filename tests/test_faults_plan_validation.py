"""FaultPlan validation hardening and serialization round-trips.

The plan is the declarative surface of the whole fault subsystem (CLI
``--fault-plan``, scenario specs), so malformed input must fail with an
error that names the offending entry, and every plan -- every fault
type, every knob -- must survive ``to_dict`` -> JSON -> ``from_dict``
unchanged.
"""

from __future__ import annotations

import json

import pytest

from repro import FaultPlan, LinkFault, MhCrash, MssCrash
from repro.errors import ConfigurationError
from repro.faults import Partition


def full_plan() -> FaultPlan:
    """One plan exercising every fault type and every scalar knob."""
    return FaultPlan(
        link_faults=(
            LinkFault(drop=0.1, duplicate=0.05, extra_delay=2.0,
                      src="mss-0", dst="mss-1", start=5.0, end=50.0),
            LinkFault(drop=0.2),
        ),
        partitions=(
            Partition(groups=(("mss-0", "mss-1"), ("mss-2",)),
                      start=10.0, end=30.0),
        ),
        crashes=(
            MssCrash("mss-1", at=20.0, recover_at=60.0),
            MssCrash("mss-2", at=25.0),
        ),
        mh_crashes=(
            MhCrash("mh-0", at=15.0, recover_at=40.0),
            MhCrash("mh-1", at=18.0, recover_at=44.0, amnesia=True),
            MhCrash("mh-2", at=70.0),
        ),
        seed=99,
        reliable=True,
        rejoin_delay=3.0,
        retransmit_timeout=2.0,
        retransmit_backoff=2.0,
        max_retransmits=7,
        retransmit_jitter=0.25,
        retransmit_max_delay=30.0,
    )


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


def test_full_round_trip_through_json():
    plan = full_plan()
    rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert rebuilt == plan


def test_round_trip_preserves_mh_crash_amnesia():
    plan = full_plan()
    rebuilt = FaultPlan.from_json(json.dumps(plan.to_dict()))
    amnesia = {c.mh_id: c.amnesia for c in rebuilt.mh_crashes}
    assert amnesia == {"mh-0": False, "mh-1": True, "mh-2": False}


def test_default_plan_round_trips():
    plan = FaultPlan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_from_dict_accepts_empty_object():
    assert FaultPlan.from_dict({}) == FaultPlan()


# ----------------------------------------------------------------------
# Unknown keys -- top level and nested, with the entry named
# ----------------------------------------------------------------------


def test_unknown_top_level_key():
    with pytest.raises(ConfigurationError, match="unknown fault plan"):
        FaultPlan.from_dict({"lnik_faults": []})


def test_unknown_key_in_link_fault_names_the_entry():
    with pytest.raises(ConfigurationError,
                       match=r"link_faults\[1\].*dorp"):
        FaultPlan.from_dict(
            {"link_faults": [{"drop": 0.1}, {"dorp": 0.2}]}
        )


def test_unknown_key_in_mss_crash_names_the_entry():
    with pytest.raises(ConfigurationError, match=r"crashes\[0\].*when"):
        FaultPlan.from_dict({"crashes": [{"mss_id": "mss-0", "when": 3}]})


def test_unknown_key_in_mh_crash_names_the_entry():
    with pytest.raises(ConfigurationError,
                       match=r"mh_crashes\[0\].*amnesiac"):
        FaultPlan.from_dict(
            {"mh_crashes": [{"mh_id": "mh-0", "at": 1.0,
                             "amnesiac": True}]}
        )


def test_unknown_key_in_partition_names_the_entry():
    with pytest.raises(ConfigurationError,
                       match=r"partitions\[0\].*sides"):
        FaultPlan.from_dict({"partitions": [{"sides": [["mss-0"]]}]})


def test_missing_required_field_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"crashes\[0\]"):
        FaultPlan.from_dict({"crashes": [{"at": 3.0}]})


@pytest.mark.parametrize("data, where", [
    ({"crashes": [{"mss_id": "mss-1", "at": float("nan")}]},
     r"crashes\[0\]: MssCrash\.at"),
    ({"mh_crashes": [{"mh_id": "mh-0", "at": 1.0,
                      "recover_at": float("inf")}]},
     r"mh_crashes\[0\]: MhCrash\.recover_at"),
    ({"link_faults": [{"extra_delay": float("inf")}]},
     r"link_faults\[0\]: LinkFault\.extra_delay"),
    ({"retransmit_timeout": float("nan")}, r"FaultPlan\.retransmit_timeout"),
])
def test_non_finite_numbers_are_rejected_with_their_path(data, where):
    with pytest.raises(ConfigurationError, match=where + " must be finite"):
        FaultPlan.from_dict(data)


def test_non_object_entry_is_a_configuration_error():
    with pytest.raises(ConfigurationError,
                       match=r"link_faults\[0\] must be an object"):
        FaultPlan.from_dict({"link_faults": ["drop"]})


def test_non_list_fault_list_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="must be a list"):
        FaultPlan.from_dict({"crashes": {"mss_id": "mss-0", "at": 1.0}})


def test_non_object_plan_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="JSON object"):
        FaultPlan.from_dict([1, 2, 3])


# ----------------------------------------------------------------------
# Malformed and inverted windows
# ----------------------------------------------------------------------


def test_inverted_link_fault_window():
    with pytest.raises(ConfigurationError, match="inverted"):
        FaultPlan.from_dict(
            {"link_faults": [{"drop": 0.1, "start": 10.0, "end": 5.0}]}
        )


def test_inverted_partition_window():
    with pytest.raises(ConfigurationError,
                       match=r"partitions\[0\].*inverted"):
        FaultPlan.from_dict(
            {"partitions": [{"groups": [["mss-0"], ["mss-1"]],
                             "start": 9.0, "end": 9.0}]}
        )


def test_inverted_mss_crash_window():
    with pytest.raises(ConfigurationError, match="inverted"):
        FaultPlan.from_dict(
            {"crashes": [{"mss_id": "mss-0", "at": 8.0,
                          "recover_at": 2.0}]}
        )


def test_inverted_mh_crash_window():
    with pytest.raises(ConfigurationError,
                       match=r"mh_crashes\[0\].*inverted"):
        FaultPlan.from_dict(
            {"mh_crashes": [{"mh_id": "mh-0", "at": 8.0,
                             "recover_at": 8.0}]}
        )


def test_non_numeric_window_is_a_clear_error():
    with pytest.raises(ConfigurationError, match="must be a number"):
        FaultPlan.from_dict(
            {"crashes": [{"mss_id": "mss-0", "at": "soon"}]}
        )


def test_non_numeric_link_fault_field():
    with pytest.raises(ConfigurationError, match="must be a number"):
        FaultPlan.from_dict({"link_faults": [{"extra_delay": "lots"}]})


def test_boolean_is_not_a_number():
    with pytest.raises(ConfigurationError, match="must be a number"):
        MssCrash("mss-0", at=True)


def test_non_boolean_amnesia_is_a_clear_error():
    with pytest.raises(ConfigurationError, match="amnesia"):
        FaultPlan.from_dict(
            {"mh_crashes": [{"mh_id": "mh-0", "at": 1.0,
                             "amnesia": "yes"}]}
        )


def test_negative_start_is_rejected():
    with pytest.raises(ConfigurationError, match="nonnegative"):
        LinkFault(drop=0.1, start=-1.0)


def test_partition_group_members_must_be_strings():
    with pytest.raises(ConfigurationError, match="id strings"):
        FaultPlan.from_dict({"partitions": [{"groups": [[0, 1]]}]})


# ----------------------------------------------------------------------
# The new retransmit knobs
# ----------------------------------------------------------------------


def test_retransmit_jitter_must_be_a_fraction():
    with pytest.raises(ConfigurationError, match="retransmit_jitter"):
        FaultPlan(retransmit_jitter=1.5)


def test_retransmit_max_delay_must_cover_the_timeout():
    with pytest.raises(ConfigurationError, match="retransmit_max_delay"):
        FaultPlan(retransmit_timeout=4.0, retransmit_max_delay=1.0)


def test_new_knobs_round_trip_from_json_text():
    plan = FaultPlan.from_json(
        '{"retransmit_jitter": 0.2, "retransmit_max_delay": 64.0}'
    )
    assert plan.retransmit_jitter == 0.2
    assert plan.retransmit_max_delay == 64.0
