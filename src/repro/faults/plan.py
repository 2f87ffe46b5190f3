"""Declarative fault plans.

A :class:`FaultPlan` is a pure-data description of every deviation from
the paper's Section 2 guarantees that a run should suffer: probabilistic
or scheduled message drop, duplication and extra delay on fixed-network
links, wired-link partitions, and MSS crash/recovery events.  Plans are
plain dataclasses so they can be built in code, round-tripped through
JSON (``--fault-plan`` on the CLI), and compared in tests.

The plan says *what* goes wrong; the :class:`~repro.faults.injector.
FaultInjector` executes it against a :class:`~repro.net.Network`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError


def _window_contains(start: float, end: Optional[float], now: float) -> bool:
    return now >= start and (end is None or now < end)


def _require_number(
    owner: str, name: str, value, allow_none: bool = False
) -> None:
    """Reject malformed (non-numeric or non-finite) fields with a clear
    error."""
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{owner}.{name} must be a number, got {value!r}"
        )
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{owner}.{name} must be finite, got {value}"
        )


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic impairment of fixed-network links.

    Applies to every directed MSS pair matching ``src``/``dst`` (``None``
    matches any host) during ``[start, end)`` (``end=None`` means
    forever).  Each matching transmission independently suffers:

    * loss with probability ``drop``,
    * duplication with probability ``duplicate`` (one extra copy,
      delivered out of FIFO order -- exactly the hazard a reliable
      channel must suppress),
    * a deterministic ``extra_delay`` added to its latency draw.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    extra_delay: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "extra_delay", "start"):
            _require_number("LinkFault", name, getattr(self, name))
        _require_number("LinkFault", "end", self.end, allow_none=True)
        for name in ("drop", "duplicate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"LinkFault.{name} must be a probability, got {value}"
                )
        if self.extra_delay < 0:
            raise ConfigurationError("extra_delay must be nonnegative")
        if self.start < 0:
            raise ConfigurationError("LinkFault.start must be nonnegative")
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"LinkFault window is inverted or empty: "
                f"start={self.start} end={self.end}"
            )

    def applies(self, src: str, dst: str, now: float) -> bool:
        """Whether this fault covers a ``src -> dst`` message at ``now``."""
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return _window_contains(self.start, self.end, now)


@dataclass(frozen=True)
class Partition:
    """A wired-network partition over a time window.

    ``groups`` are disjoint sets of MSS ids; while the partition is
    active, messages between members of *different* groups are dropped.
    MSSs not named in any group form one implicit extra group (they can
    still talk to each other, but to no named group).
    """

    groups: Tuple[Tuple[str, ...], ...]
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        _require_number("Partition", "start", self.start)
        _require_number("Partition", "end", self.end, allow_none=True)
        seen: set = set()
        for group in self.groups:
            for mss_id in group:
                if not isinstance(mss_id, str):
                    raise ConfigurationError(
                        f"Partition groups must contain MSS id strings, "
                        f"got {mss_id!r}"
                    )
                if mss_id in seen:
                    raise ConfigurationError(
                        f"{mss_id} appears in two partition groups"
                    )
                seen.add(mss_id)
        if self.start < 0:
            raise ConfigurationError("Partition.start must be nonnegative")
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"Partition window is inverted or empty: "
                f"start={self.start} end={self.end}"
            )

    def severs(self, src: str, dst: str, now: float) -> bool:
        """Whether the partition blocks ``src -> dst`` at ``now``."""
        if not _window_contains(self.start, self.end, now):
            return False
        side_of = {}
        for index, group in enumerate(self.groups):
            for mss_id in group:
                side_of[mss_id] = index
        return side_of.get(src, -1) != side_of.get(dst, -1)


@dataclass(frozen=True)
class MssCrash:
    """One MSS crash (and optional recovery) event.

    A crashed MSS loses all volatile cell state (its ``local_mhs`` and
    disconnected flags), silently discards every message addressed to
    it, and sends nothing.  Its local MHs are orphaned and rejoin the
    system through the reconnect protocol after ``FaultPlan.
    rejoin_delay``.  ``recover_at=None`` means the crash is permanent.
    """

    mss_id: str
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        _require_number("MssCrash", "at", self.at)
        _require_number("MssCrash", "recover_at", self.recover_at,
                        allow_none=True)
        if self.at < 0:
            raise ConfigurationError("crash time must be nonnegative")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigurationError(
                f"MssCrash window is inverted or empty: at={self.at} "
                f"recover_at={self.recover_at}"
            )


@dataclass(frozen=True)
class MhCrash:
    """One mobile-host crash (and optional recovery) event.

    A crashed MH loses all volatile protocol state, is silently detached
    from its cell (the cell marks it disconnected when the radio goes
    quiet), and neither sends nor receives until it recovers.  Recovery
    replays the Section 2 rejoin path: a non-amnesiac MH reconnects
    naming its old MSS (ordinary handoff pull); with ``amnesia=True``
    the MH forgets even *where* it was attached and rejoins with the
    broadcast ``find_disconnect`` query.  ``recover_at=None`` means the
    host never comes back.
    """

    mh_id: str
    at: float
    recover_at: Optional[float] = None
    amnesia: bool = False

    def __post_init__(self) -> None:
        _require_number("MhCrash", "at", self.at)
        _require_number("MhCrash", "recover_at", self.recover_at,
                        allow_none=True)
        if not isinstance(self.amnesia, bool):
            raise ConfigurationError(
                f"MhCrash.amnesia must be a boolean, got {self.amnesia!r}"
            )
        if self.at < 0:
            raise ConfigurationError("crash time must be nonnegative")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigurationError(
                f"MhCrash window is inverted or empty: at={self.at} "
                f"recover_at={self.recover_at}"
            )


def _check_no_overlap(events: Iterable, label: str, key: str) -> None:
    """Reject two crash windows for the same host that overlap in time."""
    windows: Dict[str, list] = {}
    for event in events:
        windows.setdefault(getattr(event, key), []).append(
            (event.at, event.recover_at)
        )
    for host_id, spans in windows.items():
        spans.sort(key=itemgetter(0))
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            if prev_end is None or start < prev_end:
                raise ConfigurationError(
                    f"overlapping {label} crash windows for {host_id}"
                )


def _entry_list(data: Dict[str, object], key: str) -> list:
    """The plan's ``key`` list, validated to actually be a list."""
    value = data.get(key, ())
    if isinstance(value, (str, bytes, dict)) or not hasattr(
        value, "__iter__"
    ):
        raise ConfigurationError(
            f"fault plan key {key!r} must be a list of objects, got "
            f"{type(value).__name__}"
        )
    return list(value)


def _build_entry(cls, entry, label: str, index: int):
    """Construct one nested fault dataclass with located errors."""
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"{label}[{index}] must be an object, got "
            f"{type(entry).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(entry) - known
    if unknown:
        raise ConfigurationError(
            f"{label}[{index}] has unknown keys {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    try:
        return cls(**entry)
    except TypeError as exc:
        raise ConfigurationError(f"{label}[{index}]: {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{label}[{index}]: {exc}") from None


def _build_partition(entry, index: int) -> Partition:
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"partitions[{index}] must be an object, got "
            f"{type(entry).__name__}"
        )
    unknown = set(entry) - {"groups", "start", "end"}
    if unknown:
        raise ConfigurationError(
            f"partitions[{index}] has unknown keys {sorted(unknown)}; "
            f"known keys: ['end', 'groups', 'start']"
        )
    groups = entry.get("groups", ())
    if isinstance(groups, (str, bytes)) or not hasattr(groups, "__iter__"):
        raise ConfigurationError(
            f"partitions[{index}].groups must be a list of lists"
        )
    try:
        return Partition(
            groups=tuple(tuple(group) for group in groups),
            start=entry.get("start", 0.0),
            end=entry.get("end"),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"partitions[{index}]: {exc}"
        ) from None


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, and the recovery knobs.

    Attributes:
        link_faults: probabilistic drop/duplicate/delay rules.
        partitions: scheduled wired-network partitions.
        crashes: MSS crash/recovery events.
        mh_crashes: mobile-host crash/recovery events.
        seed: seed of the injector's private RNG (fault decisions are
            reproducible independently of the simulation's own RNG use).
        reliable: install the reliable-delivery layer
            (:class:`~repro.net.reliable.ReliableTransport`) so that
            fixed-network FIFO-exactly-once is *recovered* on top of the
            lossy links.  Disable to study raw algorithm behaviour
            outside the paper's assumptions.
        rejoin_delay: how long an orphaned MH takes to notice its MSS
            died and reconnect elsewhere.
        retransmit_timeout: reliable channel's initial retransmit timer.
        retransmit_backoff: exponential backoff factor per retry.
        max_retransmits: retry cap before the channel gives a message up.
        retransmit_jitter: fraction of each retransmit delay randomized
            (``0.2`` spreads every timer uniformly over ±20%), drawn
            from an RNG derived from ``seed``.  Desynchronizes the
            retransmit storm after a partition heals; ``0.0`` (the
            default) keeps the channel byte-identical to earlier
            releases.
        retransmit_max_delay: cap on the exponential backoff delay, so
            long outages do not push retry timers out to minutes.
            ``None`` (the default) leaves the backoff uncapped.
    """

    link_faults: Tuple[LinkFault, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[MssCrash, ...] = ()
    mh_crashes: Tuple[MhCrash, ...] = ()
    seed: int = 0
    reliable: bool = True
    rejoin_delay: float = 5.0
    retransmit_timeout: float = 4.0
    retransmit_backoff: float = 1.5
    max_retransmits: int = 10
    retransmit_jitter: float = 0.0
    retransmit_max_delay: Optional[float] = None

    def __post_init__(self) -> None:
        _check_no_overlap(self.crashes, "MSS", "mss_id")
        _check_no_overlap(self.mh_crashes, "MH", "mh_id")
        for name in ("rejoin_delay", "retransmit_timeout",
                     "retransmit_backoff", "retransmit_jitter"):
            _require_number("FaultPlan", name, getattr(self, name))
        _require_number("FaultPlan", "retransmit_max_delay",
                        self.retransmit_max_delay, allow_none=True)
        if self.rejoin_delay <= 0:
            raise ConfigurationError("rejoin_delay must be positive")
        if self.retransmit_timeout <= 0:
            raise ConfigurationError("retransmit_timeout must be positive")
        if self.retransmit_backoff < 1.0:
            raise ConfigurationError("retransmit_backoff must be >= 1")
        if self.max_retransmits < 0:
            raise ConfigurationError("max_retransmits must be nonnegative")
        if not 0.0 <= self.retransmit_jitter < 1.0:
            raise ConfigurationError(
                "retransmit_jitter must be in [0, 1), got "
                f"{self.retransmit_jitter}"
            )
        if (self.retransmit_max_delay is not None
                and self.retransmit_max_delay < self.retransmit_timeout):
            raise ConfigurationError(
                "retransmit_max_delay cannot be below retransmit_timeout"
            )

    # ------------------------------------------------------------------
    # Serialization (CLI --fault-plan, experiment configs)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Build a plan from a plain dict (parsed JSON).

        Raises :class:`~repro.errors.ConfigurationError` naming the
        offending entry on unknown keys, malformed values, or inverted
        time windows -- anywhere in the plan, including inside the
        nested fault lists.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        link_faults = tuple(
            _build_entry(LinkFault, entry, "link_faults", i)
            for i, entry in enumerate(_entry_list(data, "link_faults"))
        )
        partitions = tuple(
            _build_partition(entry, i)
            for i, entry in enumerate(_entry_list(data, "partitions"))
        )
        crashes = tuple(
            _build_entry(MssCrash, entry, "crashes", i)
            for i, entry in enumerate(_entry_list(data, "crashes"))
        )
        mh_crashes = tuple(
            _build_entry(MhCrash, entry, "mh_crashes", i)
            for i, entry in enumerate(_entry_list(data, "mh_crashes"))
        )
        scalars = {
            key: data[key]
            for key in known - {"link_faults", "partitions", "crashes",
                                "mh_crashes"}
            if key in data
        }
        return cls(
            link_faults=link_faults,
            partitions=partitions,
            crashes=crashes,
            mh_crashes=mh_crashes,
            **scalars,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON string."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
