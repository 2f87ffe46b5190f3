"""The three-parameter cost model of the paper's system model (Section 2)."""

from __future__ import annotations

from repro.errors import ConfigurationError, require_number

_FIELDS = ("c_fixed", "c_wireless", "c_search")


class CostModel:
    """Message costs in the mobile system model.

    Attributes:
        c_fixed: cost of a point-to-point message between two fixed
            hosts (MSSs) over the static network.
        c_wireless: cost of one message over the wireless hop between a
            MH and its local MSS (either direction).
        c_search: cost to locate a MH and forward a message to its
            current local MSS.  The paper requires
            ``c_search >= c_fixed``; in the worst case a source MSS
            contacts each of the other M-1 MSSs.

    The defaults make search an order of magnitude more expensive than a
    fixed message and the wireless hop several times a fixed message,
    reflecting the paper's qualitative assumptions (low-bandwidth
    wireless links, costly search).  A model is a value: immutable,
    hashable and equal by its three costs.
    """

    __slots__ = _FIELDS

    def __init__(self, c_fixed: float = 1.0, c_wireless: float = 5.0,
                 c_search: float = 10.0) -> None:
        values = (c_fixed, c_wireless, c_search)
        for name, value in zip(_FIELDS, values):
            require_number(f"CostModel.{name}", value)
        if c_fixed < 0 or c_wireless < 0 or c_search < 0:
            raise ConfigurationError("costs must be nonnegative")
        if c_search < c_fixed:
            raise ConfigurationError(
                f"the system model requires c_search >= c_fixed "
                f"(got {c_search} < {c_fixed})"
            )
        for name, value in zip(_FIELDS, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.c_fixed, self.c_wireless, self.c_search

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CostModel is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CostModel is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"CostModel(c_fixed={self.c_fixed!r}, "
                f"c_wireless={self.c_wireless!r}, "
                f"c_search={self.c_search!r})")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def worst_case_search(self, n_mss: int) -> float:
        """Worst-case search cost: probing each of the other M-1 MSSs."""
        if n_mss < 1:
            raise ConfigurationError("n_mss must be >= 1")
        return (n_mss - 1) * self.c_fixed

    def mh_to_mh(self) -> float:
        """Cost of a MH -> MH message: ``2*c_wireless + c_search``."""
        return 2 * self.c_wireless + self.c_search

    def mss_to_remote_mh(self) -> float:
        """Cost of a MSS -> non-local MH message:
        ``c_search + c_wireless``."""
        return self.c_search + self.c_wireless
