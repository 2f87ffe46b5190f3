"""A1 -- prices Section 2's abstract search: ``C_search >= C_fixed``.

The paper prices "locate a MH and forward a message to its current
MSS" as a scalar ``C_search >= C_fixed`` and notes the worst case
contacts each of the other M-1 MSSs.  This ablation runs the same
delivery under three search protocols:

* the abstract scalar (the paper's accounting);
* a measured broadcast search -- M-1 parallel queries + 1 reply + 1
  forward, all priced at ``C_fixed`` -- whose empirical cost brackets
  the paper's worst case and grows linearly in M;
* a measured home-agent search (mobile-IP style, the paper's refs
  [6]/[10]) -- constant 3 messages per search plus per-move maintenance
  traffic: the single-destination version of Section 4's search/inform
  trade-off.
"""

from __future__ import annotations

from repro import Category
from repro.net.messages import Message

from conftest import COSTS, make_sim, print_table


def run_delivery(search: str, m: int, deliveries: int = 4,
                 moves: int = 4):
    sim = make_sim(n_mss=m, n_mh=2, search=search,
                   placement=[0, 1])
    sim.mh(1).register_handler("a1.msg", lambda msg: None)
    received = [0]
    before = sim.metrics.snapshot()
    for i in range(moves):
        sim.mh(1).move_to(f"mss-{(i + 2) % m}")
        sim.drain()
    for i in range(deliveries):
        sim.network.send_to_mh(
            "mss-0", "mh-1",
            Message(kind="a1.msg", src="mss-0", dst="mh-1",
                    payload=i, scope="a1"),
            on_delivered=lambda msg: received.__setitem__(
                0, received[0] + 1
            ),
        )
        sim.drain()
    delta = sim.metrics.since(before)
    search_cost = (
        delta.total(Category.SEARCH, "a1") * COSTS.c_search
        + delta.total(Category.SEARCH_PROBE, "a1") * COSTS.c_fixed
    )
    maintenance = delta.total(Category.FIXED, "search-maintenance")
    return {
        "received": received[0],
        "search_cost_per_delivery": search_cost / deliveries,
        "probes": delta.total(Category.SEARCH_PROBE, "a1"),
        "maintenance_msgs": maintenance,
    }


def test_a1_search_protocol_ablation(benchmark):
    m = 8
    abstract = run_delivery("abstract", m)
    broadcast = run_delivery("broadcast", m)
    home = benchmark(run_delivery, "home-agent", m)

    rows = [
        ("abstract C_search", abstract["search_cost_per_delivery"],
         0, 0),
        ("broadcast (measured)", broadcast["search_cost_per_delivery"],
         broadcast["probes"], 0),
        ("home-agent (measured)", home["search_cost_per_delivery"],
         home["probes"], home["maintenance_msgs"]),
    ]
    print_table(
        f"A1: search cost per remote delivery, M={m}",
        ["protocol", "cost/delivery", "probes", "maintenance"],
        rows,
    )
    for result in (abstract, broadcast, home):
        assert result["received"] == 4
    # The abstract charge is exactly C_search.
    assert abstract["search_cost_per_delivery"] == COSTS.c_search
    # Broadcast: (M-1) queries + 1 reply + 1 forward per delivery.
    assert broadcast["probes"] == 4 * ((m - 1) + 1 + 1)
    # Its empirical cost is within the paper's worst-case regime:
    # >= C_fixed and around (M-1)*C_fixed.
    assert broadcast["search_cost_per_delivery"] >= COSTS.c_fixed
    assert broadcast["search_cost_per_delivery"] == \
        (m + 1) * COSTS.c_fixed
    # Home agent: constant 3 messages per delivery, independent of M...
    assert home["search_cost_per_delivery"] == 3 * COSTS.c_fixed
    # ...but it pays maintenance on every move (mh-1's home, mss-7, is
    # none of the four cells it moves to).
    assert home["maintenance_msgs"] == 4


def test_a1_full_spectrum_of_protocols(benchmark):
    """The search/inform spectrum: from never-inform (broadcast,
    caching) through region-crossings-only (regional) to every-move
    (home agent)."""
    from repro.net.regional_search import RegionalSearch

    m = 8

    def run_named(protocol):
        from repro.net.messages import Message
        sim = make_sim(n_mss=m, n_mh=2, search=protocol,
                       placement=[0, 1])
        sim.mh(1).register_handler("a1.msg", lambda msg: None)
        before = sim.metrics.snapshot()
        for i in range(4):
            sim.mh(1).move_to(f"mss-{(i + 2) % m}")
            sim.drain()
        for i in range(4):
            sim.network.send_to_mh(
                "mss-0", "mh-1",
                Message(kind="a1.msg", src="mss-0", dst="mh-1",
                        payload=i, scope="a1"),
            )
            sim.drain()
        delta = sim.metrics.since(before)
        return {
            "search_cost": (
                delta.total(Category.SEARCH, "a1") * COSTS.c_search
                + delta.total(Category.SEARCH_PROBE, "a1")
                * COSTS.c_fixed
            ) / 4,
            "maintenance": delta.total(
                Category.FIXED, "search-maintenance"
            ),
        }

    results = {
        "broadcast": run_named("broadcast"),
        "caching": run_named("caching"),
        "regional(R=2)": run_named(RegionalSearch(region_size=2)),
        "home-agent": benchmark(run_named, "home-agent"),
    }
    rows = [
        (name, r["search_cost"], r["maintenance"])
        for name, r in results.items()
    ]
    print_table(
        f"A1c: the search/inform spectrum, M={m} "
        f"(4 moves then 4 deliveries)",
        ["protocol", "search cost/delivery", "maintenance msgs"],
        rows,
    )
    # Maintenance ordering: never <= region-crossings <= every move.
    assert results["broadcast"]["maintenance"] == 0
    assert results["caching"]["maintenance"] == 0
    assert 0 < results["regional(R=2)"]["maintenance"] <= \
        results["home-agent"]["maintenance"]
    # Search-cost ordering is the reverse.
    assert results["home-agent"]["search_cost"] <= \
        results["regional(R=2)"]["search_cost"]
    assert results["regional(R=2)"]["search_cost"] < \
        results["broadcast"]["search_cost"]


def test_a1_broadcast_scales_with_m_home_agent_does_not(benchmark):
    sizes = (4, 8, 16)
    broadcast = {m: run_delivery("broadcast", m) for m in sizes}
    home = {m: run_delivery("home-agent", m) for m in sizes[:-1]}
    home[sizes[-1]] = benchmark(run_delivery, "home-agent", sizes[-1])
    rows = [
        (m, broadcast[m]["search_cost_per_delivery"],
         home[m]["search_cost_per_delivery"])
        for m in sizes
    ]
    print_table(
        "A1b: search cost per delivery vs M",
        ["M", "broadcast", "home-agent"],
        rows,
    )
    costs_b = [broadcast[m]["search_cost_per_delivery"] for m in sizes]
    costs_h = [home[m]["search_cost_per_delivery"] for m in sizes]
    assert costs_b == sorted(costs_b) and costs_b[0] < costs_b[-1]
    assert len(set(costs_h)) == 1  # constant in M
