#!/usr/bin/env python3
"""Internet evolution: adoption dynamics toward the Nash Equilibrium.

The paper's motivating story (§1): websites keep switching to whichever
congestion control gives them more throughput.  This example evolves
that process with ``repro.population`` — a heterogeneous internet of
RTT classes, each a cell of flows repeatedly choosing between CUBIC and
BBR under replicator dynamics, payoffs served by the tiered oracle
(closed-form model where trusted, fluid simulation where not) — and
shows the population converging to the mixed NE instead of going
all-BBR.

Run:  python examples/internet_evolution.py

Unlike the other examples, ``tests.smoke`` does not run this one: it
takes about 80 s on two cores, and its payoffs come from the tiered
oracle, which ROADMAP item 17 replaces with played payoff tables.  Its
claim is checked once that lands.
"""

from repro import LinkConfig, predict_nash
from repro.population import (
    CellSpec,
    DynamicsConfig,
    TieredOracle,
    run_population,
)


def evolve(n_flows: int = 100, ticks: int = 60) -> None:
    # A small heterogeneous internet: three RTT classes share the same
    # bottleneck class (100 Mbps, 5 BDP of buffer).
    cells = [
        CellSpec(
            link=LinkConfig.from_mbps_ms(100, rtt, buffer_bdp=5),
            n_flows=n_flows,
            label=f"rtt{rtt}ms",
        )
        for rtt in (20, 40, 80)
    ]
    total = sum(cell.n_flows for cell in cells)
    print(f"the internet: {len(cells)} RTT classes, {total} websites")
    for cell in cells:
        print(f"  {cell.describe()}")

    # Start from a CUBIC-dominant internet: 10% early BBR adopters.
    # Each tick, flows drift toward whichever CCA pays more (replicator
    # dynamics); the tiered oracle answers with the paper's closed-form
    # model, calibrated per region against the fluid substrate.
    print("\nevolving (replicator dynamics, tiered payoff oracle)...")
    result = run_population(
        cells,
        dynamics=DynamicsConfig(name="replicator", step=0.5),
        ticks=ticks,
        seed=42,
        init_share=0.1,
        oracle=TieredOracle(duration=30.0, seed=42),
    )

    print("\n tick  " + "  ".join(f"{c.label:>9}" for c in cells))
    for entry in result.trajectory[:: max(1, ticks // 12)]:
        shares = "  ".join(
            f"{row[-1]:9.3f}" for row in entry["shares"]
        )
        print(f"  {entry['tick']:3d}  {shares}")

    print("\nfinal BBR share per class (vs model NE, Eq. 25):")
    for i, cell in enumerate(cells):
        ne = predict_nash(cell.link, cell.n_flows)
        print(
            f"  {cell.label}: {result.final_shares[i][-1]:.3f} "
            f"(predicted {ne.n_bbr_sync / cell.n_flows:.3f}-"
            f"{ne.n_bbr_desync / cell.n_flows:.3f})"
        )
    final = result.final_share("bbr")
    stats = result.oracle
    print(
        f"\noverall BBR share: {final:.3f}  "
        + ("(converged)" if result.converged else "(still moving)")
    )
    print(
        f"oracle: {stats['queries']} payoff queries, "
        f"tier0 {stats['tier0']} / tier1 {stats['tier1']}, "
        f"{stats['sim_points']} simulation points"
    )
    if final < 0.99:
        print(
            "\n→ BBR did NOT take over: past the equilibrium, switching "
            "to BBR costs throughput."
        )


def main() -> None:
    evolve()


if __name__ == "__main__":
    main()
