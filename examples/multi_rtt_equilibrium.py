#!/usr/bin/env python3
"""Multi-RTT Nash Equilibrium: who ends up on CUBIC?

§4.5 of the paper: when flows with different base RTTs share a
bottleneck, Nash Equilibria still exist — and the flows that choose
CUBIC at the NE are always the *shortest-RTT* flows (CUBIC favours short
RTTs, BBR favours long ones).  This example runs the group game for
three RTT classes and prints the equilibrium composition.

Run:  python examples/multi_rtt_equilibrium.py
"""

from repro.core.game import GroupGame
from repro.experiments.runner import group_payoff_fn
from repro.util.config import LinkConfig


def main() -> None:
    rtts = [0.010, 0.030, 0.050]      # 10 / 30 / 50 ms classes.
    sizes = [3, 3, 3]
    # Buffer normalized to the shortest RTT's BDP, as in the paper.
    link = LinkConfig.from_mbps_ms(100, 10, buffer_bdp=10)
    print(f"bottleneck: {link.describe()}")
    classes = [f"{r * 1e3:g}ms x{s}" for r, s in zip(rtts, sizes)]
    print(f"flow classes: {classes}\n")

    payoff = group_payoff_fn(link, rtts, sizes, duration=90, seed=1)
    game = GroupGame(sizes, payoff)

    # Best-response descent from two extreme starting points; each
    # step asks for a state and its neighbours as one engine batch.
    print("best-response dynamics (state = #BBR per RTT class):")
    starts = [(0, 1, 3), (3, 3, 3)]
    for start in starts:
        path = game.best_response_path(start)
        print(f"  from {start}: " + " -> ".join(map(str, path)))

    equilibria = game.settle(starts)
    if not game.is_nash(equilibria[0]):
        print("\n(no exact NE among endpoints; reporting the last state)")

    for state in equilibria:
        print(f"\nNash Equilibrium state {state}:")
        [payoffs] = game.payoffs(state)
        for g, (rtt, size) in enumerate(zip(rtts, sizes)):
            n_bbr = state[g]
            n_cubic = size - n_bbr
            cubic_tput, bbr_tput = payoffs[g]
            parts = []
            if n_cubic:
                parts.append(
                    f"{n_cubic} CUBIC @ {cubic_tput * 8 / 1e6:.1f} Mbps"
                )
            if n_bbr:
                parts.append(
                    f"{n_bbr} BBR @ {bbr_tput * 8 / 1e6:.1f} Mbps"
                )
            print(f"  {rtt * 1e3:4.0f} ms class: " + ", ".join(parts))
    print(
        "\n→ the short-RTT class stays on CUBIC, the long-RTT class "
        "switches to BBR: each algorithm's RTT bias picks its users."
    )


if __name__ == "__main__":
    main()
