#!/usr/bin/env python3
"""Three eras of congestion control as three games.

§5 of the paper ("Incentives to switch to better congestion control"):

* CUBIC replaced New Reno because it was simply more aggressive — a
  Reno flow always gains by switching, so the game's only equilibrium
  is all-CUBIC: full replacement.
* Vegas never displaced Reno for the opposite reason: it concedes to
  buffer-fillers, so nobody gains by switching *to* it.
* BBR vs CUBIC is different: the advantage self-limits, the equilibrium
  is mixed — hence the paper's prediction that BBR will NOT fully
  replace CUBIC.

This example plays all three games on the fluid simulator and prints
each one's equilibrium structure.

Run:  python examples/cca_transitions.py
"""

from repro import LinkConfig
from repro.core.game import GroupGame, ThroughputTable
from repro.experiments.runner import distribution_payoff_fn

N_FLOWS = 8
DURATION = 100.0


def play(link, incumbent: str, challenger: str, seed: int = 21):
    payoff = distribution_payoff_fn(
        link,
        N_FLOWS,
        challenger=challenger,
        incumbent=incumbent,
        duration=DURATION,
        backend="fluid",
        seed=seed,
    )
    # All nine distributions are one engine batch.
    table = ThroughputTable.from_game(GroupGame([N_FLOWS], payoff))
    tolerance = 0.02 * link.capacity / N_FLOWS
    equilibria = [k for (k,) in table.game(tolerance).nash_equilibria()]
    print(f"\n=== {incumbent.upper()} vs {challenger.upper()} ===")
    print(f"  #{challenger}  {incumbent}/flow  {challenger}/flow  (Mbps)")
    for k in range(N_FLOWS + 1):
        inc = table.lambda_a[k] * 8 / 1e6
        cha = table.lambda_b[k] * 8 / 1e6
        tag = "  <-- NE" if k in equilibria else ""
        print(f"  {k:4d}  {inc:12.2f}  {cha:15.2f}{tag}")
    if equilibria == [N_FLOWS]:
        verdict = f"full replacement: everyone switches to {challenger}"
    elif equilibria == [0]:
        verdict = f"no adoption: {challenger} never pays off"
    elif any(0 < k < N_FLOWS for k in equilibria):
        verdict = "mixed equilibrium: both CCAs coexist"
    else:
        verdict = "boundary equilibria only"
    print(f"  → {verdict}")
    return equilibria


def main() -> None:
    link = LinkConfig.from_mbps_ms(100, 40, 3)
    print(f"bottleneck: {link.describe()}, {N_FLOWS} flows per game")

    # Era 1 (the 2000s): Reno-dominant Internet meets CUBIC.
    play(link, incumbent="reno", challenger="cubic")

    # The road not taken: Reno-dominant Internet meets Vegas.
    play(link, incumbent="reno", challenger="vegas")

    # Era 3 (now): CUBIC-dominant Internet meets BBR — the paper's game.
    play(link, incumbent="cubic", challenger="bbr")

    print(
        "\nThe paper's point in one table each: aggression without "
        "self-limitation (CUBIC vs Reno) replaces the incumbent; "
        "politeness (Vegas) never gets adopted; BBR's self-limiting "
        "aggression stops in the middle — a mixed Internet."
    )


if __name__ == "__main__":
    main()
