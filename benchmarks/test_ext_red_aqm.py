"""Extension benchmark: the CUBIC/BBR game under RED AQM.

Beyond the paper: its related work cites Chien & Sinclair's finding that
NE efficiency between TCP variants differs between drop-tail and RED
buffers, and §5 asks for "networking solutions that work well with a
diverse mix".  Here we rerun the NE search on the packet simulator under
RED and CoDel: both punish loss-based CUBIC (RED with early random
drops, CoDel by draining the standing queue CUBIC depends on) while
loss-agnostic BBRv1 shrugs them off, so the equilibrium should shift
toward BBR (i.e. *fewer* CUBIC flows at the NE than under drop-tail).
"""

from repro.core.game import GroupGame, bisect_nash
from repro.sim.network import FlowSpec, run_dumbbell
from repro.util.config import LinkConfig

N_FLOWS = 6
DURATION = 60.0


def _ne_search(discipline: str):
    link = LinkConfig.from_mbps_ms(10, 20, 6).with_aqm(discipline)

    def fn(k: int):
        flows = [FlowSpec("cubic") for _ in range(N_FLOWS - k)] + [
            FlowSpec("bbr") for _ in range(k)
        ]
        result = run_dumbbell(
            link, flows, duration=DURATION, warmup=DURATION / 6
        )
        cubic = result.by_cc("cubic")
        bbr = result.by_cc("bbr")
        mean = lambda fl: (
            sum(f.throughput for f in fl) / len(fl) if fl else 0.0
        )
        return mean(cubic), mean(bbr)

    tolerance = 0.03 * link.capacity  # Packet-sim trial noise.
    game = GroupGame(
        [N_FLOWS], lambda *states: [[fn(k)] for (k,) in states], tolerance
    )
    return bisect_nash(game)


def _all_disciplines():
    return {
        "droptail": _ne_search("droptail"),
        "red": _ne_search("red"),
        "codel": _ne_search("codel"),
    }


def test_ne_under_aqm(benchmark):
    rows = benchmark.pedantic(_all_disciplines, rounds=1, iterations=1)
    ne_droptail, _ = rows["droptail"]
    ne_red, _ = rows["red"]
    ne_codel, _ = rows["codel"]

    # Equilibria exist under every queue discipline.
    assert ne_droptail and ne_red and ne_codel

    # Both AQMs favour the loss-agnostic side: their NE have at least as
    # many BBR flows (fewer CUBIC) as drop-tail's.  RED drops early on
    # queue size; CoDel drops the buffer-filling flow's standing queue —
    # either way, CUBIC pays and BBRv1 does not.
    assert max(ne_red) >= max(ne_droptail)
    assert max(ne_codel) >= max(ne_droptail)
