#!/usr/bin/env python3
"""Anatomy of a BBR flow: watch the §2.1 state machine run.

Traces one BBR flow competing with one CUBIC flow through the
packet-level simulator and prints:

* the state-machine timeline (STARTUP → DRAIN → PROBE_BW with ProbeRTT
  dips every ~10 s),
* how BBR's RTT_min estimate gets bloated by CUBIC's buffer occupancy
  (Equation 9 — the effect the whole model hinges on),
* the resulting 2×BDP in-flight cap versus what the model predicts.

Run:  python examples/bbr_anatomy.py
"""

from repro import LinkConfig, predict_two_flow
from repro.obs import Telemetry
from repro.sim.network import DumbbellNetwork, FlowSpec

DURATION = 60.0
INTERVAL = 0.25


def main() -> None:
    link = LinkConfig.from_mbps_ms(20, 40, 5)
    print(f"bottleneck: {link.describe()}")
    print("flows: 1 CUBIC vs 1 BBR, 60 s\n")

    obs = Telemetry(sample_interval=INTERVAL)
    net = DumbbellNetwork(
        link, [FlowSpec("cubic"), FlowSpec("bbr")], obs=obs
    )
    result = net.run(DURATION, warmup=10)

    # 1. State timeline, compressed to transitions.
    print("BBR state timeline:")
    samples = [s for s in obs.samples if s["flow_id"] == 1]
    last_state = None
    durations = {}
    for sample in samples:
        state = sample["state"]
        if state != last_state:
            print(f"  {sample['time']:7.2f}s  -> {state}")
            last_state = state
        durations[state] = durations.get(state, 0.0) + INTERVAL
    total = sum(durations.values())
    print("\ntime in each state:")
    for state, seconds in sorted(durations.items(), key=lambda kv: -kv[1]):
        print(f"  {state:10} {seconds:6.1f}s  ({seconds / total:5.1%})")

    # 2. The RTT_min bloat (Equation 9).
    bbr = net.senders[1].cc
    pred = predict_two_flow(link)
    print(
        f"\nRTT_min estimate: {bbr.rtprop * 1e3:.1f} ms measured "
        f"(base {link.rtt_ms:.0f} ms; model's RTT+ "
        f"{pred.rtt_plus * 1e3:.1f} ms)"
    )
    print(
        "  → CUBIC's leftover queue during ProbeRTT inflates BBR's "
        "'minimum', raising its in-flight cap (Eq. 9)."
    )

    # 3. The cap vs the model (steady-state cwnd: max over the last
    #    half of the run, avoiding a post-ProbeRTT rebuild snapshot).
    steady = [
        s["cwnd"]
        for s in samples
        if s["time"] > DURATION / 2 and s["state"] == "PROBE_BW"
    ]
    cap = max(steady) if steady else bbr.cwnd
    print(
        f"\nsteady in-flight cap: {cap / 1500:.0f} packets "
        f"({cap / link.bdp_bytes:.2f} BDP of the base RTT — the model's "
        f"2×BDP of the *bloated* RTT)"
    )
    bbr_result = result.flows[1]
    print(
        f"measured BBR throughput: {bbr_result.throughput_mbps:.2f} Mbps "
        f"(model: {pred.bbr_bandwidth * 8 / 1e6:.2f} Mbps)"
    )
    print(
        f"measured CUBIC throughput: "
        f"{result.flows[0].throughput_mbps:.2f} Mbps"
    )


if __name__ == "__main__":
    main()
