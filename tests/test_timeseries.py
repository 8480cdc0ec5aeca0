"""A fluid run's time series, read from its telemetry bus."""

from tests.test_trace import assert_cubic_sawtooth


def test_fluid_cubic_trace_shows_sawtooth():
    """End-to-end: a CUBIC fluid flow's recorded backoffs show the
    multiplicative-decrease sawtooth with the 0.3 drop."""
    from repro.fluidsim import FluidSimulation, FluidSpec
    from repro.obs import Telemetry
    from repro.util.config import LinkConfig

    link = LinkConfig.from_mbps_ms(50, 40, 3)
    obs = Telemetry()
    sim = FluidSimulation(link, [FluidSpec("cubic")], obs=obs)
    sim.run(60)
    assert_cubic_sawtooth(obs, floor=2 * link.mss)
