"""Property-based tests (hypothesis): scenario schema round trips and
scenario-point identity."""

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ScenarioPoint
from repro.scenario import (
    BottleneckSpec,
    CoDelSpec,
    REDSpec,
    SampledTrace,
    StepsTrace,
)

FAST = settings(max_examples=50, deadline=None)

positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
aqms = st.one_of(
    st.none(),
    st.builds(
        REDSpec,
        min_frac=st.floats(min_value=0.05, max_value=0.4),
        max_frac=st.floats(min_value=0.5, max_value=1.0),
        max_p=st.floats(min_value=0.01, max_value=1.0),
        ecn=st.booleans(),
        seed=st.integers(0, 9),
    ),
    st.builds(
        CoDelSpec,
        target=st.floats(min_value=1e-3, max_value=1.0),
        interval=st.floats(min_value=1.5, max_value=1e3),
        ecn=st.booleans(),
    ),
)
traces = st.one_of(
    st.none(),
    st.lists(positive, min_size=1, max_size=4).map(
        lambda gaps: StepsTrace(
            steps=tuple(
                (sum(gaps[: i + 1]), scale)
                for i, scale in enumerate(gaps)
            )
        )
    ),
    st.builds(
        SampledTrace,
        period=positive,
        scales=st.lists(positive, min_size=1, max_size=4).map(tuple),
    ),
)
# Geometry as authored: integer buffer depths keep their spelling.
links = st.builds(
    BottleneckSpec,
    capacity=st.floats(min_value=1e4, max_value=1e9),
    rtt=st.floats(min_value=1e-3, max_value=1.0),
    buffer_bdp=st.one_of(st.integers(1, 64), positive),
    mss=st.integers(200, 9000),
    aqm=aqms,
    capacity_trace=traces,
)


def _fingerprint(link):
    return ScenarioPoint(link=link, mix=(("cubic", 1),)).fingerprint()


@FAST
@given(links)
def test_bottleneck_spec_round_trips_with_its_fingerprint(link):
    direct = BottleneckSpec.from_dict(link.to_dict())
    wired = BottleneckSpec.from_dict(json.loads(json.dumps(link.to_dict())))
    assert direct == link and wired == link
    assert _fingerprint(direct) == _fingerprint(wired) == _fingerprint(link)


LINK = BottleneckSpec.from_mbps_ms(20, 20, 3)
entries = st.tuples(
    st.sampled_from(["cubic", "bbr", "reno", "vegas"]),
    st.integers(1, 4),
    st.one_of(st.none(), st.floats(min_value=1e-3, max_value=0.5)),
)
scalars = st.fixed_dictionaries(
    {
        "duration": st.floats(min_value=1.0, max_value=300.0),
        "backend": st.sampled_from(["fluid", "packet"]),
        "seed": st.integers(0, 2**40),
        "loss_mode": st.sampled_from(["sync", "desync", "proportional"]),
    }
)
points = st.builds(
    lambda mix, kwargs: ScenarioPoint(link=LINK, mix=tuple(mix), **kwargs),
    st.lists(entries, min_size=1, max_size=4),
    scalars,
)


@FAST
@given(points, st.data())
def test_point_fingerprint_is_invariant_under_spelling(point, data):
    mix = []
    for cc, count, *rtt in point.mix:
        if data.draw(st.booleans()):
            mix.append(("reno", 0, data.draw(st.sampled_from([None, 0.02]))))
        if data.draw(st.booleans()):
            cc = cc.upper()
        if rtt or data.draw(st.booleans()):
            mix.append((cc, count, rtt[0] if rtt else None))
        else:
            mix.append((cc, count))
    spelled = ScenarioPoint(
        link=BottleneckSpec.from_dict(LINK.to_dict()),
        mix=mix,
        duration=point.duration,
        warmup=data.draw(st.sampled_from([None, point.duration / 6.0])),
        backend="fluid-vec" if point.backend == "fluid" else "packet",
        seed=point.seed,
        loss_mode=point.loss_mode,
    )
    assert spelled == point
    assert spelled.fingerprint() == point.fingerprint()


@FAST
@given(points, st.data())
def test_point_fingerprint_is_sensitive_to_every_input(point, data):
    cc, count, *rtt = point.mix[0]
    changes = [
        {"duration": point.duration + 1.0},
        {"warmup": point.warmup / 2.0},
        {"backend": "packet" if point.backend == "fluid" else "fluid"},
        {"seed": point.seed + 1},
        {"loss_mode": "desync" if point.loss_mode == "sync" else "sync"},
        {"link": LINK.with_buffer_bdp(4)},
        # An entry's RTT: set, or moved.
        {"mix": ((cc, count, rtt[0] * 2 if rtt else 0.07),) + point.mix[1:]},
        {"mix": ((cc, count + 1, *rtt),) + point.mix[1:]},
    ]
    if point.mix[::-1] != point.mix:
        changes.append({"mix": point.mix[::-1]})  # Order is identity.
    change = data.draw(st.sampled_from(changes))
    assert replace(point, **change).fingerprint() != point.fingerprint()
